"""Network architectures and training losses.

ToothSegNet is the stage-1 graph segmentation network: a shared MLP lifts
the 15 per-cell features to 64 channels, a learned 64x64 feature transform
canonicalizes them, then two graph-pooling stages (EdgeConv over kNN
graphs, k=6 and a parallel k=6/k=12 pair at 512 channels) feed a dense
fusion of local, transformed, and globally pooled features into the
per-cell classification head. All pointwise convs carry batch norm and
ReLU except the final one.

Each ConvBlock (pointwise conv, batch norm, ReLU) is one fused op, like
each EdgeConv: autodiff.conv_bn_relu works in the conv's output buffer
and keeps only the normalized activations for the backward. BatchNorm
only holds a layer's scale, shift and running buffers.

Each EdgeConv is one fused op: conv, batch norm over the edges, ReLU and
the max over a cell's neighbors. Because BN is affine per channel and ReLU
monotone, the max is the response to a single neighbor per channel (the
least or greatest neighbor term by the sign of the BN scale, the lowest
slot on ties), so no (N*k, C) edge tensor is built in training or in
inference.

PointHeatmapNet is the stage-2 regressor: a PointNet-style segmentation
trunk over the same 15 features with a sigmoid head, one output column per
landmark heatmap. GraphHeatmapNet reuses the ToothSegNet trunk with the
sigmoid head for the architecture comparison.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import BatchNormState, Parameter, Tensor
from .errors import CheckpointError, ShapeError

NUM_CLASSES = 15  # gingiva + 14 teeth
GDL_SMOOTH = 1e-5


# ---------------------------------------------------------------------------
# module plumbing

class Module:
    """Base with recursive parameter/buffer discovery in insertion order."""

    def _named(self, kind: type, prefix: str = "") -> list:
        """(dotted path, value) of every `kind` attribute, depth first."""
        out = []
        for attr, value in vars(self).items():
            path = f"{prefix}{attr}"
            if isinstance(value, kind):
                out.append((path, value))
            elif isinstance(value, Module):
                out.extend(value._named(kind, f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item._named(kind, f"{path}.{i}."))
        return out

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return self._named(Parameter)

    def named_buffers(self) -> list[tuple[str, BatchNormState]]:
        return self._named(BatchNormState)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: p.data for name, p in self.named_parameters()}
        for name, state in self.named_buffers():
            out[f"{name}.running_mean"] = state.mean
            out[f"{name}.running_var"] = state.var
            out[f"{name}.steps"] = np.array([float(state.steps)])
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        expected = self.state_arrays()
        if set(arrays.keys()) != set(expected.keys()):
            missing = sorted(set(expected) - set(arrays))[:3]
            extra = sorted(set(arrays) - set(expected))[:3]
            raise CheckpointError(
                f"state keys do not match architecture (missing {missing}, extra {extra})"
            )
        for name, p in self.named_parameters():
            if arrays[name].shape != p.data.shape:
                raise CheckpointError(
                    f"parameter {name}: checkpoint shape {arrays[name].shape} "
                    f"!= model shape {p.data.shape}"
                )
            p.data = arrays[name].astype(np.float64).copy()
        for name, state in self.named_buffers():
            state.mean = arrays[f"{name}.running_mean"].reshape(state.mean.shape).copy()
            state.var = arrays[f"{name}.running_var"].reshape(state.var.shape).copy()
            state.steps = int(arrays[f"{name}.steps"][0])


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Conv1x1(Module):
    """Shared pointwise linear layer: every cell through the same weights."""

    def __init__(self, rng, cin: int, cout: int, name: str = "conv"):
        self.weight = Parameter(_glorot(rng, cin, cout), f"{name}.weight")
        self.bias = Parameter(np.zeros(cout), f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)


class BatchNorm(Module):
    """Scale, shift and running buffers of one batch norm; the fused op
    that owns it (conv_bn_relu or edge_conv) applies it."""

    def __init__(self, channels: int, name: str = "bn"):
        self.gamma = Parameter(np.ones(channels), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}.beta")
        self.state = BatchNormState(channels)


class ConvBlock(Module):
    """Pointwise conv + batch norm + ReLU, one fused op (autodiff.conv_bn_relu)."""

    def __init__(self, rng, cin: int, cout: int, name: str = "block"):
        self.conv = Conv1x1(rng, cin, cout, name)
        self.bn = BatchNorm(cout, name)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        conv, bn = self.conv, self.bn
        return ad.conv_bn_relu(x, conv.weight, conv.bias, bn.gamma, bn.beta, bn.state,
                               training)


class Dense(Module):
    """Linear on the pooled (1, C) row; optionally ReLU."""

    def __init__(self, rng, cin: int, cout: int, name: str = "dense",
                 activation: bool = True):
        self.weight = Parameter(_glorot(rng, cin, cout), f"{name}.weight")
        self.bias = Parameter(np.zeros(cout), f"{name}.bias")
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.add(ad.matmul(x, self.weight), self.bias)
        return ad.relu(out) if self.activation else out


class EdgeConv(Module):
    """Single shared conv on (center - neighbor, center) pairs, BN, ReLU,
    then a per-cell max over the neighbor list, as one fused op.

    The conv is evaluated at cell level (a linear map distributes over the
    subtraction): p = x W_diff and a = p + x W_center + bias, so the edge to
    neighbor j carries a_i - p_j. BN is affine per channel and ReLU
    monotone, so the max over the neighbors is the response to the one
    neighbor with the least p_j where gamma > 0, the greatest where
    gamma < 0, and slot 0 where gamma == 0, ties going to the lowest slot.
    Training-mode BN statistics over all N*k edges come from per-cell sums.
    Training and inference share this path, and neither forms an (N*k, C)
    edge tensor (see autodiff.edge_conv).
    """

    def __init__(self, rng, cin: int, cout: int, name: str = "edgeconv"):
        # rows 0..cin-1 act on the difference, rows cin..2cin-1 on the center
        self.weight = Parameter(_glorot(rng, 2 * cin, cout), f"{name}.weight")
        self.bias = Parameter(np.zeros(cout), f"{name}.bias")
        self.bn = BatchNorm(cout, name)

    def __call__(self, x: Tensor, graph, training: bool) -> Tensor:
        nbrs = getattr(graph, "neighbors", graph)
        bn = self.bn
        return ad.edge_conv(x, self.weight, self.bias, bn.gamma, bn.beta, bn.state,
                            nbrs, training)


# ---------------------------------------------------------------------------
# feature transform

class FeatureTransform(Module):
    """Predicts a 64x64 matrix from the 64-channel features, PointNet style.

    Convs (64, 128, 1024), global max pool, dense (512, 256), and a final
    dense layer initialized to emit the identity matrix.
    """

    def __init__(self, rng, channels: int = 64):
        self.channels = channels
        self.conv1 = ConvBlock(rng, channels, 64, "ftm.conv1")
        self.conv2 = ConvBlock(rng, 64, 128, "ftm.conv2")
        self.conv3 = ConvBlock(rng, 128, 1024, "ftm.conv3")
        self.fc1 = Dense(rng, 1024, 512, "ftm.fc1")
        self.fc2 = Dense(rng, 512, 256, "ftm.fc2")
        self.out = Dense(rng, 256, channels * channels, "ftm.out", activation=False)
        self.out.weight.data[:] = 0.0
        self.out.bias.data = np.eye(channels, dtype=np.float64).reshape(-1)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv3(self.conv2(self.conv1(x, training), training), training)
        g = ad.global_max_pool(h)
        t = self.out(self.fc2(self.fc1(g)))
        return ad.reshape(t, (self.channels, self.channels))


# ---------------------------------------------------------------------------
# networks

class ToothSegNet(Module):
    """Stage-1 segmentation network; head selects softmax or sigmoid.

    forward() consumes the (N, 15) feature tensor plus the two kNN graphs
    (k_small and k_large, 6 and 12 by default) and returns (N, out_channels).
    With the softmax head the rows are probability distributions over
    gingiva + 14 teeth. The graphs are fixed for a scan: both come from the
    cell barycenters, not from the features.
    """

    uses_graphs = True

    def __init__(self, seed: int = 0, out_channels: int = NUM_CLASSES,
                 head: str = "softmax"):
        if head not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown head {head!r}")
        rng = np.random.default_rng(seed)
        self.out_channels = out_channels
        self.head = head
        self.mlp1 = [ConvBlock(rng, geometry.FEATURE_DIM, 64, "mlp1.0"),
                     ConvBlock(rng, 64, 64, "mlp1.1")]
        self.ftm = FeatureTransform(rng, 64)
        self.glm1 = EdgeConv(rng, 64, 64, name="glm1")
        self.mlp2 = [ConvBlock(rng, 64, 64, "mlp2.0"),
                     ConvBlock(rng, 64, 128, "mlp2.1"),
                     ConvBlock(rng, 128, 512, "mlp2.2")]
        self.glm2_k6 = EdgeConv(rng, 512, 512, name="glm2.k6")
        self.glm2_k12 = EdgeConv(rng, 512, 512, name="glm2.k12")
        self.glm2_fuse = ConvBlock(rng, 1024, 512, "glm2.fuse")
        self.mlp3 = [ConvBlock(rng, 1152, 256, "mlp3.0"),
                     ConvBlock(rng, 256, 128, "mlp3.1")]
        self.head_conv = Conv1x1(rng, 128, out_channels, "head")

    def arch_tag(self) -> str:
        return (f"tooth-seg-net/v1 in={geometry.FEATURE_DIM} out={self.out_channels} "
                f"head={self.head}")

    def forward(self, features: Tensor, graph6, graph12,
                training: bool = False) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(features)
        n = x.data.shape[0]
        for graph in (graph6, graph12):
            if graph.num_cells != n:
                raise ShapeError(
                    f"k={graph.k} graph has {graph.num_cells} rows for {n} feature rows"
                )
        for block in self.mlp1:
            x = block(x, training)
        transform = self.ftm(x, training)
        x = ad.matmul(x, transform)
        g1 = self.glm1(x, graph6, training)
        h = g1
        for block in self.mlp2:
            h = block(h, training)
        e6 = self.glm2_k6(h, graph6, training)
        e12 = self.glm2_k12(h, graph12, training)
        g2 = self.glm2_fuse(ad.concat([e6, e12], axis=1), training)
        pooled = ad.broadcast_tile(ad.global_max_pool(g2), n)
        fused = ad.concat([x, g1, g2, pooled], axis=1)
        for block in self.mlp3:
            fused = block(fused, training)
        logits = self.head_conv(fused)
        if self.head == "softmax":
            return ad.softmax_rows(logits)
        return ad.sigmoid(logits)

    __call__ = forward


class PointHeatmapNet(Module):
    """Stage-2 heatmap regressor: pointwise trunk, global context, sigmoid.

    Local convs (64, 64), trunk convs (64, 128, 1024), global max pool
    tiled back and concatenated with the 64-channel local features, head
    convs (512, 256, 128) and a final conv with sigmoid, one column per
    landmark of the tooth the model serves.
    """

    uses_graphs = False

    def __init__(self, seed: int = 0, out_channels: int = 1):
        rng = np.random.default_rng(seed)
        self.out_channels = out_channels
        self.local = [ConvBlock(rng, geometry.FEATURE_DIM, 64, "local.0"),
                      ConvBlock(rng, 64, 64, "local.1")]
        self.trunk = [ConvBlock(rng, 64, 64, "trunk.0"),
                      ConvBlock(rng, 64, 128, "trunk.1"),
                      ConvBlock(rng, 128, 1024, "trunk.2")]
        self.headc = [ConvBlock(rng, 1088, 512, "head.0"),
                      ConvBlock(rng, 512, 256, "head.1"),
                      ConvBlock(rng, 256, 128, "head.2")]
        self.out = Conv1x1(rng, 128, out_channels, "out")

    def arch_tag(self) -> str:
        return f"point-heatmap-net/v1 in={geometry.FEATURE_DIM} out={self.out_channels}"

    def forward(self, features: Tensor, training: bool = False) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(features)
        n = x.data.shape[0]
        for block in self.local:
            x = block(x, training)
        h = x
        for block in self.trunk:
            h = block(h, training)
        pooled = ad.broadcast_tile(ad.global_max_pool(h), n)
        h = ad.concat([x, pooled], axis=1)
        for block in self.headc:
            h = block(h, training)
        return ad.sigmoid(self.out(h))

    __call__ = forward


def make_graph_heatmap_net(seed: int, out_channels: int) -> ToothSegNet:
    """Segmentation trunk with a sigmoid heatmap head (architecture ablation)."""
    return ToothSegNet(seed=seed, out_channels=out_channels, head="sigmoid")


# ---------------------------------------------------------------------------
# losses

def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], NUM_CLASSES), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def generalized_dice_loss(probs: Tensor, target_onehot: np.ndarray) -> Tensor:
    """Generalized Dice loss with inverse squared class-volume weights.

    Classes absent from the target get weight 0 (their volume is zero and
    the inverse-square weight would be infinite). Value lies in [0, 1]; a
    perfect prediction scores 0.
    """
    target = np.asarray(target_onehot, dtype=np.float64)
    if probs.data.shape != target.shape:
        raise ValueError(
            f"probs shape {probs.data.shape} != target shape {target.shape}"
        )
    vol = target.sum(axis=0)
    weight = np.where(vol > 0, 1.0 / np.maximum(vol, 1.0) ** 2, 0.0)
    inter = ad.reduce_sum(ad.mul(probs, target), axis=0)
    total = ad.add(ad.reduce_sum(probs, axis=0), vol)
    num = ad.add(ad.mul(ad.reduce_sum(ad.mul(inter, weight)), 2.0), GDL_SMOOTH)
    den = ad.add(ad.reduce_sum(ad.mul(total, weight)), GDL_SMOOTH)
    return ad.sub(1.0, ad.div(num, den))


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all entries."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ValueError(
            f"pred shape {pred.data.shape} != target shape {target.shape}"
        )
    diff = ad.sub(pred, target)
    return ad.reduce_mean(ad.mul(diff, diff))
