"""Network architectures and training losses.

ToothSegNet is the stage-1 graph segmentation network: a shared MLP lifts
the 15 per-cell features to 64 channels, then two graph-pooling stages
(EdgeConv over kNN graphs, k=6 and a parallel k=6/k=12 pair at 512
channels) feed a dense fusion of the local and graph-pooled features into
the per-cell classification head. MeshSegNet's 64x64 feature transform
between the MLP and the first graph stage is left out: it held half the
net's parameters and, measured, did not raise the held-out DSC. All
pointwise convs carry batch norm and ReLU except the final one.

Batch norm normalizes every cloud (one scan, or one tooth ROI) by its own
statistics, in training and inference alike, and keeps no running
buffers. It subtracts whatever is the same for every cell of the cloud, so
the nets hold nothing of that kind: no conv in front of a batch norm has a
bias, and neither net tiles a globally pooled row back onto the cells as
MeshSegNet and PointNet do, since the next batch norm would cancel it.
Only the two output convs keep a bias. A forward's `training` flag means
"record the graph for backward"; with it off the forward runs under
no_grad and computes the same values.

Each ConvBlock (pointwise conv, batch norm, ReLU) is one fused op, like
each EdgeConv: autodiff.conv_bn_relu works in the conv's output buffer
and keeps only the normalized activations for the backward. BatchNorm
only holds a layer's scale and shift.

Each EdgeConv is one fused op: conv, batch norm over the edges, ReLU and
the max over a cell's neighbors. Because BN is affine per channel and ReLU
monotone, the max is the response to a single neighbor per channel (the
least or greatest neighbor term by the sign of the BN scale, the lowest
slot on ties), so no (N*k, C) edge tensor is built.

Both nets hold float32 parameters and compute forward, backward and the
optimizer step in float32: the constructors draw every Glorot weight in
float64, as the init stream always has, and round it once, and forward
casts the features to the parameters' dtype. A layer built on its own
keeps float64, and a net whose parameters are widened computes in
float64, which is how the tests compare a net with its float64
reference. Checkpoints store the values as float64 and load them in the
parameters' dtype.

PointHeatmapNet is the stage-2 regressor: a PointNet-style pointwise net
over the same 15 features with a sigmoid head, one output column per
landmark heatmap. GraphHeatmapNet reuses the ToothSegNet layers with the
sigmoid head for the architecture comparison.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Parameter, Tensor
from .errors import CheckpointError, ShapeError

NUM_CLASSES = 15  # gingiva + 14 teeth
GDL_SMOOTH = 1e-5
# of both nets' arch tags; v1 nets carried running buffers, v2 seg nets the
# feature transform
ARCH_VERSION = "v3"
PARAM_DTYPE = np.float32  # what both nets hold and compute in


# ---------------------------------------------------------------------------
# module plumbing

class Module:
    """Base with recursive parameter discovery in insertion order."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """(dotted path, parameter) of every parameter, depth first."""
        out = []
        for attr, value in vars(self).items():
            path = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                out.append((path, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{path}.{i}."))
        return out

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

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
            p.data = arrays[name].astype(p.data.dtype)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _round_parameters(net: Module) -> None:
    """Rounds a new net's float64 draws once to PARAM_DTYPE."""
    for p in net.parameters():
        p.data = p.data.astype(PARAM_DTYPE)


def _input(features, net: Module) -> Tensor:
    """The features as a tensor in the dtype of the net's parameters."""
    data = features.data if isinstance(features, Tensor) else features
    return Tensor(np.asarray(data, dtype=net.parameters()[0].data.dtype))


def _recording(training: bool):
    """The context of a net's forward: a graph is recorded only in training."""
    return nullcontext() if training else ad.no_grad()


class Conv1x1(Module):
    """Shared pointwise linear layer with a bias: an output head, the one
    pointwise conv that no batch norm follows."""

    def __init__(self, rng, cin: int, cout: int):
        self.weight = Parameter(_glorot(rng, cin, cout))
        self.bias = Parameter(np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)


class BatchNorm(Module):
    """Scale and shift of one batch norm; the fused op that owns it
    (conv_bn_relu or edge_conv) applies it."""

    def __init__(self, channels: int):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))


class ConvBlock(Module):
    """Pointwise conv (no bias) + batch norm + ReLU, one fused op
    (autodiff.conv_bn_relu)."""

    def __init__(self, rng, cin: int, cout: int):
        self.weight = Parameter(_glorot(rng, cin, cout))
        self.bn = BatchNorm(cout)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv_bn_relu(x, self.weight, self.bn.gamma, self.bn.beta)


class EdgeConv(Module):
    """Single shared conv on (center - neighbor, center) pairs, BN, ReLU,
    then a per-cell max over the neighbor list, as one fused op.

    The conv is evaluated at cell level (a linear map distributes over the
    subtraction): p = x W_diff and a = p + x W_center, so the edge to
    neighbor j carries a_i - p_j. BN is affine per channel and ReLU
    monotone, so the max over the neighbors is the response to the one
    neighbor with the least p_j where gamma > 0, the greatest where
    gamma < 0, and slot 0 where gamma == 0, ties going to the lowest slot.
    BN statistics over all N*k edges come from per-cell sums, and no
    (N*k, C) edge tensor is formed (see autodiff.edge_conv). The conv has
    no bias, since BN over the edges would cancel it.
    """

    def __init__(self, rng, cin: int, cout: int):
        # rows 0..cin-1 act on the difference, rows cin..2cin-1 on the center
        self.weight = Parameter(_glorot(rng, 2 * cin, cout))
        self.bn = BatchNorm(cout)

    def __call__(self, x: Tensor, graph) -> Tensor:
        nbrs = getattr(graph, "neighbors", graph)
        return ad.edge_conv(x, self.weight, self.bn.gamma, self.bn.beta, nbrs)


# ---------------------------------------------------------------------------
# networks

class ToothSegNet(Module):
    """Stage-1 segmentation network; head selects softmax or sigmoid.

    forward() consumes the (N, 15) feature tensor plus the two kNN graphs
    (k_small and k_large, 6 and 12 by default) and returns (N, out_channels).
    With the softmax head the rows are probability distributions over
    gingiva + 14 teeth. The graphs are fixed for a scan: both come from the
    cell barycenters, not from the features. mlp3 fuses mlp1's features
    with both graph-pooling stages' outputs (64 + 64 + 512 channels).
    MeshSegNet's tiled global max pool of glm2 is left out, because mlp3's
    batch norm cancels it, and so is its feature transform (see the module
    docstring).
    """

    uses_graphs = True

    def __init__(self, seed: int = 0, out_channels: int = NUM_CLASSES,
                 head: str = "softmax"):
        if head not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown head {head!r}")
        rng = np.random.default_rng(seed)
        self.out_channels = out_channels
        self.head = head
        self.mlp1 = [ConvBlock(rng, geometry.FEATURE_DIM, 64),
                     ConvBlock(rng, 64, 64)]
        self.glm1 = EdgeConv(rng, 64, 64)
        self.mlp2 = [ConvBlock(rng, 64, 64),
                     ConvBlock(rng, 64, 128),
                     ConvBlock(rng, 128, 512)]
        self.glm2_k6 = EdgeConv(rng, 512, 512)
        self.glm2_k12 = EdgeConv(rng, 512, 512)
        self.glm2_fuse = ConvBlock(rng, 1024, 512)
        self.mlp3 = [ConvBlock(rng, 640, 256),
                     ConvBlock(rng, 256, 128)]
        self.head_conv = Conv1x1(rng, 128, out_channels)
        _round_parameters(self)

    def arch_tag(self) -> str:
        return (f"tooth-seg-net/{ARCH_VERSION} in={geometry.FEATURE_DIM} "
                f"out={self.out_channels} head={self.head}")

    def forward(self, features: Tensor, graph6, graph12,
                training: bool = False) -> Tensor:
        x = _input(features, self)
        n = x.data.shape[0]
        for graph in (graph6, graph12):
            if graph.num_cells != n:
                raise ShapeError(
                    f"k={graph.k} graph has {graph.num_cells} rows for {n} feature rows"
                )
        with _recording(training):
            for block in self.mlp1:
                x = block(x)
            g1 = self.glm1(x, graph6)
            h = g1
            for block in self.mlp2:
                h = block(h)
            e6 = self.glm2_k6(h, graph6)
            e12 = self.glm2_k12(h, graph12)
            g2 = self.glm2_fuse(ad.concat([e6, e12], axis=1))
            fused = ad.concat([x, g1, g2], axis=1)
            for block in self.mlp3:
                fused = block(fused)
            logits = self.head_conv(fused)
            if self.head == "softmax":
                return ad.softmax_rows(logits)
            return ad.sigmoid(logits)

    __call__ = forward


class PointHeatmapNet(Module):
    """Stage-2 heatmap regressor: pointwise convs and a sigmoid head.

    Local convs (64, 64), head convs (512, 256, 128) and a final conv with
    sigmoid, one column per landmark of the tooth the model serves.
    PointNet's global branch (convs to 1,024 channels, max pool, tiled
    back onto the cells) is left out, because headc.0's batch norm cancels
    it.
    """

    uses_graphs = False

    def __init__(self, seed: int = 0, out_channels: int = 1):
        rng = np.random.default_rng(seed)
        self.out_channels = out_channels
        self.local = [ConvBlock(rng, geometry.FEATURE_DIM, 64),
                      ConvBlock(rng, 64, 64)]
        self.headc = [ConvBlock(rng, 64, 512),
                      ConvBlock(rng, 512, 256),
                      ConvBlock(rng, 256, 128)]
        self.out = Conv1x1(rng, 128, out_channels)
        _round_parameters(self)

    def arch_tag(self) -> str:
        return (f"point-heatmap-net/{ARCH_VERSION} in={geometry.FEATURE_DIM} "
                f"out={self.out_channels}")

    def forward(self, features: Tensor, training: bool = False) -> Tensor:
        h = _input(features, self)
        with _recording(training):
            for block in self.local + self.headc:
                h = block(h)
            return ad.sigmoid(self.out(h))

    __call__ = forward


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
