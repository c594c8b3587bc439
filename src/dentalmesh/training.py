"""Training loops for the two pipeline stages.

Both stages run one epoch driver: one mesh per optimization step, a fresh
cell subsample each step with neighbor graphs rebuilt on the subset, and a
per-epoch mean loss appended to the curve. train_segmentation and
train_heatmap bind only what differs, the per-step loss and the validation
score. Every random draw comes from a single seeded generator, so a config
plus a seed reproduces the loss curve bit for bit.

A net's forward takes `training` to mean "record the graph for
backward": a training step passes True, and scoring (validation, inference)
passes False, which runs the same arithmetic under no_grad. Batch norm
normalizes each cloud by its own statistics either way, so the nets carry
no running buffers and their whole state is their parameters.

The nets train in float32 (see networks); everything around them stays
float64. Losses and targets are built in float64 and enter the graph in
the net's dtype, and network_output hands every frozen output back as
float64 to the graph cut, the decoders and the reports.

A non-finite loss or gradient aborts the run; the raised error carries the
parameter state captured at the end of the last completed epoch so callers
can checkpoint what was still healthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import landmarks as lm
from .config import RunConfig
from .errors import NonFiniteGradientError, TrainingDivergenceError
from .geometry import (
    apply_augmentation,
    extract_features,
    knn_graph,
    sample_augmentation,
)
from .evaluation import seg_metrics
from .mesh_io import TriMesh
from .networks import generalized_dice_loss, mse_loss, one_hot


@dataclass
class SegSample:
    """One segmentation training scan: decimated mesh plus per-cell labels."""

    mesh: TriMesh
    labels: np.ndarray


@dataclass
class HeatmapSample:
    """One landmark training ROI.

    positions maps landmark name -> 3D point for this tooth; names missing
    from the dict produce an all-zero target column. A tooth_id of None
    means the mesh is a whole scan and positions is keyed by
    (tooth_id, name) pairs, one target column per entry of the full schema.
    """

    mesh: TriMesh
    tooth_id: int | None
    positions: dict


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)
    val_curve: list = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = -1
    best_val: float = float("nan")


def _snapshot(net) -> dict:
    return {k: v.copy() for k, v in net.state_arrays().items()}


def _subsample_indices(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    if count >= n:
        return np.arange(n)
    return np.sort(rng.choice(n, size=count, replace=False))


def _make_augmentations(rng: np.random.Generator, num_samples: int, count: int):
    """count transforms per sample, drawn in sample order for stream stability."""
    return [[sample_augmentation(rng) for _ in range(count)] for _ in range(num_samples)]


def _heatmap_target(tooth_id: int | None, barycenters: np.ndarray,
                    positions: dict, sigma: float, peak: float) -> np.ndarray:
    if tooth_id is None:
        blocks = []
        for tooth in lm.landmark_teeth():
            per = {name: p for (t, name), p in positions.items() if t == tooth}
            blocks.append(
                lm.encode_heatmaps(barycenters, tooth, per, sigma=sigma, peak=peak)
            )
        return np.hstack(blocks)
    return lm.encode_heatmaps(barycenters, tooth_id, positions, sigma=sigma, peak=peak)


def _forward(net, features: np.ndarray, points: np.ndarray,
             k_small: int, k_large: int, training: bool):
    """Dispatch on net type: graph nets need the two kNN graphs.

    One graph is built at the larger k; the other is its first columns.
    """
    x = ad.Tensor(features)
    if getattr(net, "uses_graphs", False):
        wide = knn_graph(points, max(k_small, k_large))
        return net.forward(x, wide.narrowed(k_small), wide.narrowed(k_large),
                           training=training)
    return net.forward(x, training=training)


def network_output(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                   k_large: int = RunConfig.k_large) -> np.ndarray:
    """Per-cell output of a frozen network on one whole mesh, as float64."""
    feats = extract_features(mesh)
    out = _forward(net, feats.matrix, mesh.cell_barycenters, k_small, k_large,
                   training=False)
    return np.asarray(out.data, dtype=np.float64)


def segmentation_probabilities(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                               k_large: int = RunConfig.k_large) -> np.ndarray:
    """(N, classes) probabilities of one mesh under the frozen network."""
    return network_output(net, mesh, k_small, k_large)


def predict_labels(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                   k_large: int = RunConfig.k_large) -> np.ndarray:
    """Argmax segmentation of one mesh under the frozen network."""
    probs = segmentation_probabilities(net, mesh, k_small, k_large)
    return np.argmax(probs, axis=1).astype(np.int64)


def _train(net, samples: list, step_loss, val_score, larger_is_better: bool, *,
           epochs: int, seed: int, lr: float, subsample: int, augment_count: int,
           k_small: int, k_large: int, betas: tuple[float, float], adam_eps: float,
           val_samples: list | None, val_every: int, patience: int,
           on_epoch: Callable[[int, float], None] | None) -> TrainResult:
    """The epoch loop of both stages.

    Each step draws one of the sample's augmented variants (index 0 is the
    untransformed sample), recomputes features on the transformed geometry,
    subsamples cells and runs the graph-recording forward on the subset;
    step_loss(out, sample, idx, mesh, aug) turns that output into the loss,
    with aug None for the untransformed variant. Every val_every epochs
    val_score(val_samples) scores the net; patience > 0 stops training after
    that many validations in a row without improvement, 0 never stops early.
    The best-scoring state is restored at the end.
    """
    if not samples:
        raise ValueError("no training samples")
    rng = np.random.default_rng(seed)
    augs = _make_augmentations(rng, len(samples), augment_count)
    opt = ad.AmsGrad(net.named_parameters(), lr=lr, beta1=betas[0], beta2=betas[1],
                     eps=adam_eps)
    sign = 1.0 if larger_is_better else -1.0
    result = TrainResult()
    last_good = _snapshot(net)
    best_state = None
    stall = 0
    for epoch in range(epochs):
        losses = []
        for s in rng.permutation(len(samples)):
            sample = samples[s]
            variant = int(rng.integers(augment_count + 1))
            aug = augs[s][variant - 1] if variant else None
            mesh = sample.mesh
            if aug is not None:
                mesh = apply_augmentation(mesh, aug)
            feats = extract_features(mesh)
            idx = _subsample_indices(rng, mesh.num_cells, subsample)
            out = _forward(net, feats.matrix[idx], mesh.cell_barycenters[idx],
                           k_small, k_large, training=True)
            loss = step_loss(out, sample, idx, mesh, aug)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}",
                    last_good_state=last_good, loss_curve=result.loss_curve,
                )
            ad.backward(loss)
            try:
                opt.step()
            except NonFiniteGradientError as err:
                raise TrainingDivergenceError(
                    str(err), last_good_state=last_good, loss_curve=result.loss_curve,
                ) from err
            opt.zero_grad()
            losses.append(value)
        result.loss_curve.append(float(np.mean(losses)))
        result.epochs_run += 1
        last_good = _snapshot(net)
        stop = False
        if val_samples and (epoch + 1) % val_every == 0:
            val = val_score(val_samples)
            result.val_curve.append(val)
            if result.best_epoch < 0 or sign * val > sign * result.best_val + 1e-12:
                result.best_val, result.best_epoch = val, epoch
                best_state = last_good
                stall = 0
            else:
                stall += 1
            stop = 0 < patience <= stall
        if on_epoch is not None:
            on_epoch(epoch, result.loss_curve[-1])
        if stop:
            break
    if best_state is not None:
        net.load_state_arrays(best_state)
    return result


def train_segmentation(
    net,
    samples: list[SegSample],
    *,
    epochs: int,
    seed: int,
    lr: float = RunConfig.lr,
    subsample: int = RunConfig.seg_subsample,
    augment_count: int = RunConfig.augment_count,
    k_small: int = RunConfig.k_small,
    k_large: int = RunConfig.k_large,
    betas: tuple[float, float] = (RunConfig.beta1, RunConfig.beta2),
    adam_eps: float = RunConfig.adam_eps,
    val_samples: list[SegSample] | None = None,
    val_every: int = 1,
    patience: int = 0,
    on_epoch: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Fits the segmentation network on whole (decimated) scans.

    Generalized Dice loss on each step's subsample. Validation predicts
    full un-augmented meshes and scores the mean per-tooth Dice; the best
    state by that score is restored at the end.
    """
    def step_loss(out, sample, idx, mesh, aug):
        return generalized_dice_loss(out, one_hot(sample.labels[idx]))

    def val_score(val):
        # the plain 1-D mean of the per-tooth DSCs: SegMetrics.mean_dsc sums
        # them in another order, which can move the last bit of the curve
        scores = []
        for v in val:
            pred = predict_labels(net, v.mesh, k_small, k_large)
            dscs = [m[0] for m in seg_metrics(pred, v.labels).per_class.values()]
            scores.append(float(np.mean(dscs or [1.0])))
        return float(np.mean(scores))

    return _train(net, samples, step_loss, val_score, True, epochs=epochs, seed=seed,
                  lr=lr, subsample=subsample, augment_count=augment_count,
                  k_small=k_small, k_large=k_large, betas=betas, adam_eps=adam_eps,
                  val_samples=val_samples, val_every=val_every, patience=patience,
                  on_epoch=on_epoch)


def train_heatmap(
    net,
    samples: list[HeatmapSample],
    *,
    epochs: int,
    seed: int,
    lr: float = RunConfig.lr,
    subsample: int = RunConfig.roi_subsample,
    augment_count: int = RunConfig.augment_count,
    sigma: float = RunConfig.sigma,
    peak: float = RunConfig.peak,
    k_small: int = RunConfig.k_small,
    k_large: int = RunConfig.k_large,
    betas: tuple[float, float] = (RunConfig.beta1, RunConfig.beta2),
    adam_eps: float = RunConfig.adam_eps,
    val_samples: list[HeatmapSample] | None = None,
    val_every: int = 1,
    patience: int = 0,
    on_epoch: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Fits a heatmap regressor on single-tooth ROIs (or whole scans).

    Landmark positions ride along through each augmentation and the Gaussian
    targets are re-encoded from the transformed geometry, so the heatmap
    width stays sigma in millimeters regardless of scaling. The loss is the
    MSE against those targets; the best state by validation MSE is
    restored at the end.
    """
    def step_loss(out, sample, idx, mesh, aug):
        positions = sample.positions
        if aug is not None:
            positions = aug.move_landmarks(positions)
        target = _heatmap_target(sample.tooth_id, mesh.cell_barycenters[idx],
                                 positions, sigma, peak)
        return mse_loss(out, target)

    def val_score(val):
        return heatmap_validation_mse(net, val, sigma=sigma, peak=peak,
                                      k_small=k_small, k_large=k_large)

    return _train(net, samples, step_loss, val_score, False, epochs=epochs, seed=seed,
                  lr=lr, subsample=subsample, augment_count=augment_count,
                  k_small=k_small, k_large=k_large, betas=betas, adam_eps=adam_eps,
                  val_samples=val_samples, val_every=val_every, patience=patience,
                  on_epoch=on_epoch)


def heatmap_validation_mse(net, samples: list[HeatmapSample], *,
                           sigma: float = RunConfig.sigma,
                           peak: float = RunConfig.peak,
                           k_small: int = RunConfig.k_small,
                           k_large: int = RunConfig.k_large) -> float:
    total = 0.0
    for sample in samples:
        pred = network_output(net, sample.mesh, k_small, k_large)
        target = _heatmap_target(
            sample.tooth_id, sample.mesh.cell_barycenters, sample.positions,
            sigma, peak
        )
        total += float(np.mean((pred - target) ** 2))
    return total / len(samples)
