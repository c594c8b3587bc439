"""Training loops for the two pipeline stages.

Both loops follow the same shape: one mesh per optimization step, a fresh
cell subsample each step with neighbor graphs rebuilt on the subset, and a
per-epoch mean loss appended to the curve. Every random draw comes from a
single seeded generator, so a config plus a seed reproduces the loss curve
bit for bit.

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
    rotation_matrix,
    sample_augmentation,
)
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
    """Dispatch on trunk type: graph trunks need the two kNN graphs."""
    x = ad.Tensor(features)
    if getattr(net, "uses_graphs", False):
        g_small = knn_graph(points, k_small)
        g_large = knn_graph(points, k_large)
        return net.forward(x, g_small, g_large, training=training)
    return net.forward(x, training=training)


def network_output(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                   k_large: int = RunConfig.k_large) -> np.ndarray:
    """Per-cell output of a frozen network on one whole mesh."""
    feats = extract_features(mesh)
    with ad.no_grad():
        out = _forward(net, feats.matrix, mesh.cell_barycenters, k_small, k_large,
                       training=False)
    return out.data


class _Loop:
    """Shared epoch driver: divergence guard, curves, best-state tracking."""

    def __init__(self, net, lr: float, patience: int | None, target_val: float | None,
                 val_larger_is_better: bool,
                 betas: tuple[float, float], eps: float):
        self.net = net
        self.opt = ad.AmsGrad(net.parameters(), lr=lr, beta1=betas[0],
                              beta2=betas[1], eps=eps)
        self.patience = patience
        self.target_val = target_val
        self.sign = 1.0 if val_larger_is_better else -1.0
        self.result = TrainResult()
        self.last_good = _snapshot(net)
        self.best_state = None
        self.stall = 0

    def step(self, loss_tensor) -> float:
        value = float(loss_tensor.data)
        if not np.isfinite(value):
            raise TrainingDivergenceError(
                f"non-finite loss at epoch {self.result.epochs_run}",
                last_good_state=self.last_good,
                loss_curve=self.result.loss_curve,
            )
        ad.backward(loss_tensor)
        try:
            self.opt.step()
        except NonFiniteGradientError as err:
            raise TrainingDivergenceError(
                str(err),
                last_good_state=self.last_good,
                loss_curve=self.result.loss_curve,
            ) from err
        self.opt.zero_grad()
        return value

    def end_epoch(self, losses: list, val: float | None) -> bool:
        """Records the epoch; returns True when training should stop."""
        res = self.result
        res.loss_curve.append(float(np.mean(losses)))
        res.epochs_run += 1
        self.last_good = _snapshot(self.net)
        if val is None:
            return False
        res.val_curve.append(val)
        better = (
            res.best_epoch < 0 or self.sign * val > self.sign * res.best_val + 1e-12
        )
        if better:
            res.best_val = val
            res.best_epoch = res.epochs_run - 1
            self.best_state = self.last_good
            self.stall = 0
        else:
            self.stall += 1
        if self.target_val is not None and self.sign * val >= self.sign * self.target_val:
            return True
        if self.patience is not None and self.stall >= self.patience:
            return True
        return False

    def finish(self, restore_best: bool) -> TrainResult:
        if restore_best and self.best_state is not None:
            self.net.load_state_arrays(self.best_state)
        return self.result


def segmentation_probabilities(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                               k_large: int = RunConfig.k_large) -> np.ndarray:
    """(N, classes) probabilities of one mesh under the frozen network."""
    return network_output(net, mesh, k_small, k_large)


def predict_labels(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                   k_large: int = RunConfig.k_large) -> np.ndarray:
    """Argmax segmentation of one mesh under the frozen network."""
    probs = segmentation_probabilities(net, mesh, k_small, k_large)
    return np.argmax(probs, axis=1).astype(np.int64)


def _mean_dice(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-tooth Dice; teeth absent from both sides are skipped."""
    scores = []
    for tooth in range(1, lm.NUM_TEETH + 1):
        p = pred == tooth
        t = truth == tooth
        denom = int(p.sum()) + int(t.sum())
        if denom == 0:
            continue
        scores.append(2.0 * int((p & t).sum()) / denom)
    return float(np.mean(scores)) if scores else 1.0


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
    patience: int | None = None,
    target_val: float | None = None,
    on_epoch: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Fits the segmentation network on whole (decimated) scans.

    Each step draws one of the scan's augmented variants (index 0 is the
    untransformed scan), recomputes features on the transformed geometry,
    subsamples cells, and rebuilds both kNN graphs on the subset. Validation
    runs every val_every epochs on full un-augmented meshes; the best state
    by mean Dice is restored at the end.
    """
    if not samples:
        raise ValueError("no training samples")
    rng = np.random.default_rng(seed)
    augs = _make_augmentations(rng, len(samples), augment_count)
    loop = _Loop(net, lr, patience, target_val, val_larger_is_better=True,
                 betas=betas, eps=adam_eps)
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        losses = []
        for s in order:
            sample = samples[s]
            variant = int(rng.integers(augment_count + 1))
            if variant == 0:
                mesh = sample.mesh
            else:
                mesh, _ = apply_augmentation(sample.mesh, None, augs[s][variant - 1])
            feats = extract_features(mesh)
            idx = _subsample_indices(rng, mesh.num_cells, subsample)
            probs = _forward(net, feats.matrix[idx], mesh.cell_barycenters[idx],
                             k_small, k_large, training=True)
            loss = generalized_dice_loss(probs, one_hot(sample.labels[idx]))
            losses.append(loop.step(loss))
        val = None
        if val_samples and (epoch + 1) % val_every == 0:
            val = float(
                np.mean(
                    [
                        _mean_dice(
                            predict_labels(net, v.mesh, k_small, k_large), v.labels
                        )
                        for v in val_samples
                    ]
                )
            )
        stop = loop.end_epoch(losses, val)
        if on_epoch is not None:
            on_epoch(epoch, loop.result.loss_curve[-1])
        if stop:
            break
    return loop.finish(restore_best=val_samples is not None)


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
    patience: int | None = None,
    on_epoch: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Fits a heatmap regressor on single-tooth ROIs.

    Landmark positions ride along through each augmentation and the Gaussian
    targets are re-encoded from the transformed geometry, so the heatmap
    width stays sigma in millimeters regardless of scaling. Regressors with
    a graph trunk get kNN graphs rebuilt on each step's subsample.
    """
    if not samples:
        raise ValueError("no training samples")
    rng = np.random.default_rng(seed)
    augs = _make_augmentations(rng, len(samples), augment_count)
    loop = _Loop(net, lr, patience, None, val_larger_is_better=False,
                 betas=betas, eps=adam_eps)
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        losses = []
        for s in order:
            sample = samples[s]
            variant = int(rng.integers(augment_count + 1))
            if variant == 0:
                mesh, positions = sample.mesh, sample.positions
            else:
                aug = augs[s][variant - 1]
                mesh, _ = apply_augmentation(sample.mesh, None, aug)
                linear = rotation_matrix(aug.rotation) * aug.scale[None, :]
                positions = {
                    name: linear @ np.asarray(p, dtype=np.float64) + aug.translation
                    for name, p in sample.positions.items()
                }
            feats = extract_features(mesh)
            idx = _subsample_indices(rng, mesh.num_cells, subsample)
            target = _heatmap_target(
                sample.tooth_id, mesh.cell_barycenters[idx], positions, sigma, peak
            )
            pred = _forward(net, feats.matrix[idx], mesh.cell_barycenters[idx],
                            k_small, k_large, training=True)
            losses.append(loop.step(mse_loss(pred, target)))
        val = None
        if val_samples and (epoch + 1) % val_every == 0:
            val = heatmap_validation_mse(net, val_samples, sigma=sigma, peak=peak,
                                         k_small=k_small, k_large=k_large)
        stop = loop.end_epoch(losses, val)
        if on_epoch is not None:
            on_epoch(epoch, loop.result.loss_curve[-1])
        if stop:
            break
    return loop.finish(restore_best=val_samples is not None)


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
