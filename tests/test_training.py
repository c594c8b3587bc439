"""Training loop contracts: curves, early stops, divergence, determinism."""

import numpy as np
import pytest

from dentalmesh import autodiff as ad
from dentalmesh import landmarks as lm
from dentalmesh import training as tr
from dentalmesh.config import RunConfig
from dentalmesh.errors import TrainingDivergenceError
from dentalmesh.mesh_io import TriMesh
from dentalmesh.networks import PointHeatmapNet, ToothSegNet
from dentalmesh.training import HeatmapSample, SegSample

from helpers import bump_scene


class _TinySoftmaxNet:
    """Throwaway 15->15 softmax net; optionally emits NaN after n forwards."""

    uses_graphs = True

    def __init__(self, nan_after=None, seed=0):
        rng = np.random.default_rng(seed)
        self.w = ad.Parameter(rng.normal(scale=0.2, size=(15, 15)), name="w")
        self.calls = 0
        self.nan_after = nan_after

    def parameters(self):
        return [self.w]

    def state_arrays(self):
        return {"w": self.w.data}

    def load_state_arrays(self, arrays):
        self.w.data = arrays["w"].astype(np.float64).copy()

    def forward(self, x, g_small=None, g_large=None, training=False):
        self.calls += 1
        if self.nan_after is not None and self.calls > self.nan_after:
            return ad.Tensor(np.full((x.data.shape[0], 15), np.nan))
        return ad.softmax_rows(ad.matmul(x, self.w))

    __call__ = forward


class _ConstHeatNet:
    """Frozen net that predicts the same value everywhere."""

    uses_graphs = False

    def __init__(self, value, out_channels):
        self.value = value
        self.out_channels = out_channels
        self.w = ad.Parameter(np.zeros(1), name="w")

    def parameters(self):
        return [self.w]

    def forward(self, x, training=False):
        n = x.data.shape[0] if isinstance(x, ad.Tensor) else x.shape[0]
        return ad.Tensor(np.full((n, self.out_channels), self.value))


@pytest.fixture(scope="module")
def seg_samples():
    mesh, labels, _ = bump_scene(12, 0)
    return [SegSample(mesh, labels)]


@pytest.fixture(scope="module")
def roi_sample():
    mesh, labels, landmarks = bump_scene(12, 0)
    keep = np.nonzero(labels == 3)[0]
    roi, _ = mesh.submesh(keep)
    positions = {name: pos for (t, name), pos in landmarks.items() if t == 3}
    return HeatmapSample(roi, 3, positions)


def test_mean_dice_oracle():
    pred = np.array([0, 1, 1, 2, 0])
    truth = np.array([0, 1, 2, 2, 2])
    # tooth 1: 2*1/(2+1); tooth 2: 2*1/(1+3); absent teeth skipped
    expected = np.mean([2 / 3, 0.5])
    assert tr._mean_dice(pred, truth) == pytest.approx(expected)
    assert tr._mean_dice(np.zeros(3), np.zeros(3)) == 1.0


def test_empty_sample_lists_rejected():
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_segmentation(_TinySoftmaxNet(), [], epochs=1, seed=0)
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_heatmap(PointHeatmapNet(out_channels=1), [], epochs=1, seed=0)


def test_seg_loop_curves_and_callback(seg_samples):
    net = _TinySoftmaxNet(seed=1)
    seen = []
    result = tr.train_segmentation(
        net, seg_samples, epochs=3, seed=0, subsample=120, augment_count=0,
        on_epoch=lambda e, l: seen.append((e, l)),
    )
    assert result.epochs_run == 3
    assert len(result.loss_curve) == 3
    assert result.val_curve == []
    assert result.best_epoch == -1
    assert [e for e, _ in seen] == [0, 1, 2]
    assert [l for _, l in seen] == result.loss_curve
    assert all(np.isfinite(result.loss_curve))


def test_seg_loop_reruns_bit_identical(seg_samples):
    def run():
        net = _TinySoftmaxNet(seed=2)
        result = tr.train_segmentation(
            net, seg_samples, epochs=3, seed=5, subsample=100, augment_count=2
        )
        return result.loss_curve, net.state_arrays()["w"].copy()

    curve_a, w_a = run()
    curve_b, w_b = run()
    assert curve_a == curve_b
    assert np.array_equal(w_a, w_b)


def test_seg_loop_loss_decreases(seg_samples):
    net = _TinySoftmaxNet(seed=3)
    result = tr.train_segmentation(
        net, seg_samples, epochs=8, seed=1, subsample=150, augment_count=0, lr=3e-3
    )
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_seg_target_val_stops_early(seg_samples):
    # any dice clears a target of 0, so the first validation epoch stops
    net = _TinySoftmaxNet(seed=4)
    result = tr.train_segmentation(
        net, seg_samples, epochs=10, seed=0, subsample=100, augment_count=0,
        val_samples=seg_samples, val_every=2, target_val=0.0,
    )
    assert result.epochs_run == 2  # the first epoch that validates
    assert len(result.val_curve) == 1
    assert result.best_epoch == 1
    assert result.best_val == result.val_curve[0]


def test_seg_patience_zero_stops_at_first_validation(seg_samples):
    net = _TinySoftmaxNet(seed=5)
    result = tr.train_segmentation(
        net, seg_samples, epochs=10, seed=0, subsample=100, augment_count=0,
        val_samples=seg_samples, val_every=1, patience=0,
    )
    assert result.epochs_run == 1
    assert len(result.val_curve) == 1


def test_seg_restores_best_state(seg_samples):
    net = _TinySoftmaxNet(seed=6)
    result = tr.train_segmentation(
        net, seg_samples, epochs=4, seed=2, subsample=150, augment_count=0,
        val_samples=seg_samples, val_every=1,
    )
    assert len(result.val_curve) == 4
    assert result.best_val == pytest.approx(max(result.val_curve))
    assert result.best_epoch == int(np.argmax(result.val_curve))
    # the weights left on the net reproduce the best validation score
    redo = tr._mean_dice(
        tr.predict_labels(net, seg_samples[0].mesh), seg_samples[0].labels
    )
    assert redo == pytest.approx(result.best_val)


def test_divergence_carries_last_good_state(seg_samples):
    # epoch 1 completes (one sample, one step); the second forward emits
    # NaN, so epoch 2 must abort with the post-epoch-1 snapshot attached
    net = _TinySoftmaxNet(nan_after=1, seed=7)
    with pytest.raises(TrainingDivergenceError) as info:
        tr.train_segmentation(
            net, seg_samples, epochs=5, seed=0, subsample=80, augment_count=0
        )
    err = info.value
    assert "non-finite loss" in str(err)
    assert len(err.loss_curve) == 1
    assert set(err.last_good_state) == {"w"}
    assert np.all(np.isfinite(err.last_good_state["w"]))
    # the snapshot is the trained state, not the initial one
    assert not np.array_equal(err.last_good_state["w"], _TinySoftmaxNet(seed=7).w.data)


def test_heatmap_loop_learns_toy_roi(roi_sample):
    net = PointHeatmapNet(seed=8, out_channels=len(lm.landmark_names(3)))
    result = tr.train_heatmap(
        net, [roi_sample], epochs=6, seed=3, subsample=200, augment_count=0,
        lr=3e-3,
    )
    assert result.epochs_run == 6
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_heatmap_val_curve_tracks_minimum(roi_sample):
    net = PointHeatmapNet(seed=9, out_channels=len(lm.landmark_names(3)))
    result = tr.train_heatmap(
        net, [roi_sample], epochs=4, seed=4, subsample=150, augment_count=0,
        val_samples=[roi_sample], val_every=1,
    )
    assert len(result.val_curve) == 4
    assert result.best_val == pytest.approx(min(result.val_curve))
    assert result.best_epoch == int(np.argmin(result.val_curve))
    redo = tr.heatmap_validation_mse(net, [roi_sample])
    assert redo == pytest.approx(result.best_val)


def test_heatmap_validation_mse_hand_oracle(roi_sample):
    value = 0.25
    net = _ConstHeatNet(value, out_channels=len(lm.landmark_names(3)))
    got = tr.heatmap_validation_mse(net, [roi_sample])
    target = lm.encode_heatmaps(
        roi_sample.mesh.cell_barycenters, 3, roi_sample.positions
    )
    assert got == pytest.approx(np.mean((value - target) ** 2), abs=1e-12)


def test_whole_scan_target_uses_full_schema():
    rng = np.random.default_rng(10)
    bary = rng.normal(size=(17, 3))
    point = rng.normal(size=3)
    target = tr._heatmap_target(None, bary, {(6, "MLA"): point},
                                RunConfig.sigma, RunConfig.peak)
    keys = lm.all_landmark_keys()
    assert target.shape == (17, len(keys))
    col = keys.index((6, "MLA"))
    expected = lm.encode_heatmaps(bary, 6, {"MLA": point})[:, lm.landmark_names(6).index("MLA")]
    assert np.array_equal(target[:, col], expected)
    others = [c for c in range(len(keys)) if c != col]
    assert np.all(target[:, others] == 0.0)


def test_subsample_indices():
    rng = np.random.default_rng(0)
    # fewer cells than the budget: identity
    assert np.array_equal(tr._subsample_indices(rng, 5, 10), np.arange(5))
    picked = tr._subsample_indices(rng, 100, 30)
    assert picked.shape == (30,)
    assert np.array_equal(picked, np.sort(picked))
    assert np.unique(picked).size == 30
