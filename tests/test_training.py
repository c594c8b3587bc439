"""Training loop contracts: curves, early stops, divergence, determinism."""

from functools import partial

import numpy as np
import pytest

from dentalmesh import autodiff as ad
from dentalmesh import landmarks as lm
from dentalmesh import training as tr
from dentalmesh.config import RunConfig
from dentalmesh.errors import TrainingDivergenceError
from dentalmesh.evaluation import seg_metrics
from dentalmesh.geometry import extract_roi
from dentalmesh.mesh_io import TriMesh
from dentalmesh.networks import PointHeatmapNet, ToothSegNet
from dentalmesh.training import HeatmapSample, SegSample

from helpers import bump_scene


class _TinyNet:
    """Throwaway linear net on the 15 features; optionally emits NaN after n
    forwards. 15 softmax outputs by default, or `heat` sigmoid columns."""

    uses_graphs = True

    def __init__(self, nan_after=None, seed=0, heat=None):
        rng = np.random.default_rng(seed)
        self.w = ad.Parameter(rng.normal(scale=0.2, size=(15, heat or 15)))
        self.heat = heat
        self.calls = 0
        self.nan_after = nan_after

    def named_parameters(self):
        return [("w", self.w)]

    def state_arrays(self):
        return {"w": self.w.data}

    def load_state_arrays(self, arrays):
        self.w.data = arrays["w"].astype(np.float64).copy()

    def forward(self, x, g_small=None, g_large=None, training=False):
        self.calls += 1
        if self.nan_after is not None and self.calls > self.nan_after:
            return ad.Tensor(np.full((x.data.shape[0], self.w.data.shape[1]), np.nan))
        logits = ad.matmul(x, self.w)
        return ad.sigmoid(logits) if self.heat else ad.softmax_rows(logits)

    __call__ = forward


class _ConstHeatNet:
    """Frozen net that predicts the same value everywhere."""

    uses_graphs = False

    def __init__(self, value, out_channels):
        self.value = value
        self.out_channels = out_channels
        self.w = ad.Parameter(np.zeros(1))

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
    roi = mesh.submesh(keep)
    positions = {name: pos for (t, name), pos in landmarks.items() if t == 3}
    return HeatmapSample(roi, 3, positions)


def _seg_loop(seg_samples):
    """(public training loop, tiny-net factory, samples) of one stage."""
    return tr.train_segmentation, _TinyNet, seg_samples


def _heatmap_loop(roi_sample):
    width = len(lm.landmark_names(roi_sample.tooth_id))
    return tr.train_heatmap, partial(_TinyNet, heat=width), [roi_sample]


@pytest.fixture(params=["seg", "heatmap"])
def loop(request, seg_samples, roi_sample):
    if request.param == "seg":
        return _seg_loop(seg_samples)
    return _heatmap_loop(roi_sample)


def test_empty_sample_lists_rejected():
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_segmentation(_TinyNet(), [], epochs=1, seed=0)
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_heatmap(PointHeatmapNet(out_channels=1), [], epochs=1, seed=0)


def test_seg_loop_curves_and_callback(seg_samples):
    net = _TinyNet(seed=1)
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


def _assert_reruns_bit_identical(fit, make_net, samples):
    def run():
        net = make_net(seed=2)
        result = fit(net, samples, epochs=3, seed=5, subsample=100, augment_count=2,
                     val_samples=samples, val_every=1, patience=1)
        return result.loss_curve, result.val_curve, net.state_arrays()["w"].copy()

    curve_a, val_a, w_a = run()
    curve_b, val_b, w_b = run()
    assert curve_a == curve_b
    assert val_a == val_b
    assert np.array_equal(w_a, w_b)


def test_seg_loop_reruns_bit_identical(seg_samples):
    _assert_reruns_bit_identical(*_seg_loop(seg_samples))


def test_heatmap_loop_reruns_bit_identical(roi_sample):
    _assert_reruns_bit_identical(*_heatmap_loop(roi_sample))


def test_seg_loop_loss_decreases(seg_samples):
    net = _TinyNet(seed=3)
    result = tr.train_segmentation(
        net, seg_samples, epochs=8, seed=1, subsample=150, augment_count=0, lr=3e-3
    )
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_patience_zero_never_stops_and_one_stops_at_first_stall(loop):
    # lr 0 leaves the weights alone, so every validation repeats the first
    fit, make_net, samples = loop
    for patience, epochs_run in ((0, 4), (1, 2)):
        result = fit(make_net(seed=5), samples, epochs=4, seed=0, lr=0.0,
                     subsample=100, augment_count=0, val_samples=samples,
                     val_every=1, patience=patience)
        assert result.epochs_run == epochs_run
        assert len(result.val_curve) == epochs_run
        assert result.best_epoch == 0


def test_seg_restores_best_state(seg_samples):
    net = _TinyNet(seed=6)
    result = tr.train_segmentation(
        net, seg_samples, epochs=4, seed=2, subsample=150, augment_count=0,
        val_samples=seg_samples, val_every=1,
    )
    assert len(result.val_curve) == 4
    assert result.best_val == pytest.approx(max(result.val_curve))
    assert result.best_epoch == int(np.argmax(result.val_curve))
    # the weights left on the net reproduce the best validation score
    redo = seg_metrics(
        tr.predict_labels(net, seg_samples[0].mesh), seg_samples[0].labels
    ).mean_dsc
    assert redo == pytest.approx(result.best_val)


def _assert_divergence_carries_last_good_state(fit, make_net, samples):
    # epoch 1 completes (one sample, one step); the second forward emits
    # NaN, so epoch 2 must abort with the post-epoch-1 snapshot attached
    net = make_net(nan_after=1, seed=7)
    with pytest.raises(TrainingDivergenceError) as info:
        fit(net, samples, epochs=5, seed=0, subsample=80, augment_count=0)
    err = info.value
    assert "non-finite loss" in str(err)
    assert len(err.loss_curve) == 1
    assert set(err.last_good_state) == {"w"}
    assert np.all(np.isfinite(err.last_good_state["w"]))
    # the snapshot is the trained state, not the initial one
    assert not np.array_equal(err.last_good_state["w"], make_net(seed=7).w.data)


def test_divergence_carries_last_good_state(seg_samples):
    _assert_divergence_carries_last_good_state(*_seg_loop(seg_samples))


def test_heatmap_divergence_carries_last_good_state(roi_sample):
    _assert_divergence_carries_last_good_state(*_heatmap_loop(roi_sample))


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


def _arch_stage(stage: str, small_arch):
    """(net, training loop, sample) of one stage on the synthetic arch."""
    mesh, ann = small_arch
    if stage == "seg":
        return ToothSegNet(seed=0), tr.train_segmentation, SegSample(mesh, ann.labels)
    tooth = lm.landmark_teeth()[0]
    names = lm.landmark_names(tooth)
    positions = {name: ann.landmarks[(tooth, name)] for name in names}
    sample = HeatmapSample(extract_roi(mesh, ann.labels, tooth).mesh, tooth, positions)
    return PointHeatmapNet(seed=0, out_channels=len(names)), tr.train_heatmap, sample


@pytest.mark.parametrize("stage", ["seg", "heatmap"])
def test_no_parameter_is_cancelled_by_batch_norm(stage, small_arch, monkeypatch):
    """Every parameter tensor of both nets gets a gradient above 1e-10 on a
    synthetic arch, so none is silently cancelled. A conv bias in front of
    a batch norm, or a pooled row tiled onto every cell, is the same for
    every cell of the cloud that batch norm normalizes, and gets rounding
    noise (1e-16) instead."""
    net, fit, sample = _arch_stage(stage, small_arch)
    steps = []
    step = ad.AmsGrad.step

    def recording_step(opt):
        steps.append([np.max(np.abs(p.gradient())) for p in opt.params])
        step(opt)

    monkeypatch.setattr(ad.AmsGrad, "step", recording_step)
    fit(net, [sample], epochs=1, seed=0, subsample=300, augment_count=0)
    assert len(steps) == 1
    names = [name for name, _ in net.named_parameters()]
    assert {name: g for name, g in zip(names, steps[0]) if not g > 1e-10} == {}


@pytest.mark.parametrize("stage", ["seg", "heatmap"])
def test_training_step_stays_float32(stage, small_arch, monkeypatch):
    """A recorded training step of each net is float32 throughout: every
    node of the graph, every gradient piece handed to _accumulate, every
    parameter gradient and every AMSGrad moment. One float64 constant in a
    loss would widen the backward from there on, while the parameter
    gradients, cast on accumulation, would still read float32. A frozen
    net's output comes back as float64."""
    net, fit, sample = _arch_stage(stage, small_arch)
    seen = {"graph": set(), "pieces": set(), "grads": set(), "moments": set()}
    backward, accumulate, step = ad.backward, ad._accumulate, ad.AmsGrad.step

    def recording_backward(loss):
        stack, visited = [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in visited:
                visited.add(id(node))
                seen["graph"].add(node.data.dtype)
                stack.extend(node._parents)
        assert len(visited) > 20  # the whole net's graph, not a detached output
        backward(loss)

    def recording_accumulate(parent, piece):
        seen["pieces"].add(piece.dtype)
        accumulate(parent, piece)

    def recording_step(opt):
        seen["grads"].update(p.gradient().dtype for p in opt.params)
        step(opt)
        seen["moments"].update(a.dtype for a in opt.m + opt.v + opt.v_hat)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
    monkeypatch.setattr(ad.AmsGrad, "step", recording_step)
    fit(net, [sample], epochs=1, seed=0, subsample=300, augment_count=0)
    assert seen == {key: {np.dtype(np.float32)} for key in seen}
    assert {p.data.dtype for p in net.parameters()} == {np.dtype(np.float32)}
    assert tr.network_output(net, sample.mesh).dtype == np.float64
