"""Two-stage inference plumbing with stub regressors."""

import hashlib

import numpy as np
import pytest

from dentalmesh import autodiff as ad
from dentalmesh import geometry as geo
from dentalmesh import landmarks as lm
from dentalmesh import pipeline as pl
from dentalmesh.errors import SchemaError
from dentalmesh.mesh_io import Annotation

from helpers import bump_scene


def test_position_type_folds_mirrored_teeth():
    assert [pl.position_type(t) for t in range(1, 8)] == list(range(1, 8))
    assert [pl.position_type(t) for t in range(8, 15)] == list(range(1, 8))
    for t in range(1, 8):
        # UR<t> and its mirror UL<t> share one position type
        assert lm.tooth_name(t)[2:] == lm.tooth_name(t + 7)[2:]
        assert pl.position_type(t) == pl.position_type(t + 7)
    with pytest.raises(ValueError):
        pl.position_type(0)
    with pytest.raises(ValueError):
        pl.position_type(15)


def test_heatmap_position_types():
    assert pl.heatmap_position_types() == (1, 2, 3, 4, 6)


def test_single_stage_layout_covers_schema():
    # the whole-scan regressor's columns: every landmark of every tooth
    layout = lm.all_landmark_keys()
    assert len(layout) == len(set(layout)) == 44
    assert layout == [(t, n) for t in range(1, 15) for n in lm.landmark_names(t)]


def test_preprocess_carries_labels(small_arch):
    mesh, ann = small_arch
    scan = pl.preprocess(mesh, ann, target_cells=1500)
    assert scan.fine is mesh
    assert scan.coarse.num_cells <= 1500
    assert scan.origin_map.shape == (mesh.num_cells,)
    assert scan.coarse_labels.shape == (scan.coarse.num_cells,)
    # majority-vote transfer keeps every tooth alive at this ratio
    assert set(np.unique(scan.coarse_labels)) == set(np.unique(ann.labels))
    unlabeled = pl.preprocess(mesh, None, target_cells=1500)
    assert unlabeled.coarse_labels is None


# coarse labels that preprocess(small_arch, 400) carried down when decimate
# still built the origin map itself
COARSE_LABELS_400_SHA256 = "73bdfd9e47d5415167f23c83f3af9a0fc2e338f299eb05d6173c249b79bd20cc"


def test_preprocess_coarse_labels_unchanged(small_arch):
    mesh, ann = small_arch
    labels = pl.preprocess(mesh, ann, target_cells=400).coarse_labels
    assert labels.dtype == np.int64
    assert hashlib.sha256(labels.tobytes()).hexdigest() == COARSE_LABELS_400_SHA256


def _tooth_from_roi(roi_mesh, mesh, labels):
    """Recover which tooth an ROI crop came from by centroid matching.

    Teeth 3 and 10 share one position type (mirrored pair), so the net
    alone cannot know the tooth; the geometry can.
    """
    centroid = roi_mesh.cell_barycenters.mean(axis=0)
    best, best_d = None, np.inf
    for tooth in np.unique(labels):
        if tooth == 0:
            continue
        d = np.linalg.norm(mesh.cell_barycenters[labels == tooth].mean(axis=0) - centroid)
        if d < best_d:
            best, best_d = int(tooth), d
    return best


def test_locate_landmarks_with_oracle_heatmaps():
    mesh, labels, landmarks = bump_scene(12, 0)

    # monkeypatch the forward hook with an oracle that emits the exact
    # Gaussian targets; decoding must then return nearest barycenters
    calls = []

    def fake_forward(net, roi_mesh, k_small, k_large):
        tooth = _tooth_from_roi(roi_mesh, mesh, labels)
        bary = roi_mesh.cell_barycenters
        positions = {n: p for (t, n), p in landmarks.items() if t == tooth}
        calls.append(tooth)
        return lm.encode_heatmaps(bary, tooth, positions)

    original = pl.network_output
    pl.network_output = fake_forward
    try:
        # one shared net per position type; 3 and 10 both map to type 3
        nets = {pl.position_type(3): object()}
        assert pl.position_type(10) in nets
        found, skipped = pl.locate_landmarks(nets, mesh, labels)
    finally:
        pl.network_output = original

    assert sorted(calls) == [3, 10]
    # teeth 3 and 10 exist; every other landmark tooth is absent
    assert skipped == [t for t in lm.landmark_teeth() if t not in (3, 10)]
    assert set(found) == {(t, n) for (t, n) in landmarks}
    for (tooth, name), (pos, conf, low) in found.items():
        true = landmarks[(tooth, name)]
        roi_bary = mesh.cell_barycenters[labels == tooth]
        best = roi_bary[np.argmin(np.sum((roi_bary - true) ** 2, axis=1))]
        assert np.allclose(pos, best)
        assert conf > 0.5 and not low


def test_locate_landmarks_skips_small_and_netless_rois():
    mesh, labels, _ = bump_scene(12, 0)
    # shrink tooth 10 below the cell floor
    cut = labels.copy()
    ids = np.nonzero(cut == 10)[0]
    cut[ids[3:]] = 0

    class TinyNet:
        uses_graphs = False

        def forward(self, x, training=False):
            return ad.Tensor(np.zeros((x.data.shape[0], 3)))

    nets = {pl.position_type(3): TinyNet()}
    found, skipped = pl.locate_landmarks(nets, mesh, cut)
    assert 10 in skipped  # too few cells
    assert set(t for (t, _) in found) == {3}

    # a present tooth with no net for its position type is skipped too
    found2, skipped2 = pl.locate_landmarks({}, mesh, labels)
    assert found2 == {}
    assert 3 in skipped2 and 10 in skipped2


def test_locate_landmarks_label_length_check():
    mesh, labels, _ = bump_scene(12, 0)
    with pytest.raises(SchemaError, match="labels for a mesh"):
        pl.locate_landmarks({}, mesh, labels[:-1])


def test_single_stage_landmarks_decoding():
    mesh, _, landmarks = bump_scene(12, 0)
    layout = lm.all_landmark_keys()

    class WholeScanNet:
        uses_graphs = False

        def forward(self, x, training=False):
            bary = mesh.cell_barycenters
            cols = []
            for tooth, name in layout:
                pos = landmarks.get((tooth, name))
                col = (
                    lm.encode_heatmaps(bary, tooth, {name: pos})[:, lm.landmark_names(tooth).index(name)]
                    if pos is not None
                    else np.zeros(bary.shape[0])
                )
                cols.append(col)
            return ad.Tensor(np.stack(cols, axis=1))

    found = pl.single_stage_landmarks(WholeScanNet(), mesh)
    assert set(found) == set(layout)
    for key, (pos, conf, low) in found.items():
        if key in landmarks:
            d = np.linalg.norm(pos - landmarks[key])
            assert d < 1.5  # nearest barycenter on this toy mesh
            assert not low
        else:
            assert low  # all-zero column decodes as low confidence


def test_single_stage_landmarks_column_check():
    mesh, _, _ = bump_scene(8, 0)

    class WrongWidth:
        uses_graphs = False

        def forward(self, x, training=False):
            return ad.Tensor(np.zeros((x.data.shape[0], 7)))

    with pytest.raises(ValueError, match="schema needs 44"):
        pl.single_stage_landmarks(WrongWidth(), mesh)


def test_segment_scan_refines_argmax_and_upsamples():
    mesh, labels, _ = bump_scene(10, 1)

    class FixedProbNet:
        def forward(self, x, g_small=None, g_large=None, training=False):
            n = x.data.shape[0]
            probs = np.full((n, 15), 1e-4)
            probs[np.arange(n), labels] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            return ad.Tensor(probs)

    result = pl.segment_scan(FixedProbNet(), mesh, mesh, lam=0.5)
    assert result.probabilities.shape == (mesh.num_cells, 15)
    assert len(result.energy_trace) >= 1
    # confident input survives the graph cut untouched, and the upsampler
    # fitted on the same cells gives them back
    assert np.array_equal(result.coarse_labels, labels)
    assert np.array_equal(result.fine_labels, labels)


def test_infer_two_stage_wires_everything(small_arch, monkeypatch):
    mesh, ann = small_arch
    labeled = pl.preprocess(mesh, ann, target_cells=1500)

    def no_origin_map(*args):
        raise AssertionError("inference read the origin map")

    # inference never maps fine cells to coarse ones
    monkeypatch.setattr(pl, "nearest_rows", no_origin_map)
    monkeypatch.setattr(geo, "nearest_rows", no_origin_map)
    scan = pl.preprocess(mesh, None, target_cells=1500)

    class OracleSegNet:
        def forward(self, x, g_small=None, g_large=None, training=False):
            n = x.data.shape[0]
            probs = np.full((n, 15), 1e-5)
            probs[np.arange(n), labeled.coarse_labels] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            return ad.Tensor(probs)

    class ZeroHeat:
        uses_graphs = False

        def __init__(self, width):
            self.width = width

        def forward(self, x, training=False):
            return ad.Tensor(np.zeros((x.data.shape[0], self.width)))

    nets = {p: ZeroHeat(len(lm.landmark_names(p))) for p in pl.heatmap_position_types()}
    out = pl.infer_two_stage(OracleSegNet(), nets, scan, lam=1.0)
    assert out.labels.shape == (mesh.num_cells,)
    assert np.array_equal(out.labels, out.segmentation.fine_labels)
    # upsampled labels agree closely with the annotation
    agree = float(np.mean(out.labels == ann.labels))
    assert agree > 0.95
    # zero heatmaps decode somewhere, flagged low confidence, none skipped
    assert out.skipped_teeth == []
    assert len(out.landmarks) == 44
    assert all(low for _, _, low in out.landmarks.values())
