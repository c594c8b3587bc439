"""Tooth/landmark schema and Gaussian heatmap encode/decode."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentalmesh import landmarks as lm
from dentalmesh.config import RunConfig
from dentalmesh.errors import DentalMeshError, SchemaError, ShapeError


def test_schema_column_pattern():
    # per-position landmark counts, identical on both sides
    counts = {pos: len(lm.landmark_names(pos)) for pos in range(1, 8)}
    assert counts == {1: 4, 2: 4, 3: 3, 4: 5, 5: 0, 6: 6, 7: 0}
    for pos in range(1, 8):
        assert lm.landmark_names(pos) == lm.landmark_names(pos + 7)
    per_side = sum(counts.values())
    assert per_side == 22
    assert len(lm.all_landmark_keys()) == 44


def test_landmark_teeth_and_key_order():
    assert lm.landmark_teeth() == (1, 2, 3, 4, 6, 8, 9, 10, 11, 13)
    keys = lm.all_landmark_keys()
    # canonical order: tooth ascending, schema order within a tooth
    expected = []
    for tooth in range(1, lm.NUM_TEETH + 1):
        expected.extend((tooth, name) for name in lm.landmark_names(tooth))
    assert keys == expected


def test_tooth_names():
    assert lm.tooth_name(1) == "UR1"
    assert lm.tooth_name(7) == "UR7"
    assert lm.tooth_name(8) == "UL1"
    assert lm.tooth_name(14) == "UL7"
    for t in range(1, 15):
        assert lm.tooth_id_from_name(lm.tooth_name(t)) == t
    for bad in (0, 15, -3):
        with pytest.raises(SchemaError):
            lm.tooth_name(bad)
    for bad in ("UR0", "UL8", "LL3", "URx", "U1"):
        with pytest.raises(SchemaError):
            lm.tooth_id_from_name(bad)


def test_encode_peak_and_sigma_point():
    bary = np.array(
        [
            [0.0, 0.0, 0.0],  # at the landmark
            [RunConfig.sigma, 0.0, 0.0],  # exactly one sigma out
            [100.0, 0.0, 0.0],  # far away
        ]
    )
    heat = lm.encode_heatmaps(bary, 3, {"CCT": np.zeros(3)})
    assert heat.shape == (3, 3)
    col = list(lm.landmark_names(3)).index("CCT")
    assert heat[0, col] == pytest.approx(RunConfig.peak, abs=1e-15)
    assert heat[1, col] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert heat[2, col] < 1e-80
    # names missing from positions give all-zero columns
    other = [c for c in range(3) if c != col]
    assert np.all(heat[:, other] == 0.0)


def test_encode_custom_sigma_and_peak():
    bary = np.array([[2.0, 0.0, 0.0]])
    heat = lm.encode_heatmaps(bary, 1, {"DCP": np.zeros(3)}, sigma=2.0, peak=3.0)
    col = lm.landmark_names(1).index("DCP")
    assert heat[0, col] == pytest.approx(3.0 * math.exp(-0.5), abs=1e-12)
    with pytest.raises(ValueError, match="sigma"):
        lm.encode_heatmaps(bary, 1, {}, sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        lm.encode_heatmaps(bary, 1, {}, sigma=-1.0)


def test_decode_returns_nearest_barycenter(rng):
    # the Gaussian falls off with distance, so argmax-decode must return
    # the barycenter closest to the true landmark
    bary = rng.normal(scale=4.0, size=(60, 3))
    for tooth in (3, 6):
        positions = {
            name: rng.normal(scale=4.0, size=3) for name in lm.landmark_names(tooth)
        }
        heat = lm.encode_heatmaps(bary, tooth, positions)
        decoded = lm.decode_heatmaps(bary, tooth, heat)
        assert set(decoded) == set(lm.landmark_names(tooth))
        for name, (pos, conf, low) in decoded.items():
            d2 = np.sum((bary - positions[name]) ** 2, axis=1)
            assert np.array_equal(pos, bary[np.argmin(d2)])
            assert conf == pytest.approx(np.exp(-d2.min() / 50.0), abs=1e-12)
            assert low == (conf < lm.LOW_CONFIDENCE)


def test_decode_tie_goes_to_lowest_cell():
    bary = np.arange(12, dtype=np.float64).reshape(4, 3)
    heat = np.zeros((4, len(lm.landmark_names(3))))
    heat[1, 0] = 0.7
    heat[3, 0] = 0.7
    decoded = lm.decode_heatmaps(bary, 3, heat)
    name = lm.landmark_names(3)[0]
    assert np.array_equal(decoded[name][0], bary[1])


def test_decode_low_confidence_flag():
    bary = np.zeros((2, 3))
    heat = np.full((2, 3), 0.05)
    decoded = lm.decode_heatmaps(bary, 3, heat)
    assert all(low for _, _, low in decoded.values())
    heat[0, :] = 0.5
    decoded = lm.decode_heatmaps(bary, 3, heat)
    assert not any(low for _, _, low in decoded.values())


def test_decode_shape_mismatch():
    # a typed package error, so the CLI exits 2 instead of printing a traceback
    assert issubclass(ShapeError, DentalMeshError)
    bary = np.zeros((5, 3))
    with pytest.raises(ShapeError, match="does not match"):
        lm.decode_heatmaps(bary, 3, np.zeros((5, 4)))
    with pytest.raises(ShapeError, match="does not match"):
        lm.decode_heatmaps(bary, 3, np.zeros((4, 3)))
    with pytest.raises(ShapeError, match="does not match"):
        lm.decode_heatmaps(bary, 3, np.zeros(15))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sigma=st.floats(0.5, 20.0),
    peak=st.floats(0.1, 5.0),
)
def test_encode_bounded_and_distance_monotone(seed, sigma, peak):
    rng = np.random.default_rng(seed)
    bary = rng.normal(scale=10.0, size=(30, 3))
    point = rng.normal(scale=10.0, size=3)
    heat = lm.encode_heatmaps(bary, 3, {"CCT": point}, sigma=sigma, peak=peak)
    col = lm.landmark_names(3).index("CCT")
    vals = heat[:, col]
    assert np.all(vals >= 0.0) and np.all(vals <= peak + 1e-12)
    d2 = np.sum((bary - point) ** 2, axis=1)
    order = np.argsort(d2)
    assert np.all(np.diff(vals[order]) <= 1e-12)
