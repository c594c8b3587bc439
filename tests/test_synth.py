"""Synthetic arch generator: determinism, schema consistency, guard rails."""

import math

import numpy as np
import pytest

from dentalmesh import landmarks as lm
from dentalmesh import synth
from dentalmesh.errors import GenerationError
from dentalmesh.synth import ArchSpec

from helpers import (
    reference_absorb_gum_pockets,
    reference_refine_apex,
    reference_surface_height,
)


def _teeth(spec: ArchSpec):
    curve = synth._ArchCurve(spec.width, spec.depth)
    return curve, synth._place_teeth(spec, curve, np.random.default_rng(spec.seed))


def test_spec_validation():
    with pytest.raises(GenerationError):
        ArchSpec(width=15.0).validate()
    with pytest.raises(GenerationError):
        ArchSpec(depth=8.0).validate()
    with pytest.raises(GenerationError, match="jitter"):
        ArchSpec(size_jitter=0.5).validate()
    with pytest.raises(GenerationError, match="jitter"):
        ArchSpec(size_jitter=-0.1).validate()
    with pytest.raises(GenerationError, match="too coarse"):
        ArchSpec(target_cells=1000).validate()
    with pytest.raises(GenerationError, match="missing-tooth"):
        ArchSpec(missing=(0,)).validate()
    with pytest.raises(GenerationError, match="missing-tooth"):
        ArchSpec(missing=(15,)).validate()
    ArchSpec().validate()  # defaults are fine


def test_generate_is_deterministic(small_arch):
    mesh, ann = small_arch
    mesh2, ann2 = synth.generate(ArchSpec(target_cells=4500, seed=3))
    assert np.array_equal(mesh.vertices, mesh2.vertices)
    assert np.array_equal(mesh.cells, mesh2.cells)
    assert np.array_equal(ann.labels, ann2.labels)
    assert set(ann.landmarks) == set(ann2.landmarks)
    for key in ann.landmarks:
        assert np.array_equal(ann.landmarks[key], ann2.landmarks[key])


def test_different_seeds_differ():
    a, _ = synth.generate(ArchSpec(target_cells=4500, seed=3))
    b, _ = synth.generate(ArchSpec(target_cells=4500, seed=4))
    assert not np.array_equal(a.vertices, b.vertices)


def test_generated_arch_schema(small_arch):
    mesh, ann = small_arch
    # cell budget honored to within the grid quantization
    assert abs(mesh.num_cells - 4500) / 4500 < 0.1
    ann.validate(mesh.num_cells)
    present = set(np.unique(ann.labels))
    assert present == set(range(0, 15))  # gingiva plus all 14 teeth
    # every landmark tooth carries its full schema, nothing extra
    for tooth in lm.landmark_teeth():
        names = {n for (t, n) in ann.landmarks if t == tooth}
        assert names == set(lm.landmark_names(tooth))
    assert len(ann.landmarks) == 44
    assert all((t, n) for (t, n) in ann.landmarks if t in lm.landmark_teeth())


def test_landmarks_sit_on_their_tooth(small_arch):
    # each landmark should be within a couple of mm of its tooth's cells
    mesh, ann = small_arch
    bary = mesh.cell_barycenters
    for (tooth, name), pos in ann.landmarks.items():
        d = np.linalg.norm(bary[ann.labels == tooth] - pos, axis=1).min()
        assert d < 2.5, f"{lm.landmark_key(tooth, name)} is {d:.2f} mm off its tooth"


def test_missing_teeth_leave_gaps():
    mesh, ann = synth.generate(ArchSpec(target_cells=4500, seed=5, missing=(4, 11)))
    present = set(np.unique(ann.labels))
    assert 4 not in present and 11 not in present
    # their landmarks disappear too
    assert not any(t in (4, 11) for (t, _) in ann.landmarks)
    ann.validate(mesh.num_cells)


def test_teeth_stand_above_gingiva(small_arch):
    mesh, ann = small_arch
    bary = mesh.cell_barycenters
    gum = bary[ann.labels == 0, 2].mean()
    for tooth in range(1, 15):
        crown = bary[ann.labels == tooth, 2]
        assert crown.size > 30  # every tooth has a real patch of surface
        assert crown.max() > gum + 2.0


def test_default_specs_recipe():
    specs = synth.default_specs(count=12, target_cells=9000, base_seed=100)
    assert len(specs) == 12
    assert all(s.target_cells == 9000 for s in specs)
    assert [s.seed for s in specs] == list(range(100, 112))
    widths = {s.width for s in specs}
    depths = {s.depth for s in specs}
    assert len(widths) == 5 and len(depths) == 3
    for spec in specs:
        spec.validate()


def test_sharp_arch_rejected():
    # narrow and deep bends the band past the fold limit
    with pytest.raises(GenerationError, match="bends too sharply"):
        synth.generate(ArchSpec(width=22.0, depth=60.0, target_cells=4500))


@pytest.mark.parametrize("spec", [
    ArchSpec(target_cells=4500, seed=3),
    ArchSpec(target_cells=9000, seed=1, missing=(4, 11)),
    ArchSpec(width=90.0, depth=50.0, size_jitter=0.12, rotation_jitter=10.0, seed=7),
])
def test_point_height_matches_numpy_scalar_path(spec):
    # bit for bit: the landmark and ascent points, seeded band points on and
    # around every crown and anywhere on the band, and points where a square
    # rounds differently as x * x and as pow(x, 2) (about 1 in 1,000 draws)
    curve, teeth = _teeth(spec)
    points = []
    for tooth in teeth:
        points.extend(synth._tooth_landmarks(tooth, teeth).values())
        points.append(np.array([tooth.center_arc, 0.0]))
    rng = np.random.default_rng(spec.seed)
    for tooth in teeth:
        s, t = rng.uniform(-1.1, 1.1, size=(2, 300, 1))
        offset = s * tooth.half_width * tooth.mesial + t * tooth.half_depth * tooth.buccal
        arc, cross = tooth.center_arc + offset[:, 0], offset[:, 1]
        s, t = synth._local_coords(tooth, arc, cross)
        rounds_apart = np.zeros(arc.size, dtype=bool)
        for cusp_s, cusp_t, _ in tooth.cusps:
            for d in (s - cusp_s, t - cusp_t):
                rounds_apart |= [x * x != math.pow(x, 2.0) for x in d.tolist()]
        points.extend(np.stack([arc, cross], axis=1)[:20])
        points.extend(np.stack([arc, cross], axis=1)[rounds_apart])
    arc = rng.uniform(-curve.half_arc, curve.half_arc, 5000)
    cross = rng.uniform(-synth.BAND_DEPTH / 2.0, synth.BAND_DEPTH / 2.0, 5000)
    q = (cross / synth.GINGIVA_SIGMA).tolist()
    gum_apart = np.array([x * x != math.pow(x, 2.0) for x in q])
    points.extend(np.stack([arc, cross], axis=1)[:100])
    points.extend(np.stack([arc, cross], axis=1)[gum_apart])
    assert len(points) > 400 and gum_apart.any()
    for arc, cross in points:
        expected = float(reference_surface_height(teeth, arc, cross))
        assert synth._point_height(teeth, arc, cross) == expected, (arc, cross)


@pytest.mark.parametrize("spec", [
    ArchSpec(target_cells=4500, seed=3),
    ArchSpec(target_cells=9000, seed=1),
    ArchSpec(target_cells=4500, seed=5, missing=(4, 11)),
])
def test_generate_matches_numpy_scalar_ascent_and_union_find(spec, monkeypatch):
    mesh, ann = synth.generate(spec)
    moved = []

    def absorb(labels, *args):
        out = reference_absorb_gum_pockets(labels, *args)
        moved.append(int(np.count_nonzero(out != labels)))
        return out

    monkeypatch.setattr(synth, "_surface_height", reference_surface_height)
    monkeypatch.setattr(synth, "_point_height",
                        lambda teeth, a, c: float(reference_surface_height(teeth, a, c)))
    monkeypatch.setattr(synth, "_refine_apex", reference_refine_apex)
    monkeypatch.setattr(synth, "_absorb_gum_pockets", absorb)
    ref_mesh, ref_ann = synth.generate(spec)
    assert moved[0] > 0  # the arch has stranded gum cells
    assert np.array_equal(mesh.vertices, ref_mesh.vertices)
    assert np.array_equal(mesh.cells, ref_mesh.cells)
    assert np.array_equal(ann.labels, ref_ann.labels)
    assert ann.landmarks.keys() == ref_ann.landmarks.keys()
    for key, pos in ann.landmarks.items():
        assert np.array_equal(pos, ref_ann.landmarks[key]), key


def test_gum_tie_goes_to_component_with_lowest_cell():
    # cells 0..4 all gum: components {0, 3} and {1, 2} are equally large;
    # a union-find rooting each pair at its second cell would keep {1, 2}
    _, teeth = _teeth(ArchSpec(seed=0))
    tooth = teeth[4]
    arc = np.full(5, tooth.center_arc)
    cross = np.zeros(5)
    labels = np.zeros(5, dtype=np.int64)
    pairs = np.array([[0, 3], [1, 2]])
    out = synth._absorb_gum_pockets(labels, pairs, teeth, arc, cross)
    assert out.tolist() == [0, tooth.tooth_id, tooth.tooth_id, 0, tooth.tooth_id]
    # size still comes first: a third cell makes {1, 2, 4} the main component
    out = synth._absorb_gum_pockets(labels, np.array([[0, 3], [1, 2], [2, 4]]),
                                    teeth, arc, cross)
    assert out.tolist() == [tooth.tooth_id, 0, 0, tooth.tooth_id, 0]
    # tooth cells do not join gum cells into one component
    labels = np.array([0, 0, 9, 0, 0])
    out = synth._absorb_gum_pockets(labels, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
                                    teeth, arc, cross)
    assert out.tolist() == [0, 0, 9, tooth.tooth_id, tooth.tooth_id]
