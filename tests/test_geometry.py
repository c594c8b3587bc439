"""Geometry: features, graphs, decimation, ROIs, augmentation."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentalmesh import geometry as geo
from dentalmesh.errors import (
    DecimationError,
    DentalMeshError,
    SchemaError,
    ShapeError,
)

from dentalmesh.mesh_io import TriMesh
from dentalmesh.pipeline import preprocess
from dentalmesh.synth import default_specs, generate

from helpers import (
    dihedral_class,
    grid_mesh,
    hinge_mesh,
    rebuilding_decimate,
    reference_decimate,
    shared_edge,
    sphere_mesh,
    torus7,
)


def test_extract_features_matches_hand_computation(rng):
    mesh = grid_mesh(4, 3, seed=1)
    feats = geo.extract_features(mesh)
    n = mesh.num_cells
    raw = np.empty((n, 15))
    raw[:, 0:9] = mesh.vertices[mesh.cells].reshape(n, 9)
    raw[:, 9:12] = mesh.cell_normals
    bary = mesh.cell_barycenters
    lo, hi = mesh.bbox
    raw[:, 12:15] = (bary - bary.mean(axis=0)) / (0.5 * np.linalg.norm(hi - lo))
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std < 1e-12] = 1.0
    assert np.allclose(feats.matrix, (raw - mean) / std)
    assert feats.matrix.shape == (n, 15)
    cols_std = feats.matrix.std(axis=0)
    # constant raw columns stay exactly zero, everything else is unit scale
    assert np.all(np.isclose(cols_std, 1.0) | np.isclose(cols_std, 0.0))
    assert np.allclose(feats.matrix.mean(axis=0), 0.0, atol=1e-9)


def test_knn_graph_against_brute_force(rng):
    points = rng.normal(size=(40, 3))
    k = 5
    graph = geo.knn_graph(points, k)
    assert graph.neighbors.shape == (40, k)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    for i in range(40):
        assert graph.neighbors[i, 0] == i  # self first
        others = np.argsort(d2[i], kind="stable")
        expected = {i} | set(others[others != i][: k - 1].tolist())
        assert set(graph.neighbors[i].tolist()) == expected


def test_knn_graph_feature_space_ignores_geometry(rng):
    # an (N, 6) feature array is measured across all six columns
    feats = rng.normal(size=(12, 6))
    g = geo.knn_graph(feats, 4)
    d2 = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
    for i in range(12):
        others = np.argsort(d2[i], kind="stable")
        expected = {i} | set(others[others != i][:3].tolist())
        assert set(g.neighbors[i].tolist()) == expected


def _stable_argsort_knn(points, k):
    """kNN by a full stable argsort of every distance row, self first."""
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    d2[np.arange(len(points)), np.arange(len(points))] = -np.inf
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def test_knn_graph_clamps_large_k(rng):
    points = rng.normal(size=(5, 3))
    with pytest.warns(UserWarning, match="clamping"):
        g = geo.knn_graph(points, 9)
    assert g.k == 5
    repeated = rng.integers(0, 3, size=(7, 2)).astype(np.float64)
    with pytest.warns(UserWarning, match="clamping"):
        g = geo.knn_graph(repeated, 10)
    assert np.array_equal(g.neighbors, _stable_argsort_knn(repeated, 7))
    with pytest.raises(ShapeError):
        geo.knn_graph(points, 0)


@pytest.mark.parametrize("n", [200, 1000])
def test_knn_graph_equals_stable_argsort_on_random_points(n):
    points = np.random.default_rng(n).normal(scale=10.0, size=(n, 3))
    for k in (6, 12):
        expected = _stable_argsort_knn(points, k)
        assert np.array_equal(geo.knn_graph(points, k).neighbors, expected)


def test_knn_graph_keeps_lower_indices_at_tied_kth_distance():
    # on a unit lattice most cells have several neighbors at the k-th distance
    g = np.arange(9, dtype=np.float64)
    points = np.stack(np.meshgrid(g, g, g[:3], indexing="ij"), axis=-1).reshape(-1, 3)
    for k in (2, 5, 6, 7, 12, 19):
        expected = _stable_argsort_knn(points, k)
        assert np.array_equal(geo.knn_graph(points, k).neighbors, expected), k


def test_narrowed_graph_is_the_smaller_knn_graph(rng):
    points = rng.integers(0, 4, size=(60, 3)).astype(np.float64)  # many ties
    wide = geo.knn_graph(points, 12)
    for k in (1, 6, 12):
        narrow = wide.narrowed(k)
        assert narrow.k == k
        assert np.array_equal(narrow.neighbors, geo.knn_graph(points, k).neighbors)
    assert wide.narrowed(20).k == 12
    with pytest.raises(ShapeError, match="k must be >= 1"):
        wide.narrowed(0)


def test_knn_graph_rejects_bad_input_with_shape_error(rng):
    # a typed package error, so the CLI exits 2 instead of printing a traceback
    assert issubclass(ShapeError, DentalMeshError)
    with pytest.raises(ShapeError, match="nonempty 2-D"):
        geo.knn_graph(rng.normal(size=8), 3)
    with pytest.raises(ShapeError, match="nonempty 2-D"):
        geo.knn_graph(np.zeros((0, 3)), 3)
    with pytest.raises(ShapeError, match="k must be >= 1"):
        geo.knn_graph(rng.normal(size=(8, 3)), -2)


def test_nearest_rows_oracle(rng):
    refs = rng.normal(size=(30, 3))
    queries = rng.normal(size=(17, 3))
    idx = geo.nearest_rows(queries, refs)
    d2 = ((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(idx, np.argmin(d2, axis=1))


def test_distance_blocks_do_not_change_the_result(monkeypatch):
    """Blocks of one row and of several rows give the one-block arrays, ties
    among duplicated and coincident points included. The duplicated points
    sit on a grid of eighths, where every distance is exact: in one block
    numpy's symmetric product can give duplicates of random points unequal
    distances from the same row, which breaks their tie either way."""
    rng = np.random.default_rng(5)
    scattered = rng.normal(size=(150, 3))
    duplicated = rng.integers(-40, 40, size=(150, 3)) / 8.0
    duplicated[100:] = duplicated[:50]
    refs = rng.integers(-40, 40, size=(40, 3)) / 8.0
    refs[20:] = refs[:20]
    coincident = np.zeros((60, 3))

    def results():
        return [geo._knn_indices(scattered, 12), geo._knn_indices(duplicated, 12),
                geo._knn_indices(coincident, 12), geo.nearest_rows(scattered, refs),
                geo.nearest_rows(duplicated, refs), geo.nearest_rows(duplicated, coincident)]

    one_block = results()
    for block in (64, 1000):
        monkeypatch.setattr(geo, "DISTANCE_BLOCK", block)
        for got, expected in zip(results(), one_block):
            assert np.array_equal(got, expected), block


def test_cell_adjacency_grid():
    mesh = grid_mesh(4, 4)
    adj = geo.cell_adjacency(mesh)
    assert adj.shape[1] == 2
    # interior diagonal edges pair each quad's two triangles
    counts = np.bincount(adj.ravel(), minlength=mesh.num_cells)
    assert counts.max() <= 3
    for i, j in adj:
        shared = shared_edge(mesh, int(i), int(j))
        assert len(shared) == 2
    with pytest.raises(ValueError, match="not an edge"):
        shared_edge(mesh, 0, mesh.num_cells - 1)


def test_cell_adjacency_matches_brute_force():
    # a fan of four cells on the edge (0, 1), cell 4 a duplicate of cell 1,
    # and cell 5 touching the fan at vertex 0 only
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                         [0, 0, -1], [-1, 0, 0], [-1, 1, 0]], dtype=np.float64)
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 0, 5], [1, 0, 3], [0, 6, 7]])
    mesh = TriMesh(vertices, cells)
    expected = [(i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))
                if len(set(cells[i]) & set(cells[j])) >= 2]
    adj = geo.cell_adjacency(mesh)
    assert adj.dtype == np.int64
    assert adj.tolist() == [list(p) for p in expected]
    assert [1, 4] in adj.tolist() and len(expected) == 10
    assert geo.cell_adjacency(TriMesh(vertices, cells[5:])).shape == (0, 2)


def test_dihedral_flat_and_fold_angle():
    theta, kind = dihedral_class(hinge_mesh(0.0), 0, 1)
    assert kind == "flat"
    assert theta == pytest.approx(np.pi)
    # folding up by 60 degrees leaves a 120 degree interior angle
    theta, kind = dihedral_class(hinge_mesh(np.pi / 3.0), 0, 1)
    assert theta == pytest.approx(np.pi - np.pi / 3.0)
    assert kind == "concave"
    # folding down is convex, same angle magnitude
    theta, kind = dihedral_class(hinge_mesh(-np.pi / 3.0), 0, 1)
    assert theta == pytest.approx(np.pi - np.pi / 3.0)
    assert kind == "convex"


def _origin_map(fine: TriMesh, coarse: TriMesh) -> np.ndarray:
    return geo.nearest_rows(fine.cell_barycenters, coarse.cell_barycenters)


def test_decimate_reaches_target(small_arch):
    mesh, _ = small_arch
    coarse = geo.decimate(mesh, 1500).coarse
    origin = _origin_map(mesh, coarse)
    assert coarse.num_cells <= 1500
    assert coarse.num_cells >= 1500 - 2
    assert origin.shape == (mesh.num_cells,)
    assert origin.min() >= 0 and origin.max() < coarse.num_cells


# outputs of the round-based decimation on the small_arch fixture
# (4,500 -> 400 cells): the integer cells and origin map, and the float64
# coarse vertices
DECIMATE_VERTICES_SHA256 = "59b4c8e86ad3dc8ab0231e705f3261d699d6701bb061e2dab87ecd827db5f5e9"
DECIMATE_CELLS_SHA256 = "e4ada6b1c916f0ebcb4238d6c111cf3786b433edd2e655d11e0ee4f01d85dad3"
DECIMATE_ORIGIN_SHA256 = "07a2f37ee854bc2e333c5508140cfc7ff5ff886406c0403d45af422b2a7af94b"
DECIMATE_COLLAPSES = 2179


def test_decimate_reproduces_recorded_collapse_sequence(small_arch):
    mesh, _ = small_arch
    coarse = geo.decimate(mesh, 400).coarse
    origin = _origin_map(mesh, coarse)
    assert mesh.num_vertices - coarse.num_vertices == DECIMATE_COLLAPSES
    assert coarse.cells.dtype == np.int64 and origin.dtype == np.int64
    assert coarse.vertices.dtype == np.float64
    assert hashlib.sha256(coarse.cells.tobytes()).hexdigest() == DECIMATE_CELLS_SHA256
    assert hashlib.sha256(coarse.vertices.tobytes()).hexdigest() == DECIMATE_VERTICES_SHA256
    assert hashlib.sha256(origin.tobytes()).hexdigest() == DECIMATE_ORIGIN_SHA256


@pytest.mark.parametrize("target", [400, 1500, 3000, 4499])
def test_decimate_lands_on_target_deterministically(small_arch, target):
    mesh, _ = small_arch
    coarse = geo.decimate(mesh, target).coarse
    again = geo.decimate(mesh, target).coarse
    origin, origin_again = _origin_map(mesh, coarse), _origin_map(mesh, again)
    assert np.array_equal(coarse.cells, again.cells)
    assert coarse.vertices.tobytes() == again.vertices.tobytes()
    assert np.array_equal(origin, origin_again)
    assert target - 2 <= coarse.num_cells <= target
    cells = np.sort(coarse.cells, axis=1)
    assert np.all(cells[:, :2] != cells[:, 1:])  # three distinct corners
    assert coarse.cell_areas.min() > 1e-12


def _with_fin(mesh: TriMesh) -> TriMesh:
    """mesh plus one cell on the interior diagonal (0, 13) of a 12 x 12
    grid, which three cells then share."""
    assert len({c for c in range(mesh.num_cells)
                if {0, 13} <= set(mesh.cells[c].tolist())}) == 2
    apex = 0.5 * (mesh.vertices[0] + mesh.vertices[13]) + np.array([0.0, 0.0, 0.7])
    return TriMesh(np.vstack([mesh.vertices, apex]),
                   np.vstack([mesh.cells, [[0, 13, mesh.num_vertices]]]))


def _with_torus(mesh: TriMesh) -> TriMesh:
    """mesh plus a far-off 7-vertex torus, whose every collapse fails the
    link condition."""
    torus = torus7()
    return TriMesh(np.vstack([mesh.vertices, torus.vertices + 100.0]),
                   np.vstack([mesh.cells, torus.cells + mesh.num_vertices]))


ROUGH_GRID = grid_mesh(12, 12, height=np.random.default_rng(1).normal(0.0, 0.8, (12, 12)))


@pytest.mark.parametrize("case", ["open grid and torus", "non-manifold edge", "closed sphere"])
def test_decimate_matches_edge_by_edge_rounds(case):
    mesh = {"open grid and torus": _with_torus(ROUGH_GRID),
            "non-manifold edge": _with_fin(grid_mesh(12, 12, seed=4)),
            "closed sphere": sphere_mesh(12, 16)}[case]
    coarse = geo.decimate(mesh, 100).coarse
    vertices, cells, stats = reference_decimate(mesh, 100)
    assert np.array_equal(coarse.cells, cells)
    assert coarse.vertices.tobytes() == vertices.tobytes()
    rebuilt = rebuilding_decimate(mesh, 100)
    assert np.array_equal(coarse.cells, rebuilt.cells)
    assert coarse.vertices.tobytes() == rebuilt.vertices.tobytes()
    assert 98 <= coarse.num_cells <= 100
    if case == "open grid and torus":
        # both checks reject edges, and a flip-rejected edge is collapsed
        # after one of its endpoints survived another collapse
        assert stats["link"] > 0 and stats["flip"] > 0 and stats["readmitted"] > 0


def test_collapse_costs_are_einsums_bits_in_any_batch():
    """The term-by-term QEM sum gives np.einsum's bits for every edge, on
    exact and rounded inputs alike, and the same bits in a smaller batch."""
    rng = np.random.default_rng(8)
    for trial in range(6):
        positions = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-6, 6)
        if trial % 2:
            positions = np.round(positions)  # exact terms and zero sums
        factor = rng.standard_normal((300, 4, 4))
        quadrics = factor @ factor.transpose(0, 2, 1)
        a, b = rng.integers(0, 300, 2000), rng.integers(0, 300, 2000)
        costs, choice = geo._collapse_costs(positions, quadrics, a, b)
        pa, pb = positions[a], positions[b]
        cand = np.ones((a.size, 3, 4))
        cand[:, 0, :3], cand[:, 1, :3], cand[:, 2, :3] = 0.5 * (pa + pb), pa, pb
        expected = np.einsum("nij,njk,nik->ni", cand, quadrics[a] + quadrics[b], cand)
        assert np.array_equal(choice, np.argmin(expected, axis=1))
        rows = np.arange(a.size)
        assert costs.tobytes() == expected[rows, choice].tobytes()
        targets = geo._collapse_targets(positions, a, b, choice)
        assert targets.tobytes() == cand[rows, choice, :3].tobytes()
        some = rng.choice(a.size, 77, replace=False)
        assert geo._collapse_costs(positions, quadrics, a[some], b[some])[0].tobytes() == \
            costs[some].tobytes()


def test_decimate_raises_when_every_collapse_fails():
    torus = torus7()
    mesh = TriMesh(np.vstack([torus.vertices + 10.0 * i for i in range(8)]),
                   np.vstack([torus.cells + 7 * i for i in range(8)]))
    with pytest.raises(DecimationError, match="no valid collapses left at 112 cells"):
        geo.decimate(mesh, 100)


def test_decimate_sphere_keeps_area():
    # area oracle on a smooth closed surface: 10x reduction should not
    # eat more than 5% of the total area
    sphere = sphere_mesh()
    fine_area = sphere.cell_areas.sum()
    coarse = geo.decimate(sphere, sphere.num_cells // 10).coarse
    coarse_area = coarse.cell_areas.sum()
    assert abs(coarse_area - fine_area) / fine_area < 0.05


def test_decimate_identity_and_floor(small_arch):
    mesh, _ = small_arch
    same = geo.decimate(mesh, mesh.num_cells + 10).coarse
    assert same is mesh
    with pytest.raises(DecimationError):
        geo.decimate(mesh, 50)


def test_origin_map_is_nearest_coarse_barycenter(small_arch):
    mesh, _ = small_arch
    scan = preprocess(mesh, None, 1500)
    expected = geo.nearest_rows(mesh.cell_barycenters, scan.coarse.cell_barycenters)
    assert np.array_equal(scan.origin_map, expected)
    assert scan.origin_map is scan.origin_map  # found once
    # an identity pass maps every cell to itself
    assert np.array_equal(preprocess(mesh, None, mesh.num_cells).origin_map,
                          np.arange(mesh.num_cells))


@functools.lru_cache(maxsize=None)
def _default_arch(cells: int, seed: int) -> TriMesh:
    """The arch of that seed in default_specs(base_seed=1), as the benchmark
    draws them."""
    return generate(default_specs(count=3, target_cells=cells, base_seed=1)[seed - 1])[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cells, target", [(4500, 400), (9000, 400), (12000, 400),
                                           (12000, 4500)])
def test_decimate_matches_rebuilding_every_round(cells, target, seed):
    """Edges kept from round to round give the coarse mesh, bit for bit,
    that rebuilding every edge every round gave."""
    mesh = _default_arch(cells, seed)
    coarse = geo.decimate(mesh, target).coarse
    rebuilt = rebuilding_decimate(mesh, target)
    assert coarse.vertices.tobytes() == rebuilt.vertices.tobytes()
    assert np.array_equal(coarse.cells, rebuilt.cells)
    assert np.array_equal(_origin_map(mesh, coarse), _origin_map(mesh, rebuilt))


def test_decimate_ranks_nan_costs_as_rebuilding_every_round(small_arch):
    """Edges at NaN vertices cost NaN and rank last, in (u, v) order, kept
    and fresh ones alike."""
    mesh, _ = small_arch
    vertices = mesh.vertices.copy()
    vertices[np.random.default_rng(1).choice(mesh.num_vertices, 30, replace=False)] = np.nan
    mesh = TriMesh(vertices, mesh.cells)
    coarse = geo.decimate(mesh, 400).coarse
    rebuilt = rebuilding_decimate(mesh, 400)
    assert coarse.vertices.tobytes() == rebuilt.vertices.tobytes()
    assert np.array_equal(coarse.cells, rebuilt.cells)


def test_transfer_labels_majority_and_ties():
    origin = np.array([0, 0, 0, 1, 1, 2])
    fine = np.array([5, 5, 3, 7, 2, 9])
    out = geo.transfer_labels(origin, fine, num_coarse=4)
    assert out[0] == 5  # majority
    assert out[1] == 2  # tie resolved to the lower label
    assert out[2] == 9
    assert out[3] == 0  # nothing mapped: gingiva


def test_extract_roi(bump_fixture):
    mesh, labels, _ = bump_fixture
    roi = geo.extract_roi(mesh, labels, 3)
    assert roi is not None
    assert roi.tooth_id == 3
    assert roi.mesh.num_cells == int((labels == 3).sum())
    assert np.array_equal(roi.cell_ids, np.nonzero(labels == 3)[0])
    # submesh cells keep their barycenters
    assert np.allclose(roi.mesh.cell_barycenters, mesh.cell_barycenters[roi.cell_ids])
    assert geo.extract_roi(mesh, labels, 7) is None
    with pytest.raises(SchemaError):
        geo.extract_roi(mesh, labels[:-1], 3)


def test_extract_roi_rejects_label_count_with_schema_error(bump_fixture):
    # a typed package error, so the CLI exits 2 instead of printing a traceback
    assert issubclass(SchemaError, DentalMeshError)
    mesh, labels, _ = bump_fixture
    extra = np.concatenate([labels, [3]])
    with pytest.raises(SchemaError, match=f"{mesh.num_cells + 1} labels for a mesh "
                                          f"with {mesh.num_cells} cells"):
        geo.extract_roi(mesh, extra, 3)


def test_rotation_matrix_properties():
    angles = np.array([0.3, -1.1, 2.0])
    r = geo.rotation_matrix(angles)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)
    # axis order is z after y after x
    rx = geo.rotation_matrix([angles[0], 0, 0])
    ry = geo.rotation_matrix([0, angles[1], 0])
    rz = geo.rotation_matrix([0, 0, angles[2]])
    assert np.allclose(r, rz @ ry @ rx)


def test_augmentation_moves_landmarks_with_vertices(bump_fixture):
    mesh, labels, landmarks = bump_fixture
    aug = geo.RigidAugmentation(
        translation=np.array([4.0, -2.0, 1.0]),
        rotation=np.array([0.2, 0.5, -0.4]),
        scale=np.array([1.1, 0.9, 1.05]),
    )
    out_mesh = geo.apply_augmentation(mesh, aug)
    # a landmark on vertex 5 lands on the augmented vertex 5 through the
    # transform the heatmap training step applies to its targets
    moved = aug.move_landmarks({(3, "CCT"): mesh.vertices[5].copy()})
    assert np.allclose(moved[(3, "CCT")], out_mesh.vertices[5])
    assert np.array_equal(out_mesh.cells, mesh.cells)
    # scale happens in the object frame, before rotation
    linear = geo.rotation_matrix(aug.rotation) * aug.scale[None, :]
    assert np.allclose(out_mesh.vertices, mesh.vertices @ linear.T + aug.translation)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sample_augmentation_bounds(seed):
    aug = geo.sample_augmentation(np.random.default_rng(seed))
    assert np.all(np.abs(aug.translation) <= 10.0)
    assert np.all(np.abs(aug.rotation) <= np.pi)
    assert np.all((aug.scale >= 0.8) & (aug.scale <= 1.2))


def test_augment_is_deterministic(bump_fixture):
    mesh, _, _ = bump_fixture

    def augment(seed):
        aug = geo.sample_augmentation(np.random.default_rng(seed))
        return geo.apply_augmentation(mesh, aug), aug

    m1, t1 = augment(11)
    m2, t2 = augment(11)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(t1.translation, t2.translation)
    m3, _ = augment(12)
    assert not np.array_equal(m1.vertices, m3.vertices)
