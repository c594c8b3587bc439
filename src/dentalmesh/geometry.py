"""Mesh geometry operations feeding the learning pipeline.

Covers quadric edge-collapse decimation, run in rounds of independent
collapses that keep their edges, costs and rejections from one round to
the next; the fine-to-coarse cell map (each fine cell's nearest coarse
barycenter, nearest_rows) and majority-vote label transfer through it;
edge-sharing cell pairs; 15-column per-cell feature extraction, kNN graph
construction, per-tooth ROI extraction, and the random rigid augmentation
the training loops draw from.

The kNN graphs and the fine-to-coarse map are exhaustive searches over
dense distance blocks of at most DISTANCE_BLOCK entries (or one row), so
their memory stays bounded at any mesh size. A block's cross term is one
BLAS product, whose last bit can depend on the block's shape: distances
that tie only to within rounding may order differently under another
block size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import landmarks as lm
from .errors import DecimationError, SchemaError, ShapeError
from .mesh_io import TriMesh

MIN_DECIMATION_TARGET = 100
FEATURE_DIM = 15
DISTANCE_BLOCK = 2**20  # entries per block of a pairwise distance matrix (8 MB in float64)

TRANSLATION_RANGE = 10.0  # mm
SCALE_RANGE = (0.8, 1.2)
AUGMENT_ACTIVE_PROB = 0.5


# ---------------------------------------------------------------------------
# edge-sharing cell pairs

def _side_keys(cells: np.ndarray, num_vertices: int) -> np.ndarray:
    """(N, 3) keys u * num_vertices + v (u < v) of each cell's sides."""
    nxt = cells[:, [1, 2, 0]]
    return np.minimum(cells, nxt) * np.int64(num_vertices) + np.maximum(cells, nxt)


def _cell_sides(cells: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cell side as the key u * num_vertices + v (u < v), with its cell.

    Sorted by (key, cell), so the cells that share an edge form one run.
    """
    key = _side_keys(cells, num_vertices).ravel()
    order = np.argsort(key, kind="stable")
    return key[order], order // 3


def cell_adjacency(mesh: TriMesh) -> np.ndarray:
    """Unordered pairs (i, j), i < j, of cells sharing an edge.

    Returned lexicographically sorted, one row per pair. Edges shared by
    more than two cells (non-manifold) contribute all pairwise combinations.
    """
    key, cell = _cell_sides(mesh.cells, mesh.num_vertices)
    n = np.int64(mesh.num_cells)
    pairs = [np.empty(0, dtype=np.int64)]
    # cells in a run ascend, so lag d pairs each cell with the one d later
    for lag in range(1, key.size):
        same = key[lag:] == key[:-lag]
        if not same.any():
            break
        a, b = cell[:-lag][same], cell[lag:][same]
        pairs.append(a[a != b] * n + b[a != b])
    flat = np.unique(np.concatenate(pairs))
    return np.stack([flat // n, flat % n], axis=1)


# ---------------------------------------------------------------------------
# kNN graphs

@dataclass
class KnnGraph:
    """Neighbor lists per cell; column 0 is the cell itself (self-loop)."""

    k: int
    neighbors: np.ndarray  # (N, k) int64

    @property
    def num_cells(self) -> int:
        return self.neighbors.shape[0]

    def narrowed(self, k: int) -> KnnGraph:
        """The graph of the k nearest (clamped to this graph's k).

        Columns are in (distance, index) order, so the first k of them are
        exactly what knn_graph(points, k) returns.
        """
        if k < 1:
            raise ShapeError(f"k must be >= 1, got {k}")
        k = min(k, self.k)
        return KnnGraph(k=k, neighbors=self.neighbors[:, :k])


def _knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Per row, the first k columns of a stable argsort of the distances.

    Rows are taken in blocks of at most DISTANCE_BLOCK distances (or one
    row). argpartition finds k smallest distances. Where more than k reach the
    k-th smallest value, the lowest indices at that value are kept, as the
    stable sort keeps them; the k are then ordered by (distance, index).
    Ties are ties of the computed distances: the BLAS cross term can give
    exact duplicates of a point unequal distances from the same row, and
    its rounding depends on the block shape, so duplicates and near-ties
    may come out in either order.
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((n, k), dtype=np.int64)
    chunk = max(1, DISTANCE_BLOCK // n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (points[lo:hi] @ points.T)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf  # self sorts first
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, part, axis=1).max(axis=1, keepdims=True)
        tied = np.count_nonzero(d2 <= kth, axis=1) > k
        if tied.any():
            rows, bound = d2[tied], kth[tied]
            at = rows == bound
            room = k - np.count_nonzero(rows < bound, axis=1, keepdims=True)
            keep = (rows < bound) | (at & (np.cumsum(at, axis=1) <= room))
            part[tied] = np.nonzero(keep)[1].reshape(-1, k)
        part.sort(axis=1)
        order = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1, kind="stable")
        out[lo:hi] = np.take_along_axis(part, order, axis=1)
    return out


def knn_graph(mesh_or_points, k: int) -> KnnGraph:
    """k nearest neighbors with a self-loop, ties broken by lower index.

    A mesh is measured between its cell barycenters; an (N, D) array between
    its rows. ToothSegNet's graphs are built once per forward from a scan's
    cell barycenters. Only ties in the computed distances go to the lower
    index; exactly duplicated points need not tie (see _knn_indices).
    """
    if isinstance(mesh_or_points, TriMesh):
        points = mesh_or_points.cell_barycenters
    else:
        points = np.asarray(mesh_or_points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ShapeError(f"kNN input must be a nonempty 2-D array, got {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if k > n:
        warnings.warn(f"k={k} exceeds {n} cells, clamping", stacklevel=2)
        k = n
    return KnnGraph(k=k, neighbors=_knn_indices(points, k))


def nearest_rows(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Index of the nearest row of refs for each query row (ties: lower index).

    Queries are taken in blocks of at most DISTANCE_BLOCK distances (or
    one query). The tie rule holds for ties in the computed distances:
    exactly duplicated refs can get different BLAS cross terms, so the
    higher index of a duplicated pair may win.
    """
    refs = np.asarray(refs, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    sq = np.einsum("ij,ij->i", refs, refs)
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, DISTANCE_BLOCK // max(refs.shape[0], 1))
    for lo in range(0, queries.shape[0], chunk):
        hi = min(lo + chunk, queries.shape[0])
        d2 = sq[None, :] - 2.0 * (queries[lo:hi] @ refs.T)
        out[lo:hi] = np.argmin(d2, axis=1)
    return out


# ---------------------------------------------------------------------------
# per-cell features

@dataclass
class CellFeatures:
    """Z-scored (N, 15) feature matrix with the per-scan column statistics.

    Columns 0..8 are the three corner vertices flattened, 9..11 the unit
    cell normal, 12..14 the cell barycenter relative to the mesh barycenter
    scaled by half the bounding-box diagonal. mean/std are the pre-scaling
    statistics (std forced to 1 on constant columns).
    """

    matrix: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def extract_features(mesh: TriMesh) -> CellFeatures:
    n = mesh.num_cells
    raw = np.empty((n, FEATURE_DIM), dtype=np.float64)
    raw[:, 0:9] = mesh.vertices[mesh.cells].reshape(n, 9)
    raw[:, 9:12] = mesh.cell_normals
    bary = mesh.cell_barycenters
    center = bary.mean(axis=0)
    lo, hi = mesh.bbox
    half_diag = 0.5 * float(np.linalg.norm(hi - lo))
    if half_diag == 0.0:
        half_diag = 1.0
    raw[:, 12:15] = (bary - center) / half_diag
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return CellFeatures(matrix=(raw - mean) / std, mean=mean, std=std)


# ---------------------------------------------------------------------------
# decimation

def _face_quadrics(mesh: TriMesh) -> np.ndarray:
    normals = mesh.cell_normals
    d = -np.einsum("ij,ij->i", normals, mesh.vertices[mesh.cells[:, 0]])
    planes = np.concatenate([normals, d[:, None]], axis=1)  # (N, 4)
    return mesh.cell_areas[:, None, None] * (
        planes[:, :, None] * planes[:, None, :]
    )


def _candidates(positions: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Homogeneous targets for collapsing each edge (a[e], b[e]): the
    midpoint and the two endpoints, in that order. (4, 3, n): coordinate,
    candidate, edge."""
    pa, pb = positions[a].T, positions[b].T
    cand = np.ones((4, 3, a.size), dtype=np.float64)
    cand[:3, 0] = 0.5 * (pa + pb)
    cand[:3, 1] = pa
    cand[:3, 2] = pb
    return cand


def _collapse_costs(positions: np.ndarray, quadrics: np.ndarray,
                    a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QEM cost of collapsing each edge (a[e], b[e]), and which of its
    _candidates attains it (ties go to the earlier one).

    A candidate c costs the sum over j, k of c[j] * Q[j, k] * c[k], Q the
    sum of both endpoint quadrics, with the 16 terms added to zero in
    (j, k) order: the bits of np.einsum("nij,njk,nik->ni", ...), one array
    operation per term over every edge at once. So each edge gets the same
    bits in any batch, and a cost kept from an earlier round equals a fresh
    one.
    """
    cand = _candidates(positions, a, b)
    q = np.ascontiguousarray((quadrics[a] + quadrics[b]).transpose(1, 2, 0))
    costs = np.zeros((3, a.size))
    for j in range(4):
        terms = cand[j] * q[j, :, None, :]  # c[j] * Q[j, k], (k, candidate, edge)
        terms *= cand
        for term in terms:
            costs += term
    best = np.argmin(costs, axis=0)
    return costs[best, np.arange(a.size)], best.astype(np.int8)


def _collapse_targets(positions: np.ndarray, a: np.ndarray, b: np.ndarray,
                      choice: np.ndarray) -> np.ndarray:
    """The (n, 3) positions that _collapse_costs chose for edges (a, b)."""
    return _candidates(positions, a, b)[:3, choice, np.arange(a.size)].T


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (M, 3) arrays: np.cross's products and differences."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _per_cell(ufunc: np.ufunc, corners: np.ndarray) -> np.ndarray:
    """ufunc over each row of an (N, 3) array, column by column (numpy
    reduces a short last axis slowly)."""
    return ufunc(ufunc(corners[:, 0], corners[:, 1]), corners[:, 2])


class Decimation(NamedTuple):
    """decimate's result: the coarse mesh.

    A tuple, because benchmark/tracer.py counts collapses from element 0
    of decimate's result.
    """

    coarse: TriMesh


def decimate(mesh: TriMesh, target_cells: int) -> Decimation:
    """Quadric edge-collapse decimation to approximately target_cells.

    Returns the coarse mesh only (as Decimation.coarse); a fine cell's
    coarse cell is the one with the nearest barycenter (nearest_rows),
    which PreprocessedScan finds when it is first asked. Targets at or
    above the current cell count are an identity pass whose coarse mesh is
    mesh itself.

    Collapses run in rounds of independent edges (QEM costs after Garland &
    Heckbert 1997; per-round selection in the spirit of Wu & Kobbelt's
    multiple-choice decimation, 2002). The edges (u, v), u < v, of the live
    cells are kept from round to round, ranked by (cost, u, v), with the
    chosen target and the rejection of each. Each round:

    - refresh: the edges at a vertex that the last round collapsed are
      dropped and derived again from the cells now around it, with fresh
      QEM costs and targets, and merged into the ranking; no other edge
      changes, since every other edge keeps the cells it lies on;
    - select: an edge is taken when its rank is the least over all edges
      with an endpoint on a cell around u or v, so no two taken edges share
      a cell or a vertex and their collapses commute;
    - check: a taken edge passes the link condition (every common neighbor
      of u and v lies on a cell with both) and the flip test (no other
      cell around u or v reverses its normal or shrinks to zero area when u
      and v move to the target);
    - apply: every passing collapse at once moves u to the target, adds
      v's quadric to u's, remaps v to u and drops the cells holding both.

    An edge that fails a check stays out until one of its endpoints
    survives a later collapse. When applying every passing collapse would
    reach the target, they are applied cheapest first up to the first cell
    count <= target, which lands within 2 cells of it. DecimationError is
    raised when no edge is left to take above the target.
    """
    if target_cells < MIN_DECIMATION_TARGET:
        raise DecimationError(
            f"target {target_cells} below minimum {MIN_DECIMATION_TARGET}"
        )
    if target_cells >= mesh.num_cells:
        return Decimation(mesh)

    nv = mesh.num_vertices
    positions = mesh.vertices.copy()
    cells = mesh.cells  # the live cells, in their original order
    # each vertex sums its cells' quadrics in cell order, as np.add.at would
    entries = np.repeat(_face_quadrics(mesh).reshape(-1, 16).T, 3, axis=1)
    quadrics = np.stack([np.bincount(cells.ravel(), entry, nv) for entry in entries],
                        axis=1).reshape(nv, 4, 4)
    # the edges (u, v), u < v, in (cost, u, v) order, so that an edge's
    # position is its rank; every edge is derived afresh in the first round
    u = v = np.empty(0, dtype=np.int64)
    costs = np.empty(0)
    choice = np.empty(0, dtype=np.int8)  # the target of each edge, see _candidates
    rejected = np.empty(0, dtype=bool)
    collapsed = np.ones(nv, dtype=bool)
    ring = cells  # the cells around the collapsed vertices

    while cells.shape[0] > target_cells:
        # a collapsed vertex's edges are exactly the sides at it of the cells
        # around it; every other edge kept its cells
        sides = np.sort(_side_keys(ring, nv).ravel())
        first = np.ones(sides.size, dtype=bool)
        first[1:] = sides[1:] != sides[:-1]
        fu, fv = np.divmod(sides[first], nv)
        at = collapsed[fu] | collapsed[fv]
        fu, fv = fu[at], fv[at]
        kept = ~(collapsed[u] | collapsed[v])
        u = np.concatenate([u[kept], fu])
        v = np.concatenate([v[kept], fv])
        fresh_costs, fresh_choice = _collapse_costs(positions, quadrics, fu, fv)
        costs = np.concatenate([costs[kept], fresh_costs])
        choice = np.concatenate([choice[kept], fresh_choice])
        rejected = np.concatenate([rejected[kept], np.zeros(fu.size, dtype=bool)])
        # the kept edges are in order and the fresh ones in (u, v) order, so a
        # stable sort on cost ranks them (and finds the kept run in one pass),
        # unless a kept and a fresh cost tie; NaN costs, sorted last, count
        # as tied
        order = np.argsort(costs, kind="stable")
        tied = ~(costs[order[1:]] > costs[order[:-1]])
        fresh = order >= costs.size - fu.size
        if (tied & (fresh[1:] != fresh[:-1])).any():
            order = np.lexsort((v, u, costs))
        u, v, costs, choice, rejected = (u[order], v[order], costs[order], choice[order],
                                         rejected[order])

        live = np.flatnonzero(~rejected)
        if live.size == 0:
            raise DecimationError(
                f"no valid collapses left at {cells.shape[0]} cells (target {target_cells})"
            )
        # an edge is taken when its rank is the least at any vertex of the
        # cells around u or v
        lu, lv = u[live], v[live]
        least = np.full(nv, costs.size)
        np.minimum.at(least, lu, live)
        np.minimum.at(least, lv, live)
        around = np.full(nv, costs.size)
        np.minimum.at(around, cells.ravel(), np.repeat(_per_cell(np.minimum, least[cells]), 3))
        picked = live[(around[lu] == live) & (around[lv] == live)]

        pu, pv = u[picked], v[picked]
        pick_of = np.full(nv, -1)
        pick_of[pu] = pick_of[pv] = np.arange(picked.size)
        corner_pick = _per_cell(np.maximum, pick_of[cells])
        touched = np.flatnonzero(corner_pick >= 0)
        tp, tc = corner_pick[touched], cells[touched]
        is_u, is_v = tc == pu[tp, None], tc == pv[tp, None]
        has_u, has_v = _per_cell(np.logical_or, is_u), _per_cell(np.logical_or, is_v)
        shared = has_u & has_v
        # link condition: every common neighbor of u and v is on a shared cell
        other = ~(is_u | is_v)
        per_cell = other.sum(axis=1)
        groups, inv = np.unique(np.repeat(tp, per_cell) * nv + tc[other], return_inverse=True)
        near_u = np.bincount(inv, np.repeat(has_u, per_cell), groups.size) > 0
        near_v = np.bincount(inv, np.repeat(has_v, per_cell), groups.size) > 0
        opposite = np.bincount(inv, np.repeat(shared, per_cell), groups.size) > 0
        bad = np.bincount(groups[near_u & near_v & ~opposite] // nv, minlength=picked.size) > 0
        # flip test over the cells that survive the collapse
        targets = _collapse_targets(positions, pu, pv, choice[picked])
        corners = positions[tc]
        after = np.where((is_u | is_v)[:, :, None], targets[tp, None, :], corners)
        old_n = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        new_n = _cross(after[:, 1] - after[:, 0], after[:, 2] - after[:, 0])
        flips = ~shared & ((np.einsum("ij,ij->i", old_n, new_n) <= 0.0)
                           | (np.einsum("ij,ij->i", new_n, new_n) < 1e-24))
        bad |= np.bincount(tp[flips], minlength=picked.size) > 0
        rejected[picked[bad]] = True

        # picked ascends in rank, so ok runs cheapest first
        ok = np.flatnonzero(~bad)
        left = cells.shape[0] - np.cumsum(np.bincount(tp[shared], minlength=picked.size)[ok])
        if left.size and left[-1] <= target_cells:
            ok = ok[: np.argmax(left <= target_cells) + 1]
        positions[pu[ok]] = targets[ok]
        quadrics[pu[ok]] += quadrics[pv[ok]]
        applied = np.zeros(picked.size, dtype=bool)
        applied[ok] = True
        alive = np.ones(cells.shape[0], dtype=bool)
        alive[touched[shared & applied[tp]]] = False
        remap = np.arange(nv)
        remap[pv[ok]] = pu[ok]
        ring = remap[tc[applied[tp] & ~shared]]
        cells = remap[cells[alive]]
        collapsed = np.zeros(nv, dtype=bool)
        collapsed[pu[ok]] = collapsed[pv[ok]] = True

    used = np.unique(cells)
    remap = np.full(nv, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return Decimation(TriMesh(positions[used], remap[cells]))


def transfer_labels(
    origin_map: np.ndarray, fine_labels: np.ndarray, num_coarse: int
) -> np.ndarray:
    """Majority label of each coarse cell's fine cluster (ties: lower label).

    Coarse cells with no fine cells mapped to them fall back to gingiva.
    """
    votes = np.zeros((num_coarse, lm.NUM_TEETH + 1), dtype=np.int64)
    np.add.at(votes, (origin_map, fine_labels), 1)
    return np.argmax(votes, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# region of interest

@dataclass
class Roi:
    """Single-tooth submesh plus the original cell ids (ascending)."""

    mesh: TriMesh
    cell_ids: np.ndarray
    tooth_id: int


def extract_roi(mesh: TriMesh, labels: np.ndarray, tooth_id: int) -> Roi | None:
    """Submesh of cells labeled tooth_id; None when the tooth is missing."""
    labels = np.asarray(labels)
    if labels.shape[0] != mesh.num_cells:
        raise SchemaError(
            f"{labels.shape[0]} labels for a mesh with {mesh.num_cells} cells"
        )
    cell_ids = np.nonzero(labels == tooth_id)[0]
    if cell_ids.size == 0:
        return None
    sub, _ = mesh.submesh(cell_ids)
    return Roi(mesh=sub, cell_ids=cell_ids.astype(np.int64), tooth_id=tooth_id)


# ---------------------------------------------------------------------------
# augmentation

@dataclass
class RigidAugmentation:
    """Sampled transform; inactive components sit at their identity values."""

    translation: np.ndarray  # (3,) mm
    rotation: np.ndarray  # (3,) radians about x, y, z
    scale: np.ndarray  # (3,)

    def linear(self) -> np.ndarray:
        """The map applied before translation: scale in the object frame, rotate."""
        return rotation_matrix(self.rotation) * self.scale[None, :]

    def move_landmarks(self, positions: dict) -> dict:
        """Landmark positions carried along with the vertices (see apply_augmentation)."""
        linear = self.linear()
        return {key: linear @ np.asarray(p, dtype=np.float64) + self.translation
                for key, p in positions.items()}


def sample_augmentation(rng: np.random.Generator) -> RigidAugmentation:
    """Each of the nine components is active independently with p = 0.5.

    Active components draw translation from [-10, 10] mm, rotation from
    [-pi, pi], and scale from [0.8, 1.2].
    """
    translation = np.zeros(3)
    rotation = np.zeros(3)
    scale = np.ones(3)
    for axis in range(3):
        if rng.random() < AUGMENT_ACTIVE_PROB:
            translation[axis] = rng.uniform(-TRANSLATION_RANGE, TRANSLATION_RANGE)
    for axis in range(3):
        if rng.random() < AUGMENT_ACTIVE_PROB:
            rotation[axis] = rng.uniform(-np.pi, np.pi)
    for axis in range(3):
        if rng.random() < AUGMENT_ACTIVE_PROB:
            scale[axis] = rng.uniform(*SCALE_RANGE)
    return RigidAugmentation(translation, rotation, scale)


def rotation_matrix(rotation: np.ndarray) -> np.ndarray:
    """Composed rotation Rz @ Ry @ Rx for per-axis angles."""
    rx, ry, rz = (float(a) for a in rotation)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mz @ my @ mx


def apply_augmentation(mesh: TriMesh, aug: RigidAugmentation) -> TriMesh:
    """Scale in the object frame, rotate, then translate.

    All scale factors are positive, so winding and outward normals survive.
    Landmarks follow through RigidAugmentation.move_landmarks.
    """
    vertices = mesh.vertices @ aug.linear().T + aug.translation
    return TriMesh(vertices, mesh.cells.copy())
