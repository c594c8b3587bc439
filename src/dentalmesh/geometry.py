"""Mesh geometry operations feeding the learning pipeline.

Covers quadric edge-collapse decimation with a fine-to-coarse cell map,
15-column per-cell feature extraction, edge-sharing cell pairs, kNN graph
construction, per-tooth ROI extraction, and the random rigid augmentation
the training loops draw from.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from . import landmarks as lm
from .errors import DecimationError, SchemaError, ShapeError
from .mesh_io import TriMesh

MIN_DECIMATION_TARGET = 100
FEATURE_DIM = 15

TRANSLATION_RANGE = 10.0  # mm
SCALE_RANGE = (0.8, 1.2)
AUGMENT_ACTIVE_PROB = 0.5


# ---------------------------------------------------------------------------
# edge-sharing cell pairs

def cell_adjacency(mesh: TriMesh) -> np.ndarray:
    """Unordered pairs (i, j), i < j, of cells sharing an edge.

    Returned lexicographically sorted, one row per pair. Edges shared by
    more than two cells (non-manifold) contribute all pairwise combinations.
    """
    cells = mesh.cells
    n = mesh.num_cells
    edges = np.concatenate(
        [cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]], axis=0
    )
    edges.sort(axis=1)
    owner = np.tile(np.arange(n, dtype=np.int64), 3)
    key = edges[:, 0] * np.int64(mesh.num_vertices) + edges[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    owner = owner[order]
    pairs = []
    start = 0
    for end in range(1, key.size + 1):
        if end == key.size or key[end] != key[start]:
            group = owner[start:end]
            if group.size == 2:
                a, b = int(group[0]), int(group[1])
                if a != b:
                    pairs.append((min(a, b), max(a, b)))
            elif group.size > 2:
                g = sorted(set(int(x) for x in group))
                for ai in range(len(g)):
                    for bi in range(ai + 1, len(g)):
                        pairs.append((g[ai], g[bi]))
            start = end
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    out = np.array(sorted(set(pairs)), dtype=np.int64)
    return out


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

    argpartition finds k smallest distances. Where more than k reach the
    k-th smallest value, the lowest indices at that value are kept, as the
    stable sort keeps them; the k are then ordered by (distance, index).
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((n, k), dtype=np.int64)
    chunk = max(1, int(2**24 // max(n, 1)))
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
    cell barycenters.
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
    """Index of the nearest row of refs for each query row (ties: lower index)."""
    refs = np.asarray(refs, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    sq = np.einsum("ij,ij->i", refs, refs)
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, int(2**24 // max(refs.shape[0], 1)))
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


def _collapse_costs(positions: np.ndarray, quadrics: np.ndarray,
                    a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QEM cost and target position of collapsing each edge (a[e], b[e]).

    The candidates are the midpoint and the two endpoints; ties go to the
    earlier one. Every cost the decimation uses, for the heap and for the
    collapse position alike, comes from this one batched evaluation.
    """
    pa, pb = positions[a], positions[b]
    cand = np.ones((a.size, 3, 4), dtype=np.float64)
    cand[:, 0, :3] = 0.5 * (pa + pb)
    cand[:, 1, :3] = pa
    cand[:, 2, :3] = pb
    costs = np.einsum("nij,njk,nik->ni", cand, quadrics[a] + quadrics[b], cand)
    best = np.argmin(costs, axis=1)
    rows = np.arange(a.size)
    return costs[rows, best], cand[rows, best, :3]


def _cross(p0, p1, p2) -> tuple[float, float, float]:
    """(p1 - p0) x (p2 - p0) over Python floats, in np.cross's operation order."""
    ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def decimate(
    mesh: TriMesh, target_cells: int
) -> tuple[TriMesh, np.ndarray]:
    """Quadric edge-collapse decimation to approximately target_cells.

    Returns the coarse mesh and cell_origin_map, an (N_fine,) array mapping
    every original cell to exactly one coarse cell (nearest coarse
    barycenter), so fine labels can be pooled per coarse cell and coarse
    predictions projected back. Targets at or above the current cell count
    are an identity pass. The collapse stops at the first count <= target,
    which lands within 2 cells of it.

    Edges are collapsed cheapest first from a lazy heap (Garland & Heckbert
    1997). Costs are evaluated in batches: every edge up front, then the
    edges around the surviving vertex after each collapse; a batch gives
    each edge the same bits it would get alone. The flip test computes face
    normals on Python floats, in np.cross's operation order, and keeps
    np.dot for their dot products, whose BLAS summation order a Python sum
    would not reproduce.
    """
    if target_cells < MIN_DECIMATION_TARGET:
        raise DecimationError(
            f"target {target_cells} below minimum {MIN_DECIMATION_TARGET}"
        )
    if target_cells >= mesh.num_cells:
        return mesh, np.arange(mesh.num_cells, dtype=np.int64)

    positions = mesh.vertices.copy()
    coords = positions.tolist()  # the same values as Python floats, for the flip test
    faces = [list(c) for c in mesh.cells.tolist()]
    face_alive = np.ones(len(faces), dtype=bool)
    quadrics = np.zeros((mesh.num_vertices, 4, 4), dtype=np.float64)
    face_q = _face_quadrics(mesh)
    vertex_faces: list[set[int]] = [set() for _ in range(mesh.num_vertices)]
    for fi, (a, b, c) in enumerate(faces):
        quadrics[a] += face_q[fi]
        quadrics[b] += face_q[fi]
        quadrics[c] += face_q[fi]
        vertex_faces[a].add(fi)
        vertex_faces[b].add(fi)
        vertex_faces[c].add(fi)
    version = np.zeros(mesh.num_vertices, dtype=np.int64)
    vertex_alive = np.ones(mesh.num_vertices, dtype=bool)

    def neighbors_of(u: int) -> set[int]:
        out = set()
        for fi in vertex_faces[u]:
            out.update(faces[fi])
        out.discard(u)
        return out

    def push_edges(u: int, heap) -> None:
        w = np.fromiter(neighbors_of(u), dtype=np.int64)
        a, b = np.minimum(u, w), np.maximum(u, w)
        costs, _ = _collapse_costs(positions, quadrics, a, b)
        for entry in zip(costs.tolist(), a.tolist(), b.tolist(),
                         version[a].tolist(), version[b].tolist()):
            heapq.heappush(heap, entry)

    # every (cost, u, v, version_u, version_v) entry is distinct, so the pop
    # order depends only on the entries, not on how the heap was built
    edges = np.unique(np.sort(mesh.cells[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1),
                      axis=0)
    costs, _ = _collapse_costs(positions, quadrics, edges[:, 0], edges[:, 1])
    heap = [(cost, u, v, 0, 0) for cost, (u, v) in zip(costs.tolist(), edges.tolist())]
    heapq.heapify(heap)

    remaining = mesh.num_cells
    while remaining > target_cells and heap:
        cost, u, v, ver_u, ver_v = heapq.heappop(heap)
        if not (vertex_alive[u] and vertex_alive[v]):
            continue
        if ver_u != version[u] or ver_v != version[v]:
            continue
        shared_faces = vertex_faces[u] & vertex_faces[v]
        if not shared_faces:
            continue
        # link condition: every common neighbor must come from a shared face,
        # otherwise the collapse pinches the surface
        common = neighbors_of(u) & neighbors_of(v)
        opposite = set()
        for fi in shared_faces:
            opposite.update(w for w in faces[fi] if w != u and w != v)
        if common != opposite:
            continue
        _, new_pos = _collapse_costs(positions, quadrics, np.array([u]), np.array([v]))
        new_pos = new_pos[0]
        new_coords = new_pos.tolist()
        # reject collapses that flip or squash any surviving incident face
        ok = True
        for fi in (vertex_faces[u] | vertex_faces[v]) - shared_faces:
            tri = faces[fi]
            old_n = np.array(_cross(*(coords[w] for w in tri)))
            new_n = np.array(_cross(*(new_coords if w in (u, v) else coords[w]
                                      for w in tri)))
            if float(np.dot(old_n, new_n)) <= 0.0 or float(
                np.dot(new_n, new_n)
            ) < 1e-24:
                ok = False
                break
        if not ok:
            continue

        positions[u] = new_pos
        coords[u] = new_coords
        quadrics[u] += quadrics[v]
        for fi in shared_faces:
            face_alive[fi] = False
            for w in faces[fi]:
                vertex_faces[w].discard(fi)
        remaining -= len(shared_faces)
        for fi in list(vertex_faces[v]):
            faces[fi] = [u if w == v else w for w in faces[fi]]
            vertex_faces[u].add(fi)
        vertex_faces[v] = set()
        vertex_alive[v] = False
        # only u's position/quadric changed; entries touching u are stale and
        # get re-pushed, entries between untouched vertices stay valid
        version[u] += 1
        version[v] += 1
        push_edges(u, heap)

    if remaining > target_cells:
        raise DecimationError(
            f"no valid collapses left at {remaining} cells (target {target_cells})"
        )

    kept = [faces[fi] for fi in range(len(faces)) if face_alive[fi]]
    kept_arr = np.asarray(kept, dtype=np.int64)
    used = np.unique(kept_arr)
    remap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    coarse = TriMesh(positions[used], remap[kept_arr])
    origin_map = nearest_rows(mesh.cell_barycenters, coarse.cell_barycenters)
    return coarse, origin_map


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
