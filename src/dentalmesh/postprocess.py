"""Multi-label graph-cut refinement of segmentation probabilities.

The energy over cell labelings is the sum of per-cell data terms,
-log(p_i(l_i) + eps) with eps = 1e-4, plus lambda times a smoothness term
on edge-sharing cell pairs. A pair with equal labels costs nothing; an
unequal pair costs -log(theta/pi) * phi where theta is the dihedral angle
(floored at 1e-3 rad) and phi the barycenter distance, scaled by
beta = 30 * (1 + |n_i . n_j|) when the hinge is convex. Cutting is cheap
across concave creases, which is where tooth-gingiva boundaries live.

Minimization is alpha expansion: labels are visited in ascending order,
each expansion solving a binary min-cut (Dinic max-flow) whose result can
only lower the energy, until a full cycle yields no improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .config import RunConfig
from .mesh_io import TriMesh

DATA_EPS = 1e-4
CONVEX_BETA = 30.0
THETA_FLOOR = 1e-3
FLAT_TOLERANCE = 1e-9
MAX_CYCLES = 50  # alpha-expansion cycles over all labels before giving up


@dataclass
class CutEnergyModel:
    """Frozen inputs of one refinement problem.

    probs: (N, C) row-stochastic network output; pairs: (E, 2) adjacent cell
    pairs; pair_cost: (E,) smoothness weights (lambda not included).
    """

    probs: np.ndarray
    pairs: np.ndarray
    pair_cost: np.ndarray
    lam: float = RunConfig.lam
    eps: float = DATA_EPS
    energy_trace: list = field(default_factory=list)


def smoothness_cost(
    theta: float,
    phi: float,
    kind: str,
    beta: float = 1.0,
    same_label: bool = False,
) -> float:
    """Cost of a label change across one hinge.

    Zero for equal labels or flat hinges; -log(theta/pi) * phi on concave
    hinges; beta times that on convex ones. The caller supplies beta (the
    mesh-level path passes 30 * (1 + |n_i . n_j|)).
    """
    if theta <= 0.0:
        raise ValueError(f"dihedral angle must be positive, got {theta}")
    if same_label or kind == "flat":
        return 0.0
    base = -np.log(max(theta, THETA_FLOOR) / np.pi) * phi
    if kind == "concave":
        return float(base)
    if kind == "convex":
        return float(beta * base)
    raise ValueError(f"unknown hinge class {kind!r}")


def edge_cost(mesh: TriMesh, i: int, j: int) -> float:
    """Smoothness cost of cutting between adjacent cells i and j."""
    theta, kind = geometry.dihedral_class(mesh, i, j)
    phi = float(
        np.linalg.norm(mesh.cell_barycenters[i] - mesh.cell_barycenters[j])
    )
    dot = abs(float(np.dot(mesh.cell_normals[i], mesh.cell_normals[j])))
    return smoothness_cost(theta, phi, kind, beta=CONVEX_BETA * (1.0 + dot))


def build_energy(
    mesh: TriMesh, probs: np.ndarray, lam: float = RunConfig.lam
) -> CutEnergyModel:
    """Vectorized energy model over the mesh's edge-sharing cell pairs."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != mesh.num_cells:
        raise ValueError(
            f"probs shape {probs.shape} does not fit mesh with {mesh.num_cells} cells"
        )
    if not np.isfinite(probs).all() or (probs < 0.0).any():
        raise ValueError("probabilities must be finite and non-negative")
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    pairs = geometry.cell_adjacency(mesh)
    if pairs.shape[0] == 0:
        return CutEnergyModel(probs, pairs, np.zeros(0), lam)
    i, j = pairs[:, 0], pairs[:, 1]
    normals = mesh.cell_normals
    bary = mesh.cell_barycenters
    dot = np.clip(np.einsum("ij,ij->i", normals[i], normals[j]), -1.0, 1.0)
    theta = np.pi - np.arccos(dot)
    flat = np.abs(theta - np.pi) < FLAT_TOLERANCE
    phi = np.linalg.norm(bary[i] - bary[j], axis=1)
    base = -np.log(np.maximum(theta, THETA_FLOOR) / np.pi) * phi
    concave = np.einsum("ij,ij->i", bary[j] - bary[i], normals[i]) > 0.0
    cost = np.where(concave, base, CONVEX_BETA * (1.0 + np.abs(dot)) * base)
    cost[flat] = 0.0
    return CutEnergyModel(probs, pairs, cost, lam)


def labeling_energy(model: CutEnergyModel, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    n = model.probs.shape[0]
    data = -np.log(model.probs[np.arange(n), labels] + model.eps)
    total = float(data.sum())
    if model.pairs.shape[0]:
        differs = labels[model.pairs[:, 0]] != labels[model.pairs[:, 1]]
        total += model.lam * float(model.pair_cost[differs].sum())
    return total


class _Dinic:
    """Max-flow on a small graph; nodes 0..n-1, source n, sink n+1."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes + 2
        self.source = num_nodes
        self.sink = num_nodes + 1
        self.head: list[list[int]] = [[] for _ in range(self.n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float = 0.0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def _bfs(self) -> list[int] | None:
        level = [-1] * self.n
        level[self.source] = 0
        queue = [self.source]
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if level[v] < 0 and self.cap[eid] > 1e-12:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[self.sink] >= 0 else None

    def _augment(self, level: list[int], it: list[int]) -> float:
        """Walk one augmenting path source->sink; returns 0 when none is left."""
        path: list[int] = []
        u = self.source
        while True:
            if u == self.sink:
                flow = min(self.cap[eid] for eid in path)
                for eid in path:
                    self.cap[eid] -= flow
                    self.cap[eid ^ 1] += flow
                return flow
            advanced = False
            while it[u] < len(self.head[u]):
                eid = self.head[u][it[u]]
                v = self.to[eid]
                if self.cap[eid] > 1e-12 and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == self.source:
                    return 0.0
                level[u] = -1
                eid = path.pop()
                u = self.to[eid ^ 1]

    def max_flow(self) -> float:
        flow = 0.0
        while True:
            level = self._bfs()
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(level, it)
                if pushed <= 0.0:
                    break
                flow += pushed

    def source_side(self) -> np.ndarray:
        seen = np.zeros(self.n, dtype=bool)
        seen[self.source] = True
        queue = [self.source]
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if not seen[v] and self.cap[eid] > 1e-12:
                    seen[v] = True
                    queue.append(v)
        return seen[: self.n - 2]


def _expand_once(
    labels: np.ndarray,
    alpha: int,
    unary: np.ndarray,
    pairs: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Best single-alpha expansion move via binary min-cut.

    Binary variable x_i = 1 means cell i switches to alpha. The pairwise
    terms are Potts with edge weights, which is submodular, so the min-cut
    is exact for this move.
    """
    n = labels.shape[0]
    cap_take = unary[:, alpha].copy()  # paid when x_i = 1
    cap_keep = unary[np.arange(n), labels].copy()  # paid when x_i = 0
    solver = _Dinic(n)
    if pairs.shape[0]:
        li = labels[pairs[:, 0]]
        lj = labels[pairs[:, 1]]
        a = weight * (li != lj)
        b = weight * (li != alpha)
        c = weight * (lj != alpha)
        di = c - a
        dj = -c
        np.add.at(cap_take, pairs[:, 0], np.maximum(di, 0.0))
        np.add.at(cap_keep, pairs[:, 0], np.maximum(-di, 0.0))
        np.add.at(cap_take, pairs[:, 1], np.maximum(dj, 0.0))
        np.add.at(cap_keep, pairs[:, 1], np.maximum(-dj, 0.0))
        nlink = b + c - a
        for e in range(pairs.shape[0]):
            if nlink[e] > 1e-15:
                solver.add_edge(int(pairs[e, 0]), int(pairs[e, 1]), float(nlink[e]))
    shift = np.minimum(cap_take, cap_keep)
    cap_take -= shift
    cap_keep -= shift
    for i in range(n):
        if cap_take[i] > 0.0:
            solver.add_edge(solver.source, i, float(cap_take[i]))
        if cap_keep[i] > 0.0:
            solver.add_edge(i, solver.sink, float(cap_keep[i]))
    solver.max_flow()
    keep = solver.source_side()
    out = labels.copy()
    out[~keep] = alpha
    return out


def refine_labels(model: CutEnergyModel) -> np.ndarray:
    """Alpha-expansion refinement; starts from the per-cell argmax labeling.

    Labels are expanded in ascending id each cycle until a full cycle makes
    no improvement. The per-move energies are recorded on
    model.energy_trace and are monotonically nonincreasing.
    """
    probs = model.probs
    labels = np.argmax(probs, axis=1).astype(np.int64)
    num_labels = probs.shape[1]
    unary = -np.log(probs + model.eps)
    weight = model.lam * model.pair_cost
    energy = labeling_energy(model, labels)
    model.energy_trace = [energy]
    for _ in range(MAX_CYCLES):
        improved = False
        for alpha in range(num_labels):
            candidate = _expand_once(labels, alpha, unary, model.pairs, weight)
            cand_energy = labeling_energy(model, candidate)
            if cand_energy < energy - 1e-12:
                labels = candidate
                energy = cand_energy
                improved = True
            model.energy_trace.append(energy)
        if not improved:
            break
    return labels
