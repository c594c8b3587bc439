"""Multi-label graph-cut refinement of segmentation probabilities.

The energy over cell labelings is the sum of per-cell data terms,
-log(p_i(l_i) + eps) with eps = 1e-4, plus lambda times a smoothness term
on edge-sharing cell pairs. A pair with equal labels costs nothing; an
unequal pair costs -log(theta/pi) * phi where theta is the dihedral angle
(floored at 1e-3 rad) and phi the barycenter distance, scaled by
beta = 30 * (1 + |n_i . n_j|) when the hinge is convex. Cutting is cheap
across concave creases, which is where tooth-gingiva boundaries live.

Minimization is alpha expansion: labels are visited in ascending order,
cycle after cycle, each expansion solving a binary min-cut whose result
can only lower the energy. An accepted alpha move leaves a labeling that
no alpha expansion improves, so once every other label has failed in a
row after it (num_labels expansions when none was accepted yet) the
labels have converged and the search stops. The move's graph is the
symmetric Potts construction (Kolmogorov & Zabih, PAMI 2004), built from
flat arrays: each cell's terminal arc carries the difference of its take
and keep costs, and pairs that stay non-alpha become undirected n-links.
It is cut by Boykov-Kolmogorov max-flow (PAMI 2004), whose final source
tree is the minimal min-cut source set, so cells the move leaves tied
switch to alpha.
"""

from __future__ import annotations

import warnings
from collections import deque
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
RESIDUAL_EPS = 1e-12  # residual capacities at or below this count as saturated

_FREE, _SOURCE, _SINK = 0, 1, 2  # search-tree membership
_TERMINAL, _ORPHAN = -1, -2  # parent markers; arc ids are >= 0


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
    energy_trace: list = field(default_factory=list)


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
    data = -np.log(model.probs[np.arange(n), labels] + DATA_EPS)
    total = float(data.sum())
    if model.pairs.shape[0]:
        differs = labels[model.pairs[:, 0]] != labels[model.pairs[:, 1]]
        total += model.lam * float(model.pair_cost[differs].sum())
    return total


def _source_side(
    terminal: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Minimal source set of an s-t min cut, by Boykov-Kolmogorov max-flow.

    terminal[u] > 0 is a source arc of that capacity, < 0 a sink arc; each
    n-link (tails[k], heads[k]) carries caps[k] both ways. Two search trees
    grow from the terminals, paths are augmented where they meet, and an
    orphan is re-adopted only by a tree node whose root is a terminal. When
    no tree can grow, the source tree is exactly the set of nodes reachable
    from the source in the residual graph.
    """
    n = terminal.shape[0]
    # arc 2k runs tails[k] -> heads[k], arc 2k+1 back; a ^ 1 is the sister
    tail = np.stack([tails, heads], axis=1).ravel()
    to = np.stack([heads, tails], axis=1).ravel().tolist()
    arcs = np.argsort(tail, kind="stable").tolist()  # grouped by tail
    first = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))]).tolist()
    res = np.repeat(caps, 2).tolist()
    term = terminal.tolist()
    eps = RESIDUAL_EPS
    # every node with a terminal arc starts as an active root of its tree
    start = np.where(terminal > eps, _SOURCE, np.where(terminal < -eps, _SINK, _FREE))
    root = start != _FREE
    tree = start.tolist()
    parent = np.where(root, _TERMINAL, _ORPHAN).tolist()  # arc to the parent
    queued = root.tolist()
    active = deque(np.flatnonzero(root).tolist())

    def rooted(u: int) -> bool:
        while True:
            a = parent[u]
            if a < 0:
                return a == _TERMINAL
            u = to[a]

    orphans: deque[int] = deque()
    while active:
        p = active[0]
        side = tree[p]
        # a ^ flip runs away from the source: out of p in the source tree,
        # into p in the sink tree
        flip = 0 if side == _SOURCE else 1
        mid = -1  # arc from the source tree into the sink tree
        for a in arcs[first[p]:first[p + 1]] if side != _FREE else ():
            if res[a ^ flip] > eps:
                q = to[a]
                if tree[q] == _FREE:
                    tree[q] = side
                    parent[q] = a ^ 1
                    if not queued[q]:
                        queued[q] = True
                        active.append(q)
                elif tree[q] != side:
                    mid = a ^ flip
                    break
        if mid < 0:
            active.popleft()
            queued[p] = False
            continue

        # the two halves of the path: parent arcs in the source tree carry
        # flow on their sisters, in the sink tree on themselves
        halves = ((to[mid ^ 1], 1, 1.0), (to[mid], 0, -1.0))
        flow = res[mid]
        for u, flip, sign in halves:
            while parent[u] != _TERMINAL:
                a = parent[u]
                flow = min(flow, res[a ^ flip])
                u = to[a]
            flow = min(flow, sign * term[u])
        res[mid] -= flow
        res[mid ^ 1] += flow
        for u, flip, sign in halves:
            while parent[u] != _TERMINAL:
                a = parent[u]
                res[a ^ flip] -= flow
                res[a ^ flip ^ 1] += flow
                if res[a ^ flip] <= eps:
                    parent[u] = _ORPHAN
                    orphans.append(u)
                u = to[a]
            term[u] -= sign * flow
            if sign * term[u] <= eps:
                parent[u] = _ORPHAN
                orphans.append(u)

        while orphans:
            u = orphans.popleft()
            side = tree[u]
            flip = 1 if side == _SOURCE else 0  # a ^ flip runs from q to u
            nbrs = arcs[first[u]:first[u + 1]]
            for a in nbrs:
                q = to[a]
                if tree[q] == side and res[a ^ flip] > eps and rooted(q):
                    parent[u] = a
                    break
            else:
                tree[u] = _FREE
                for a in nbrs:
                    q = to[a]
                    if tree[q] != side:
                        continue
                    if res[a ^ flip] > eps and not queued[q]:
                        queued[q] = True
                        active.append(q)
                    if parent[q] >= 0 and to[parent[q]] == u:
                        parent[q] = _ORPHAN
                        orphans.append(q)
    return np.array(tree) == _SOURCE


def _expand_once(
    labels: np.ndarray,
    alpha: int,
    unary: np.ndarray,
    pairs: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Best single-alpha expansion move via binary min-cut.

    Binary variable x_i = 1 means cell i switches to alpha. A pair of
    weight w costs nothing when both cells are alpha; w to the non-alpha
    end for keeping its label when the other is alpha; an n-link w when
    both keep one non-alpha label; and w/2 on each end's keep side plus an
    n-link w/2 when they keep different non-alpha labels, which is
    w * (1 - x_i x_j). Potts is submodular, so the min-cut is exact for the
    move; cells it leaves tied switch to alpha.
    """
    n = labels.shape[0]
    take = unary[:, alpha]  # paid when x_i = 1
    keep = unary[np.arange(n), labels]  # paid when x_i = 0
    tails = heads = np.zeros(0, dtype=np.int64)
    caps = np.zeros(0)
    if pairs.shape[0]:
        i, j = pairs[:, 0], pairs[:, 1]
        li, lj = labels[i], labels[j]
        i_alpha, j_alpha = li == alpha, lj == alpha
        half = np.where(li != lj, 0.5 * weight, 0.0)
        keep = (
            keep
            + np.bincount(i, np.where(j_alpha, weight, half) * ~i_alpha, minlength=n)
            + np.bincount(j, np.where(i_alpha, weight, half) * ~j_alpha, minlength=n)
        )
        nlink = np.where(li == lj, weight, half)
        linked = ~i_alpha & ~j_alpha & (nlink > RESIDUAL_EPS)
        tails, heads, caps = i[linked], j[linked], nlink[linked]
    keep_side = _source_side(take - keep, tails, heads, caps)
    out = labels.copy()
    out[~keep_side] = alpha
    return out


def refine_labels(model: CutEnergyModel) -> np.ndarray:
    """Alpha-expansion refinement; starts from the per-cell argmax labeling.

    Labels are expanded in ascending id, cycle after cycle, until
    num_labels - 1 expansions in a row after an accepted move (num_labels
    before the first) make no improvement; that proves convergence, since
    the move just accepted cannot improve itself. Warns when MAX_CYCLES
    cycles pass without that proof. The per-move energies are recorded on
    model.energy_trace and are monotonically nonincreasing.
    """
    probs = model.probs
    labels = np.argmax(probs, axis=1).astype(np.int64)
    num_labels = probs.shape[1]
    unary = -np.log(probs + DATA_EPS)
    weight = model.lam * model.pair_cost
    energy = labeling_energy(model, labels)
    model.energy_trace = [energy]
    failed, needed = 0, num_labels  # expansions in a row without improvement
    for step in range(MAX_CYCLES * num_labels):
        candidate = _expand_once(labels, step % num_labels, unary, model.pairs, weight)
        cand_energy = labeling_energy(model, candidate)
        if cand_energy < energy - 1e-12:
            labels = candidate
            energy = cand_energy
            failed, needed = 0, num_labels - 1
        else:
            failed += 1
        model.energy_trace.append(energy)
        if failed == needed:
            break
    else:
        warnings.warn(f"alpha expansion stopped after MAX_CYCLES={MAX_CYCLES} cycles "
                      "that still lowered the energy", stacklevel=2)
    return labels
