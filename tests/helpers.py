"""Shared fixtures-in-code: tiny meshes, finite differences, brute force."""

from __future__ import annotations

import copy
import itertools

import numpy as np

from dentalmesh import autodiff as ad
from dentalmesh import networks as nets
from dentalmesh.autodiff import Tensor, _accumulate, _as_tensor, _make
from dentalmesh.errors import ShapeError
from dentalmesh.mesh_io import TriMesh
from dentalmesh.postprocess import CONVEX_BETA, THETA_FLOOR

FD_STEP = 1e-6
FD_TOL = 1e-6


def widened(net):
    """A copy of a net with float64 parameters, which computes in float64:
    the nets' float32 arithmetic checked at float64 bounds."""
    net = copy.deepcopy(net)
    for p in net.parameters():
        p.data = p.data.astype(np.float64)
    return net


def grid_mesh(nx: int, ny: int, spacing: float = 1.0,
              height=None, seed: int | None = None) -> TriMesh:
    """Triangulated height field on an (nx x ny) vertex grid.

    height may be None (flat), a callable (x, y) -> z, or an (nx, ny) array.
    A seed adds small vertex jitter so dihedral angles are non-degenerate.
    """
    xs = np.arange(nx, dtype=np.float64) * spacing
    ys = np.arange(ny, dtype=np.float64) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    if height is None:
        gz = np.zeros_like(gx)
    elif callable(height):
        gz = np.asarray(height(gx, gy), dtype=np.float64)
    else:
        gz = np.asarray(height, dtype=np.float64)
    if seed is not None:
        gz = gz + np.random.default_rng(seed).normal(0.0, 0.01 * spacing, gz.shape)
    vertices = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    idx = np.arange(nx * ny).reshape(nx, ny)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    v01 = idx[:-1, 1:].ravel()
    cells = np.concatenate([
        np.stack([v00, v10, v11], axis=1),
        np.stack([v00, v11, v01], axis=1),
    ])
    return TriMesh(vertices, cells)


def sphere_mesh(stacks: int = 32, sectors: int = 48, radius: float = 5.0) -> TriMesh:
    """Closed UV sphere; smooth and curvature-uniform, good for area checks."""
    verts = [(0.0, 0.0, radius), (0.0, 0.0, -radius)]
    for i in range(1, stacks):
        phi = np.pi * i / stacks
        for j in range(sectors):
            theta = 2.0 * np.pi * j / sectors
            verts.append((radius * np.sin(phi) * np.cos(theta),
                          radius * np.sin(phi) * np.sin(theta),
                          radius * np.cos(phi)))

    def ring(i, j):
        return 2 + (i - 1) * sectors + (j % sectors)

    cells = []
    for j in range(sectors):
        cells.append((0, ring(1, j), ring(1, j + 1)))
        cells.append((1, ring(stacks - 1, j + 1), ring(stacks - 1, j)))
    for i in range(1, stacks - 1):
        for j in range(sectors):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            cells.append((a, c, b))
            cells.append((b, c, d))
    return TriMesh(np.asarray(verts, dtype=np.float64), np.asarray(cells))


def bump_scene(n: int = 12, seed: int = 0):
    """Small labeled landscape: two round mounds on a plane.

    Returns (mesh, labels, landmarks). Mounds take tooth ids 3 and 10 (the
    canine schema, three landmark names each); the flat remainder is
    gingiva. Landmark positions sit on the mound surfaces: the apex plus
    two opposing flank points.
    """
    centers = {3: (n * 0.3, n * 0.35), 10: (n * 0.65, n * 0.7)}
    radius = n * 0.16
    height = n * 0.22

    def z(x, y):
        out = np.zeros_like(x)
        for cx, cy in centers.values():
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            out = out + height * np.exp(-d2 / (2.0 * (radius / 1.5) ** 2))
        return out

    mesh = grid_mesh(n, n, height=z, seed=seed)
    bary = mesh.cell_barycenters
    labels = np.zeros(mesh.num_cells, dtype=np.int64)
    for tooth, (cx, cy) in centers.items():
        inside = (bary[:, 0] - cx) ** 2 + (bary[:, 1] - cy) ** 2 < radius**2
        labels[inside] = tooth

    def surface_point(cx, cy, dx, dy):
        x, y = cx + dx, cy + dy
        return np.array([x, y, float(z(np.array(x), np.array(y)))])

    landmarks = {}
    for tooth, (cx, cy) in centers.items():
        landmarks[(tooth, "CCT")] = surface_point(cx, cy, 0.0, 0.0)
        landmarks[(tooth, "MCP")] = surface_point(cx, cy, -radius, 0.0)
        landmarks[(tooth, "DCP")] = surface_point(cx, cy, radius, 0.0)
    return mesh, labels, landmarks


def numeric_grad(f, array: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar f() at the given flat coordinates."""
    flat = array.ravel()
    out = np.zeros(len(coords))
    for j, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        out[j] = (hi - lo) / (2.0 * h)
    return out


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| scaled by max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def check_grads(build_loss, arrays):
    """build_loss() -> (loss Tensor, params); FD over every element.

    arrays[i] must be the storage params[i] reads, so perturbing it in
    place changes the next build_loss().
    """
    loss, params = build_loss()
    ad.backward(loss)
    for p, arr in zip(params, arrays):
        coords = list(range(arr.size))
        numeric = numeric_grad(lambda: float(build_loss()[0].data), arr, coords, FD_STEP)
        analytic = p.gradient().ravel()[coords]
        assert relative_error(analytic, numeric) < FD_TOL, p.name


def sample_coords(rng: np.random.Generator, size: int, count: int):
    if size <= count:
        return list(range(size))
    return sorted(int(i) for i in rng.choice(size, size=count, replace=False))


def exhaustive_min_energy(model, num_labels: int) -> float:
    """Brute-force minimum of the labeling energy; feasible for <= 16 cells."""
    from dentalmesh.postprocess import labeling_energy

    n = model.probs.shape[0]
    best = np.inf
    for assignment in itertools.product(range(num_labels), repeat=n):
        energy = labeling_energy(model, np.array(assignment, dtype=np.int64))
        if energy < best:
            best = energy
    return float(best)


def svm_dual_objective(kernel: np.ndarray, y: np.ndarray,
                       alpha: np.ndarray) -> float:
    q = kernel * np.outer(y, y)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


# ---------------------------------------------------------------------------
# plain ops of the reference nets, which the fused ops replaced

def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.where(x.data > 0.0, x.data, 0.0)

    def grad_fn(g):
        _accumulate(x, g * (data > 0.0))

    return _make(data, (x,), grad_fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def grad_fn(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(data, (x,), grad_fn)


def gather_rows(x, idx) -> Tensor:
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows index must be 1-D, got {idx.shape}")
    data = x.data[idx]

    def grad_fn(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx, g)

    return _make(data, (x,), grad_fn)


def max_over_axis(x, axis: int) -> Tensor:
    """Max reduction; ties route gradient to the lowest index (argmax)."""
    x = _as_tensor(x)
    data = x.data.max(axis=axis)
    arg = x.data.argmax(axis=axis)

    def grad_fn(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        grid = np.indices(data.shape)
        index = list(grid)
        index.insert(axis, arg)
        x.grad[tuple(index)] += g

    return _make(data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# the per-edge EdgeConv that autodiff.edge_conv replaced

def reference_edge_conv(conv, x: Tensor, nbrs: np.ndarray, bias=None) -> Tensor:
    """EdgeConv edge by edge: gather the (N*k, C) edge tensor, batch-norm
    it, ReLU, then max over each cell's k edges; bias, if given, is added
    to every edge before the batch norm."""
    cin = conv.weight.data.shape[0] // 2
    idx = np.arange(2 * cin)
    w_diff = gather_rows(conv.weight, idx[:cin])
    w_center = gather_rows(conv.weight, idx[cin:])
    p = ad.matmul(x, w_diff)
    a = ad.add(p, ad.matmul(x, w_center))
    if bias is not None:
        a = ad.add(a, bias)
    n, k = nbrs.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    edge = ad.sub(gather_rows(a, src), gather_rows(p, nbrs.reshape(-1)))
    edge = relu(reference_batch_norm(edge, conv.bn.gamma, conv.bn.beta))
    cout = edge.data.shape[1]
    return max_over_axis(reshape(edge, (n, k, cout)), axis=1)


# ---------------------------------------------------------------------------
# the unfused conv block that autodiff.conv_bn_relu replaced

def reference_batch_norm(x, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-column batch norm over the rows as its own graph node."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm needs a 2-D tensor, got {x.data.shape}")
    if x.data.shape[0] < 2:
        raise ShapeError("batch_norm needs at least 2 rows")
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv = 1.0 / np.sqrt(var + ad.BN_EPS)
    x_hat = (x.data - mu) * inv
    data = gamma.data * x_hat + beta.data

    def grad_fn(g):
        _accumulate(gamma, np.sum(g * x_hat, axis=0))
        _accumulate(beta, np.sum(g, axis=0))
        g_hat = g * gamma.data
        dx = inv * (
            g_hat
            - g_hat.mean(axis=0)
            - x_hat * np.mean(g_hat * x_hat, axis=0)
        )
        _accumulate(x, dx)

    return _make(data, (x, gamma, beta), grad_fn)


def reference_conv_bn_relu(x, weight: Tensor, gamma: Tensor, beta: Tensor,
                           bias=None) -> Tensor:
    """Conv1x1 -> (add bias) -> batch norm -> relu, one graph node each."""
    conv = ad.matmul(x, weight)
    if bias is not None:
        conv = ad.add(conv, bias)
    return relu(reference_batch_norm(conv, gamma, beta))


# ---------------------------------------------------------------------------
# the full nets, with every part that per-cloud batch norm cancels

class _FullNet:
    """Shared plumbing of the full reference nets.

    Each draws its cancelled parts from rng: a random bias in front of every
    batch norm and the extra input rows of the layer that took a tiled
    global pool. params maps the reduced net's parameter names to the
    reference's own parameters; a widened weight keeps the reduced rows
    first, so its gradient's leading rows compare with the reduced one's.
    """

    def __init__(self, net, rng: np.random.Generator):
        self.net = copy.deepcopy(net)
        self.rng = rng
        self.params = dict(self.net.named_parameters())

    def bias(self, channels: int) -> Tensor:
        return Tensor(self.rng.normal(size=channels))

    def block(self, block, x, extra_rows: int = 0) -> Tensor:
        weight = block.weight
        if extra_rows:
            name = next(k for k, v in self.params.items() if v is weight)
            rows = self.rng.normal(scale=0.05, size=(extra_rows, weight.data.shape[1]))
            weight = ad.Parameter(np.vstack([weight.data, rows]))
            self.params[name] = weight
        return reference_conv_bn_relu(x, weight, block.bn.gamma, block.bn.beta,
                                      self.bias(weight.data.shape[1]))

    def edge(self, conv, x, graph) -> Tensor:
        return reference_edge_conv(conv, x, graph.neighbors,
                                   self.bias(conv.weight.data.shape[1]))

    def tiled_pool(self, x: Tensor) -> Tensor:
        """The column-wise max of x repeated on every row."""
        return ad.add(np.zeros_like(x.data), max_over_axis(x, axis=0))


def reference_seg_forward(net, features, graph6, graph12, rng) -> tuple:
    """ToothSegNet (either head) as MeshSegNet has it, less its feature
    transform, from the unfused ops: conv biases before every batch norm,
    and glm2's tiled global max pool fed to mlp3.0. Returns (output,
    {reduced name: reference parameter})."""
    full = _FullNet(net, rng)
    net = full.net
    x = Tensor(features)
    for block in net.mlp1:
        x = full.block(block, x)
    g1 = full.edge(net.glm1, x, graph6)
    h = g1
    for block in net.mlp2:
        h = full.block(block, h)
    e6 = full.edge(net.glm2_k6, h, graph6)
    e12 = full.edge(net.glm2_k12, h, graph12)
    g2 = full.block(net.glm2_fuse, ad.concat([e6, e12], axis=1))
    fused = ad.concat([x, g1, g2, full.tiled_pool(g2)], axis=1)
    fused = full.block(net.mlp3[0], fused, extra_rows=g2.data.shape[1])
    fused = full.block(net.mlp3[1], fused)
    logits = net.head_conv(fused)
    out = ad.softmax_rows(logits) if net.head == "softmax" else ad.sigmoid(logits)
    return out, full.params


def reference_heatmap_forward(net, features, rng) -> tuple:
    """PointHeatmapNet as PointNet's segmentation net has it, from the
    unfused ops: conv biases before every batch norm, and the trunk (64,
    128, 1,024 channels) whose tiled global max pool feeds head.0. Returns
    (output, {reduced name: reference parameter})."""
    full = _FullNet(net, rng)
    net = full.net
    x = Tensor(features)
    for block in net.local:
        x = full.block(block, x)
    h = x
    for cin, cout in ((64, 64), (64, 128), (128, 1024)):
        trunk = nets.ConvBlock(rng, cin, cout)
        h = full.block(trunk, h)
    h = ad.concat([x, full.tiled_pool(h)], axis=1)
    h = full.block(net.headc[0], h, extra_rows=1024)
    for block in net.headc[1:]:
        h = full.block(block, h)
    return ad.sigmoid(net.out(h)), full.params


# ---------------------------------------------------------------------------
# the per-edge expansion graph and Dinic max-flow that postprocess replaced

class Dinic:
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


def reference_expand_once(
    labels: np.ndarray,
    alpha: int,
    unary: np.ndarray,
    pairs: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """postprocess._expand_once as a per-edge graph solved by Dinic.

    With a, b, c the pair's cost when both keep, when only j switches and
    when only i switches, each pair puts c - a on i's terminals, -c on j's, and an
    n-link b + c - a from i to j; the source side is the set of cells that
    keep their label.
    """
    n = labels.shape[0]
    cap_take = unary[:, alpha].copy()  # paid when x_i = 1
    cap_keep = unary[np.arange(n), labels].copy()  # paid when x_i = 0
    solver = Dinic(n)
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


# ---------------------------------------------------------------------------
# the scalar hinge cost that postprocess.build_energy vectorises

def hinge_mesh(fold: float) -> TriMesh:
    """Two triangles sharing the x-axis edge; the second tilts by `fold`."""
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 1.0, 0.0],
        [0.5, -np.cos(fold), np.sin(fold)],
    ])
    cells = np.array([[0, 1, 2], [1, 0, 3]])
    return TriMesh(verts, cells)


def shared_edge(mesh: TriMesh, i: int, j: int) -> np.ndarray:
    shared = np.intersect1d(mesh.cells[i], mesh.cells[j])
    if shared.size != 2:
        raise ValueError(
            f"cells {i} and {j} share {shared.size} vertices, not an edge"
        )
    return shared


def dihedral_class(mesh: TriMesh, i: int, j: int) -> tuple[float, str]:
    """Dihedral angle theta in [0, pi] across the shared edge, plus class.

    theta = pi for coplanar neighbors. Classes: 'flat' when theta is within
    1e-9 of pi, otherwise 'concave' when cell j's barycenter lies on the
    outward-normal side of cell i, else 'convex'.
    """
    shared_edge(mesh, i, j)
    n_i = mesh.cell_normals[i]
    n_j = mesh.cell_normals[j]
    dot = float(np.clip(np.dot(n_i, n_j), -1.0, 1.0))
    theta = float(np.pi - np.arccos(dot))
    if abs(theta - np.pi) < 1e-9:
        return theta, "flat"
    step = mesh.cell_barycenters[j] - mesh.cell_barycenters[i]
    return theta, "concave" if float(np.dot(step, n_i)) > 0.0 else "convex"


def smoothness_cost(theta: float, phi: float, kind: str, beta: float = 1.0,
                    same_label: bool = False) -> float:
    """Cost of a label change across one hinge.

    Zero for equal labels or flat hinges; -log(theta/pi) * phi on concave
    hinges; beta times that on convex ones.
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
    """Smoothness cost of cutting between adjacent cells i and j, with
    beta = 30 * (1 + |n_i . n_j|) on convex hinges."""
    theta, kind = dihedral_class(mesh, i, j)
    phi = float(
        np.linalg.norm(mesh.cell_barycenters[i] - mesh.cell_barycenters[j])
    )
    dot = abs(float(np.dot(mesh.cell_normals[i], mesh.cell_normals[j])))
    return smoothness_cost(theta, phi, kind, beta=CONVEX_BETA * (1.0 + dot))


# ---------------------------------------------------------------------------
# geometry.decimate's rounds, edge by edge

def reference_decimate(mesh: TriMesh, target: int):
    """geometry.decimate written over Python sets, one edge at a time.

    Every round recomputes every live edge's cost, finds each edge's
    neighbourhood minimum by walking the cells around its endpoints, runs
    the link and flip checks per edge and applies the passing collapses
    one by one, cheapest first, while the count is above target. An edge
    that fails a check goes into `rejected` and leaves it only when one of
    its endpoints survives a collapse. Returns (vertices, cells, stats),
    stats counting rounds, link and flip rejections, and collapses of an
    edge that the flip test had rejected before.
    """
    from dentalmesh.errors import DecimationError
    from dentalmesh.geometry import _collapse_costs, _collapse_targets, _face_quadrics

    positions = mesh.vertices.copy()
    quadrics = np.zeros((mesh.num_vertices, 4, 4))
    for cell, q in zip(mesh.cells.tolist(), _face_quadrics(mesh)):
        for w in cell:
            quadrics[w] += q
    faces = dict(enumerate(mesh.cells.tolist()))
    rejected: set[tuple[int, int]] = set()
    flipped: set[tuple[int, int]] = set()
    stats = {"rounds": 0, "link": 0, "flip": 0, "readmitted": 0}
    while len(faces) > target:
        stats["rounds"] += 1
        vertex_faces: dict[int, set[int]] = {}
        for fi, cell in faces.items():
            for w in cell:
                vertex_faces.setdefault(w, set()).add(fi)

        def around(e):
            return vertex_faces[e[0]] | vertex_faces[e[1]]

        def neighbours(w):
            return {x for fi in vertex_faces[w] for x in faces[fi]} - {w}

        edges = sorted({(min(a, b), max(a, b)) for cell in faces.values()
                        for a, b in ((cell[0], cell[1]), (cell[1], cell[2]), (cell[2], cell[0]))})
        live = [e for e in edges if e not in rejected]
        if not live:
            raise DecimationError("no valid collapses left")
        a, b = np.array([e[0] for e in live]), np.array([e[1] for e in live])
        costs, choice = _collapse_costs(positions, quadrics, a, b)
        targets = _collapse_targets(positions, a, b, choice)
        ranked = sorted(range(len(live)), key=lambda i: (costs[i], live[i]))
        rank = {live[i]: r for r, i in enumerate(ranked)}
        target_of = dict(zip(live, targets))
        edges_at: dict[int, list[tuple[int, int]]] = {}
        for e in live:
            edges_at.setdefault(e[0], []).append(e)
            edges_at.setdefault(e[1], []).append(e)
        picked = []
        for e in live:
            touching = {w for fi in around(e) for w in faces[fi]}
            if rank[e] == min(rank[g] for w in touching for g in edges_at.get(w, ())):
                picked.append(e)
        passing = []
        for e in sorted(picked, key=rank.get):
            u, v = e
            shared = vertex_faces[u] & vertex_faces[v]
            opposite = {w for fi in shared for w in faces[fi]} - {u, v}
            if neighbours(u) & neighbours(v) != opposite:
                stats["link"] += 1
                rejected.add(e)
                continue
            moved = positions.copy()
            moved[u] = moved[v] = target_of[e]
            for fi in around(e) - shared:
                old, new = positions[faces[fi]], moved[faces[fi]]
                old_n = np.cross(old[1] - old[0], old[2] - old[0])[None]
                new_n = np.cross(new[1] - new[0], new[2] - new[0])[None]
                if (np.einsum("ij,ij->i", old_n, new_n)[0] <= 0.0
                        or np.einsum("ij,ij->i", new_n, new_n)[0] < 1e-24):
                    stats["flip"] += 1
                    rejected.add(e)
                    flipped.add(e)
                    break
            else:
                passing.append((e, shared))
        for (u, v), shared in passing:
            if len(faces) <= target:
                break
            stats["readmitted"] += (u, v) in flipped
            positions[u] = target_of[(u, v)]
            quadrics[u] += quadrics[v]
            for fi in shared:
                del faces[fi]
            for fi in vertex_faces[v] - shared:
                faces[fi] = [u if w == v else w for w in faces[fi]]
            rejected = {e for e in rejected if u not in e}
    kept = np.array([faces[fi] for fi in sorted(faces)], dtype=np.int64)
    used = np.unique(kept)
    remap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return positions[used], remap[kept], stats


def rebuilding_decimate(mesh: TriMesh, target: int) -> TriMesh:
    """geometry.decimate as it rebuilt its edges every round: every round
    sorts all cell sides into edges, carries the last round's costs,
    choices and rejections over by searchsorted, ranks every live edge by a
    stable argsort of its cost, and spreads the per-vertex least ranks to
    the cells with a broadcast np.minimum.at. Returns the coarse mesh."""
    from dentalmesh.errors import DecimationError
    from dentalmesh.geometry import (
        _collapse_costs, _collapse_targets, _cross, _face_quadrics,
    )

    if target >= mesh.num_cells:
        return mesh
    nv = mesh.num_vertices
    positions = mesh.vertices.copy()
    cells = mesh.cells
    quadrics = np.zeros((nv, 4, 4), dtype=np.float64)
    np.add.at(quadrics, cells.ravel(), np.repeat(_face_quadrics(mesh), 3, axis=0))
    keys = np.empty(0, dtype=np.int64)
    costs, choice = np.empty(0), np.empty(0, dtype=np.int8)
    rejected = np.empty(0, dtype=bool)
    moved = np.ones(nv, dtype=bool)

    while cells.shape[0] > target:
        nxt = cells[:, [1, 2, 0]]
        side_key = np.minimum(cells, nxt) * np.int64(nv) + np.maximum(cells, nxt)
        side_key = np.sort(side_key.ravel())
        edge_key = side_key[np.r_[True, side_key[1:] != side_key[:-1]]]
        u, v = np.divmod(edge_key, nv)
        fresh = moved[u] | moved[v]
        old = np.searchsorted(keys, edge_key[~fresh])
        carried = costs[old], choice[old], rejected[old]
        keys = edge_key
        costs, choice = np.empty(keys.size), np.empty(keys.size, dtype=np.int8)
        rejected = np.zeros(keys.size, dtype=bool)
        costs[~fresh], choice[~fresh], rejected[~fresh] = carried
        costs[fresh], choice[fresh] = _collapse_costs(positions, quadrics, u[fresh], v[fresh])

        live = np.flatnonzero(~rejected)
        if live.size == 0:
            raise DecimationError(
                f"no valid collapses left at {cells.shape[0]} cells (target {target})"
            )
        unranked = keys.size
        rank = np.full(unranked, unranked)
        rank[live[np.argsort(costs[live], kind="stable")]] = np.arange(live.size)
        least = np.full(nv, unranked)
        np.minimum.at(least, u, rank)
        np.minimum.at(least, v, rank)
        around = np.full(nv, unranked)
        np.minimum.at(around, cells, least[cells].min(axis=1, keepdims=True))
        picked = live[rank[live] == np.minimum(around[u[live]], around[v[live]])]

        pu, pv = u[picked], v[picked]
        targets = _collapse_targets(positions, pu, pv, choice[picked])
        pick_of = np.full(nv, -1)
        pick_of[pu] = pick_of[pv] = np.arange(picked.size)
        corner_pick = pick_of[cells].max(axis=1)
        touched = np.flatnonzero(corner_pick >= 0)
        tp, tc = corner_pick[touched], cells[touched]
        is_u, is_v = tc == pu[tp, None], tc == pv[tp, None]
        has_u, has_v = is_u.any(axis=1), is_v.any(axis=1)
        shared = has_u & has_v
        other = ~(is_u | is_v)
        per_cell = other.sum(axis=1)
        groups, inv = np.unique(np.repeat(tp, per_cell) * nv + tc[other], return_inverse=True)
        near_u = np.bincount(inv, np.repeat(has_u, per_cell), groups.size) > 0
        near_v = np.bincount(inv, np.repeat(has_v, per_cell), groups.size) > 0
        opposite = np.bincount(inv, np.repeat(shared, per_cell), groups.size) > 0
        bad = np.bincount(groups[near_u & near_v & ~opposite] // nv, minlength=picked.size) > 0
        corners = positions[tc]
        after = np.where((is_u | is_v)[:, :, None], targets[tp, None, :], corners)
        old_n = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        new_n = _cross(after[:, 1] - after[:, 0], after[:, 2] - after[:, 0])
        flips = ~shared & ((np.einsum("ij,ij->i", old_n, new_n) <= 0.0)
                           | (np.einsum("ij,ij->i", new_n, new_n) < 1e-24))
        bad |= np.bincount(tp[flips], minlength=picked.size) > 0
        rejected[picked[bad]] = True

        ok = np.flatnonzero(~bad)
        ok = ok[np.argsort(rank[picked[ok]])]
        left = cells.shape[0] - np.cumsum(np.bincount(tp[shared], minlength=picked.size)[ok])
        if left.size and left[-1] <= target:
            ok = ok[: np.argmax(left <= target) + 1]
        positions[pu[ok]] = targets[ok]
        quadrics[pu[ok]] += quadrics[pv[ok]]
        applied = np.zeros(picked.size, dtype=bool)
        applied[ok] = True
        alive = np.ones(cells.shape[0], dtype=bool)
        alive[touched[shared & applied[tp]]] = False
        remap = np.arange(nv)
        remap[pv[ok]] = pu[ok]
        cells = remap[cells[alive]]
        moved = np.zeros(nv, dtype=bool)
        moved[pu[ok]] = True

    used = np.unique(cells)
    remap = np.full(nv, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return TriMesh(positions[used], remap[cells])


def reference_weld(vertices: np.ndarray, cells: np.ndarray):
    """mesh_io._weld by np.unique over the quantized rows."""
    from dentalmesh.mesh_io import WELD_RESOLUTION

    quantized = np.round(vertices / WELD_RESOLUTION).astype(np.int64)
    _, first, inverse = np.unique(quantized, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return vertices[np.sort(first)], rank[inverse.reshape(-1)][cells]


def torus7() -> TriMesh:
    """The 7-vertex torus: every two vertices share an edge, so each edge
    has five common neighbours but two opposite vertices, and every
    collapse breaks the link condition."""
    cells = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    cells += [(i, (i + 3) % 7, (i + 2) % 7) for i in range(7)]
    angle = 2.0 * np.pi * np.arange(7) / 7.0
    vertices = np.stack([np.cos(angle), np.sin(angle), np.cos(3.0 * angle)], axis=1)
    return TriMesh(vertices, np.array(cells))


# ---------------------------------------------------------------------------
# synth's numpy-scalar ascent and union-find gum components

def reference_surface_height(teeth, arc_pos, cross):
    """synth._surface_height as it took numpy scalars as well as grids: a
    point's height is computed on np.float64 scalars and 0-d arrays."""
    from dentalmesh.synth import _crown_height, _gingiva_height, _local_coords

    total = _gingiva_height(np.asarray(cross, dtype=np.float64))
    total = total + np.zeros_like(np.asarray(arc_pos, dtype=np.float64))
    for tooth in teeth:
        s, t = _local_coords(tooth, arc_pos, cross)
        total = total + _crown_height(tooth, s, t)
    return total


def reference_refine_apex(teeth, start: np.ndarray) -> np.ndarray:
    """synth._refine_apex with every height from reference_surface_height."""
    point = start.astype(np.float64).copy()
    value = float(reference_surface_height(teeth, point[0], point[1]))
    step = 0.1
    h = 1e-6
    for _ in range(300):
        grad = np.array(
            [
                float(
                    reference_surface_height(teeth, point[0] + h, point[1])
                    - reference_surface_height(teeth, point[0] - h, point[1])
                ),
                float(
                    reference_surface_height(teeth, point[0], point[1] + h)
                    - reference_surface_height(teeth, point[0], point[1] - h)
                ),
            ]
        ) / (2.0 * h)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-12 or step < 1e-10:
            break
        candidate = point + step * grad / norm
        cand_value = float(reference_surface_height(teeth, candidate[0], candidate[1]))
        if cand_value > value:
            point, value = candidate, cand_value
            step *= 1.2
        else:
            step *= 0.5
    return point


def reference_absorb_gum_pockets(labels, pairs, teeth, arc, cross):
    """synth._absorb_gum_pockets with a per-pair union-find over the gum
    cells; of equally large components, the one whose union-find root
    comes first stays gum."""
    from dentalmesh.synth import LABEL_DILATION_MM, _local_coords

    gum = np.where(labels == 0)[0]
    if gum.size == 0:
        return labels
    index = {int(c): i for i, c in enumerate(gum)}
    parent = np.arange(gum.size)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        if labels[i] == 0 and labels[j] == 0:
            parent[find(index[int(i)])] = find(index[int(j)])
    roots = np.array([find(i) for i in range(gum.size)])
    main = np.argmax(np.bincount(roots))
    stranded = gum[roots != main]
    if stranded.size == 0:
        return labels
    out = labels.copy()
    for cell in stranded:
        best_q, best_id = np.inf, 0
        for tooth in teeth:
            grow = 1.0 + LABEL_DILATION_MM / min(tooth.half_width, tooth.half_depth)
            s, t = _local_coords(tooth, arc[cell], cross[cell])
            q = (s / grow) ** 4 + (t / grow) ** 4
            if q < best_q:
                best_q, best_id = q, tooth.tooth_id
        out[cell] = best_id
    return out


# ---------------------------------------------------------------------------
# mesh_io's writers, one row at a time

def reference_save_mesh(mesh: TriMesh, path) -> None:
    """mesh_io.save_mesh building one string per row, joined at the end."""
    from pathlib import Path

    path = Path(path)
    fmt = path.suffix.lower()
    if fmt == ".off":
        rows = ["OFF", f"{mesh.num_vertices} {mesh.num_cells} 0"]
        rows.extend(" ".join(repr(x) for x in v) for v in mesh.vertices.tolist())
        rows.extend(f"3 {a} {b} {c}" for a, b, c in mesh.cells.tolist())
    elif fmt == ".obj":
        rows = [" ".join(["v"] + [repr(x) for x in v]) for v in mesh.vertices.tolist()]
        rows.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.cells.tolist())
    else:
        rows = ["solid mesh"]
        normals = mesh.cell_normals
        for i, cell in enumerate(mesh.cells):
            n = " ".join(repr(x) for x in normals[i].tolist())
            rows.append(f"facet normal {n}")
            rows.append("  outer loop")
            for vi in cell:
                rows.append(
                    "    vertex " + " ".join(repr(x) for x in mesh.vertices[vi].tolist())
                )
            rows.append("  endloop")
            rows.append("endfacet")
        rows.append("endsolid mesh")
    path.write_text("\n".join(rows) + "\n")


def reference_save_annotation(ann, path) -> None:
    """mesh_io.save_annotation converting one element at a time."""
    import json
    from pathlib import Path

    from dentalmesh import landmarks as lm

    doc = {
        "labels": [int(x) for x in ann.labels],
        "landmarks": {
            lm.landmark_key(tooth, name): [float(x) for x in pos]
            for (tooth, name), pos in sorted(ann.landmarks.items())
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1))
