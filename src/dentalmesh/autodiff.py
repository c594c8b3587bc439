"""Minimal reverse-mode automatic differentiation on float32 or float64
numpy arrays.

Ops are this module's functions (add, mul, matmul, ...); a Tensor has no
arithmetic operators. Tensors form a DAG as ops run; backward(loss) walks
it once in reverse topological order and accumulates gradients. A graph is backpropagated
once: each interior node drops its gradient, its grad_fn and its parents
as soon as its grad_fn has run, so saved activations and intermediate
gradients free during the walk. Leaves (parameters and inputs) keep their
.grad. Rank is capped at 3; the networks only form (cells, channels)
tensors, since EdgeConv is one fused op (edge_conv) that never builds a
cell x neighbor x channel tensor, and pointwise conv, batch norm and ReLU
are one fused op (conv_bn_relu) that keeps only its normalized
activations for the backward. Gradient tracking can be switched off with
no_grad() for inference; a no-grad conv_bn_relu then works in its one
output buffer and keeps nothing.

Batch norm has one path: both fused ops normalize each channel by the
statistics of the cloud they are given, with or without a recorded graph.
There are no running buffers, and nothing differs between training and
inference but whether the graph is recorded.

Ops keep the dtype they are given. A Tensor holds a float32 or float64
array as it is and any other input as float64; a non-Tensor operand of a
binary op (a constant, a target, a weight array) takes the dtype of the
Tensor operand, so one float64 constant cannot widen a float32 graph. The
networks hold float32 parameters, and the op-level reference tests run in
float64.

The optimizer is AMSGrad: Adam moments plus a running elementwise maximum
of the second moment in the denominator, updated in place in the
parameters' dtype.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteGradientError, ShapeError

_MAX_RANK = 3
_FLOATS = (np.float32, np.float64)  # the dtypes a Tensor keeps as given
BN_EPS = 1e-5  # variance floor of conv_bn_relu and edge_conv
MIN_BN_ROWS = 2  # rows (or edges) a batch norm needs for a variance
_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    previous = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        if self.data.ndim > _MAX_RANK:
            raise ShapeError(f"rank {self.data.ndim} exceeds maximum {_MAX_RANK}")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    def gradient(self) -> np.ndarray:
        """Accumulated gradient; zeros when the tensor is unreachable."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad


class Parameter(Tensor):
    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _as_tensor(value, like=None) -> Tensor:
    """value as a Tensor. A non-Tensor operand takes the dtype of the op's
    Tensor operand like, so a float64 constant keeps a float32 graph float32."""
    if isinstance(value, Tensor):
        return value
    if isinstance(like, Tensor):
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return Tensor(value)


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient for t can reach a leaf that requires one."""
    return t.requires_grad or t._grad_fn is not None


def _tracked(parents) -> bool:
    """Whether an op over these parents records a graph node."""
    return grad_enabled() and any(_needs_grad(p) for p in parents)


def _make(data, parents, grad_fn) -> Tensor:
    out = Tensor(data)
    if _tracked(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _accumulate(parent: Tensor, piece: np.ndarray) -> None:
    if parent.grad is not None:
        parent.grad += piece
    elif (piece.base is None and piece.flags.writeable
          and piece.shape == parent.data.shape and piece.dtype == parent.data.dtype):
        # a fresh array: take it over. The upstream gradient, which add hands
        # to both parents, is read-only once backward passes it to a grad_fn,
        # so it is copied, and so is every view
        parent.grad = piece
    else:
        parent.grad = np.zeros_like(parent.data)
        parent.grad += piece


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into .grad of every leaf reachable from the
    scalar loss.

    The graph is consumed: once a node's grad_fn has run, its .grad,
    grad_fn and parents are cleared, so the activations its backward saved
    and its gradient free as the walk goes. Leaves keep .grad. A second
    backward over the same graph finds no interior node left to run.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        grad_fn = node._grad_fn
        if grad_fn is None:
            continue
        grad = node.grad
        node.grad, node._grad_fn, node._parents = None, None, ()
        if grad is not None:
            # add hands this array to both parents; read-only, it is copied
            # rather than taken over (see _accumulate)
            grad.flags.writeable = False
            grad_fn(grad)


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    data = a.data + b.data
    if data.shape != a.data.shape and a.data.size != 1 and not _bias_like(a, data.shape):
        raise ShapeError(f"add broadcast from {a.data.shape} to {data.shape}")
    if data.shape != b.data.shape and b.data.size != 1 and not _bias_like(b, data.shape):
        raise ShapeError(f"add broadcast from {b.data.shape} to {data.shape}")

    def grad_fn(g):
        _accumulate(a, _reduce_to(g, a.data.shape))
        _accumulate(b, _reduce_to(g, b.data.shape))

    return _make(data, (a, b), grad_fn)


def _bias_like(t: Tensor, out_shape) -> bool:
    # allow (C,) or (1, C) against (N, C): the only broadcasts the nets use
    shape = t.data.shape
    if len(out_shape) == 2 and shape in ((out_shape[1],), (1, out_shape[1])):
        return True
    return False


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == () or int(np.prod(shape)) == 1:
        return g.sum().reshape(shape)
    reduced = g.sum(axis=0)
    return reduced.reshape(shape)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    return add(a, mul(b, -1.0))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"mul shapes {a.data.shape} and {b.data.shape} differ")
    data = a.data * b.data

    def grad_fn(g):
        _accumulate(a, _reduce_to(g * b.data, a.data.shape))
        _accumulate(b, _reduce_to(g * a.data, b.data.shape))

    return _make(data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"div shapes {a.data.shape} and {b.data.shape} differ")
    data = a.data / b.data

    def grad_fn(g):
        _accumulate(a, _reduce_to(g / b.data, a.data.shape))
        _accumulate(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def grad_fn(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), grad_fn)


def _relu(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ReLU: bit for bit np.where(values > 0.0, values, 0.0).

    fmax sends negatives and NaN to 0.0, and adding +0.0 turns a -0.0 into
    +0.0; both are plain passes, unlike a masked copy.
    """
    out = np.fmax(values, 0.0, out=out)
    out += 0.0
    return out


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    data = np.empty_like(x.data)
    pos = x.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    data[~pos] = ex / (1.0 + ex)

    def grad_fn(g):
        _accumulate(x, g * data * (1.0 - data))

    return _make(data, (x,), grad_fn)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax of a 2-D tensor; rows sum to 1."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    data = ex / ex.sum(axis=1, keepdims=True)

    def grad_fn(g):
        dot = np.sum(g * data, axis=1, keepdims=True)
        _accumulate(x, data * (g - dot))

    return _make(data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# shape ops and reductions

def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            piece = np.take(g, np.arange(lo, hi), axis=axis)
            _accumulate(t, piece)

    return _make(data, tuple(tensors), grad_fn)


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def grad_fn(g):
        expanded = g if axis is None else np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(expanded, x.data.shape).copy())

    return _make(data, (x,), grad_fn)


def reduce_mean(x) -> Tensor:
    x = _as_tensor(x)
    return mul(reduce_sum(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# batch normalization

def conv_bn_relu(x, weight: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """relu(bn(x @ weight)), a pointwise conv block, as one op.

    Batch norm is per column over the rows: it subtracts the column's mean
    and divides by its biased standard deviation, both taken over the x it
    is given, on every call. It therefore cancels any term that is the same
    for every row, such as a conv bias, which is why the conv has none.

    The matmul writes one fresh buffer; centring, the variance and the
    normalization run in place on it, leaving x_hat, the only array the
    backward keeps besides the output, from which it reads the ReLU mask.
    With no gradient tracked the affine step and ReLU run in place too, so
    x_hat and the output are the one buffer and nothing is kept. The
    arithmetic is the unfused composition's, operation for operation; its
    ReLU is _relu, which equals a masked np.where bit for bit.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"conv_bn_relu of x {x.data.shape} with weight {weight.data.shape}")
    if x.data.shape[0] < MIN_BN_ROWS:
        raise ShapeError(f"conv_bn_relu needs at least {MIN_BN_ROWS} rows")
    parents = (x, weight, gamma, beta)
    x_hat = x.data @ weight.data
    x_hat -= x_hat.mean(axis=0)
    # the biased variance as np.var forms it, without its (N, C) temporary
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->j", x_hat, x_hat) / x_hat.shape[0] + BN_EPS)
    x_hat *= inv
    data = np.multiply(x_hat, gamma.data, out=None if _tracked(parents) else x_hat)
    data += beta.data
    _relu(data, out=data)

    def grad_fn(g):
        h = g * (data > 0.0)
        _accumulate(gamma, np.sum(h * x_hat, axis=0))
        _accumulate(beta, np.sum(h, axis=0))
        h *= gamma.data
        # dx = inv * (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)),
        # built in h; x_hat is spent, since the graph runs backward once
        mean_gx = np.mean(h * x_hat, axis=0)
        h -= h.mean(axis=0)
        np.multiply(x_hat, mean_gx, out=x_hat)
        h -= x_hat
        h *= inv
        if _needs_grad(x):  # a network's input features need none
            _accumulate(x, h @ weight.data.T)
        _accumulate(weight, x.data.T @ h)

    return _make(data, parents, grad_fn)


# ---------------------------------------------------------------------------
# fused EdgeConv

def edge_conv(x, weight: Tensor, gamma: Tensor, beta: Tensor,
              neighbors: np.ndarray) -> Tensor:
    """EdgeConv, batch norm over its edges, ReLU and the max over each
    cell's neighbors, as one op: out_i = max_j relu(bn(a_i - p_j)).

    weight rows 0..C_in-1 act on the (center - neighbor) difference, the
    rest on the center, so with p = x W[:C_in] and a = p + x W[C_in:] the
    edge i -> j carries a_i - p_j. Batch norm is affine per channel and
    ReLU monotone, so the max is attained at the neighbor with the least
    sign(gamma) * p_j: the least p_j where gamma > 0, the greatest where
    gamma < 0, slot 0 where gamma == 0. Ties go to the lowest slot, which is
    where a lowest-index argmax over the edges would send the gradient.

    The statistics cover all N*k edges of this x on every call, so a conv
    bias would cancel and the conv has none. They come from per-cell sums
    of the centred u = a - mean(a) and v = p - mean(p): the count cnt_j of
    edges into j and Sv_i, the sum of v over the neighbors of i. The
    backward adds the reverse-neighbor sum of u and one scatter of the
    selected edges' gradient. Every array is (N, C) and in x's dtype: no
    edge-sized tensor is formed. The backward reads the ReLU mask from the
    output.
    """
    x = _as_tensor(x)
    nbrs = np.asarray(neighbors, dtype=np.int64)
    cin = x.data.shape[1] if x.data.ndim == 2 else -1
    if weight.data.shape[0] != 2 * cin or nbrs.ndim != 2 or nbrs.shape[0] != x.data.shape[0]:
        raise ShapeError(
            f"edge_conv of x {x.data.shape} with weight {weight.data.shape} "
            f"over neighbors {nbrs.shape}"
        )
    n, k = nbrs.shape
    m = n * k
    if m < MIN_BN_ROWS:
        raise ShapeError(f"edge_conv needs at least {MIN_BN_ROWS} edges")
    w_diff, w_center = weight.data[:cin], weight.data[cin:]
    p = x.data @ w_diff
    a = p + x.data @ w_center
    cells = _select_neighbors(p, nbrs, np.sign(gamma.data))
    p_sel = p[cells, np.arange(p.shape[1])]
    cnt = np.bincount(nbrs.ravel(), minlength=n).astype(p.dtype)[:, None]
    a_mean, p_mean = a.mean(axis=0), p.mean(axis=0)
    u, v = a - a_mean, p - p_mean
    sv = _neighbor_sum(v, nbrs)
    d_mean = (k * u.sum(axis=0) - np.sum(cnt * v, axis=0)) / m
    sq_sum = (k * np.sum(u * u, axis=0) - 2.0 * np.sum(u * sv, axis=0)
              + np.sum(cnt * v * v, axis=0))
    mu = a_mean - p_mean + d_mean
    inv = 1.0 / np.sqrt(sq_sum / m - d_mean * d_mean + BN_EPS)
    x_hat = a - p_sel
    x_hat -= mu
    x_hat *= inv
    parents = (x, weight, gamma, beta)
    data = np.multiply(x_hat, gamma.data, out=None if _tracked(parents) else x_hat)
    data += beta.data
    np.maximum(data, 0.0, out=data)

    def grad_fn(g):
        h = np.where(data > 0.0, g, 0.0)
        _accumulate(gamma, np.sum(h * x_hat, axis=0))
        _accumulate(beta, np.sum(h, axis=0))
        g_edge = h * gamma.data * inv
        mean_g = np.sum(g_edge, axis=0) / m
        mean_gx = np.sum(g_edge * x_hat, axis=0) / m
        # sums of x_hat over the edges out of each cell and into each cell
        out_hat = (k * (u - d_mean) - sv) * inv
        in_hat = (_reverse_neighbor_sum(u, nbrs) - cnt * (v + d_mean)) * inv
        da = g_edge - k * mean_g - mean_gx * out_hat
        dp = cnt * mean_g + mean_gx * in_hat - _scatter_columns(g_edge, cells)
        dp += da
        if _needs_grad(x):
            _accumulate(x, dp @ w_diff.T + da @ w_center.T)
        # both halves written in place, so the gradient is never held twice
        dw = np.empty_like(weight.data)
        np.matmul(x.data.T, dp, out=dw[:cin])
        np.matmul(x.data.T, da, out=dw[cin:])
        _accumulate(weight, dw)

    return _make(data, parents, grad_fn)


def _select_neighbors(p: np.ndarray, nbrs: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Per cell and channel, the neighbor with the least sign * p, first slot on ties.

    A first pass of k gathers finds the least value. The first slot holding
    it equals the number of slots before it whose value differs, so a
    second pass over the first k - 1 slots keeps a mask of entries not
    matched yet and adds it to a slot count, held in the narrowest unsigned
    type that reaches k - 1. An entry whose neighbors include a NaN may
    pick another slot; its output is NaN either way.
    """
    k = nbrs.shape[1]
    signed = p * sign
    least = signed[nbrs[:, 0]]
    for slot in range(1, k):
        np.minimum(least, signed[nbrs[:, slot]], out=least)
    slots = np.zeros(p.shape, dtype=np.min_scalar_type(k - 1))
    missing = np.ones(p.shape, dtype=bool)  # no slot so far holds the least
    for slot in range(k - 1):
        missing &= signed[nbrs[:, slot]] != least
        slots += missing
    return np.take_along_axis(nbrs, slots, axis=1)


def _neighbor_sum(v: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Row i: the sum of v over the neighbors of cell i."""
    out = v[nbrs[:, 0]]
    for slot in range(1, nbrs.shape[1]):
        out += v[nbrs[:, slot]]
    return out


def _reverse_neighbor_sum(u: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Row j: the sum of u over the cells that list j as a neighbor, in u's
    dtype.

    The targets are ranked by descending in-degree, so for every slot t the
    t-th in-edges of all targets with more than t of them land on a prefix
    of the ranking: each slot is one row gather and one slice add. The
    table is built from nbrs on every call and nothing outlives it. Each
    row sums its sources in ascending order.
    """
    k = nbrs.shape[1]
    targets = nbrs.ravel()
    degree = np.bincount(targets, minlength=u.shape[0])
    order = np.argsort(-degree, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    edges = np.argsort(rank[targets], kind="stable")  # by target rank, then source
    ranked = degree[order]
    slot = np.arange(edges.size) - np.repeat(np.cumsum(ranked) - ranked, ranked)
    table = (edges // k)[np.argsort(slot, kind="stable")]  # sources, slot by slot
    out = np.zeros_like(u)
    stop = 0
    for width in np.bincount(slot):
        start, stop = stop, stop + width
        out[:width] += u[table[start:stop]]
    return out[rank]


def _scatter_columns(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[rows[i, c], c] += values[i, c], summed in float64 and returned
    in values' dtype."""
    n, c = values.shape
    flat = rows * c + np.arange(c)
    out = np.bincount(flat.ravel(), weights=values.ravel(), minlength=n * c)
    return out.reshape(n, c).astype(values.dtype, copy=False)


# ---------------------------------------------------------------------------
# optimizer

class AmsGrad:
    """AMSGrad optimizer (bias-corrected, running max of the second moment)
    over (path, parameter) pairs, as Module.named_parameters yields them.

    The caller supplies all four hyperparameters (RunConfig lr, beta1,
    beta2, adam_eps). step() refuses to apply a non-finite gradient and
    names the offending parameter by its path. The moments and their
    running maximum are updated in place, with one scratch buffer per
    parameter.
    """

    def __init__(self, named_params, lr: float, beta1: float, beta2: float, eps: float):
        self.named = list(named_params)
        self.params: list[Tensor] = [p for _, p in self.named]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.v_hat = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for path, p in self.named:
            if not np.all(np.isfinite(p.gradient())):
                raise NonFiniteGradientError(f"non-finite gradient in parameter {path}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v, v_hat in zip(self.params, self.m, self.v, self.v_hat):
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and the step
            # (lr / bc1) m / (sqrt(v_hat) / sqrt(bc2) + eps), in place
            g = p.gradient()
            scratch = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += scratch
            np.multiply(g, 1.0 - self.beta2, out=scratch)
            scratch *= g
            v *= self.beta2
            v += scratch
            np.maximum(v_hat, v, out=v_hat)
            np.sqrt(v_hat, out=scratch)
            scratch /= math.sqrt(bc2)
            scratch += self.eps
            p.data -= np.divide(m * (self.lr / bc1), scratch, out=scratch)
