"""Tensor library: gradients against finite differences, optimizer oracle."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentalmesh import autodiff as ad
from dentalmesh import geometry as geo
from dentalmesh.errors import NonFiniteGradientError, ShapeError

from helpers import (
    check_grads,
    gather_rows,
    max_over_axis,
    reference_conv_bn_relu,
    relu,
    reshape,
)


def test_matmul_relu_chain_gradients(rng):
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(5, 4))

    def build():
        wp = ad.Parameter(w)
        out = relu(ad.matmul(ad.Tensor(x), wp))
        return ad.reduce_sum(ad.mul(out, out)), [wp]

    check_grads(build, [w])


def test_sigmoid_div_gradients(rng):
    a = rng.uniform(0.5, 2.0, size=(4, 4))
    b = rng.uniform(0.5, 2.0, size=(4, 4))

    def build():
        ap = ad.Parameter(a)
        bp = ad.Parameter(b)
        out = ad.div(1.0, ad.add(ad.div(ad.sigmoid(ap), bp), 1.0))
        return ad.reduce_mean(out), [ap, bp]

    check_grads(build, [a, b])


def test_softmax_concat_gather_gradients(rng):
    a = rng.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5, 1])

    def build():
        ap = ad.Parameter(a)
        soft = ad.softmax_rows(ad.concat([ap, ad.mul(ap, 2.0)], axis=1))
        picked = gather_rows(soft, idx)
        weights = np.linspace(1.0, 2.0, picked.data.size).reshape(picked.data.shape)
        return ad.reduce_sum(ad.mul(picked, weights)), [ap]

    check_grads(build, [a])


def test_pooling_gradients(rng):
    # distinct entries keep the max unique, so FD stays valid at the argmax
    a = rng.permutation(24).astype(np.float64).reshape(6, 4) * 0.37

    def build():
        ap = ad.Parameter(a)
        pooled = max_over_axis(ap, axis=0)
        m = max_over_axis(reshape(ad.mul(ap, 1.5), (2, 3, 4)), axis=1)
        weights = np.arange(m.data.size, dtype=np.float64).reshape(m.data.shape)
        total = ad.add(ad.reduce_sum(ad.mul(pooled, 6.0)), ad.reduce_sum(ad.mul(m, weights)))
        return total, [ap]

    check_grads(build, [a])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_equals_the_masked_where_bytewise(dtype):
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.smallest_subnormal,
               -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max]
    table = np.concatenate([np.array(special, dtype=dtype),
                            np.random.default_rng(0).normal(size=1000).astype(dtype)])
    # numpy's fmax keeps or drops the sign of -0.0 depending on the loop
    # it takes, so each special value also goes through alone
    for x in [table] + [np.array([v], dtype=dtype) for v in special]:
        expected = np.where(x > 0.0, x, 0.0)
        assert expected.dtype == dtype
        assert ad._relu(x).tobytes() == expected.tobytes()
        in_place = x.copy()
        ad._relu(in_place, out=in_place)
        assert in_place.tobytes() == expected.tobytes()


def _first_least_neighbors(p, nbrs, sign):
    """Per cell and channel, a loop over the slots: the first neighbor whose
    sign * p is least (-0.0 and +0.0 tie)."""
    signed = p * sign
    out = np.empty(p.shape, dtype=np.int64)
    for i, row in enumerate(nbrs):
        for c in range(p.shape[1]):
            values = [signed[j, c] for j in row]
            out[i, c] = row[values.index(min(values))]
    return out


@pytest.mark.parametrize("k", [1, 2, 6, 12, 257])
def test_select_neighbors_takes_the_first_least_slot(k):
    """Few distinct values, +-0.0 among them, duplicated rows and every
    gamma sign: most picks are ties, which go to the lowest slot. k = 257
    needs a slot count wider than 8 bits."""
    rng = np.random.default_rng(k)
    n = max(30, k + 3)
    p = rng.choice([-1.5, -0.0, 0.0, 0.75, 2.0], size=(n, 9))
    p[10:20] = p[:10]
    sign = np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 1.0])
    graphs = (geo.knn_graph(rng.normal(size=(n, 3)), k).neighbors,
              geo.knn_graph(np.zeros((n, 3)), k).neighbors)  # coincident points
    for nbrs in graphs:
        expected = _first_least_neighbors(p, nbrs, sign)
        for dtype in (np.float32, np.float64):
            picked = ad._select_neighbors(p.astype(dtype), nbrs, sign.astype(dtype))
            assert np.array_equal(picked, expected)


def _conv_bn_relu_arrays(rng, n=9, cin=4, cout=5):
    """x, weight, gamma (both signs) and beta."""
    return (rng.normal(size=(n, cin)), rng.normal(size=(cin, cout)),
            rng.uniform(0.5, 1.5, size=cout) * rng.choice([-1.0, 1.0], cout),
            rng.normal(size=cout))


def test_conv_bn_relu_gradients(rng):
    arrays = _conv_bn_relu_arrays(rng)

    def build():
        params = [ad.Parameter(a) for a in arrays]
        out = ad.conv_bn_relu(*params)
        weights = np.sin(np.arange(out.data.size)).reshape(out.data.shape)
        return ad.reduce_sum(ad.mul(out, weights)), params

    check_grads(build, arrays)


@pytest.mark.parametrize("record", [True, False])
def test_conv_bn_relu_matches_unfused_composition_bitwise(rng, record):
    """Both paths of the op, a recorded graph (fresh output buffer, then the
    backward) and no_grad (all in place), against the four-node composition."""
    arrays = _conv_bn_relu_arrays(rng, n=40, cin=6, cout=8)

    def run(op):
        params = [ad.Parameter(a.copy()) for a in arrays]
        if not record:
            with ad.no_grad():
                return op(*params).data, []
        out = op(*params)
        weights = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        return out.data, [p.grad for p in params]

    out, grads = run(ad.conv_bn_relu)
    ref_out, ref_grads = run(reference_conv_bn_relu)
    assert np.array_equal(out, ref_out)
    assert 0.0 < np.mean(out > 0.0) < 1.0  # the ReLU masks some entries
    assert len(grads) == (4 if record else 0)
    for name, g, ref in zip(("x", "weight", "gamma", "beta"), grads, ref_grads):
        assert np.array_equal(g, ref), name


def test_conv_bn_relu_normalizes_by_each_clouds_own_statistics(rng):
    x = rng.normal(size=(8, 2)) * 2.0 + 1.0
    weight = ad.Parameter(np.eye(2))
    gamma = ad.Parameter(np.ones(2))
    beta = ad.Parameter(np.full(2, 10.0))  # keeps every entry above the ReLU kink
    expected = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + ad.BN_EPS) + 10.0
    for _ in range(2):  # nothing carries over from one call to the next
        out = ad.conv_bn_relu(ad.Tensor(x), weight, gamma, beta)
        assert np.allclose(out.data, expected, rtol=0.0, atol=1e-12)
        with ad.no_grad():
            assert np.array_equal(ad.conv_bn_relu(x, weight, gamma, beta).data, out.data)
    # a constant row added to every cell cancels
    shifted = ad.conv_bn_relu(ad.Tensor(x + [3.0, -7.0]), weight, gamma, beta)
    assert np.allclose(shifted.data, expected, rtol=0.0, atol=1e-12)
    for _ in range(2):
        with pytest.raises(ShapeError, match="at least 2 rows"):
            ad.conv_bn_relu(ad.Tensor(x[:1]), weight, gamma, beta)
        with ad.no_grad(), pytest.raises(ShapeError, match="at least 2 rows"):
            ad.conv_bn_relu(ad.Tensor(x[:1]), weight, gamma, beta)
    with pytest.raises(ShapeError):
        ad.conv_bn_relu(ad.Tensor(x[:, :1]), weight, gamma, beta)


def test_no_grad_conv_bn_relu_keeps_nothing(rng):
    """Without a tracked gradient the op allocates its output and masks only."""
    arrays = _conv_bn_relu_arrays(rng, n=2000, cin=16, cout=64)
    params = [ad.Parameter(a) for a in arrays]
    with_grad = ad.conv_bn_relu(*params)
    tracemalloc.start()
    try:
        with ad.no_grad():
            out = ad.conv_bn_relu(*params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out._grad_fn is None and out._parents == ()
    assert np.array_equal(out.data, with_grad.data)
    assert peak < 1.5 * out.data.nbytes


def test_amsgrad_matches_hand_rolled_recurrence():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [3.0, -1.0, 0.5, 0.5, -2.0]
    p = ad.Parameter(np.array([1.0]))
    opt = ad.AmsGrad([("p", p)], lr=lr, beta1=b1, beta2=b2, eps=eps)

    theta, m, v, vhat = 1.0, 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        vhat = max(vhat, v)
        denom = np.sqrt(vhat) / np.sqrt(1 - b2**t) + eps
        theta -= lr / (1 - b1**t) * m / denom
        assert p.data[0] == theta  # same operations in the same order


def test_amsgrad_vhat_never_decreases(rng):
    p = ad.Parameter(rng.normal(size=(3,)))
    opt = ad.AmsGrad([("p", p)], lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    prev = opt.v_hat[0].copy()
    for _ in range(30):
        p.grad = rng.normal(size=3) * rng.uniform(0.01, 5.0)
        opt.step()
        assert np.all(opt.v_hat[0] >= prev)
        prev = opt.v_hat[0].copy()


def test_amsgrad_rejects_non_finite_gradient():
    p = ad.Parameter(np.zeros(2))
    q = ad.Parameter(np.zeros(2))
    opt = ad.AmsGrad([("w1", p), ("w2", q)], lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    p.grad = np.array([0.1, 0.2])
    q.grad = np.array([np.nan, 0.0])
    before = p.data.copy()
    with pytest.raises(NonFiniteGradientError, match="w2"):
        opt.step()
    # the step must not partially apply
    assert np.array_equal(p.data, before)
    assert opt.t == 0


def test_no_grad_blocks_graph_building():
    p = ad.Parameter(np.array([[1.0, 2.0]]))
    with ad.no_grad():
        out = ad.reduce_sum(ad.mul(p, 3.0))
    assert out._parents == ()
    ad.backward(out)
    assert p.grad is None
    assert ad.grad_enabled()


def test_backward_requires_scalar():
    p = ad.Parameter(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.backward(ad.mul(p, 2.0))


def test_rank_cap():
    with pytest.raises(ShapeError):
        ad.Tensor(np.zeros((2, 2, 2, 2)))


def test_unreachable_parameter_has_zero_gradient():
    used = ad.Parameter(np.ones(3))
    unused = ad.Parameter(np.ones(3))
    loss = ad.reduce_sum(ad.mul(used, 2.0))
    ad.backward(loss)
    assert np.array_equal(unused.gradient(), np.zeros(3))
    assert np.array_equal(used.gradient(), np.full(3, 2.0))


def test_shared_upstream_gradient_is_not_aliased(rng):
    # add hands its upstream gradient to both parents and reshape hands on a
    # view of it: whichever leaf takes a first gradient must not share
    # memory with the other leaf's gradient
    w = rng.normal(size=(3, 2))
    u = rng.normal(size=(3, 2))
    x = ad.Parameter(rng.normal(size=(3, 2)))
    y = ad.Parameter(rng.normal(size=(3, 2)))
    z = ad.Parameter(rng.normal(size=(2, 3)))
    both = ad.add(x, y)
    flat = reshape(both, (2, 3))
    loss = ad.add(ad.reduce_sum(ad.mul(both, w)),
                  ad.reduce_sum(ad.mul(ad.add(flat, z), u.reshape(2, 3))))
    ad.backward(loss)
    assert np.array_equal(x.grad, w + u)
    assert np.array_equal(y.grad, w + u)
    assert np.array_equal(z.grad, u.reshape(2, 3))
    assert not np.shares_memory(x.grad, y.grad)
    assert not np.shares_memory(x.grad, z.grad) and not np.shares_memory(y.grad, z.grad)
    for leaf in (x, y, z):
        assert leaf.grad.flags.writeable


def test_backward_releases_interior_nodes(rng):
    x = rng.normal(size=(5, 4))
    w = ad.Parameter(rng.normal(size=(4, 3)))
    b = ad.Parameter(rng.normal(size=3))
    pre = ad.add(ad.matmul(ad.Tensor(x), w), b)
    act = relu(pre)
    loss = ad.reduce_sum(ad.mul(act, act))
    ad.backward(loss)
    for node in (pre, act, loss):
        assert node.grad is None and node._grad_fn is None and node._parents == ()
    dpre = 2.0 * np.maximum(x @ w.data + b.data, 0.0)
    assert np.allclose(w.grad, x.T @ dpre, rtol=1e-14, atol=1e-14)
    assert np.allclose(b.grad, dpre.sum(axis=0), rtol=1e-14, atol=1e-14)
    # the graph is spent: a second backward leaves the leaves as they are
    before = w.grad.copy()
    ad.backward(loss)
    assert np.array_equal(w.grad, before)


def test_saved_activation_dies_with_the_output(rng):
    """After backward the loss no longer holds the graph: once the caller
    drops the output, what the ops saved for the backward is freed."""
    w1 = ad.Parameter(rng.normal(size=(4, 6)))
    w2 = ad.Parameter(rng.normal(size=(6, 3)))
    hidden = relu(ad.matmul(ad.Tensor(rng.normal(size=(30, 4))), w1))
    saved = weakref.ref(hidden.data)  # the matmul keeps it for w2's gradient
    out = ad.matmul(hidden, w2)
    loss = ad.reduce_sum(ad.mul(out, out))
    del hidden
    ad.backward(loss)
    del out
    assert saved() is None
    assert w1.grad is not None and w2.grad is not None


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(n, c, seed):
    x = np.random.default_rng(seed).normal(size=(n, c)) * 10.0
    out = ad.softmax_rows(ad.Tensor(x))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.data > 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_forward_values_match_numpy(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(m, n))
    assert np.allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b)
    assert np.allclose(max_over_axis(ad.Tensor(a), axis=0).data, a.max(axis=0))
    assert np.allclose(ad.reduce_sum(ad.Tensor(a)).data, a.sum())
    assert np.allclose(relu(ad.Tensor(a)).data, np.maximum(a, 0.0))
