"""SMO-trained RBF machines: KKT certificates, dual optimality, upsampling."""

import copy

import numpy as np
import pytest

from dentalmesh import svm
from dentalmesh.svm import KKT_TOL, LabelUpsampler, RbfSvm

from helpers import grid_mesh, recover_alpha, reference_examine, svm_dual_objective


def _two_clusters(rng, n_per=20, gap=4.0, dim=2, noise=0.6):
    a = rng.normal(scale=noise, size=(n_per, dim))
    b = rng.normal(scale=noise, size=(n_per, dim)) + gap
    x = np.vstack([a, b])
    y = np.concatenate([-np.ones(n_per), np.ones(n_per)])
    return x, y


def _fit(x, y, c, gamma):
    return RbfSvm(c=c, gamma=gamma).fit(x, y, svm.rbf_kernel(x, x, gamma))


def _predict(model, x):
    return np.where(model.decision(x) >= 0.0, 1.0, -1.0)


def test_rbf_kernel_matches_reference(rng):
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(4, 3))
    gamma = 0.7
    k = svm.rbf_kernel(a, b, gamma)
    expected = np.empty((5, 4))
    for i in range(5):
        for j in range(4):
            expected[i, j] = np.exp(-gamma * np.sum((a[i] - b[j]) ** 2))
    assert np.allclose(k, expected, atol=1e-14)
    # self-kernel has unit diagonal
    kd = svm.rbf_kernel(a, a, gamma)
    assert np.allclose(np.diag(kd), 1.0)


def test_scale_gamma():
    x = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert svm.scale_gamma(x) == pytest.approx(1.0 / (2 * x.var()))
    # constant data falls back to the variance floor
    assert svm.scale_gamma(np.ones((5, 4))) == pytest.approx(0.25)


def test_fit_validation():
    with pytest.raises(ValueError, match="x \\(n, d\\)"):
        RbfSvm(c=1.0, gamma=1.0).fit(np.zeros(3), np.ones(3), np.eye(3))
    with pytest.raises(ValueError, match="\\+1 or -1"):
        RbfSvm(c=1.0, gamma=1.0).fit(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]), np.eye(3))
    with pytest.raises(ValueError, match="x \\(n, d\\)"):
        LabelUpsampler().fit(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))


def test_separable_clusters_classified(rng):
    x, y = _two_clusters(rng)
    model = _fit(x, y, c=10.0, gamma=0.5)
    assert np.array_equal(_predict(model, x), y)
    # fresh points from the same clusters land on the right side
    fresh = np.vstack([rng.normal(scale=0.6, size=(8, 2)),
                       rng.normal(scale=0.6, size=(8, 2)) + 4.0])
    assert np.array_equal(_predict(model, fresh),
                          np.concatenate([-np.ones(8), np.ones(8)]))
    assert not hasattr(model, "_state")  # working state is dropped after fit


def test_kkt_certificate(rng):
    # optimality check that does not trust the solver: recover alpha from
    # the stored support vectors and verify the KKT conditions directly
    x, y = _two_clusters(rng, n_per=25, gap=3.0)
    c = 5.0
    model = _fit(x, y, c=c, gamma=0.8)
    alpha = recover_alpha(model, x, y)
    assert np.all(alpha >= -1e-12) and np.all(alpha <= c + 1e-12)
    assert abs(np.sum(alpha * y)) < 1e-9

    margins = y * model.decision(x)
    tol = 2.5 * KKT_TOL  # solver tolerance plus slack for error drift
    for i in range(x.shape[0]):
        if alpha[i] < 1e-8:
            assert margins[i] >= 1.0 - tol
        elif alpha[i] > c - 1e-8:
            assert margins[i] <= 1.0 + tol
        else:
            assert abs(margins[i] - 1.0) <= tol


def test_dual_objective_near_grid_optimum(rng):
    # 3-point micro problem: compare the SMO solution's dual objective with
    # a dense grid search over the feasible simplex
    x = np.array([[0.0, 0.0], [1.0, 0.2], [3.0, 3.0]])
    y = np.array([-1.0, -1.0, 1.0])
    c = 2.0
    gamma = 0.5
    model = _fit(x, y, c=c, gamma=gamma)
    kernel = svm.rbf_kernel(x, x, gamma)
    alpha = recover_alpha(model, x, y)
    achieved = svm_dual_objective(kernel, y, alpha)

    best = -np.inf
    grid = np.linspace(0.0, c, 81)
    for a0 in grid:
        for a1 in grid:
            a2 = a0 + a1  # equality constraint sum(alpha*y)=0 pins alpha2
            if a2 > c:
                continue
            cand = svm_dual_objective(kernel, y, np.array([a0, a1, a2]))
            best = max(best, cand)
    assert achieved >= best - 1e-3


def test_fit_is_deterministic(rng):
    x, y = _two_clusters(rng, n_per=15)
    a = _fit(x.copy(), y.copy(), c=3.0, gamma=0.9)
    b = _fit(x.copy(), y.copy(), c=3.0, gamma=0.9)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias


@pytest.mark.parametrize("seed", range(4))
def test_screened_partner_search_matches_scalar_pair_rule(seed):
    # overlapping classes with duplicated rows: duplicates give zero
    # curvature, so many best-gap partners fail and the fallback runs
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(100, 2))
    x[70:] = x[:30]
    y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
    c = float(rng.uniform(0.5, 5.0))
    state = svm._SmoState(svm.rbf_kernel(x, x, 0.7), y, c)
    fallback_taken = fallback_exhausted = 0
    for _ in range(6):
        state.refresh_errors()
        for i in range(x.shape[0]):
            twin = copy.copy(state)
            twin.alpha, twin.errors = state.alpha.copy(), state.errors.copy()
            partner, tried = reference_examine(twin, i, state.FALLBACK_TRIES,
                                               svm.MIN_ALPHA_STEP, KKT_TOL)
            before = state.alpha.copy()
            assert state.examine(i) == (partner is not None)
            moved = np.flatnonzero(state.alpha != before).tolist()
            assert moved == ([] if partner is None else sorted({i, partner}))
            assert np.array_equal(state.alpha, twin.alpha)
            assert np.array_equal(state.errors, twin.errors)
            assert state.bias == twin.bias
            fallback_taken += partner is not None and tried > 1
            fallback_exhausted += partner is None and tried > 1
    assert fallback_taken > 0 and fallback_exhausted > 0


def test_multiclass_predictions(rng):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]])
    x = np.vstack([rng.normal(scale=0.5, size=(15, 2)) + c for c in centers])
    y = np.repeat([2, 5, 9], 15)
    model = LabelUpsampler(c=10.0).fit(x, y)
    assert np.array_equal(model.classes_, [2, 5, 9])
    assert len(model.machines_) == 3
    assert np.array_equal(model.predict(x), y)
    assert np.array_equal(model.predict(centers), [2, 5, 9])
    # every machine is one class against the rest at the spacing-derived
    # width, and the kernel built once per fit gives it the bits of a lone fit
    gamma = svm.spacing_gamma(x)
    for cls, machine in zip(model.classes_, model.machines_):
        assert machine.gamma == gamma
        alone = _fit(x, np.where(y == cls, 1.0, -1.0), c=10.0, gamma=gamma)
        assert np.array_equal(alone.support_vectors, machine.support_vectors)
        assert np.array_equal(alone.dual_coef, machine.dual_coef)
        assert alone.bias == machine.bias


def test_multiclass_degenerate_single_class():
    x = np.zeros((4, 2))
    model = LabelUpsampler().fit(x, np.full(4, 7))
    assert model.machines_ == []
    assert np.array_equal(model.predict(np.ones((3, 2))), [7, 7, 7])


def test_multiclass_predict_before_fit():
    with pytest.raises(ValueError, match="before fit"):
        LabelUpsampler().predict(np.zeros((2, 2)))


def test_spacing_gamma_on_regular_grid():
    # unit-spaced grid: median nearest neighbor is exactly 1, so the kernel
    # lengthscale is 2.5 spacings
    pts = grid_mesh(12, 12).vertices
    gamma = svm.spacing_gamma(pts)
    assert gamma == pytest.approx(1.0 / (2.0 * 2.5**2), rel=1e-9)
    # scaling the cloud rescales gamma by the inverse square
    assert svm.spacing_gamma(pts * 2.0) == pytest.approx(gamma / 4.0, rel=1e-9)


def test_spacing_gamma_degenerate_inputs():
    assert svm.spacing_gamma(np.zeros((0, 3))) == 1.0
    assert svm.spacing_gamma(np.array([[1.0, 2.0, 3.0]])) > 0.0
    # coincident points fall back to the variance heuristic
    assert svm.spacing_gamma(np.zeros((10, 3))) == pytest.approx(svm.scale_gamma(np.zeros((10, 3))))


def test_upsampler_reproduces_labels_on_identity(rng):
    # three well-separated patches; fitting and predicting on the same
    # points must reproduce the training labels
    mesh = grid_mesh(10, 10, spacing=1.0, seed=4)
    pts = mesh.cell_barycenters
    labels = np.zeros(pts.shape[0], dtype=np.int64)
    labels[pts[:, 0] > 6.0] = 3
    labels[pts[:, 0] < 3.0] = 10
    up = LabelUpsampler().fit(pts, labels)
    assert np.array_equal(up.predict(pts), labels)


def test_upsampler_refines_between_training_points(rng):
    coarse = grid_mesh(8, 8, spacing=2.0).vertices
    labels = (coarse[:, 0] > 7.0).astype(np.int64) * 4
    fine = grid_mesh(15, 15, spacing=1.0).vertices
    up = LabelUpsampler().fit(coarse, labels)
    pred = up.predict(fine)
    # away from the decision boundary the upsampled labels are exact
    sure = np.abs(fine[:, 0] - 7.0) > 1.5
    assert np.array_equal(pred[sure], (fine[sure, 0] > 7.0).astype(np.int64) * 4)
