"""SMO-trained RBF machines: KKT certificates, dual optimality, upsampling."""

import numpy as np
import pytest

from dentalmesh import svm
from dentalmesh.pipeline import preprocess
from dentalmesh.svm import KKT_TOL, LabelUpsampler

from helpers import grid_mesh, svm_dual_objective


def _two_clusters(rng, n_per=20, gap=4.0, dim=2, noise=0.6):
    a = rng.normal(scale=noise, size=(n_per, dim))
    b = rng.normal(scale=noise, size=(n_per, dim)) + gap
    x = np.vstack([a, b])
    y = np.concatenate([-np.ones(n_per), np.ones(n_per)])
    return x, y


def _fit(x, y, c, gamma):
    return svm.smo(svm.rbf_kernel(x, x, gamma), y, c)


def _decision(x, y, alpha, bias, points, gamma):
    return svm.rbf_kernel(points, x, gamma) @ (alpha * y) + bias


def _assert_kkt(kernel, y, c, alpha, bias):
    """Optimality check that does not trust the solver: the box and the
    equality constraint on alpha, then each sample's margin condition."""
    assert np.all(alpha >= 0.0) and np.all(alpha <= c)
    assert abs(np.sum(alpha * y)) < 1e-9
    margins = y * (kernel @ (alpha * y) + bias)
    tol = 2.5 * KKT_TOL  # solver tolerance plus slack for gradient drift
    at_zero, at_c = alpha == 0.0, alpha == c
    free = ~at_zero & ~at_c
    assert np.all(margins[at_zero] >= 1.0 - tol)
    assert np.all(margins[at_c] <= 1.0 + tol)
    assert np.all(np.abs(margins[free] - 1.0) <= tol)


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
    with pytest.raises(ValueError, match="kernel \\(n, n\\)"):
        svm.smo(np.eye(3), np.ones((3, 1)), 1.0)
    with pytest.raises(ValueError, match="kernel \\(n, n\\)"):
        svm.smo(np.eye(2), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="\\+1 or -1"):
        svm.smo(np.eye(3), np.array([0.0, 1.0, 1.0]), 1.0)
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="c must be positive"):
            svm.smo(np.eye(2), np.array([1.0, -1.0]), c)
    with pytest.raises(ValueError, match="x \\(n, d\\)"):
        LabelUpsampler().fit(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))


def test_separable_clusters_classified(rng):
    x, y = _two_clusters(rng)
    alpha, bias = _fit(x, y, c=10.0, gamma=0.5)
    assert np.array_equal(np.sign(_decision(x, y, alpha, bias, x, 0.5)), y)
    # fresh points from the same clusters land on the right side
    fresh = np.vstack([rng.normal(scale=0.6, size=(8, 2)),
                       rng.normal(scale=0.6, size=(8, 2)) + 4.0])
    assert np.array_equal(np.sign(_decision(x, y, alpha, bias, fresh, 0.5)),
                          np.concatenate([-np.ones(8), np.ones(8)]))


def test_kkt_certificate(rng):
    x, y = _two_clusters(rng, n_per=25, gap=3.0)
    c = 5.0
    alpha, bias = _fit(x, y, c=c, gamma=0.8)
    _assert_kkt(svm.rbf_kernel(x, x, 0.8), y, c, alpha, bias)


def test_every_machine_converges_on_a_noisy_arch(small_arch):
    # an arch decimated to about 400 cells with a tenth of its coarse labels
    # moved to another class: every one-vs-rest machine the upsampler fits
    # meets KKT, not only toy problems
    mesh, ann = small_arch
    scan = preprocess(mesh, ann, 400)
    rng = np.random.default_rng(5)
    labels = scan.coarse_labels.copy()
    hit = rng.random(labels.size) < 0.1
    labels[hit] = (labels[hit] + rng.integers(1, 15, size=int(hit.sum()))) % 15
    x = scan.coarse.cell_barycenters
    kernel = svm.rbf_kernel(x, x, svm.spacing_gamma(x))
    classes = np.unique(labels)
    assert classes.size == 15
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        alpha, bias = svm.smo(kernel, y, 10.0)
        _assert_kkt(kernel, y, 10.0, alpha, bias)


def test_dual_objective_near_grid_optimum(rng):
    # 3-point micro problem: compare the SMO solution's dual objective with
    # a dense grid search over the feasible simplex
    x = np.array([[0.0, 0.0], [1.0, 0.2], [3.0, 3.0]])
    y = np.array([-1.0, -1.0, 1.0])
    c = 2.0
    gamma = 0.5
    alpha, _ = _fit(x, y, c=c, gamma=gamma)
    kernel = svm.rbf_kernel(x, x, gamma)
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
    a, bias_a = _fit(x.copy(), y.copy(), c=3.0, gamma=0.9)
    b, bias_b = _fit(x.copy(), y.copy(), c=3.0, gamma=0.9)
    assert np.array_equal(a, b)
    assert bias_a == bias_b
    labels = np.where(y > 0, 4, 1)
    first, second = (LabelUpsampler(c=3.0).fit(x.copy(), labels) for _ in range(2))
    for name in ("rows_", "coef_", "bias_"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_multiclass_predictions(rng):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]])
    x = np.vstack([rng.normal(scale=0.5, size=(15, 2)) + c for c in centers])
    y = np.repeat([2, 5, 9], 15)
    model = LabelUpsampler(c=10.0).fit(x, y)
    assert np.array_equal(model.classes_, [2, 5, 9])
    assert np.array_equal(model.predict(x), y)
    assert np.array_equal(model.predict(centers), [2, 5, 9])
    # every column is one class against the rest at the spacing-derived width
    # on one shared kernel; rows_ keeps exactly the points some column uses
    gamma = svm.spacing_gamma(x)
    assert model.gamma_ == gamma
    fresh = rng.uniform(-2.0, 8.0, size=(300, 2))
    scores = []
    coef = []
    for cls in model.classes_:
        target = np.where(y == cls, 1.0, -1.0)
        alpha, bias = _fit(x, target, c=10.0, gamma=gamma)
        coef.append(alpha * target)
        scores.append(_decision(x, target, alpha, bias, fresh, gamma))
    coef = np.stack(coef, axis=1)
    used = np.any(coef != 0.0, axis=1)
    assert np.array_equal(model.rows_, x[used])
    assert np.array_equal(model.coef_, coef[used])
    loop = model.classes_[np.argmax(np.stack(scores, axis=1), axis=1)]
    assert np.array_equal(model.predict(fresh), loop)


def test_multiclass_degenerate_single_class():
    x = np.zeros((4, 2))
    model = LabelUpsampler().fit(x, np.full(4, 7))
    assert model.rows_.shape[0] == 0
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
