"""RBF-kernel SVMs for carrying coarse labels back to full resolution.

A binary machine is trained by SMO with LIBSVM's working-set selection
(Fan, Chen & Lin, JMLR 2005). The solver keeps the signed coefficients
beta = alpha * y and v = y - kernel @ beta, the label-signed negative
gradient of the dual. Each step moves one pair of coefficients:

- i is the maximal violator, the largest v among coefficients that may grow;
- j is the partner, among coefficients that may shrink and have v_j < v_i,
  with the largest second-order gain b^2 / a, where b = v_i - v_j and
  a = K_ii + K_jj - 2 K_ij;
- the pair takes the analytic step b / a, clipped to the box 0 <= alpha <= c.

v is kept current from the pair's two kernel rows. The fit stops when the
largest v that may grow exceeds the smallest v that may shrink by less than
KKT_TOL (LIBSVM's rule), which bounds every sample's KKT violation by
KKT_TOL. The bias is LIBSVM's rho: the mean of v over free coefficients,
else the midpoint of those two bounds. Ties go to the lowest index, so a fit
is bit-reproducible.

LabelUpsampler fits one-vs-rest machines on decimated cell barycenters
over one shared kernel and keeps their coefficients as one matrix; predict
is one kernel block against it per chunk of points.
"""

from __future__ import annotations

import warnings

import numpy as np

from .config import RunConfig

KKT_TOL = 1e-3
# curvature floor, for pairs of coincident points
TAU = 1e-12
# safety cap on SMO steps per machine; the largest fits measured, on
# paper-size arches with 4,500 coarse cells, take under 10,000
MAX_ITER = 100_000
# points per kernel block; 256 x 4,500 coarse rows is a 9 MB block
PREDICT_CHUNK = 256


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all row pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    sq -= cross
    del cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


def scale_gamma(x: np.ndarray) -> float:
    """1 / (n_features * var(x)), with a variance floor for degenerate data."""
    x = np.asarray(x, dtype=np.float64)
    var = float(x.var())
    if var <= 0.0:
        var = 1.0
    return 1.0 / (x.shape[1] * var)


def smo(kernel: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """(alpha, bias) of the soft-margin SVM dual on a symmetric kernel matrix.

    y holds +1 / -1 labels; decision values are kernel_rows @ (alpha * y) + bias.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if y.ndim != 1 or kernel.shape != (n, n):
        raise ValueError("expected kernel (n, n) and y (n,)")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("binary labels must be +1 or -1")
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be positive and finite, got {c}")
    diagonal = np.diagonal(kernel)
    lo = np.where(y > 0.0, 0.0, -c)
    hi = lo + c
    beta = np.zeros(n)
    # v where beta may grow, else -inf; v where beta may shrink, else +inf
    v_up = np.where(beta < hi, y, -np.inf)
    v_down = np.where(beta > lo, y, np.inf)
    a, gain, delta = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(MAX_ITER):
        i = int(np.argmax(v_up))
        top = v_up[i]
        if top - v_down.min() < KKT_TOL:
            break
        row_i = kernel[i]
        np.add(diagonal, diagonal[i], out=a)
        np.multiply(row_i, 2.0, out=delta)
        a -= delta
        np.maximum(a, TAU, out=a)
        np.subtract(top, v_down, out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= a
        j = int(np.argmax(gain))
        beta_i, beta_j = beta[i], beta[j]
        room_i, room_j = hi[i] - beta_i, beta_j - lo[j]
        step = min((top - v_down[j]) / a[j], room_i, room_j)
        new_i = hi[i] if step == room_i else beta_i + step
        new_j = lo[j] if step == room_j else beta_j - step
        np.multiply(row_i, new_i - beta_i, out=delta)
        delta += (new_j - beta_j) * kernel[j]
        v_up -= delta
        v_down -= delta
        v_i, v_j = v_up[i], v_down[j]
        beta[i], beta[j] = new_i, new_j
        v_up[i] = v_i if new_i < hi[i] else -np.inf
        v_down[i] = v_i if new_i > lo[i] else np.inf
        v_up[j] = v_j if new_j < hi[j] else -np.inf
        v_down[j] = v_j if new_j > lo[j] else np.inf
    else:
        warnings.warn(f"SMO stopped after MAX_ITER={MAX_ITER} steps above KKT_TOL",
                      stacklevel=2)
    free = (beta > lo) & (beta < hi)
    if free.any():
        bias = float(np.mean(v_up[free]))
    else:
        bias = 0.5 * float(v_up.max() + v_down.min())
    return beta * y, bias


def spacing_gamma(points: np.ndarray) -> float:
    """Kernel width from the point cloud's own sampling density.

    A global-variance gamma gives a kernel wider than a whole tooth and the
    one-vs-rest machines underfit badly; boundaries need a lengthscale of a
    few cell spacings instead. Uses 1 / (2 * (2.5 * median_nn)^2) where
    median_nn is the median nearest-neighbor distance, measured on an even
    subsample to stay cheap.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        return scale_gamma(points) if n else 1.0
    probe = points[:: max(1, n // 900)]
    sq_all = np.sum(points * points, axis=1)
    nearest = np.empty(probe.shape[0])
    for lo in range(0, probe.shape[0], PREDICT_CHUNK):
        blk = probe[lo : lo + PREDICT_CHUNK]
        d = np.sum(blk * blk, axis=1)[:, None] + sq_all[None, :] - 2.0 * blk @ points.T
        np.maximum(d, 0.0, out=d)
        d[d < 1e-18] = np.inf
        nearest[lo : lo + blk.shape[0]] = d.min(axis=1)
    med = float(np.sqrt(np.median(nearest)))
    if not np.isfinite(med) or med <= 0.0:
        return scale_gamma(points)
    return 1.0 / (2.0 * (2.5 * med) ** 2)


class LabelUpsampler:
    """Maps coarse-mesh cell labels onto any other cell set of the same scan.

    Fit on decimated barycenters with their refined labels: one smo machine
    per class against the rest, all on one kernel matrix whose width comes
    from the coarse sampling density (see spacing_gamma). The machines are
    kept as one coefficient matrix coef_ = alpha * y of shape (rows,
    classes) over rows_, the coarse points where some machine's coefficient
    is nonzero, plus a bias per class. Predict takes the original mesh's
    barycenters; each point gets the class of the largest decision value in
    rbf_kernel(points, rows_) @ coef_ + bias_, computed one chunk of points
    at a time. When the coarse labeling is single-class the model
    degenerates to a constant.
    """

    def __init__(self, c: float = RunConfig.svm_c):
        self.c = c
        self.classes_: np.ndarray = np.zeros(0, dtype=np.int64)
        self.gamma_ = 1.0
        self.rows_: np.ndarray = np.zeros((0, 3))
        self.coef_: np.ndarray = np.zeros((0, 0))
        self.bias_: np.ndarray = np.zeros(0)

    def fit(self, coarse_points: np.ndarray, coarse_labels: np.ndarray) -> "LabelUpsampler":
        x = np.asarray(coarse_points, dtype=np.float64)
        y = np.asarray(coarse_labels, dtype=np.int64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("expected x (n, d) and y (n,)")
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            return self
        self.gamma_ = spacing_gamma(x)
        kernel = rbf_kernel(x, x, self.gamma_)
        coef = np.empty((x.shape[0], self.classes_.size))
        self.bias_ = np.empty(self.classes_.size)
        for k, cls in enumerate(self.classes_):
            target = np.where(y == cls, 1.0, -1.0)
            alpha, self.bias_[k] = smo(kernel, target, self.c)
            coef[:, k] = alpha * target
        used = np.any(coef != 0.0, axis=1)
        self.rows_, self.coef_ = x[used], coef[used]
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=np.float64)
        if self.classes_.size == 0:
            raise ValueError("predict before fit")
        if self.classes_.size == 1:
            return np.full(x.shape[0], self.classes_[0], dtype=np.int64)
        scores = np.empty((x.shape[0], self.classes_.size))
        for lo in range(0, x.shape[0], PREDICT_CHUNK):
            block = x[lo : lo + PREDICT_CHUNK]
            scores[lo : lo + block.shape[0]] = rbf_kernel(block, self.rows_, self.gamma_) @ self.coef_
        scores += self.bias_
        return self.classes_[np.argmax(scores, axis=1)].astype(np.int64)
