"""RBF-kernel SVMs for carrying coarse labels back to full resolution.

Training is plain SMO with deterministic pair selection: a sweep walks every
sample index in order, and the partner is chosen by the largest error gap
(lowest index on ties). When that partner cannot make progress, the next
ones in gap order are the fallback. The best partner and its fallbacks are
screened in one vectorised pass that does the scalar pair rule's arithmetic
elementwise, so the fit has the same bits as trying them one at a time.
Given the same inputs, fitting is bit-reproducible.

LabelUpsampler fits one-vs-rest binary machines on decimated cell
barycenters, with a kernel width taken from their sampling density, and
predicts per-cell labels for the original mesh by decision-value argmax. The
machines of one fit share a single kernel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig

KKT_TOL = 1e-3
MIN_ALPHA_STEP = 1e-5
MAX_SWEEPS = 200
PREDICT_CHUNK = 2048


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all row pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def scale_gamma(x: np.ndarray) -> float:
    """1 / (n_features * var(x)), with a variance floor for degenerate data."""
    x = np.asarray(x, dtype=np.float64)
    var = float(x.var())
    if var <= 0.0:
        var = 1.0
    return 1.0 / (x.shape[1] * var)


class _SmoState:
    """Working state of one SMO fit.

    Pair selection is deterministic: the partner with the largest error gap
    wins, ties to the lowest index, and partners whose box constraint pins
    the pair in place are masked out up front. The best partner and the
    next FALLBACK_TRIES - 1 in descending gap order, up to the first masked
    one, are screened in one pass; the first that can make progress (a
    nonempty box, negative curvature, a step of at least MIN_ALPHA_STEP)
    is taken.
    """

    FALLBACK_TRIES = 64

    def __init__(self, kernel: np.ndarray, y: np.ndarray, c: float):
        self.kernel = kernel
        self.diagonal = np.diagonal(kernel)
        self.y = y
        self.c = c
        self.alpha = np.zeros(y.shape[0])
        self.bias = 0.0
        self.errors = -y.copy()

    def refresh_errors(self) -> None:
        # incremental updates drift; recompute once per sweep
        self.errors = self.kernel @ (self.alpha * self.y) + self.bias - self.y

    def _eligible(self, i: int) -> np.ndarray:
        same = self.y == self.y[i]
        paired = self.alpha[i] + self.alpha
        ok_same = (paired > 1e-12) & (paired < 2.0 * self.c - 1e-12)
        ok_diff = np.abs(self.alpha - self.alpha[i]) < self.c - 1e-12
        mask = np.where(same, ok_same, ok_diff)
        mask[i] = False
        return mask

    def examine(self, i: int) -> int:
        margin = self.y[i] * self.errors[i]
        violates = (margin < -KKT_TOL and self.alpha[i] < self.c - 1e-12) or (
            margin > KKT_TOL and self.alpha[i] > 1e-12
        )
        if not violates:
            return 0
        gaps = np.abs(self.errors[i] - self.errors)
        gaps[~self._eligible(i)] = -1.0
        best = int(np.argmax(gaps))
        if gaps[best] < 0.0:
            return 0
        candidates = np.argsort(-gaps, kind="stable")[: self.FALLBACK_TRIES]
        candidates[0] = best
        ineligible = gaps[candidates] < 0.0
        cut = int(np.argmax(ineligible))
        if ineligible[cut]:
            candidates = candidates[:cut]
        step = self._screen(i, candidates)
        if step is None:
            return 0
        self._update_pair(i, *step)
        return 1

    def _screen(self, i: int, candidates: np.ndarray):
        """(j, new alpha_j) for the first candidate j that makes progress, or None.

        Elementwise, the same IEEE operations as the scalar pair rule: the
        box [low, high] of alpha_j, the curvature eta, the clipped step.
        np.where reproduces Python's max/min (the first argument wins ties
        and NaN comparisons), so the chosen partner and alpha_j are exact.
        """
        alpha, y, c = self.alpha, self.y, self.c
        a_i, a_j, y_j = alpha[i], alpha[candidates], y[candidates]
        differ = y_j != y[i]
        low = np.where(differ, a_j - a_i, a_i + a_j - c)
        low = np.where(low > 0.0, low, 0.0)
        high = np.where(differ, c + a_j - a_i, a_i + a_j)
        high = np.where(high < c, high, c)
        eta = 2.0 * self.kernel[i, candidates] - self.kernel[i, i] - self.diagonal[candidates]
        curved = ~(eta >= 0.0)
        step = np.divide(y_j * (self.errors[i] - self.errors[candidates]), eta,
                         out=np.zeros(eta.shape), where=curved)
        new_j = a_j - step
        new_j = np.where(new_j > low, new_j, low)
        new_j = np.where(new_j < high, new_j, high)
        ok = ~(high - low < 1e-12) & curved & ~(np.abs(new_j - a_j) < MIN_ALPHA_STEP)
        first = int(np.argmax(ok))
        if not ok[first]:
            return None
        return int(candidates[first]), new_j[first]

    def _update_pair(self, i: int, j: int, new_j) -> None:
        alpha, y, kernel, c, errors = self.alpha, self.y, self.kernel, self.c, self.errors
        new_i = alpha[i] + y[i] * y[j] * (alpha[j] - new_j)
        di = y[i] * (new_i - alpha[i])
        dj = y[j] * (new_j - alpha[j])
        b1 = self.bias - errors[i] - di * kernel[i, i] - dj * kernel[i, j]
        b2 = self.bias - errors[j] - di * kernel[i, j] - dj * kernel[j, j]
        if 0.0 < new_i < c:
            new_b = b1
        elif 0.0 < new_j < c:
            new_b = b2
        else:
            new_b = 0.5 * (b1 + b2)
        errors += di * kernel[i] + dj * kernel[j] + (new_b - self.bias)
        alpha[i], alpha[j], self.bias = new_i, new_j, new_b


@dataclass
class RbfSvm:
    """Binary soft-margin SVM; labels are +1 / -1."""

    c: float
    gamma: float
    support_vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    dual_coef: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bias: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray, kernel: np.ndarray) -> "RbfSvm":
        """SMO on kernel, which must be rbf_kernel(x, x, gamma)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("expected x (n, d) and y (n,)")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("binary labels must be +1 or -1")
        n = x.shape[0]
        self._state = _SmoState(kernel, y, self.c)
        state = self._state
        sweeps = 0
        full_sweep = True
        while sweeps < MAX_SWEEPS:
            state.refresh_errors()
            if full_sweep:
                indices = range(n)
            else:
                indices = np.nonzero(
                    (state.alpha > 1e-12) & (state.alpha < self.c - 1e-12)
                )[0]
            changed = 0
            for i in indices:
                changed += state.examine(int(i))
            sweeps += 1
            if full_sweep:
                if changed == 0:
                    break
                full_sweep = False
            elif changed == 0:
                full_sweep = True
        keep = state.alpha > 1e-12
        self.support_vectors = x[keep].copy()
        self.dual_coef = (state.alpha * y)[keep]
        self.bias = state.bias
        del self._state
        return self

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape[0], self.bias)
        if self.support_vectors.shape[0]:
            for lo in range(0, x.shape[0], PREDICT_CHUNK):
                block = x[lo : lo + PREDICT_CHUNK]
                k = rbf_kernel(block, self.support_vectors, self.gamma)
                out[lo : lo + block.shape[0]] += k @ self.dual_coef
        return out


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

    Fit on decimated barycenters with their refined labels: one RbfSvm per
    class against the rest, all on one kernel matrix whose width comes from
    the coarse sampling density (see spacing_gamma). Predict with the
    original mesh's barycenters; each point takes the class whose machine
    gives the largest decision value. When the coarse labeling is
    single-class the model degenerates to a constant.
    """

    def __init__(self, c: float = RunConfig.svm_c):
        self.c = c
        self.classes_: np.ndarray = np.zeros(0, dtype=np.int64)
        self.machines_: list[RbfSvm] = []

    def fit(self, coarse_points: np.ndarray, coarse_labels: np.ndarray) -> "LabelUpsampler":
        x = np.asarray(coarse_points, dtype=np.float64)
        y = np.asarray(coarse_labels, dtype=np.int64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("expected x (n, d) and y (n,)")
        self.classes_ = np.unique(y)
        self.machines_ = []
        if self.classes_.size < 2:
            return self
        gamma = spacing_gamma(x)
        kernel = rbf_kernel(x, x, gamma)
        for cls in self.classes_:
            target = np.where(y == cls, 1.0, -1.0)
            self.machines_.append(RbfSvm(c=self.c, gamma=gamma).fit(x, target, kernel))
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=np.float64)
        if self.classes_.size == 0:
            raise ValueError("predict before fit")
        if self.classes_.size == 1:
            return np.full(x.shape[0], self.classes_[0], dtype=np.int64)
        scores = np.stack([m.decision(x) for m in self.machines_], axis=1)
        return self.classes_[np.argmax(scores, axis=1)].astype(np.int64)
