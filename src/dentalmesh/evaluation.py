"""Metrics, cross-validation bookkeeping, and report emission.

DSC, SEN, and PPV come from the per-class confusion counts; landmark error
is the Euclidean distance between predicted and true 3D points. Classes or
landmarks absent from both sides of a comparison stay out of the means, and
ground-truth landmarks with no prediction are counted as exclusions rather
than silently dropped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import landmarks as lm
from .errors import ConfigError

TOOTH_CLASSES = tuple(range(1, lm.NUM_TEETH + 1))
MIN_FOLDS = 2


@dataclass
class SegMetrics:
    """Per-class and mean segmentation scores; classes absent from both
    pred and truth are excluded from per_class and the means."""

    per_class: dict
    mean_dsc: float
    mean_sen: float
    mean_ppv: float


def seg_metrics(pred: np.ndarray, truth: np.ndarray) -> SegMetrics:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    per_class = {}
    for cls in TOOTH_CLASSES:
        p = pred == cls
        t = truth == cls
        tp = int((p & t).sum())
        fp = int((p & ~t).sum())
        fn = int((~p & t).sum())
        if tp + fp + fn == 0:
            continue
        dsc = 2.0 * tp / (2.0 * tp + fp + fn)
        sen = tp / (tp + fn) if tp + fn else 0.0
        ppv = tp / (tp + fp) if tp + fp else 0.0
        per_class[cls] = (dsc, sen, ppv)
    if per_class:
        arr = np.array(list(per_class.values()))
        means = arr.mean(axis=0)
    else:
        means = np.ones(3)
    return SegMetrics(per_class, float(means[0]), float(means[1]), float(means[2]))


@dataclass
class LandmarkMetrics:
    """Euclidean landmark errors in millimeters.

    errors is keyed (tooth_id, name); excluded lists ground-truth landmarks
    that had no prediction (missing tooth, skipped ROI).
    """

    errors: dict
    per_tooth: dict
    mean: float
    std: float
    excluded: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.errors)

    @property
    def coverage(self) -> float:
        """Share of ground-truth landmarks that got a prediction."""
        total = self.count + len(self.excluded)
        return self.count / total if total else float("nan")


def _as_point(value) -> np.ndarray:
    if isinstance(value, tuple):
        value = value[0]
    return np.asarray(value, dtype=np.float64)


def mae_metrics(pred: dict, truth: dict) -> LandmarkMetrics:
    """Matches predictions to ground truth by (tooth, name) key.

    pred values may be bare points or decode tuples (position, confidence,
    flag); truth values are points. Keys are (tooth, name) pairs, optionally
    prefixed with extra components such as a scan index when results from
    several scans are pooled into one dict. The mean and std cover the
    predicted landmarks only: a ground-truth landmark without a prediction
    is listed in excluded and lowers coverage, not the mean.
    """
    errors = {}
    excluded = []
    for key, true_pos in truth.items():
        if key in pred:
            delta = _as_point(pred[key]) - np.asarray(true_pos, dtype=np.float64)
            errors[key] = float(np.linalg.norm(delta))
        else:
            excluded.append(key)
    per_tooth: dict = {}
    for key, err in errors.items():
        per_tooth.setdefault(key[-2], []).append(err)
    per_tooth = {tooth: float(np.mean(v)) for tooth, v in sorted(per_tooth.items())}
    if errors:
        values = np.array(list(errors.values()))
        mean, std = float(values.mean()), float(values.std())
    else:
        mean, std = float("nan"), float("nan")
    return LandmarkMetrics(errors, per_tooth, mean, std, sorted(excluded))


@dataclass
class FoldSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def fold_splits(num_samples: int, folds: int, val_count: int,
                seed: int) -> list[FoldSplit]:
    """Deterministic cross-validation splits.

    Samples are shuffled once by seed and dealt to test folds round-robin,
    so fold sizes differ by at most one. The validation set is drawn from
    the remaining training samples, per fold, from the same stream.
    """
    if folds < MIN_FOLDS:
        raise ConfigError(f"need at least {MIN_FOLDS} folds, got {folds}")
    if folds > num_samples:
        raise ConfigError(f"{folds} folds for {num_samples} samples")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_samples)
    splits = []
    for f in range(folds):
        test = np.sort(order[f::folds])
        rest = np.array([i for i in order if i not in set(test.tolist())])
        if val_count >= rest.size:
            raise ConfigError(
                f"validation count {val_count} leaves no training samples"
            )
        val_pick = rng.permutation(rest.size)[:val_count]
        val = np.sort(rest[val_pick])
        train = np.sort(np.setdiff1d(rest, val))
        splits.append(FoldSplit(train, val, test))
    return splits


def pooled_mean(fold_values: list, fold_sizes: list) -> float:
    """Sample-weighted mean of per-fold means."""
    values = np.asarray(fold_values, dtype=np.float64)
    sizes = np.asarray(fold_sizes, dtype=np.float64)
    if sizes.sum() == 0:
        return float("nan")
    return float((values * sizes).sum() / sizes.sum())


def cross_validate(num_samples: int, folds: int, runner, *, val_count: int,
                   seed: int) -> dict:
    """Runs `runner(fold, train_idx, val_idx, test_idx) -> dict` per fold.

    Each runner dict must carry 'n_test'; every other numeric entry is
    pooled across folds by sample-weighted mean, with the across-fold std
    reported alongside.
    """
    splits = fold_splits(num_samples, folds, val_count, seed)
    fold_reports = []
    for f, split in enumerate(splits):
        report = runner(f, split.train, split.val, split.test)
        if "n_test" not in report:
            raise ValueError("runner report must include n_test")
        fold_reports.append(report)
    sizes = [r["n_test"] for r in fold_reports]
    pooled = {}
    keys = {k for r in fold_reports for k in r if k != "n_test"}
    for key in sorted(keys):
        values = [r[key] for r in fold_reports if key in r]
        if all(isinstance(v, (int, float)) and np.isfinite(v) for v in values):
            pooled[key] = {
                "mean": pooled_mean(values, sizes[: len(values)]),
                "std": float(np.std(np.asarray(values, dtype=np.float64))),
            }
    return {"folds": fold_reports, "pooled": pooled, "n_total": int(sum(sizes))}


def ceiling_report(overall: LandmarkMetrics,
                   oracle_stage1: LandmarkMetrics) -> dict:
    """Landmark-error ceiling table: full pipeline, oracle-segmentation
    stage 1, and the improvement a perfect stage 1 would buy."""
    return {
        "rows": [
            {"row": "overall", "mae": overall.mean, "std": overall.std,
             "count": overall.count, "excluded": len(overall.excluded)},
            {"row": "stage1", "mae": oracle_stage1.mean,
             "std": oracle_stage1.std, "count": oracle_stage1.count,
             "excluded": len(oracle_stage1.excluded)},
            {"row": "improvement",
             "mae": overall.mean - oracle_stage1.mean},
        ]
    }


def per_tooth_dsc_rows(per_scan_metrics: list) -> list:
    """Per-tooth rows for the bar-chart CSV; per-scan mean aggregation."""
    buckets: dict = {}
    for metrics in per_scan_metrics:
        for cls, (dsc, sen, ppv) in metrics.per_class.items():
            buckets.setdefault(cls, []).append((dsc, sen, ppv))
    rows = []
    for cls in sorted(buckets):
        arr = np.array(buckets[cls])
        rows.append({
            "tooth": lm.tooth_name(cls),
            "dsc": float(arr[:, 0].mean()),
            "sen": float(arr[:, 1].mean()),
            "ppv": float(arr[:, 2].mean()),
            "scans": len(buckets[cls]),
        })
    return rows


def per_tooth_mae_rows(metrics: LandmarkMetrics) -> list:
    return [
        {"tooth": lm.tooth_name(tooth), "mae": value}
        for tooth, value in metrics.per_tooth.items()
    ]


def _strict_json(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def write_json_report(path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite metric is written as null."""
    text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_csv_rows(path, rows: list) -> None:
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
