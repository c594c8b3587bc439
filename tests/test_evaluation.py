"""Metric oracles and cross-validation bookkeeping."""

import numpy as np
import pytest

from dentalmesh import evaluation as ev
from dentalmesh.errors import ConfigError


def test_seg_metrics_confusion_oracle():
    truth = np.array([0, 1, 1, 1, 2, 2, 0, 0])
    pred = np.array([0, 1, 1, 2, 2, 2, 1, 0])
    m = ev.seg_metrics(pred, truth)
    # class 1: tp=2 fp=1 fn=1 -> dsc 4/6, sen 2/3, ppv 2/3
    assert m.per_class[1] == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    # class 2: tp=2 fp=1 fn=0 -> dsc 4/5, sen 1, ppv 2/3
    assert m.per_class[2] == pytest.approx((0.8, 1.0, 2 / 3))
    assert m.mean_dsc == pytest.approx((2 / 3 + 0.8) / 2)
    assert m.mean_sen == pytest.approx((2 / 3 + 1.0) / 2)
    assert m.mean_ppv == pytest.approx(2 / 3)
    assert tuple(m.per_class) == (1, 2)


def test_seg_metrics_perfect_prediction():
    truth = np.array([0, 3, 3, 7, 0])
    m = ev.seg_metrics(truth.copy(), truth)
    assert m.mean_dsc == 1.0 and m.mean_sen == 1.0 and m.mean_ppv == 1.0
    assert set(m.per_class) == {3, 7}


def test_seg_metrics_excludes_absent_classes():
    truth = np.array([0, 1, 1])
    pred = np.array([0, 1, 1])
    m = ev.seg_metrics(pred, truth)
    assert 5 not in m.per_class  # class 5 appears nowhere
    assert tuple(m.per_class) == (1,)
    # a class present only in the prediction still counts (as pure FP)
    m2 = ev.seg_metrics(np.array([5, 1, 1]), truth)
    assert m2.per_class[5] == (0.0, 0.0, 0.0)


def test_seg_metrics_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        ev.seg_metrics(np.zeros(3), np.zeros(4))


def test_seg_metrics_no_classes_at_all():
    m = ev.seg_metrics(np.zeros(4), np.zeros(4))  # gingiva only
    assert m.per_class == {}
    assert m.mean_dsc == 1.0  # nothing to get wrong


def test_mae_metrics_oracle():
    truth = {
        (3, "CCT"): np.array([0.0, 0.0, 0.0]),
        (3, "MCP"): np.array([1.0, 0.0, 0.0]),
        (10, "DCP"): np.array([0.0, 2.0, 0.0]),
    }
    pred = {
        (3, "CCT"): np.array([3.0, 4.0, 0.0]),  # error 5
        (3, "MCP"): (np.array([1.0, 0.0, 2.0]), 0.9, False),  # decode tuple, error 2
    }
    m = ev.mae_metrics(pred, truth)
    assert m.errors[(3, "CCT")] == pytest.approx(5.0)
    assert m.errors[(3, "MCP")] == pytest.approx(2.0)
    assert m.count == 2
    assert m.excluded == [(10, "DCP")]
    assert m.coverage == pytest.approx(2.0 / 3.0)
    assert m.mean == pytest.approx(3.5)
    assert m.std == pytest.approx(1.5)
    assert m.per_tooth == {3: pytest.approx(3.5)}


def test_mae_metrics_pooled_scan_keys():
    # pooling prefixes keys with the scan index; per-tooth grouping still
    # keys on the tooth id
    truth = {
        (0, 3, "CCT"): np.zeros(3),
        (1, 3, "CCT"): np.zeros(3),
        (1, 6, "MLA"): np.zeros(3),
    }
    pred = {
        (0, 3, "CCT"): np.array([1.0, 0.0, 0.0]),
        (1, 3, "CCT"): np.array([0.0, 3.0, 0.0]),
        (1, 6, "MLA"): np.array([0.0, 0.0, 2.0]),
    }
    m = ev.mae_metrics(pred, truth)
    assert m.per_tooth == {3: pytest.approx(2.0), 6: pytest.approx(2.0)}
    assert m.mean == pytest.approx(2.0)


def test_mae_metrics_empty():
    m = ev.mae_metrics({}, {})
    assert m.count == 0
    assert np.isnan(m.mean) and np.isnan(m.std) and np.isnan(m.coverage)
    assert m.excluded == []


def test_fold_splits_partition():
    splits = ev.fold_splits(20, folds=4, val_count=3, seed=7)
    assert len(splits) == 4
    all_test = np.concatenate([s.test for s in splits])
    # test folds tile the dataset exactly once
    assert np.array_equal(np.sort(all_test), np.arange(20))
    for s in splits:
        assert s.test.size == 5
        assert s.val.size == 3
        assert s.train.size == 12
        whole = np.concatenate([s.train, s.val, s.test])
        assert np.array_equal(np.sort(whole), np.arange(20))
        # pieces are disjoint and each is sorted
        for part in (s.train, s.val, s.test):
            assert np.array_equal(part, np.sort(part))


def test_fold_splits_uneven_sizes():
    splits = ev.fold_splits(10, folds=3, val_count=2, seed=0)
    sizes = sorted(s.test.size for s in splits)
    assert sizes == [3, 3, 4]


def test_fold_splits_deterministic():
    a = ev.fold_splits(15, folds=3, val_count=2, seed=5)
    b = ev.fold_splits(15, folds=3, val_count=2, seed=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train, sb.train)
        assert np.array_equal(sa.val, sb.val)
        assert np.array_equal(sa.test, sb.test)
    c = ev.fold_splits(15, folds=3, val_count=2, seed=6)
    assert any(not np.array_equal(sa.test, sc.test) for sa, sc in zip(a, c))


def test_fold_splits_errors():
    with pytest.raises(ConfigError, match="at least 2"):
        ev.fold_splits(10, folds=1, val_count=1, seed=0)
    with pytest.raises(ConfigError, match="folds for"):
        ev.fold_splits(3, folds=4, val_count=1, seed=0)
    with pytest.raises(ConfigError, match="no training samples"):
        ev.fold_splits(6, folds=2, val_count=3, seed=0)


def test_pooled_mean():
    assert ev.pooled_mean([1.0, 3.0], [1, 1]) == pytest.approx(2.0)
    assert ev.pooled_mean([1.0, 4.0], [3, 1]) == pytest.approx(1.75)
    assert np.isnan(ev.pooled_mean([], []))
    assert np.isnan(ev.pooled_mean([2.0], [0]))


def test_cross_validate_pools_numeric_keys():
    seen = []

    def runner(fold, train, val, test):
        seen.append((fold, train.copy(), val.copy(), test.copy()))
        return {"n_test": int(test.size), "dsc": 0.8 + 0.1 * fold,
                "note": "text stays out", "maybe_nan": float("nan")}

    out = ev.cross_validate(12, 3, runner, val_count=2, seed=1)
    assert len(out["folds"]) == 3
    assert [f for f, *_ in seen] == [0, 1, 2]
    assert out["n_total"] == 12
    sizes = [r["n_test"] for r in out["folds"]]
    values = [r["dsc"] for r in out["folds"]]
    assert out["pooled"]["dsc"]["mean"] == pytest.approx(ev.pooled_mean(values, sizes))
    assert out["pooled"]["dsc"]["std"] == pytest.approx(float(np.std(values)))
    # non-numeric and non-finite entries are not pooled
    assert "note" not in out["pooled"]
    assert "maybe_nan" not in out["pooled"]


def test_cross_validate_requires_n_test():
    with pytest.raises(ValueError, match="n_test"):
        ev.cross_validate(6, 2, lambda f, tr, v, te: {"dsc": 1.0},
                          val_count=1, seed=0)


def test_ceiling_report_rows():
    overall = ev.mae_metrics(
        {(3, "CCT"): np.array([1.0, 0.0, 0.0])}, {(3, "CCT"): np.zeros(3)}
    )
    oracle = ev.mae_metrics(
        {(3, "CCT"): np.array([0.25, 0.0, 0.0])}, {(3, "CCT"): np.zeros(3)}
    )
    report = ev.ceiling_report(overall, oracle)
    rows = {r["row"]: r for r in report["rows"]}
    assert list(rows) == ["overall", "stage1", "improvement"]
    assert rows["overall"]["mae"] == pytest.approx(1.0)
    assert rows["stage1"]["mae"] == pytest.approx(0.25)
    assert rows["improvement"]["mae"] == pytest.approx(0.75)
    assert rows["overall"]["count"] == 1
    assert rows["overall"]["excluded"] == 0


def test_per_tooth_rows_and_csv(tmp_path):
    scans = [
        ev.seg_metrics(np.array([1, 1, 2]), np.array([1, 1, 2])),
        ev.seg_metrics(np.array([1, 0, 2]), np.array([1, 1, 2])),
    ]
    rows = ev.per_tooth_dsc_rows(scans)
    assert [r["tooth"] for r in rows] == ["UR1", "UR2"]
    ur1 = rows[0]
    assert ur1["scans"] == 2
    assert ur1["dsc"] == pytest.approx((1.0 + 2 / 3) / 2)

    path = tmp_path / "rows.csv"
    ev.write_csv_rows(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "tooth,dsc,sen,ppv,scans"
    assert len(text) == 3

    ev.write_csv_rows(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_text() == ""


def test_write_json_report(tmp_path):
    import json

    path = tmp_path / "r.json"
    ev.write_json_report(path, {"b": 1, "a": [1, 2]})
    doc = json.loads(path.read_text())
    assert doc == {"b": 1, "a": [1, 2]}
    assert path.read_text().endswith("\n")


def test_write_json_report_writes_non_finite_as_null(tmp_path):
    import json

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    path = tmp_path / "r.json"
    ev.write_json_report(path, {"mae": float("nan"), "n": np.float64("nan"),
                                "rows": [{"x": float("inf")}, (1.5, -np.inf)]})
    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc == {"mae": None, "n": None, "rows": [{"x": None}, [1.5, None]]}
