"""Tiny-size smoke test of the benchmark harness.

Runs every workload once untraced and once traced at the smallest sizes the
program accepts, and checks that every metric named in BENCHMARK.json comes
back, that the output checks ran and that they catch broken outputs.

    python -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

_, _, workloads = run._import_program()
SPEC = json.loads(run.SPEC.read_text())
TINY = workloads.Sizes(arches=1, fine_cells=4500, coarse_cells=300,
                       seg_subsample=64, setup_repeats=1)


def _names(section: str) -> set:
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(w["name"] for w in SPEC["workloads"]))
def test_workload_reports_every_metric(name, trace):
    lines: list = []
    result = run.run_workload(name, seed=0, seconds=0.0, trace=trace,
                              sizes=TINY, emit=lines.append)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["unit"]
    summary = json.loads(next(l for l in lines if l.startswith("summary "))[8:])
    assert summary["checks_run"] > 0 and not summary["checks_failed"]
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    assert {"nproc", "numpy", "blas", "blas_threads", "cells", "seed"} <= set(env)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_inference_checks_catch_broken_outputs():
    checks = workloads.Checks()
    broken = SimpleNamespace(
        labels=np.array([0, 3, 15]),
        segmentation=SimpleNamespace(energy_trace=[5.0, 4.0, 4.5]),
        skipped_teeth=[7],
        landmarks={(1, "MCP"): None},
    )
    assert not workloads.check_inference(checks, broken, num_cells=4)
    assert checks.run == 5 and len(checks.failed) == 5


def test_training_checks_catch_broken_outputs():
    checks = workloads.Checks()
    net = SimpleNamespace(parameters=lambda: [SimpleNamespace(data=np.ones(3))])
    results = [SimpleNamespace(loss_curve=[float("nan")])]
    assert not workloads.check_training(checks, results, [np.ones(3)], net)
    assert len(checks.failed) == 2


def test_eval_projection_counts_the_protocol():
    # 6 folds x 30 epochs x 24 train scans, 1 s per seg step
    assert run.eval_projected_h(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.2)
    # 36 test scans in all, 100 s each
    assert run.eval_projected_h(0.0, 0.0, 0.0, 100.0) == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-seg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
