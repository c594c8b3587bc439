"""dentalmesh benchmark: closed-loop scans and training steps, one client.

Run one workload:

    python3 benchmark/run.py --workload infer-4k5 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as one JSON object. With
--trace 0 it carries the end-to-end metrics; with --trace 1 ops run in
pairs, untraced then traced, it carries the per-layer metrics, and the
spans are written to .bench_out/. `--workload all` runs every workload, untraced
and traced, each in a fresh process one after another, and prints every
metric by name with the projected wall time of `dentalmesh eval`.

The program is imported from src/ next to this directory. The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
program cannot be found or the arguments are wrong; no result is printed
then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

def _import_program():
    """Puts src/ on the path and imports the benchmark's modules."""
    if not (ROOT / "src" / "dentalmesh" / "__init__.py").is_file():
        raise ImportError(f"dentalmesh sources not found under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import tracer
    import workloads
    return layers, tracer, workloads


def _blas() -> dict:
    import ctypes
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                return info
    return info


def environment(name: str, seed: int, work) -> dict:
    return {"workload": name, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), **_blas(),
            "cells": work.cell_counts()}


def _stats(values) -> dict:
    import numpy as np

    if not values:
        return {"median": None, "p90": None, "n": 0}
    return {"median": statistics.median(values),
            "p90": float(np.percentile(values, 90)), "n": len(values)}


def _attempt(work, index, tracer, checks, record):
    """One op; an op that raises counts as failed and the loop goes on."""
    try:
        return work.op(index, tracer, checks, record)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.failed.append(f"op {index} raised")
        return None


def _set_up(work, setups: list) -> None:
    start = time.perf_counter()
    work.setup()
    setups.append(time.perf_counter() - start)


def _closed_loop(work, seconds, min_ops, trace, tracer_mod, checks, record, setups):
    """Runs ops back to back until the next one would overrun the budget.

    One untimed op runs first, so the allocator and caches are warm as they
    are in a long eval run. The set-up repeats (the first one has run) are
    spread evenly over the loop, between ops, so their median does not hang
    on one moment of a noisy machine. Returns the untraced and the traced op
    seconds, each keyed by op, the tracer, and the ops attempted and failed.
    With trace on, ops come in pairs on the same input, untraced then traced.
    """
    tracer = tracer_mod.Tracer()
    null = tracer_mod.NullTracer()
    plain, traced = {}, {}
    attempted, failed = 1, int(_attempt(work, -1, null, checks, record) is None)
    repeats = work.sizes.setup_repeats
    start = time.perf_counter()
    i = 0
    while True:
        if len(setups) < repeats and (time.perf_counter() - start
                                      >= len(setups) * seconds / repeats):
            _set_up(work, setups)
            continue
        done = list(traced.values()) + list(plain.values())
        if i >= min_ops and (time.perf_counter() - start
                             + statistics.median(done or [0.0]) > seconds):
            break
        tracing = trace and i % 2 == 1
        index = i // 2 if trace else i
        attempted += 1
        if tracing:
            with tracer.active(i):
                clock = _attempt(work, index, tracer, checks, record)
        else:
            clock = _attempt(work, index, null, checks, record)
        if clock is None:
            failed += 1
        elif tracing:
            traced[i] = clock.wall
        else:
            plain[i] = clock.wall
        i += 1
    while len(setups) < repeats:
        _set_up(work, setups)
    return plain, traced, tracer, attempted, failed


def _per_layer(work, kind, tracer, traced, plain, record, layers_mod) -> dict:
    from dentalmesh import autodiff as ad

    n = max(len(traced), 1)
    out = {f"{name}_s": t / n for name, t in tracer.self_times(traced).items()}
    for op in traced:
        for name, value in tracer.counts[op].items():
            out[name] = out.get(name, 0.0) + value / n

    def mean(key):
        values = record.get(key, {})
        return statistics.mean(values.values()) if values else 0.0

    skipped = record.get("skipped_teeth", [])
    out["pipeline.skipped_teeth"] = statistics.mean(skipped) if skipped else 0.0
    out["postprocess.coarse_dsc_in"] = mean("coarse_dsc_in")
    out["postprocess.coarse_dsc_out"] = mean("coarse_dsc_out")
    out["pipeline.transfer_dsc_loss"] = mean("coarse_dsc_out") - mean("fine_dsc")

    if kind == "train":
        with tracer.active("validation"):
            out["training.predict_labels_s"] = work.validate()

    feats, g6, g12, training = work.layer_input()
    seg_net = getattr(work.seg_net, "net", work.seg_net)
    out.update(layers_mod.layer_metrics(ad, seg_net, feats, g6, g12, training))

    traced_s = list(traced.values())
    out["trace.op_s"] = statistics.mean(traced_s) if traced_s else 0.0
    pairs = [traced[op] - plain[op - 1] for op in traced if op - 1 in plain]
    out["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    out["trace.untraced_s"] = statistics.mean(
        [traced[op] - tracer.top_level_seconds(op) for op in traced] or [0.0])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, emit=print) -> dict:
    """Sets up, measures and checks one workload; returns the result object.

    Every metric of the mode's section of BENCHMARK.json is reported; one a
    workload does not exercise reads 0.
    """
    layers_mod, tracer_mod, workloads = _import_program()
    kind = workloads.WORKLOADS[name][0]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        work = workloads.make(name, seed, workdir, sizes)
        setups: list = []
        _set_up(work, setups)
        emit("env " + json.dumps(environment(name, seed, work)))

        checks = workloads.Checks()
        record: dict = {}
        min_ops = 2 if trace else work.sizes.arches
        plain, traced, tracer, attempted, failed = _closed_loop(
            work, seconds, min_ops, trace, tracer_mod, checks, record, setups)
        walls = list(plain.values())

        if trace:
            metrics = _per_layer(work, kind, tracer, traced, plain, record, layers_mod)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
                {"workload": name, "seed": seed, "spans": tracer.to_json()}))
        else:
            if kind == "infer":
                dsc = record.get("fine_dsc", {})
                quality = statistics.mean(dsc.values()) if dsc else 0.0
            else:
                quality = (attempted - failed) / attempted
            metrics = {"op_s": statistics.median(walls) if walls else 0.0,
                       "quality": quality,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "setup_s": statistics.median(setups)}
        summary = {"workload": name, "trace": int(trace), "ops_attempted": attempted,
                   "ops_failed": failed, "checks_run": checks.run,
                   "checks_failed": sorted(set(checks.failed)),
                   "op_s": _stats(walls), "op_wall_s": walls, "setup_s": setups}
        if kind == "infer":
            summary["infer_s"] = summary["op_s"]
            summary["fine_dsc"] = metrics.get("quality")
        else:
            summary["seg_step_s"] = _stats(record.get("seg_step_s", []))
            summary["lmk_step_s"] = _stats(record.get("lmk_step_s", []))
        emit("summary " + json.dumps(summary))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _spec()["per_layer" if trace else "end_to_end"]
    return {
        "correct": not checks.failed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared},
    }


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} (trace {trace}) exited {proc.returncode}")
    summary = next(json.loads(line[len("summary "):]) for line in lines
                   if line.startswith("summary "))
    return summary, json.loads(lines[-1])


def eval_projected_h(seg_step_s, lmk_step_s, predict_labels_s, infer_s) -> float:
    """Wall time of `dentalmesh eval` at RunConfig defaults, no early stop.

    Per fold: seg_epochs x train scans seg steps, one heatmap step per
    landmark-bearing tooth of each train scan per lmk epoch, a validation
    pass over the val scans every val_every epochs, and one inference per
    test scan.
    """
    from dentalmesh import config, landmarks as lm

    c = config.RunConfig()
    n_test = c.synth_count // c.folds
    n_train = c.synth_count - n_test - c.val_count
    per_fold = (c.seg_epochs * n_train * seg_step_s
                + c.lmk_epochs * n_train * len(lm.landmark_teeth()) * lmk_step_s
                + (c.seg_epochs // c.val_every) * c.val_count * predict_labels_s
                + n_test * infer_s)
    return c.folds * per_fold / 3600.0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    names = [w["name"] for w in _spec()["workloads"]]
    results, ok = {}, True
    for trace in (0, 1):
        for name in names:
            summary, result = _run_child(name, seed, seconds, trace)
            results[(name, trace)] = (summary, result)
            ok &= result["correct"]
            print(f"== {name} trace={trace}: ops_attempted {result['attempted']} "
                  f"ops_failed {result['failed']} correct {result['correct']}")
            for key in ("infer_s", "seg_step_s", "lmk_step_s"):
                s = summary.get(key, {})
                if trace == 0 and s.get("n"):
                    print(f"   {key:<40} median {s['median']:.4f} s  p90 {s['p90']:.4f} s  n {s['n']}")
            if trace == 0 and "fine_dsc" in summary:
                print(f"   {'fine_dsc':<40} {summary['fine_dsc']:.4f}")
            for metric, value in result["metrics"].items():
                print(f"   {metric:<40} {value['value']:.6g} {value['unit']}")
    train, infer = results.get(("train-seg", 0)), results.get(("infer-9k", 0))
    traced_train = results.get(("train-seg", 1))
    if train and infer and traced_train:
        hours = eval_projected_h(
            train[0]["seg_step_s"]["median"], train[0]["lmk_step_s"]["median"],
            traced_train[1]["metrics"]["training.predict_labels_s"]["value"],
            infer[0]["infer_s"]["median"])
        print(f"eval_projected_h {hours:.3f} h (benchmark sizes, not gated)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _spec()
        _import_program()
    except (OSError, ValueError, ImportError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
