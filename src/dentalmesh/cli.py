"""Command line front end for the whole pipeline.

One resolved configuration drives every subcommand: built-in defaults,
then the --config file, then --set key=value overrides, in that order.
Each run stamps its resolved config and package version into the run
directory so a finished run can be reproduced from its artifacts alone.

Exit codes:
  0  success;
  1  usage or configuration problems: unknown keys, unparsable values, and
     values out of range (e.g. val_every below 1, a negative patience or a
     non-finite lam), each named in the message, all before any work runs;
     also a missed evaluation threshold;
  2  data errors: unreadable meshes, schema violations (including an
     `infer --probs` matrix that is not (cells, 15), finite and
     non-negative), missing or incompatible checkpoints, including one
     written by an earlier version of a net, which must be retrained;
  3  training divergence; the diverged net's last good state is saved as
     checkpoints/<name>_lastgood.ckpt first.

Every command that needs decimated scans decimates each scan once and
reuses it for training and test inference. The `<stem>_coarse` meshes and
labels that `preprocess` writes are for inspection: no command reads them
back, so an artifact left from another scan or target cannot leak in.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
from pathlib import Path

import numpy as np

from . import __version__
from . import landmarks as lm
from .config import RunConfig, apply_overrides, load_config, write_config
from .errors import (
    CheckpointError,
    ConfigError,
    DentalMeshError,
    SchemaError,
    TrainingDivergenceError,
)
from .evaluation import (
    ceiling_report,
    cross_validate,
    fold_splits,
    mae_metrics,
    per_tooth_dsc_rows,
    per_tooth_mae_rows,
    seg_metrics,
    write_csv_rows,
    write_json_report,
)
from .geometry import FEATURE_DIM, extract_roi
from .mesh_io import (
    Annotation,
    load_annotation,
    load_checkpoint,
    load_matrix,
    load_mesh,
    save_annotation,
    save_checkpoint,
    save_matrix,
    save_mesh,
)
from .networks import (
    ARCH_VERSION,
    NUM_CLASSES,
    PointHeatmapNet,
    ToothSegNet,
)
from .pipeline import (
    PreprocessedScan,
    heatmap_position_types,
    infer_two_stage,
    locate_landmarks,
    preprocess,
    refine_and_upsample,
    segment_scan,
    single_stage_landmarks,
)
from .synth import default_specs, generate
from .training import (
    HeatmapSample,
    SegSample,
    train_heatmap,
    train_segmentation,
)

log = logging.getLogger("dentalmesh")

RUN_SUBDIRS = ("config", "checkpoints", "reports", "meshes")
DERIVED_SUFFIXES = ("_coarse", "_labeled")


# ---------------------------------------------------------------------------
# run directory and dataset plumbing


def _ensure_run_dir(config: RunConfig) -> Path:
    run = Path(config.run_dir)
    for sub in RUN_SUBDIRS:
        (run / sub).mkdir(parents=True, exist_ok=True)
    write_config(config, run / "config" / "resolved.cfg")
    (run / "config" / "version.txt").write_text(f"dentalmesh {__version__}\n")
    return run


def _discover_scans(data_dir: Path) -> list[tuple[Path, Path]]:
    """Mesh/annotation pairs under data_dir, skipping derived artifacts."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise SchemaError(f"data directory not found: {data_dir}")
    pairs = []
    for mesh_path in sorted(data_dir.glob("*.off")):
        if mesh_path.stem.endswith(DERIVED_SUFFIXES):
            continue
        ann_path = mesh_path.with_suffix(".json")
        if not ann_path.exists():
            raise SchemaError(f"{mesh_path.name} has no annotation {ann_path.name}")
        pairs.append((mesh_path, ann_path))
    if not pairs:
        raise SchemaError(f"no .off scans with annotations under {data_dir}")
    return pairs


def _load_scan(mesh_path: Path, ann_path: Path):
    mesh = load_mesh(mesh_path)
    ann = load_annotation(ann_path, mesh.num_cells)
    return mesh, ann


def _load_preprocessed(mesh_path: Path, ann_path: Path,
                       target_cells: int) -> tuple[PreprocessedScan, Annotation]:
    """A scan decimated afresh to target_cells, with its full-resolution
    annotation."""
    mesh, ann = _load_scan(mesh_path, ann_path)
    return preprocess(mesh, ann, target_cells), ann


def _train_val_split(n: int, val_count: int, seed: int):
    """Deterministic holdout; never leaves the training side empty."""
    if n < 2 or val_count < 1:
        return list(range(n)), []
    val_count = min(val_count, n - 1)
    order = np.random.default_rng(seed + 1).permutation(n)
    val = sorted(int(i) for i in order[:val_count])
    train = sorted(int(i) for i in order[val_count:])
    return train, val


def _progress(stage: str):
    def on_epoch(epoch: int, loss: float) -> None:
        log.info("%s epoch %d loss %.6f", stage, epoch, loss)

    return on_epoch


# ---------------------------------------------------------------------------
# model construction and checkpoints


SEG_ARCH = "tooth-seg-net"
LMK_ARCH = "point-heatmap-net"


def _net_from_checkpoint(path: Path, stage: str, family: str, out_channels: int,
                         knn: tuple[int, int] | None = None, held_out: bool = False):
    """The net saved at path and its meta, checked before any compute runs on it.

    It must be a `family` net of the current ARCH_VERSION with out_channels
    outputs, and a segmentation net must end in a softmax and have been
    trained with the (k_small, k_large) of knn. With held_out, the meta
    must list the stems of the scans the net was not trained on. A net of
    an earlier version cannot load: v1 nets kept batch-norm running buffers
    and the layers that batch norm cancels, and v2 segmentation nets
    carried the feature transform. Anything else is a CheckpointError.
    """
    if not Path(path).exists():
        raise CheckpointError(
            f"{stage} checkpoint missing: {path} (run the matching train "
            f"command first)"
        )
    arch, arrays, meta = load_checkpoint(path)
    name = arch.split(" ", 1)[0]
    if not name.startswith(family + "/"):
        raise CheckpointError(f"{path}: {stage} needs a {family}, found {arch!r}")
    if name != f"{family}/{ARCH_VERSION}":
        raise CheckpointError(
            f"{path}: {name} is an earlier version of the network than "
            f"{family}/{ARCH_VERSION} and cannot be loaded; retrain it"
        )
    try:
        if family == SEG_ARCH and meta["head"] != "softmax":
            raise CheckpointError(
                f"{path}: {stage} needs a softmax head, found {meta['head']!r}"
            )
        width = int(meta["out_channels"])
        if width != out_channels:
            raise CheckpointError(
                f"{path}: {width} output channels, {stage} needs {out_channels}"
            )
        if knn is not None:
            trained = (int(meta["k_small"]), int(meta["k_large"]))
            if trained != knn:
                raise CheckpointError(
                    f"{path}: trained with k_small={trained[0]}, k_large={trained[1]}; "
                    f"this run uses k_small={knn[0]}, k_large={knn[1]}"
                )
        if held_out and not isinstance(meta["held_out"], list):
            raise CheckpointError(f"{path}: meta held_out must list scan names")
    except KeyError as err:
        raise CheckpointError(f"{path}: checkpoint meta has no {err} entry") from err
    if family == SEG_ARCH:
        net = ToothSegNet(seed=0, out_channels=width)
    else:
        net = PointHeatmapNet(seed=0, out_channels=width)
    net.load_state_arrays(arrays)
    return net, meta


def _load_seg_net(run: Path, config: RunConfig, held_out: bool = False):
    return _net_from_checkpoint(run / "checkpoints" / "seg.ckpt", "segmentation",
                                SEG_ARCH, NUM_CLASSES,
                                knn=(config.k_small, config.k_large),
                                held_out=held_out)


def _load_heatmap_nets(run: Path, held_out: bool = False) -> tuple[dict, list]:
    """Per-position-type regressors and their checkpoint metas; absent types
    are logged and skipped."""
    nets, metas, missing = {}, [], []
    for t in heatmap_position_types():
        path = run / "checkpoints" / f"lmk_pos{t}.ckpt"
        if path.exists():
            nets[t], meta = _net_from_checkpoint(path, f"landmark type {t}", LMK_ARCH,
                                                 len(lm.landmark_names(t)),
                                                 held_out=held_out)
            metas.append(meta)
        else:
            missing.append(t)
    if not nets:
        raise CheckpointError(
            f"landmark checkpoints missing under {run / 'checkpoints'} "
            f"(expected lmk_pos<type>.ckpt; run train-lmk first)"
        )
    if missing:
        log.warning(
            "no checkpoints for position types %s; their teeth will be skipped",
            missing,
        )
    return nets, metas


def _save_diverged(run: Path, name: str, net, err: TrainingDivergenceError) -> None:
    if err.last_good_state:
        path = run / "checkpoints" / f"{name}_lastgood.ckpt"
        save_checkpoint(
            path,
            net.arch_tag(),
            err.last_good_state,
            {"diverged": True, "epochs_completed": len(err.loss_curve)},
        )
        log.error("%s diverged; last good state saved to %s", name, path)
    else:
        log.error("%s diverged before the first epoch finished", name)


# ---------------------------------------------------------------------------
# shared training drivers


def _seg_meta(config: RunConfig) -> dict:
    return {
        "in_dim": FEATURE_DIM,
        "out_channels": NUM_CLASSES,
        "head": "softmax",
        "seed": config.seed,
        "k_small": config.k_small,
        "k_large": config.k_large,
    }


def _fit(fit, net, config: RunConfig, run: Path, tag: str, samples: list,
         val_samples: list, **kwargs):
    """One training call with the run's shared optimizer and schedule.

    A divergence saves the net's last good state as <tag>_lastgood.ckpt
    before it propagates; main() turns it into exit code 3.
    """
    try:
        return fit(
            net,
            samples,
            lr=config.lr,
            augment_count=config.augment_count,
            k_small=config.k_small,
            k_large=config.k_large,
            betas=(config.beta1, config.beta2),
            adam_eps=config.adam_eps,
            val_samples=val_samples or None,
            val_every=config.val_every,
            patience=config.patience,
            on_epoch=_progress(tag),
            **kwargs,
        )
    except TrainingDivergenceError as err:
        _save_diverged(run, tag, net, err)
        raise


def _train_stage1(config: RunConfig, run: Path, scans: list, train_idx, val_idx,
                  tag: str = "seg"):
    """ToothSegNet on the decimated scans of (PreprocessedScan, Annotation) pairs."""
    def samples(indices):
        return [SegSample(scans[i][0].coarse, scans[i][0].coarse_labels)
                for i in indices]

    net = ToothSegNet(seed=config.seed)
    result = _fit(train_segmentation, net, config, run, tag, samples(train_idx),
                  samples(val_idx), epochs=config.seg_epochs, seed=config.seed,
                  subsample=config.seg_subsample)
    return net, result


def _roi_samples(scans: list, indices) -> dict:
    """Single-tooth heatmap samples from ground-truth labels, by position type."""
    out: dict = {t: [] for t in heatmap_position_types()}
    for i in indices:
        mesh, ann = scans[i]
        for tooth in lm.landmark_teeth():
            roi = extract_roi(mesh, ann.labels, tooth)
            if roi is None:
                continue
            positions = {
                name: ann.landmarks[(tooth, name)]
                for name in lm.landmark_names(tooth)
                if (tooth, name) in ann.landmarks
            }
            if positions:
                out[lm.position_type(tooth)].append(
                    HeatmapSample(roi.mesh, tooth, positions)
                )
    return out


def _train_heatmap_net(config: RunConfig, run: Path, net, samples, val_samples,
                       subsample: int, tag: str):
    return _fit(train_heatmap, net, config, run, tag, samples, val_samples,
                epochs=config.lmk_epochs, seed=config.seed + 1000,
                subsample=subsample, sigma=config.sigma, peak=config.peak)


def _train_stage2(config: RunConfig, run: Path, scans: list, train_idx, val_idx,
                  graph_net: bool = False, tag: str = "lmk"):
    """One regressor per landmark-bearing position type.

    scans holds (full-resolution mesh, Annotation) pairs. Yields
    (position type, net, TrainResult) as soon as each net is trained.
    """
    train_rois = _roi_samples(scans, train_idx)
    val_rois = _roi_samples(scans, val_idx)
    for t in heatmap_position_types():
        if not train_rois[t]:
            log.warning("no training ROIs for position type %d; skipping its net", t)
            continue
        out_channels = len(lm.landmark_names(t))
        if graph_net:
            net = ToothSegNet(seed=config.seed + 100 + t, out_channels=out_channels,
                              head="sigmoid")
        else:
            net = PointHeatmapNet(seed=config.seed + 100 + t,
                                  out_channels=out_channels)
        result = _train_heatmap_net(config, run, net, train_rois[t], val_rois[t],
                                    config.roi_subsample, f"{tag}_pos{t}")
        log.info("position type %d trained on %d ROIs (%d epochs)",
                 t, len(train_rois[t]), result.epochs_run)
        yield t, net, result


def _pooled_mae(per_scan: list):
    """Landmark metrics over several scans; keys gain a scan index prefix."""
    pred_all: dict = {}
    truth_all: dict = {}
    for i, (pred, truth) in enumerate(per_scan):
        for key, value in pred.items():
            pred_all[(i,) + key] = value
        for key, value in truth.items():
            truth_all[(i,) + key] = value
    return mae_metrics(pred_all, truth_all)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, config: RunConfig) -> int:
    _ensure_run_dir(config)
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    specs = default_specs(config.synth_count, config.synth_cells, config.seed)
    manifest = []
    for i, spec in enumerate(specs):
        mesh, ann = generate(spec)
        name = f"arch_{i:03d}"
        save_mesh(mesh, data_dir / f"{name}.off")
        save_annotation(ann, data_dir / f"{name}.json")
        manifest.append({
            "name": name,
            "cells": mesh.num_cells,
            "landmarks": len(ann.landmarks),
            "seed": spec.seed,
            "width": spec.width,
            "depth": spec.depth,
        })
        log.info("generated %s (%d cells, %d landmarks)",
                 name, mesh.num_cells, len(ann.landmarks))
    write_json_report(data_dir / "manifest.json", {"arches": manifest})
    log.info("wrote %d arches to %s", len(manifest), data_dir)
    return 0


def cmd_preprocess(args, config: RunConfig) -> int:
    _ensure_run_dir(config)
    count = 0
    for mesh_path, ann_path in _discover_scans(config.data_dir):
        scan, ann = _load_preprocessed(mesh_path, ann_path, config.target_cells)
        save_mesh(scan.coarse, mesh_path.with_name(mesh_path.stem + "_coarse.off"))
        save_annotation(Annotation(scan.coarse_labels, dict(ann.landmarks)),
                        mesh_path.with_name(mesh_path.stem + "_coarse.json"))
        log.info("decimated %s: %d -> %d cells",
                 mesh_path.name, scan.fine.num_cells, scan.coarse.num_cells)
        count += 1
    log.info("preprocessed %d scans", count)
    return 0


def cmd_train_seg(args, config: RunConfig) -> int:
    run = _ensure_run_dir(config)
    pairs = _discover_scans(config.data_dir)
    scans = [_load_preprocessed(m, a, config.target_cells) for m, a in pairs]
    train_idx, val_idx = _train_val_split(len(scans), config.val_count,
                                          config.seed)
    log.info("training segmentation on %d scans (%d validation)",
             len(train_idx), len(val_idx))
    net, result = _train_stage1(config, run, scans, train_idx, val_idx)
    meta = _seg_meta(config)
    meta.update(epochs_run=result.epochs_run, best_epoch=result.best_epoch,
                best_val=result.best_val, held_out=[pairs[i][0].stem for i in val_idx])
    save_checkpoint(run / "checkpoints" / "seg.ckpt", net.arch_tag(),
                    net.state_arrays(), meta)
    write_json_report(run / "reports" / "train_seg.json",
                      dataclasses.asdict(result))
    log.info("segmentation checkpoint saved (%d epochs, best val %.4f)",
             result.epochs_run, result.best_val)
    return 0


def cmd_train_lmk(args, config: RunConfig) -> int:
    run = _ensure_run_dir(config)
    pairs = _discover_scans(config.data_dir)
    scans = [_load_scan(m, a) for m, a in pairs]
    train_idx, val_idx = _train_val_split(len(scans), config.val_count,
                                          config.seed)
    report: dict = {}
    for t, net, result in _train_stage2(config, run, scans, train_idx, val_idx):
        meta = {
            "in_dim": FEATURE_DIM,
            "out_channels": len(lm.landmark_names(t)),
            "position_type": t,
            "landmarks": list(lm.landmark_names(t)),
            "epochs_run": result.epochs_run,
            "best_val": result.best_val,
            "held_out": [pairs[i][0].stem for i in val_idx],
        }
        save_checkpoint(run / "checkpoints" / f"lmk_pos{t}.ckpt",
                        net.arch_tag(), net.state_arrays(), meta)
        report[f"pos{t}"] = dataclasses.asdict(result)
    if not report:
        raise SchemaError("no landmark-bearing teeth found in the training data")
    write_json_report(run / "reports" / "train_lmk.json", report)
    return 0


def _write_landmark_report(run: Path, stem: str, landmarks: dict,
                           skipped: list) -> Path:
    payload = {
        "scan": stem,
        "landmarks": {
            lm.landmark_key(tooth, name): {
                "position": [float(v) for v in position],
                "confidence": float(confidence),
                "low_confidence": bool(low),
            }
            for (tooth, name), (position, confidence, low) in sorted(
                landmarks.items()
            )
        },
        "skipped_teeth": [lm.tooth_name(t) for t in skipped],
    }
    path = run / "reports" / f"{stem}_landmarks.json"
    write_json_report(path, payload)
    return path


def cmd_infer(args, config: RunConfig) -> int:
    run = _ensure_run_dir(config)
    mesh = load_mesh(args.mesh)
    stem = Path(args.mesh).stem
    heatmap_nets, _ = _load_heatmap_nets(run)
    seg_net = None if args.probs else _load_seg_net(run, config)[0]
    scan = preprocess(mesh, None, config.target_cells)

    if args.probs:
        # standalone refinement: caller supplies the coarse probability matrix
        probs = load_matrix(args.probs)
        expected = (scan.coarse.num_cells, NUM_CLASSES)
        if probs.shape != expected:
            raise SchemaError(
                f"probability matrix has shape {probs.shape}, decimated scan "
                f"needs {expected}"
            )
        if not np.isfinite(probs).all() or (probs < 0.0).any():
            raise SchemaError("probability matrix must be finite and non-negative")
        seg = refine_and_upsample(scan.coarse, probs, scan.fine,
                                  lam=config.lam, svm_c=config.svm_c)
    else:
        seg = segment_scan(seg_net, scan.coarse, scan.fine,
                           lam=config.lam, svm_c=config.svm_c,
                           k_small=config.k_small, k_large=config.k_large)
        save_matrix(run / "reports" / f"{stem}_probs.mat", seg.probabilities)
    landmarks, skipped = locate_landmarks(
        heatmap_nets, scan.fine, seg.fine_labels,
        k_small=config.k_small, k_large=config.k_large,
    )

    positions = {key: value[0] for key, value in landmarks.items()}
    save_mesh(scan.fine, run / "meshes" / f"{stem}_labeled.off")
    save_annotation(Annotation(seg.fine_labels, positions),
                    run / "meshes" / f"{stem}_labeled.json")
    report_path = _write_landmark_report(run, stem, landmarks, skipped)
    if skipped:
        log.warning("teeth skipped in stage 2: %s",
                    ", ".join(lm.tooth_name(t) for t in skipped))
    log.info("wrote %s (%d landmarks, %d teeth skipped)",
             report_path, len(landmarks), len(skipped))
    return 0


def _parse_indices(text: str, n: int) -> list[int]:
    try:
        indices = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError as err:
        raise ConfigError(f"bad index list {text!r}") from err
    for i in indices:
        if not 0 <= i < n:
            raise ConfigError(f"scan index {i} outside 0..{n - 1}")
    if not indices:
        raise ConfigError("empty index list")
    return indices


def _eval_ceiling(args, config: RunConfig, run: Path, pairs: list) -> int:
    """Landmark error with predicted vs ground-truth segmentation.

    By default it scores the scans that every loaded checkpoint held out
    of training, by the stems train-seg and train-lmk record in each
    checkpoint's held_out entry. --indices picks other scans; a scan that
    any checkpoint did not hold out counts as trained on, is logged and is
    listed under trained_on in the report.
    """
    seg_net, seg_meta = _load_seg_net(run, config, held_out=True)
    heatmap_nets, metas = _load_heatmap_nets(run, held_out=True)
    trained = {i for i, (mesh_path, _) in enumerate(pairs)
               if any(mesh_path.stem not in m["held_out"] for m in [seg_meta] + metas)}
    if args.indices:
        test_idx = _parse_indices(args.indices, len(pairs))
    elif len(trained) < len(pairs):
        test_idx = sorted(set(range(len(pairs))) - trained)
    else:
        raise ConfigError(
            f"no scan under {config.data_dir} was held out of training by every "
            f"checkpoint; name the scans to score with --indices"
        )
    trained_on = sorted(set(test_idx) & trained)
    if trained_on:
        log.warning("scans %s are training scans of train-seg or train-lmk; "
                    "their errors are training-set errors",
                    ", ".join(map(str, trained_on)))
    full_pairs = []
    oracle_pairs = []
    for i in test_idx:
        scan, ann = _load_preprocessed(*pairs[i], config.target_cells)
        result = infer_two_stage(seg_net, heatmap_nets, scan,
                                 lam=config.lam, svm_c=config.svm_c,
                                 k_small=config.k_small, k_large=config.k_large)
        full_pairs.append((result.landmarks, ann.landmarks))
        # stage 2 fed the ground-truth segmentation: the landmark ceiling
        oracle_marks, _ = locate_landmarks(
            heatmap_nets, scan.fine, ann.labels,
            k_small=config.k_small, k_large=config.k_large,
        )
        oracle_pairs.append((oracle_marks, ann.landmarks))
        log.info("scan %d done", i)
    overall = _pooled_mae(full_pairs)
    oracle = _pooled_mae(oracle_pairs)
    report = ceiling_report(overall, oracle)
    report["test_scans"] = test_idx
    report["trained_on"] = trained_on
    write_json_report(run / "reports" / "ceiling.json", report)
    for row in report["rows"]:
        log.info("%-12s mae %.4f mm", row["row"], row["mae"])
    return 0


def cmd_eval(args, config: RunConfig) -> int:
    if args.indices and not args.ceiling:
        raise ConfigError("--indices selects the scans of eval --ceiling; add --ceiling")
    run = _ensure_run_dir(config)
    pairs = _discover_scans(config.data_dir)
    if args.ceiling:
        return _eval_ceiling(args, config, run, pairs)

    scans = [_load_preprocessed(m, a, config.target_cells) for m, a in pairs]
    fine = [(scan.fine, ann) for scan, ann in scans]
    per_tooth_seg: list = []
    landmark_pairs: list = []

    def runner(fold, train_idx, val_idx, test_idx):
        log.info("fold %d: train %d, val %d, test %d",
                 fold, len(train_idx), len(val_idx), len(test_idx))
        seg_net, _ = _train_stage1(config, run, scans, train_idx, val_idx,
                                   tag=f"fold{fold}-seg")
        nets = {t: net for t, net, _ in _train_stage2(
            config, run, fine, train_idx, val_idx, tag=f"fold{fold}-lmk")}
        dscs, sens, ppvs = [], [], []
        fold_landmarks = []
        for i in test_idx:
            scan, ann = scans[i]
            result = infer_two_stage(seg_net, nets, scan,
                                     lam=config.lam, svm_c=config.svm_c,
                                     k_small=config.k_small,
                                     k_large=config.k_large)
            metrics = seg_metrics(result.labels, ann.labels)
            per_tooth_seg.append(metrics)
            dscs.append(metrics.mean_dsc)
            sens.append(metrics.mean_sen)
            ppvs.append(metrics.mean_ppv)
            fold_landmarks.append((result.landmarks, ann.landmarks))
        landmark_pairs.extend(fold_landmarks)
        mae = _pooled_mae(fold_landmarks)
        return {
            "n_test": len(test_idx),
            "dsc": float(np.mean(dscs)),
            "sen": float(np.mean(sens)),
            "ppv": float(np.mean(ppvs)),
            "mae": mae.mean,
            "excluded_landmarks": len(mae.excluded),
            "landmark_coverage": mae.coverage,
        }

    summary = cross_validate(len(scans), config.folds, runner,
                             val_count=config.val_count, seed=config.seed)
    write_json_report(run / "reports" / "eval.json", summary)
    write_csv_rows(run / "reports" / "per_tooth_dsc.csv",
                   per_tooth_dsc_rows(per_tooth_seg))
    write_csv_rows(run / "reports" / "per_tooth_mae.csv",
                   per_tooth_mae_rows(_pooled_mae(landmark_pairs)))
    dsc = summary["pooled"].get("dsc", {}).get("mean", float("nan"))
    mae = summary["pooled"].get("mae", {}).get("mean", float("nan"))
    coverage = summary["pooled"].get("landmark_coverage", {}).get("mean", float("nan"))
    log.info("pooled DSC %.4f, pooled MAE %.4f mm (over %.1f%% of landmarks) "
             "over %d test scans", dsc, mae, 100.0 * coverage, summary["n_total"])
    # active thresholds fail on NaN metrics too, hence the negated comparisons
    dsc_missed = config.min_dsc > 0.0 and not dsc >= config.min_dsc
    mae_missed = np.isfinite(config.max_mae) and not mae <= config.max_mae
    if dsc_missed or mae_missed:
        log.error("thresholds missed: DSC %.4f (min %.4f), MAE %.4f (max %.4f)",
                  dsc, config.min_dsc, mae, config.max_mae)
        return 1
    return 0


def cmd_ablate(args, config: RunConfig) -> int:
    """Landmark strategy comparison: one vs two stages, point vs graph net."""
    run = _ensure_run_dir(config)
    scans = [_load_preprocessed(m, a, config.target_cells)
             for m, a in _discover_scans(config.data_dir)]
    split = fold_splits(len(scans), config.folds, config.val_count,
                        config.seed)[0]
    train_idx = [int(i) for i in split.train]
    val_idx = [int(i) for i in split.val]
    test_idx = [int(i) for i in split.test]
    rows = []

    def add_row(name, scan_pairs):
        metrics = _pooled_mae(scan_pairs)
        rows.append({"method": name, "mae": metrics.mean, "std": metrics.std,
                     "count": metrics.count, "excluded": len(metrics.excluded)})
        log.info("%s: mae %.4f mm", name, metrics.mean)

    # whole-scan samples for the single-stage heads; trained and evaluated
    # on the decimated meshes so both strategies see the same resolution
    def whole_scan(indices):
        return [
            HeatmapSample(scans[i][0].coarse, None, dict(scans[i][1].landmarks))
            for i in indices
        ]

    layout_size = len(lm.all_landmark_keys())
    for name, net in (
        ("single-stage-pointnet",
         PointHeatmapNet(seed=config.seed + 50, out_channels=layout_size)),
        ("single-stage-graphnet",
         ToothSegNet(seed=config.seed + 51, out_channels=layout_size, head="sigmoid")),
    ):
        _train_heatmap_net(config, run, net, whole_scan(train_idx),
                           whole_scan(val_idx), config.seg_subsample, name)
        add_row(name, [
            (single_stage_landmarks(net, scans[i][0].coarse,
                                    k_small=config.k_small,
                                    k_large=config.k_large),
             scans[i][1].landmarks)
            for i in test_idx
        ])

    # the two-stage variants share one stage-1 net and its predicted labels
    seg_net, _ = _train_stage1(config, run, scans, train_idx, val_idx,
                               tag="ablate-seg")
    fine_labels = {}
    for i in test_idx:
        scan = scans[i][0]
        fine_labels[i] = segment_scan(seg_net, scan.coarse, scan.fine,
                                      lam=config.lam, svm_c=config.svm_c,
                                      k_small=config.k_small,
                                      k_large=config.k_large).fine_labels

    fine = [(scan.fine, ann) for scan, ann in scans]
    for name, graph_net in (("two-stage-pointnet", False),
                              ("two-stage-graphnet", True)):
        nets = {t: net for t, net, _ in _train_stage2(
            config, run, fine, train_idx, val_idx, graph_net=graph_net,
            tag=name)}
        add_row(name, [
            (locate_landmarks(nets, scans[i][0].fine, fine_labels[i],
                              k_small=config.k_small,
                              k_large=config.k_large)[0],
             scans[i][1].landmarks)
            for i in test_idx
        ])

    write_json_report(run / "reports" / "ablate_methods.json", {"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dentalmesh",
        description="Tooth segmentation and landmark localization on 3D "
                    "dental scans.",
    )
    parser.add_argument("--version", action="version",
                        version=f"dentalmesh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config value; repeatable")
        p.add_argument("--data", help="override the data directory")
        p.add_argument("--run", help="override the run directory")
        p.add_argument("-v", "--verbose", action="store_true")
        p.set_defaults(func=func)
        return p

    add("synth", cmd_synth, "generate a synthetic arch dataset")
    add("preprocess", cmd_preprocess, "decimate scans and carry labels down")
    add("train-seg", cmd_train_seg, "train the segmentation network")
    add("train-lmk", cmd_train_lmk, "train the per-tooth landmark regressors")

    p = add("infer", cmd_infer, "segment one scan and locate its landmarks")
    p.add_argument("--mesh", required=True, help="input scan (.off/.obj/.stl)")
    p.add_argument("--probs", help="skip the network; refine this probability "
                                   "matrix instead")

    p = add("eval", cmd_eval, "cross-validated metrics, or the oracle ceiling")
    p.add_argument("--ceiling", action="store_true",
                   help="compare full-pipeline vs oracle-segmentation landmarks "
                        "on the scans train-seg and train-lmk held out")
    p.add_argument("--indices", help="comma-separated test scan indices "
                                     "(with --ceiling only)")

    add("ablate", cmd_ablate, "landmark strategy comparison")
    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.set:
        config = apply_overrides(config, args.set)
    if getattr(args, "data", None):
        config = dataclasses.replace(config, data_dir=args.data)
    if getattr(args, "run", None):
        config = dataclasses.replace(config, run_dir=args.run)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; the contract reserves
        # that for data problems
        return 0 if not exc.code else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        config = _resolve_config(args)
        return args.func(args, config)
    except TrainingDivergenceError as err:
        log.error("training diverged: %s", err)
        return 3
    except ConfigError as err:
        log.error("%s", err)
        return 1
    except DentalMeshError as err:
        log.error("%s", err)
        return 2
    except OSError as err:
        log.error("%s", err)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
