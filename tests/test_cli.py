"""Command-line surface: exit codes, artifacts, run-dir stamping."""

import json
import logging
import shutil

import numpy as np
import pytest

from dentalmesh import __version__, cli, geometry, pipeline
from dentalmesh.config import RunConfig, format_config, load_config
from dentalmesh.errors import ConfigError, SchemaError, TrainingDivergenceError
from dentalmesh.mesh_io import (
    load_checkpoint,
    load_mesh,
    save_annotation,
    save_checkpoint,
    save_matrix,
    save_mesh,
)
from dentalmesh.mesh_io import Annotation
from dentalmesh.networks import PointHeatmapNet, ToothSegNet
from dentalmesh.pipeline import preprocess

from helpers import bump_scene


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Three tiny synthetic scans on disk, plus their annotation files."""
    data = tmp_path_factory.mktemp("data")
    rc = cli.main([
        "synth", "--data", str(data), "--run", str(data / "run"),
        "--set", "synth_count=3", "--set", "synth_cells=4500",
    ])
    assert rc == 0
    return data


def test_version_and_usage_exits(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert __version__ in out
    assert cli.main([]) == 1  # no command
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["infer"]) == 1  # missing required --mesh


def test_bad_overrides_exit_1(tmp_path):
    base = ["synth", "--data", str(tmp_path), "--run", str(tmp_path / "r")]
    assert cli.main(base + ["--set", "bogus_key=1"]) == 1
    assert cli.main(base + ["--set", "lam=-2"]) == 1
    for svm_c in ("0", "-1", "nan"):
        assert cli.main(base + ["--set", f"svm_c={svm_c}"]) == 1
    assert cli.main(base + ["--set", "seg_epochs=abc"]) == 1
    assert cli.main(base + ["--config", str(tmp_path / "missing.cfg")]) == 1


def test_non_finite_override_exits_1_before_any_work(tmp_path, caplog, capsys):
    run = tmp_path / "r"
    rc = cli.main(["eval", "--data", str(tmp_path), "--run", str(run),
                   "--set", "lam=nan"])
    assert rc == 1
    assert "lam must be nonnegative and finite" in caplog.text
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err + caplog.text
    assert not run.exists()


def test_missing_data_dir_exits_2(tmp_path):
    rc = cli.main([
        "train-seg", "--data", str(tmp_path / "nowhere"),
        "--run", str(tmp_path / "run"),
    ])
    assert rc == 2


def test_synth_writes_dataset(tiny_dataset):
    offs = sorted(p.name for p in tiny_dataset.glob("arch_*.off"))
    assert offs == ["arch_000.off", "arch_001.off", "arch_002.off"]
    for off in offs:
        assert (tiny_dataset / off).with_suffix(".json").exists()
    manifest = json.loads((tiny_dataset / "manifest.json").read_text())
    assert len(manifest["arches"]) == 3
    assert [a["name"] for a in manifest["arches"]] == ["arch_000", "arch_001", "arch_002"]
    mesh = load_mesh(tiny_dataset / "arch_000.off")
    assert abs(mesh.num_cells - 4500) / 4500 < 0.1


def test_preprocess_writes_coarse_artifacts(tiny_dataset, tmp_path):
    rc = cli.main([
        "preprocess", "--data", str(tiny_dataset), "--run", str(tmp_path / "run"),
        "--set", "target_cells=1200",
    ])
    assert rc == 0
    coarse = load_mesh(tiny_dataset / "arch_000_coarse.off")
    assert coarse.num_cells <= 1200
    assert (tiny_dataset / "arch_000_coarse.json").exists()
    # rediscovery must not treat the derived meshes as new scans
    pairs = cli._discover_scans(tiny_dataset)
    assert [m.name for m, _ in pairs] == ["arch_000.off", "arch_001.off", "arch_002.off"]


def test_discover_scans_requires_annotations(tmp_path):
    mesh, labels, _ = bump_scene(8, 0)
    save_mesh(mesh, tmp_path / "scan.off")
    with pytest.raises(SchemaError, match="no annotation"):
        cli._discover_scans(tmp_path)
    save_annotation(Annotation(labels), tmp_path / "scan.json")
    assert len(cli._discover_scans(tmp_path)) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SchemaError, match=r"no \.off scans"):
        cli._discover_scans(empty)
    with pytest.raises(SchemaError, match="directory not found"):
        cli._discover_scans(tmp_path / "never_made")


def test_train_seg_stamps_run_dir(tiny_dataset, tmp_path):
    run = tmp_path / "run"
    rc = cli.main([
        "train-seg", "--data", str(tiny_dataset), "--run", str(run),
        "--set", "seg_epochs=1", "--set", "seg_subsample=300",
        "--set", "augment_count=1", "--set", "val_count=1",
        "--set", "target_cells=1200", "--set", "patience=0",
    ])
    assert rc == 0
    for sub in cli.RUN_SUBDIRS:
        assert (run / sub).is_dir()
    resolved = load_config(run / "config" / "resolved.cfg")
    assert resolved.seg_epochs == 1
    assert resolved.data_dir == str(tiny_dataset)
    assert (run / "config" / "version.txt").read_text() == f"dentalmesh {__version__}\n"

    arch, arrays, meta = load_checkpoint(run / "checkpoints" / "seg.ckpt")
    assert arch.startswith("tooth-seg-net/")
    assert meta["head"] == "softmax" and meta["epochs_run"] == 1
    report = json.loads((run / "reports" / "train_seg.json").read_text())
    assert len(report["loss_curve"]) == 1


def test_infer_without_checkpoint_exits_2(tiny_dataset, tmp_path):
    rc = cli.main([
        "infer", "--data", str(tiny_dataset), "--run", str(tmp_path / "fresh"),
        "--mesh", str(tiny_dataset / "arch_000.off"),
    ])
    assert rc == 2


def test_infer_on_corrupt_mesh_exits_2(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("not a mesh\n")
    rc = cli.main([
        "infer", "--data", str(tmp_path), "--run", str(tmp_path / "run"),
        "--mesh", str(bad),
    ])
    assert rc == 2


def test_divergence_exit_code_and_lastgood(tiny_dataset, tmp_path, monkeypatch):
    state = {"w": np.ones((2, 2))}

    def explode(net, samples, **kwargs):
        raise TrainingDivergenceError(
            "non-finite loss at epoch 3",
            last_good_state=state,
            loss_curve=[0.9, 0.8, 0.7],
        )

    monkeypatch.setattr(cli, "train_segmentation", explode)
    run = tmp_path / "run"
    rc = cli.main([
        "train-seg", "--data", str(tiny_dataset), "--run", str(run),
        "--set", "target_cells=1200",
    ])
    assert rc == 3
    arch, arrays, meta = load_checkpoint(run / "checkpoints" / "seg_lastgood.ckpt")
    assert meta == {"diverged": True, "epochs_completed": 3}
    assert np.array_equal(arrays["w"], state["w"])
    assert not (run / "checkpoints" / "seg.ckpt").exists()


def test_parse_indices():
    assert cli._parse_indices("0,2,5", 6) == [0, 2, 5]
    assert cli._parse_indices("3", 4) == [3]
    assert cli._parse_indices("2, 2, 1", 5) == [1, 2]  # dedup and sort
    with pytest.raises(ConfigError, match="bad index list"):
        cli._parse_indices("1,x", 5)
    with pytest.raises(ConfigError, match="outside"):
        cli._parse_indices("7", 5)
    with pytest.raises(ConfigError, match="empty"):
        cli._parse_indices(" , ", 5)


def test_train_val_split_properties():
    train, val = cli._train_val_split(10, 3, seed=0)
    assert len(train) == 7 and len(val) == 3
    assert sorted(train + val) == list(range(10))
    # deterministic in the seed
    assert cli._train_val_split(10, 3, seed=0) == (train, val)
    assert cli._train_val_split(10, 3, seed=1) != (train, val)
    # never empties the training side
    train, val = cli._train_val_split(4, 10, seed=2)
    assert len(train) == 1 and len(val) == 3
    # degenerate inputs put everything in training
    assert cli._train_val_split(1, 2, seed=0) == ([0], [])
    assert cli._train_val_split(5, 0, seed=0) == ([0, 1, 2, 3, 4], [])


def test_resolved_config_precedence(tiny_dataset, tmp_path):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("lam = 4.0\nseg_epochs = 9\n")
    run = tmp_path / "run"
    rc = cli.main([
        "synth", "--config", str(cfg_file), "--set", "seg_epochs=2",
        "--data", str(tmp_path / "d"), "--run", str(run),
        "--set", "synth_count=1", "--set", "synth_cells=4500",
    ])
    assert rc == 0
    resolved = load_config(run / "config" / "resolved.cfg")
    assert resolved.lam == 4.0  # from the file
    assert resolved.seg_epochs == 2  # --set wins over the file
    assert resolved.data_dir == str(tmp_path / "d")  # --data wins over both


def test_out_of_range_schedule_values_exit_1(tiny_dataset, tmp_path, caplog):
    base = ["train-seg", "--data", str(tiny_dataset), "--run", str(tmp_path / "r")]
    for override, key in (("val_every=0", "val_every"), ("patience=-1", "patience"),
                          ("target_cells=50", "target_cells must be at least 100")):
        caplog.clear()
        assert cli.main(base + ["--set", override]) == 1
        assert key in caplog.text


def test_coarse_artifact_of_another_scan_is_not_loaded(tiny_dataset, tmp_path):
    (mesh_path, ann_path), (other_path, other_ann_path) = \
        cli._discover_scans(tiny_dataset)[:2]
    for src, name in ((mesh_path, "scan.off"), (ann_path, "scan.json")):
        shutil.copy(src, tmp_path / name)
    # a valid artifact of another arch, with a cell count this target yields
    other = preprocess(*cli._load_scan(other_path, other_ann_path), 1200)
    assert 1198 <= other.coarse.num_cells <= 1200
    save_mesh(other.coarse, tmp_path / "scan_coarse.off")
    save_annotation(Annotation(other.coarse_labels), tmp_path / "scan_coarse.json")

    scan, ann = cli._load_preprocessed(tmp_path / "scan.off", tmp_path / "scan.json",
                                       1200)
    mesh, truth = cli._load_scan(mesh_path, ann_path)
    fresh = preprocess(mesh, truth, 1200)
    assert np.array_equal(scan.coarse.vertices, fresh.coarse.vertices)
    assert np.array_equal(scan.coarse.cells, fresh.coarse.cells)
    assert np.array_equal(scan.origin_map, fresh.origin_map)
    assert np.array_equal(scan.coarse_labels, fresh.coarse_labels)
    assert np.array_equal(ann.labels, truth.labels)


# ---------------------------------------------------------------------------
# success paths end to end, on a tiny config

TINY = [
    "--set", "target_cells=300", "--set", "seg_subsample=200",
    "--set", "roi_subsample=200", "--set", "seg_epochs=1",
    "--set", "lmk_epochs=1", "--set", "augment_count=1",
    "--set", "folds=2", "--set", "val_count=1",
]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """Four 4,500-cell arches with both stages trained for one epoch."""
    root = tmp_path_factory.mktemp("e2e")
    data = root / "data"
    rc = cli.main([
        "synth", "--data", str(data), "--run", str(root / "synth"),
        "--set", "synth_count=4", "--set", "synth_cells=4500",
    ])
    assert rc == 0
    args = ["--data", str(data), "--run", str(root / "run")] + TINY
    assert cli.main(["train-seg"] + args) == 0
    assert cli.main(["train-lmk"] + args) == 0
    return root, args


def test_train_commands_write_checkpoints(trained_run):
    root, _ = trained_run
    run = root / "run"
    assert (run / "checkpoints" / "seg.ckpt").exists()
    for t in (1, 2, 3, 4, 6):
        arch, _, meta = load_checkpoint(run / "checkpoints" / f"lmk_pos{t}.ckpt")
        assert arch.startswith("point-heatmap-net/") and meta["position_type"] == t
    report = json.loads((run / "reports" / "train_lmk.json").read_text())
    assert sorted(report) == ["pos1", "pos2", "pos3", "pos4", "pos6"]
    assert (run / "reports" / "train_seg.json").exists()


def test_infer_with_and_without_probs(trained_run):
    root, args = trained_run
    run, mesh = root / "run", str(root / "data" / "arch_000.off")
    labeled = run / "meshes" / "arch_000_labeled.json"
    landmarks = run / "reports" / "arch_000_landmarks.json"
    assert cli.main(["infer", "--mesh", mesh] + args) == 0
    plain = (labeled.read_bytes(), landmarks.read_bytes())
    probs = run / "reports" / "arch_000_probs.mat"
    assert (run / "meshes" / "arch_000_labeled.off").exists() and probs.exists()
    # refining the network's own probabilities reproduces the plain run
    assert cli.main(["infer", "--mesh", mesh, "--probs", str(probs)] + args) == 0
    assert (labeled.read_bytes(), landmarks.read_bytes()) == plain


def test_infer_never_builds_the_origin_map(trained_run, monkeypatch):
    root, args = trained_run

    def no_origin_map(*args):
        raise AssertionError("infer read the origin map")

    monkeypatch.setattr(pipeline, "nearest_rows", no_origin_map)
    monkeypatch.setattr(geometry, "nearest_rows", no_origin_map)
    assert cli.main(["infer", "--mesh", str(root / "data" / "arch_001.off")] + args) == 0


def test_infer_rejects_bad_probs_with_exit_2(trained_run, tmp_path, caplog):
    _, args = trained_run
    # a mesh below target_cells is not decimated, so its probs have one row per cell
    mesh, _, _ = bump_scene(12, 0)
    save_mesh(mesh, tmp_path / "small.off")
    good = np.full((mesh.num_cells, 15), 1.0 / 15)
    nan, negative = good.copy(), good.copy()
    nan[0, 0] = np.nan
    negative[1, 2] = -0.5
    for name, matrix in (("nan", nan), ("negative", negative),
                         ("columns", good[:, :-1])):
        path = tmp_path / f"{name}.mat"
        save_matrix(path, matrix)
        caplog.clear()
        rc = cli.main(["infer", "--mesh", str(tmp_path / "small.off"),
                       "--probs", str(path)] + args)
        assert rc == 2 and "probability matrix" in caplog.text
    save_matrix(tmp_path / "good.mat", good)
    assert cli.main(["infer", "--mesh", str(tmp_path / "small.off"),
                     "--probs", str(tmp_path / "good.mat")] + args) == 0


def test_eval_reruns_byte_identical(trained_run, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="dentalmesh")
    root, args = trained_run
    assert cli.main(["eval"] + args) == 0
    reports = root / "run" / "reports"
    for name in ("eval.json", "per_tooth_dsc.csv", "per_tooth_mae.csv"):
        assert (reports / name).exists()

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((reports / "eval.json").read_text(), parse_constant=reject)
    assert summary["n_total"] == 4
    # coverage: the share of ground-truth landmarks the pooled MAE averages over
    for row in summary["folds"]:
        assert 0.0 <= row["landmark_coverage"] <= 1.0
        assert (row["excluded_landmarks"] == 0) == (row["landmark_coverage"] == 1.0)
    assert 0.0 <= summary["pooled"]["landmark_coverage"]["mean"] <= 1.0
    assert "% of landmarks" in caplog.text
    rerun = ["--data", str(root / "data"), "--run", str(tmp_path / "run2")] + TINY
    assert cli.main(["eval"] + rerun) == 0
    assert ((tmp_path / "run2" / "reports" / "eval.json").read_bytes()
            == (reports / "eval.json").read_bytes())


def test_eval_ceiling(trained_run, caplog):
    """By default the ceiling scores the scans train-seg and train-lmk held
    out; a training scan named with --indices is logged and listed."""
    root, args = trained_run
    path = root / "run" / "reports" / "ceiling.json"
    train, held_out = cli._train_val_split(4, 1, RunConfig.seed)  # TINY's val_count
    assert cli.main(["eval", "--ceiling"] + args) == 0
    report = json.loads(path.read_text())
    assert [r["row"] for r in report["rows"]] == ["overall", "stage1", "improvement"]
    assert report["test_scans"] == held_out
    assert not set(report["test_scans"]) & set(train)
    assert report["trained_on"] == []

    caplog.clear()
    assert cli.main(["eval", "--ceiling", "--indices", str(train[0])] + args) == 0
    report = json.loads(path.read_text())
    assert report["test_scans"] == report["trained_on"] == [train[0]]
    assert f"scans {train[0]} are training scans" in caplog.text


def test_eval_ceiling_reads_held_out_scans_from_the_checkpoints(trained_run, tmp_path):
    """Checkpoints trained at seed 0 and a ceiling run at seed 1, whose own
    split would hold out another scan: the ceiling scores the scan the
    checkpoints held out."""
    root, args = trained_run
    _, held_out = cli._train_val_split(4, 1, 0)
    _, other = cli._train_val_split(4, 1, 1)
    assert other != held_out
    stems = [f"arch_{i:03d}" for i in held_out]
    for path in (root / "run" / "checkpoints").glob("*.ckpt"):
        assert load_checkpoint(path)[2]["held_out"] == stems
    run = tmp_path / "run"
    shutil.copytree(root / "run" / "checkpoints", run / "checkpoints")
    args = args + ["--run", str(run)]
    assert cli.main(["eval", "--ceiling", "--set", "seed=1"] + args) == 0
    report = json.loads((run / "reports" / "ceiling.json").read_text())
    assert report["test_scans"] == held_out
    assert report["trained_on"] == []


def test_eval_ceiling_needs_held_out_records(trained_run, tmp_path, caplog):
    """Checkpoints that hold out no scan in common exit 1 and ask for
    --indices; a checkpoint that records none exits 2."""
    root, args = trained_run
    run = tmp_path / "run"
    shutil.copytree(root / "run" / "checkpoints", run / "checkpoints")
    args = args + ["--run", str(run)]
    seg = run / "checkpoints" / "seg.ckpt"
    arch, arrays, meta = load_checkpoint(seg)
    other = [f"arch_{i:03d}" for i in range(4) if f"arch_{i:03d}" not in meta["held_out"]]
    save_checkpoint(seg, arch, arrays, dict(meta, held_out=other))
    assert cli.main(["eval", "--ceiling"] + args) == 1
    assert "--indices" in caplog.text
    del meta["held_out"]
    save_checkpoint(seg, arch, arrays, meta)
    caplog.clear()
    assert cli.main(["eval", "--ceiling"] + args) == 2
    assert "seg.ckpt: checkpoint meta has no 'held_out' entry" in caplog.text


def test_eval_indices_without_ceiling_exits_1(trained_run, tmp_path, caplog):
    _, args = trained_run
    run = tmp_path / "run"
    assert cli.main(["eval", "--indices", "0"] + args + ["--run", str(run)]) == 1
    assert "--ceiling" in caplog.text
    assert not run.exists()


def test_ablate_table(trained_run):
    root, args = trained_run
    reports = root / "run" / "reports"
    assert cli.main(["ablate"] + args) == 0
    rows = json.loads((reports / "ablate_methods.json").read_text())["rows"]
    assert [r["method"] for r in rows] == [
        "single-stage-pointnet", "single-stage-graphnet",
        "two-stage-pointnet", "two-stage-graphnet",
    ]


def test_infer_rejects_mismatched_checkpoints_before_compute(trained_run, tmp_path,
                                                             monkeypatch, caplog):
    root, args = trained_run
    run = tmp_path / "run"
    shutil.copytree(root / "run" / "checkpoints", run / "checkpoints")
    args = args + ["--run", str(run)]
    mesh = str(root / "data" / "arch_000.off")

    def stage1(*_, **__):
        raise AssertionError("decimation ran before the checkpoints were checked")

    monkeypatch.setattr(cli, "preprocess", stage1)
    wide = PointHeatmapNet(out_channels=7)
    save_checkpoint(run / "checkpoints" / "lmk_pos6.ckpt", wide.arch_tag(),
                    wide.state_arrays(), {"in_dim": 15, "out_channels": 7})
    rc = cli.main(["infer", "--mesh", mesh, "--probs", str(tmp_path / "p.mat")] + args)
    assert rc == 2
    assert "lmk_pos6.ckpt: 7 output channels, landmark type 6 needs 6" in caplog.text

    shutil.copy(root / "run" / "checkpoints" / "lmk_pos6.ckpt",
                run / "checkpoints" / "lmk_pos6.ckpt")
    sigmoid = ToothSegNet(seed=0, out_channels=15, head="sigmoid")
    save_checkpoint(run / "checkpoints" / "seg.ckpt", sigmoid.arch_tag(),
                    sigmoid.state_arrays(), {"out_channels": 15, "head": "sigmoid"})
    caplog.clear()
    assert cli.main(["infer", "--mesh", mesh] + args) == 2
    assert "seg.ckpt: segmentation needs a softmax head" in caplog.text

    # a net trained on other kNN widths stops infer and eval --ceiling alike
    arch, arrays, meta = load_checkpoint(root / "run" / "checkpoints" / "seg.ckpt")
    assert (meta["k_small"], meta["k_large"]) == (6, 12)
    save_checkpoint(run / "checkpoints" / "seg.ckpt", arch, arrays,
                    dict(meta, k_small=4, k_large=8))
    for command in (["infer", "--mesh", mesh], ["eval", "--ceiling"]):
        caplog.clear()
        assert cli.main(command + args) == 2
        assert ("seg.ckpt: trained with k_small=4, k_large=8; this run uses "
                "k_small=6, k_large=12") in caplog.text
    # every segmentation checkpoint records its widths
    del meta["k_small"], meta["k_large"]
    save_checkpoint(run / "checkpoints" / "seg.ckpt", arch, arrays, meta)
    caplog.clear()
    assert cli.main(["infer", "--mesh", mesh] + args) == 2
    assert "seg.ckpt: checkpoint meta has no 'k_small' entry" in caplog.text


def test_artifacts_of_dynamic_graphs_fail_loudly(tmp_path, caplog):
    """Dynamic kNN graphs are gone: a config that names the adjacency key is a
    usage error."""
    old_cfg = tmp_path / "resolved.cfg"
    old_cfg.write_text(format_config(RunConfig()) + 'adjacency = "static"\n')
    assert cli.main(["synth", "--config", str(old_cfg), "--data", str(tmp_path / "d"),
                     "--run", str(tmp_path / "r")]) == 1
    assert "unknown config key 'adjacency'" in caplog.text


def test_checkpoints_of_an_earlier_net_version_are_refused(trained_run, tmp_path,
                                                           monkeypatch, caplog):
    """A v2 seg or lmk net (v2 segmentation nets carried the feature
    transform) stops infer and eval --ceiling with exit 2 and a request to
    retrain, before any scan is decimated."""
    root, args = trained_run
    mesh = str(root / "data" / "arch_000.off")

    def stage1(*_, **__):
        raise AssertionError("decimation ran before the checkpoints were checked")

    monkeypatch.setattr(cli, "preprocess", stage1)
    monkeypatch.setattr(cli, "_load_preprocessed", stage1)
    for name in ("seg.ckpt", "lmk_pos6.ckpt"):
        run = tmp_path / name.split(".")[0]
        shutil.copytree(root / "run" / "checkpoints", run / "checkpoints")
        path = run / "checkpoints" / name
        arch, arrays, meta = load_checkpoint(path)
        assert arch.split()[0].endswith("/v3")
        old = arch.replace("/v3", "/v2", 1)
        save_checkpoint(path, old, arrays, meta)
        for command in (["infer", "--mesh", mesh], ["eval", "--ceiling"]):
            caplog.clear()
            assert cli.main(command + args + ["--run", str(run)]) == 2
            assert (f"{path}: {old.split()[0]} is an earlier version of the network"
                    in caplog.text)
            assert "retrain it" in caplog.text
