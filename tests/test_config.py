"""Config file parsing, overrides, and validation."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import dentalmesh
from dentalmesh import config as cfg
from dentalmesh.config import RunConfig
from dentalmesh.errors import ConfigError


def test_defaults_are_valid():
    RunConfig().validate()


def test_parse_round_trip():
    original = RunConfig(lam=2.5, k_small=4, adjacency="dynamic", data_dir="my data")
    back = cfg.parse_config_text(cfg.format_config(original))
    assert back == original


def test_parse_comments_and_blank_lines():
    text = """
# full-line comment
lam = 3.0   # trailing comment
k_small = 8

adjacency = "static"
"""
    config = cfg.parse_config_text(text)
    assert config.lam == 3.0
    assert config.k_small == 8
    assert config.adjacency == "static"
    # untouched keys keep their defaults
    assert config.sigma == RunConfig().sigma


def test_parse_quoted_strings():
    config = cfg.parse_config_text("data_dir = 'some dir'\nrun_dir = \"runs/x\"\n")
    assert config.data_dir == "some dir"
    assert config.run_dir == "runs/x"


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg.parse_config_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        cfg.parse_config_text("k_small = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        cfg.parse_config_text("lam = fast\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        cfg.parse_config_text("just some words\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cfg.load_config(tmp_path / "nope.cfg")


def test_write_and_load(tmp_path):
    path = tmp_path / "run.cfg"
    original = RunConfig(seg_epochs=3, seed=42)
    cfg.write_config(original, path)
    assert cfg.load_config(path) == original


def test_apply_overrides_returns_new_config():
    base = RunConfig()
    out = cfg.apply_overrides(base, ["lam=0.5", "seg_epochs=2", "run_dir=runs/x"])
    assert out.lam == 0.5 and out.seg_epochs == 2 and out.run_dir == "runs/x"
    assert base.lam == RunConfig().lam  # the input is untouched
    assert out is not base


def test_apply_overrides_errors():
    with pytest.raises(ConfigError, match="not key=value"):
        cfg.apply_overrides(RunConfig(), ["lam"])
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg.apply_overrides(RunConfig(), ["bogus=1"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(RunConfig(), ["lam=-3"])  # validation runs


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lam", -1.0, "nonnegative"),
        ("adjacency", "mesh", "adjacency"),
        ("k_small", 0, "positive"),
        ("val_every", 0, "val_every must be positive"),
        ("patience", -1, "patience must be nonnegative"),
        ("seg_epochs", 0, "positive"),
        ("augment_count", -1, "nonnegative"),
        ("sigma", 0.0, "positive"),
        ("lr", 0.0, "positive"),
    ],
)
def test_validate_rejects(field, value, message):
    config = dataclasses.replace(RunConfig(), **{field: value})
    with pytest.raises(ConfigError, match=message):
        config.validate()


def test_augment_count_zero_is_allowed():
    dataclasses.replace(RunConfig(), augment_count=0).validate()


def test_format_config_lists_every_field():
    text = cfg.format_config(RunConfig())
    for f in dataclasses.fields(RunConfig):
        assert any(line.startswith(f"{f.name} = ") for line in text.splitlines())


def test_every_field_is_read_outside_config():
    """A key that no module reads is parsed, validated and stamped for nothing."""
    package = Path(dentalmesh.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if not re.search(rf"\b(?:config|RunConfig)\.{f.name}\b", source)]
    assert unread == []


# postprocess.edge_cost is the scalar reference that
# test_build_energy_matches_scalar_edge_cost checks build_energy against
KEPT_FOR_TESTS = {"edge_cost"}


def test_every_public_definition_is_used():
    """A module-level def or class that nothing names is code only tests reach.

    Uses are Name or Attribute nodes anywhere in the package or in the
    benchmark scripts; an import alone does not count.
    """
    package = Path(dentalmesh.__file__).parent
    benchmark = Path(__file__).resolve().parents[1] / "benchmark"
    used, defined = set(), []
    for path in sorted(package.glob("*.py")) + sorted(benchmark.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent == package:
            defined += [f"{path.stem}.{node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    unused = [name for name in defined
              if name.split(".")[1] not in used | KEPT_FOR_TESTS]
    assert unused == []
