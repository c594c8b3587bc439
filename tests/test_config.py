"""Config file parsing, overrides, and validation."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import dentalmesh
from dentalmesh import config as cfg
from dentalmesh import autodiff, evaluation, geometry, synth
from dentalmesh.config import RunConfig
from dentalmesh.errors import ConfigError


def test_defaults_are_valid():
    RunConfig().validate()


def test_parse_round_trip():
    original = RunConfig(lam=2.5, k_small=4, data_dir="my data")
    back = cfg.parse_config_text(cfg.format_config(original))
    assert back == original


def test_parse_comments_and_blank_lines():
    text = """
# full-line comment
lam = 3.0   # trailing comment
k_small = 8

"""
    config = cfg.parse_config_text(text)
    assert config.lam == 3.0
    assert config.k_small == 8
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
        ("k_small", 0, "positive"),
        ("val_every", 0, "val_every must be positive"),
        ("patience", -1, "patience must be nonnegative"),
        ("seg_epochs", 0, "positive"),
        ("augment_count", -1, "nonnegative"),
        ("sigma", 0.0, "positive"),
        ("lr", 0.0, "positive"),
        ("svm_c", 0.0, "svm_c must be positive and finite"),
        ("svm_c", -1.0, "svm_c must be positive and finite"),
        ("svm_c", float("nan"), "svm_c must be positive and finite"),
        ("svm_c", float("inf"), "svm_c must be positive and finite"),
        ("target_cells", geometry.MIN_DECIMATION_TARGET - 1, "target_cells must be at least 100"),
        ("synth_cells", synth.MIN_TARGET_CELLS - 1, "synth_cells must be at least 4500"),
        ("seed", -1, "seed must be nonnegative"),
        ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
        ("beta1", -0.1, r"beta1 must be in \[0, 1\)"),
        ("beta2", 1.0, r"beta2 must be in \[0, 1\)"),
        ("beta2", float("nan"), r"beta2 must be in \[0, 1\)"),
        ("val_count", -1, "val_count must be nonnegative"),
        ("folds", evaluation.MIN_FOLDS - 1, "folds must be at least 2"),
        ("lam", float("nan"), "lam must be nonnegative and finite"),
        ("lam", float("inf"), "lam must be nonnegative and finite"),
        ("sigma", float("nan"), "sigma must be positive and finite"),
        ("sigma", float("inf"), "sigma must be positive and finite"),
        ("peak", float("nan"), "peak must be finite"),
        ("peak", float("-inf"), "peak must be finite"),
        ("lr", float("nan"), "lr must be positive and finite"),
        ("lr", float("inf"), "lr must be positive and finite"),
        ("adam_eps", float("nan"), "adam_eps must be positive and finite"),
        ("adam_eps", float("inf"), "adam_eps must be positive and finite"),
        ("adam_eps", 0.0, "adam_eps must be positive and finite"),
        ("adam_eps", -1.0, "adam_eps must be positive and finite"),
        ("min_dsc", float("nan"), "min_dsc must be finite"),
        ("min_dsc", float("inf"), "min_dsc must be finite"),
        ("max_mae", float("nan"), "max_mae must be a number"),
        ("seg_subsample", autodiff.MIN_BN_ROWS - 1, "seg_subsample must be at least 2"),
        ("roi_subsample", autodiff.MIN_BN_ROWS - 1, "roi_subsample must be at least 2"),
    ],
)
def test_validate_rejects(field, value, message):
    config = dataclasses.replace(RunConfig(), **{field: value})
    with pytest.raises(ConfigError, match=message):
        config.validate()


def test_augment_count_zero_is_allowed():
    dataclasses.replace(RunConfig(), augment_count=0).validate()

def test_limits_are_inclusive():
    dataclasses.replace(RunConfig(), target_cells=geometry.MIN_DECIMATION_TARGET,
                        synth_cells=synth.MIN_TARGET_CELLS, folds=evaluation.MIN_FOLDS,
                        seed=0, val_count=0, beta1=0.0, beta2=0.0,
                        seg_subsample=autodiff.MIN_BN_ROWS,
                        roi_subsample=autodiff.MIN_BN_ROWS).validate()


def test_format_config_lists_every_field():
    text = cfg.format_config(RunConfig())
    for f in dataclasses.fields(RunConfig):
        assert any(line.startswith(f"{f.name} = ") for line in text.splitlines())


def test_committed_protocols_load():
    """A protocol that names a deleted key would only fail when first run."""
    paths = sorted((Path(__file__).resolve().parents[1] / "protocols").glob("*.cfg"))
    assert paths
    for path in paths:
        cfg.load_config(path)


def test_every_field_is_read_outside_config():
    """A key that no module reads is parsed, validated and stamped for nothing."""
    package = Path(dentalmesh.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if not re.search(rf"\b(?:config|RunConfig)\.{f.name}\b", source)]
    assert unread == []


# public definitions kept although only tests use them; references that
# tests check the package against belong in tests/helpers.py instead
KEPT_FOR_TESTS: set[str] = set()

# defaulted parameters that no call in the package or the benchmark sets
UNSET_ALLOWED = {
    # the test seam: console runs parse sys.argv
    "cli.main(argv)",
}


def _sources():
    """{path: parsed module} for the package and the benchmark scripts."""
    package = Path(dentalmesh.__file__).parent
    benchmark = Path(__file__).resolve().parents[1] / "benchmark"
    paths = sorted(package.glob("*.py")) + sorted(benchmark.glob("*.py"))
    return package, {path: ast.parse(path.read_text()) for path in paths}


def _bindings(tree: ast.Module, modules: set[str]):
    """Local names a file binds to package modules and to their definitions."""
    module_alias, name_alias = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == "dentalmesh" and parts[-1] in modules:
                    module_alias[alias.asname] = parts[-1]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "dentalmesh" and not base.startswith("dentalmesh."):
                    continue
                base = base.removeprefix("dentalmesh").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if not base and alias.name in modules:
                    module_alias[local] = alias.name
                elif base in modules:
                    name_alias[local] = (base, alias.name)
    return module_alias, name_alias


def test_every_public_definition_is_used():
    """A public def, class or method that nothing uses is code only tests reach.

    A module-level name is used when it is loaded inside its own module, or
    elsewhere in the package or the benchmark scripts through a binding of
    its defining module: `from .m import name` and then `name`, or
    `<alias of m>.name`. An import alone does not count, nor does another
    object of the same name (a logger called `log` does not use
    `autodiff.log`). A public method of a public class is used when some
    attribute access, or a name in its own module, carries its name.
    """
    package, trees = _sources()
    modules = {path.stem for path in trees if path.parent == package}
    used, attributes, defined, methods = set(), set(), [], []
    for path, tree in trees.items():
        module_alias, name_alias = _bindings(tree, modules)
        own = path.stem if path.parent == package else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id in name_alias:
                    used.add(name_alias[node.id])
                if own:
                    used.add((own, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in module_alias:
                    used.add((module_alias[node.value.id], node.attr))
        if own:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined.append((own, node.name))
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    methods += [(own, node.name, item.name) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")]
    unused = [f"{m}.{name}" for m, name in defined if (m, name) not in used]
    unused += [f"{m}.{cls}.{name}" for m, cls, name in methods
               if name not in attributes and (m, name) not in used]
    assert sorted(set(unused) - KEPT_FOR_TESTS) == []


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def test_every_record_field_is_read():
    """A dataclass or NamedTuple field that nothing reads is carried for tests.

    A field is read when some attribute load in the package or the benchmark
    scripts, or a getattr with a literal name, carries its name. Another
    object's attribute of the same name counts too, so a field that shares
    a common name can slip through.
    """
    package, trees = _sources()
    read, fields = set(), []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
        if path.parent == package:
            fields += [(path.stem, node.name, item.target.id)
                       for node in tree.body if isinstance(node, ast.ClassDef) and _is_record(node)
                       for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert sorted(f"{m}.{cls}.{name}" for m, cls, name in fields if name not in read) == []


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index) of each parameter with a default; None for
    keyword-only ones. A method's index does not count self."""
    positional = fn.args.posonlyargs + fn.args.args
    if method:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter: by keyword, by position, or
    through *args / **kwargs that could reach it."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= index
        if i == index:
            return True
    return False


def test_every_defaulted_parameter_is_set():
    """A default that no caller overrides is a fixed value posing as an option.

    Covers public functions, public methods and public-class __init__ in the
    package. Calls are matched by name: `f(...)` and `obj.f(...)` both call
    every `f`, and `C(...)` calls `C.__init__`.
    """
    package, trees = _sources()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, (ast.Name, ast.Attribute)):
                    name = func.id if isinstance(func, ast.Name) else func.attr
                    calls.setdefault(name, []).append(node)
    unset = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                targets = [(node.name, node.name, node, False)]
            else:
                targets = [(node.name if item.name == "__init__" else item.name,
                            f"{node.name}.{item.name}", item, True)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and (item.name == "__init__" or not item.name.startswith("_"))]
            for call_name, label, fn, method in targets:
                unset += [f"{path.stem}.{label}({name})"
                          for name, index in _defaulted(fn, method)
                          if not any(_sets(c, name, index)
                                     for c in calls.get(call_name, []))]
    assert sorted(set(unset) - UNSET_ALLOWED) == []


def test_allowlists_name_existing_code():
    """An allowlist entry whose definition or parameter is gone must go too."""
    package, trees = _sources()
    known = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{item.name}", item) for item in node.body
                             if isinstance(item, ast.FunctionDef)]
            else:
                continue
            known.add(f"{path.stem}.{node.name}")
            for label, fn in functions:
                known.add(f"{path.stem}.{label}")
                known |= {f"{path.stem}.{label}({a.arg})"
                          for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
    assert sorted((KEPT_FOR_TESTS | UNSET_ALLOWED) - known) == []
