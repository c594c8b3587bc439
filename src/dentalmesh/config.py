"""Run configuration: one flat key = value file, overridable from the CLI.

The defaults are the one source of the pipeline's constants (neighbor
counts, heatmap width and peak, per-step sampling counts, augmentation
factor, optimizer settings, graph-cut weight, SVM penalty): library
functions take their default arguments from these class attributes. Every
run writes its resolved config next to its outputs so an experiment can be
re-run from the artifact alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    # graph-cut energy
    lam: float = 10.0
    # neighbor graphs
    k_small: int = 6
    k_large: int = 12
    # heatmap encoding
    sigma: float = 5.0
    peak: float = 1.0
    # per-step cell sampling
    seg_subsample: int = 9000
    roi_subsample: int = 1000
    # decimation target for preprocessing
    target_cells: int = 4500
    # augmentation
    augment_count: int = 20
    # optimizer
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # training schedule
    seg_epochs: int = 30
    lmk_epochs: int = 30
    val_every: int = 2
    # validations in a row without improvement before training stops; 0 never
    # stops early
    patience: int = 5
    # SVM upsampler
    svm_c: float = 10.0
    # evaluation; an eval run exits nonzero when pooled metrics miss these
    folds: int = 6
    val_count: int = 6
    min_dsc: float = 0.0
    max_mae: float = float("inf")
    # synthesis
    synth_count: int = 36
    synth_cells: int = 12000
    # seeds
    seed: int = 0
    # paths
    data_dir: str = "data"
    run_dir: str = "runs/run0"

    def validate(self) -> None:
        # each minimum is the one the consuming module enforces; those
        # modules import this one, so they are imported here
        from .autodiff import MIN_BN_ROWS
        from .evaluation import MIN_FOLDS
        from .geometry import MIN_DECIMATION_TARGET
        from .synth import MIN_TARGET_CELLS

        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be nonnegative and finite, got {self.lam}")
        for name in ("peak", "min_dsc"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        # a nonpositive adam_eps lets AMSGrad's denominator reach zero
        for name in ("sigma", "lr", "adam_eps", "svm_c"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if math.isnan(self.max_mae):
            raise ConfigError("max_mae must be a number (inf turns it off), got nan")
        for name in ("k_small", "k_large", "seg_epochs", "lmk_epochs", "val_every",
                     "synth_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("augment_count", "patience", "val_count", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name, least in (("target_cells", MIN_DECIMATION_TARGET),
                            ("synth_cells", MIN_TARGET_CELLS), ("folds", MIN_FOLDS),
                            ("seg_subsample", MIN_BN_ROWS), ("roi_subsample", MIN_BN_ROWS)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _convert(key: str, raw: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    if raw and raw[0] in "\"'" and raw[-1] == raw[0] and len(raw) >= 2:
        raw = raw[1:-1]
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from err


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = _convert(key, raw.split("#", 1)[0])
    config = RunConfig(**values)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def apply_overrides(config: RunConfig, overrides: list) -> RunConfig:
    """key=value strings from the command line; same typing as the file."""
    values = dataclasses.asdict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        values[key.strip()] = _convert(key.strip(), raw)
    out = RunConfig(**values)
    out.validate()
    return out


def format_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, str):
            value = f'"{value}"'
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text(format_config(config))
