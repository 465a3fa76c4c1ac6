"""Dataclass configs and the flat key-value config file format.

A config file holds ``section.key = value`` lines, with sections
``model``, ``train`` and ``features``. Values are typed by the dataclass
fields. A '#' at the start of a line or after whitespace starts a comment;
elsewhere it is part of the value, as in TIMIT's ``h#`` symbol. The config
hash is the sha256 of the canonical serialization and is embedded in
checkpoints so mismatched resumes are rejected.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, check_config, read_file
from .features import FeatureConfig

__all__ = ["ModelConfig", "TrainConfig", "RunConfig", "parse_config",
           "load_config", "dump_config", "config_hash"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; channel and width counts are quaternion
    units (real-equivalent counts are 4x)."""

    n_conv_layers: int = 6
    conv_channels: int = 32
    kernel_freq: int = 3
    kernel_time: int = 5
    pool_width: int = 3
    n_dense_layers: int = 3
    dense_width: int = 256
    dropout: float = 0.3
    l2: float = 1e-5
    in_channels: int = 1
    in_freq: int = 41
    symbols: str = ""          # space-separated; empty = derive from manifest
    prelu_init: float = 0.25

    def validate(self) -> None:
        check_config("model", self, (
            ("n_conv_layers", self.n_conv_layers >= 1, ">= 1"),
            ("conv_channels", self.conv_channels >= 1, ">= 1"),
            ("kernel_freq", self.kernel_freq >= 1 and self.kernel_freq % 2, "odd and >= 1"),
            ("kernel_time", self.kernel_time >= 1 and self.kernel_time % 2, "odd and >= 1"),
            ("pool_width", 1 <= self.pool_width <= self.in_freq,
             f"in [1, in_freq = {self.in_freq}]"),
            ("n_dense_layers", self.n_dense_layers >= 1, ">= 1"),
            ("dense_width", self.dense_width >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("l2", self.l2 >= 0.0, ">= 0"),
            ("in_channels", self.in_channels >= 1, ">= 1"),
            ("in_freq", self.in_freq >= self.kernel_freq, f">= kernel_freq {self.kernel_freq}")))
        symbols = self.symbol_list()
        for s in symbols:
            if s.startswith("#"):
                raise ConfigError(f"model.symbols: {s!r} starts with '#', which would "
                                  f"read back as a comment")
        if len(set(symbols)) != len(symbols):
            dups = sorted({s for s in symbols if symbols.count(s) > 1})
            raise ConfigError(f"model.symbols: duplicate symbol(s) {' '.join(dups)}")

    def symbol_list(self) -> list[str]:
        return self.symbols.split()


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    fine_tune_epochs: int = 50
    adam_lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    sgd_lr: float = 1e-5
    batch_size: int = 8
    seed: int = 0
    early_stop_metric: str = "per"    # "per" or "loss"

    def validate(self) -> None:
        check_config("train", self, (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("fine_tune_epochs", self.fine_tune_epochs >= 0, ">= 0"),
            ("adam_lr", self.adam_lr >= 0.0, ">= 0"),
            ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
            ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0.0, "> 0"),
            ("sgd_lr", self.sgd_lr >= 0.0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("early_stop_metric", self.early_stop_metric in ("per", "loss"), "'per' or 'loss'")))


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def validate(self) -> None:
        self.model.validate()
        self.train.validate()
        self.features.validate()


_COMMENT = re.compile(r"(?:^|\s)#.*")
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "features": FeatureConfig}


def _parse_value(raw: str, typ, key: str):
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            if not math.isfinite(float(raw)):
                raise ConfigError(f"{key}: must be finite, got {raw!r}")
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    return raw


def parse_config(text: str) -> RunConfig:
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    field_types = {name: {f.name: f.type for f in fields(cls)}
                   for name, cls in _SECTIONS.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", line, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} is missing its section prefix")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        types = field_types[section]
        if name not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ = types[name]
        if isinstance(typ, str):  # postponed annotations
            typ = {"int": int, "float": float, "str": str, "bool": bool}[typ]
        values[section][name] = _parse_value(raw, typ, key)
    cfg = RunConfig(model=ModelConfig(**values["model"]),
                    train=TrainConfig(**values["train"]),
                    features=FeatureConfig(**values["features"]))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config(read_file(path, "config"))


def dump_config(cfg: RunConfig) -> str:
    """Canonical serialization: sorted ``section.key = value`` lines."""
    lines = []
    for section in sorted(_SECTIONS):
        sub = getattr(cfg, section)
        for f in sorted(fields(sub), key=lambda f: f.name):
            lines.append(f"{section}.{f.name} = {getattr(sub, f.name)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
