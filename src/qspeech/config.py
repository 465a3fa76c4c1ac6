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
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
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
        if self.n_conv_layers < 1:
            raise ConfigError(f"model.n_conv_layers: must be >= 1, got {self.n_conv_layers}")
        if self.conv_channels < 1:
            raise ConfigError(f"model.conv_channels: must be >= 1, got {self.conv_channels}")
        if self.kernel_freq < 1 or self.kernel_freq % 2 == 0:
            raise ConfigError(f"model.kernel_freq: must be odd and >= 1, got {self.kernel_freq}")
        if self.kernel_time < 1 or self.kernel_time % 2 == 0:
            raise ConfigError(f"model.kernel_time: must be odd and >= 1, got {self.kernel_time}")
        if self.pool_width < 1:
            raise ConfigError(f"model.pool_width: must be >= 1, got {self.pool_width}")
        if self.pool_width > self.in_freq:
            raise ConfigError(f"model.pool_width: {self.pool_width} exceeds in_freq "
                              f"{self.in_freq}")
        if self.n_dense_layers < 1:
            raise ConfigError(f"model.n_dense_layers: must be >= 1, got {self.n_dense_layers}")
        if self.dense_width < 1:
            raise ConfigError(f"model.dense_width: must be >= 1, got {self.dense_width}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.dropout: must be in [0, 1), got {self.dropout}")
        if self.l2 < 0.0:
            raise ConfigError(f"model.l2: must be >= 0, got {self.l2}")
        if self.in_channels < 1:
            raise ConfigError(f"model.in_channels: must be >= 1, got {self.in_channels}")
        if self.in_freq < self.kernel_freq:
            raise ConfigError(f"model.in_freq: {self.in_freq} smaller than kernel_freq "
                              f"{self.kernel_freq}")
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
        if self.epochs < 0 or self.fine_tune_epochs < 0:
            raise ConfigError("train.epochs/fine_tune_epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size: must be >= 1, got {self.batch_size}")
        if self.early_stop_metric not in ("per", "loss"):
            raise ConfigError(f"train.early_stop_metric: expected 'per' or 'loss', "
                              f"got {self.early_stop_metric!r}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def validate(self) -> None:
        self.model.validate()
        self.train.validate()


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e})") from None
    return parse_config(text)


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
