"""Run configuration: one JSON document mapped onto the package's config
dataclasses.

This module owns the run config's own sections (``RunConfig``,
``DatasetConfig``, ``TrainConfig``), ``from_json``, which also reads a
checkpoint's model config, and the seed rule ``0 <= seed < 2**64``
(``check_seed``), which ``--seed`` obeys too: ``Rng`` masks seeds to 64
bits.

Each setting is declared once, as a field of the dataclass that owns it.
``from_json`` builds a dataclass straight from its JSON object, refusing,
with the key's dotted path, an unknown key and a value of the wrong JSON
type: an ``int`` field takes a JSON integer (not ``true`` or ``7.0``), a
``float`` field a finite integer or float, a ``bool`` or ``str`` field its
own type, a ``tuple`` field a list of integers and a nested dataclass field
a JSON object.  Values pass through as parsed, uncoerced.  Ranges, enums
and cross-field rules live in each dataclass's ``validate``.

The single top-level ``seed`` and ``augment`` sections are threaded into the
training config so one document fully determines a run; ``training.seed``
and ``training.augment`` are therefore not settable, and neither are the
model's ``n_features`` and ``lookback``: ``training.fit_model_config`` takes
them from the dataset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass
from typing import get_type_hints

from .augment import AugmentConfig
from .errors import ConfigError
from .features import FeatureSpec
from .losses import LossConfig
from .model import ModelConfig
from .optim import OptimConfig

# Fields a run config may not set, and what sets them instead.
_SET_ELSEWHERE = {"model.n_features": "the dataset",
                 "model.lookback": "the dataset",
                 "training.seed": "the top-level seed",
                 "training.augment": "the top-level augment section"}

_JSON_TYPES = {int: "a JSON integer", float: "a finite number",
               bool: "true or false", str: "a string",
               tuple: "a list of integers"}


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed`` if ``0 <= seed < 2**64``, else ConfigError naming ``name``."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


@dataclass
class DatasetConfig:
    csv_path: str = ""
    target: str = "tempmax"
    lookback: int = 30
    train_frac: float = 0.8
    val_frac: float = 0.2

    def validate(self) -> "DatasetConfig":
        if not self.target:
            raise ConfigError("dataset.target must not be empty")
        if self.lookback < 1:
            raise ConfigError("dataset.lookback must be >= 1")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("dataset.train_frac must be in (0, 1)")
        if not 0.0 < self.val_frac < 1.0:
            raise ConfigError("dataset.val_frac must be in (0, 1)")
        return self


@dataclass
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 300
    patience: int = 25
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> "TrainConfig":
        if self.batch_size < 2:
            raise ConfigError("training.batch_size must be >= 2")
        if self.patience < 1:
            raise ConfigError("training.patience must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("training.max_epochs must be >= 1")
        self.loss.validate()
        self.optim.validate()
        self.augment.validate()
        return self


@dataclass
class RunConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    features: FeatureSpec = field(default_factory=FeatureSpec)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "RunConfig":
        check_seed(self.seed)
        self.dataset.validate()
        self.features.validate()
        self.model.validate()
        self.training.validate()
        return self


def _is_json(value, kind) -> bool:
    if kind is float:
        if type(value) not in (int, float):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:       # an integer beyond the float range
            return False
    if kind is tuple:
        return (type(value) in (list, tuple)
                and all(type(v) is int for v in value))
    return type(value) is kind


def from_json(cls, doc, path: str = ""):
    """An instance of dataclass ``cls`` from the JSON object ``doc`` found at
    the dotted ``path`` ("" for the document).  A ``tuple`` field also takes
    a tuple, as an in-memory checkpoint's model config holds."""
    if type(doc) is not dict:
        raise ConfigError(
            f"{path or 'config document'} must be a JSON object, got {doc!r}")
    kinds = get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in kinds:
            raise ConfigError(f"{path or '<root>'}: unknown key {key!r}")
        if where in _SET_ELSEWHERE:
            raise ConfigError(
                f"{where} is set by {_SET_ELSEWHERE[where]}, not the config")
        kind = kinds[key]
        if is_dataclass(kind):
            value = from_json(kind, value, where)
        elif not _is_json(value, kind):
            raise ConfigError(
                f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
        elif kind is tuple:
            value = tuple(value)
        values[key] = value
    return cls(**values)


def run_config_from_dict(doc) -> RunConfig:
    cfg = from_json(RunConfig, doc)
    cfg.training.seed = cfg.seed
    cfg.training.augment = cfg.augment
    return cfg.validate()


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return run_config_from_dict(doc)
