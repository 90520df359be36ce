"""Run configuration: one JSON document mapped onto the package's config
dataclasses.

Structure is enforced by the published schema
(``schemas/run_config.schema.json``): every level sets
``additionalProperties: false``, so unknown keys are rejected with the
offending path.  Value constraints beyond the schema (cross-field rules)
live in each dataclass's ``validate``.  The single top-level ``seed`` and
``augment`` sections are threaded into the training config so one document
fully determines a run.  The model's ``n_features`` and ``lookback`` are not
settable: ``training.fit_model_config`` takes them from the dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from .augment import AugmentConfig
from .errors import ConfigError
from .features import FeatureSpec
from .losses import LossConfig
from .metrics import TAIL_Q
from .model import ModelConfig
from .optim import OptimConfig
from .training import TrainConfig


@dataclass
class DatasetConfig:
    csv_path: str = ""
    target: str = "tempmax"
    lookback: int = 30
    train_frac: float = 0.8
    val_frac: float = 0.2

    def validate(self) -> "DatasetConfig":
        if self.lookback < 1:
            raise ConfigError("dataset.lookback must be >= 1")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("dataset.train_frac must be in (0, 1)")
        if not 0.0 < self.val_frac < 1.0:
            raise ConfigError("dataset.val_frac must be in (0, 1)")
        return self


@dataclass
class EvalConfig:
    tail_q: float = TAIL_Q

    def validate(self) -> "EvalConfig":
        if not 0.0 < self.tail_q <= 0.5:
            raise ConfigError("eval.tail_q must be in (0, 0.5]")
        return self


@dataclass
class RunConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    features: FeatureSpec = field(default_factory=FeatureSpec)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> "RunConfig":
        self.dataset.validate()
        self.model.validate()
        self.training.validate()
        self.eval.validate()
        return self


def load_schema(name: str) -> dict:
    ref = resources.files("extremecast.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _schema_check(doc: dict, schema_name: str, what: str) -> None:
    schema = load_schema(schema_name)
    validator = jsonschema.Draft202012Validator(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at {path}: {error.message}")


def validate_config_dict(doc: dict) -> None:
    _schema_check(doc, "run_config.schema.json", "config")


def validate_report_dict(doc: dict) -> None:
    _schema_check(doc, "report.schema.json", "report")


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    validate_config_dict(doc)

    seed = int(doc.get("seed", 0))
    dataset = DatasetConfig(**doc.get("dataset", {}))

    feats = dict(doc.get("features", {}))
    for key in ("enabled_groups", "rolling_windows"):
        if key in feats:
            feats[key] = tuple(feats[key])
    features = FeatureSpec(**feats)

    augment = AugmentConfig(**doc.get("augment", {}))

    model = ModelConfig(**doc.get("model", {}))

    training_doc = dict(doc.get("training", {}))
    loss = LossConfig(**training_doc.pop("loss", {}))
    optim = OptimConfig(**training_doc.pop("optim", {}))
    training = TrainConfig(seed=seed, loss=loss, optim=optim,
                           augment=augment, **training_doc)

    cfg = RunConfig(seed=seed, dataset=dataset, features=features,
                    augment=augment, model=model, training=training,
                    eval=EvalConfig(**doc.get("eval", {})))
    return cfg.validate()


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(doc)
