"""Run-config loading: defaults, dotted error paths, unknown-key
rejection, every type and range constraint, seed/augment threading, README's
example document, and the report schema the CLI's reports follow."""

import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast.augment import AugmentConfig
from extremecast.config import (DatasetConfig, RunConfig, load_run_config,
                                run_config_from_dict)
from extremecast.errors import ConfigError
from extremecast.features import FeatureSpec
from extremecast.metrics import evaluation_report
from extremecast.pipeline import prepare
from extremecast.training import MODELS, TrainConfig, fit_model_config
from persistence_task import persistence_task_table

REPORT_SCHEMA = json.loads(
    Path(__file__).with_name("report.schema.json").read_text(encoding="utf-8"))


def validate_report(doc: dict) -> None:
    """Raise ``jsonschema.ValidationError`` unless ``doc`` is a valid report."""
    jsonschema.validate(doc, REPORT_SCHEMA,
                        cls=jsonschema.Draft202012Validator)


# The settable values of a run config and their JSON types.
SETTINGS = {
    "seed": int,
    "dataset.csv_path": str, "dataset.target": str, "dataset.lookback": int,
    "dataset.train_frac": float, "dataset.val_frac": float,
    "features.mode": str, "features.top_k": int,
    "augment.enabled": bool, "augment.jitter_sigma": float,
    "augment.scale_low": float, "augment.scale_high": float,
    "augment.warp_knots": int, "augment.warp_sigma": float,
    "model.embed_dim": int, "model.lstm_hidden": int, "model.gru_hidden": int,
    "model.n_states": int, "model.n_heads": int, "model.stream_dim": int,
    "model.dropout": float, "model.amp_gain": float, "model.n_layers": int,
    "training.batch_size": int, "training.max_epochs": int,
    "training.patience": int,
    "training.loss.alpha_high": float, "training.loss.alpha_low": float,
    "training.loss.beta": float,
    "training.optim.lr_max": float, "training.optim.weight_decay": float,
    "training.optim.clip_norm": float, "training.optim.t0": int,
}
SECTIONS = ("dataset", "features", "augment", "model", "training",
            "training.loss", "training.optim")


def set_path(doc: dict, path: str, value) -> dict:
    """``doc`` with its dotted ``path`` set to ``value``, making sections."""
    *sections, key = path.split(".")
    holder = doc
    for section in sections:
        holder = holder.setdefault(section, {})
    holder[key] = value
    return doc


def _names(path: str) -> str:
    """A pattern matching the dotted path as a whole, not as a prefix."""
    return rf"(?<![\w.]){re.escape(path)}(?![\w.])"


def test_empty_document_yields_defaults():
    cfg = run_config_from_dict({})
    assert cfg == RunConfig().validate()
    assert cfg.training.batch_size == 64
    assert cfg.model.n_states == 9


def test_negative_lookback_names_dotted_path():
    with pytest.raises(ConfigError, match=r"dataset\.lookback"):
        run_config_from_dict({"dataset": {"lookback": -3}})


def test_unknown_keys_rejected_with_location():
    with pytest.raises(ConfigError, match="bogus"):
        run_config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="dataset.*extra_knob"):
        run_config_from_dict({"dataset": {"extra_knob": 1}})
    with pytest.raises(ConfigError, match="training.*momentum"):
        run_config_from_dict({"training": {"optim": {"momentum": 0.9}}})
    # the dataset alone sets the first three; the rest are fixed by the recipe
    for section, key, value in (("model", "lookback", 21),
                                ("model", "n_features", 99),
                                ("training", "feature_mode", "raw_only"),
                                ("features", "enabled_groups", ["calendar"]),
                                ("features", "rolling_windows", [7, 30]),
                                ("features", "sg_window", 7),
                                ("features", "sg_poly", 3),
                                ("features", "zscore_flag_threshold", 2.0),
                                ("features", "climatology_std_floor", 1e-8),
                                ("augment", "max_warp_retries", 10),
                                ("training", "train_fraction", 1.0)):
        with pytest.raises(ConfigError, match=f"{section}.*{key}"):
            run_config_from_dict({section: {key: value}})
    with pytest.raises(ConfigError, match="<root>.*'eval'"):
        run_config_from_dict({"eval": {"tail_q": 0.05}})
    # removed settings: the loss's tails are metrics.TAIL_Q, and AdamW/SGDR
    # keep their published constants
    for section, key, value in (("loss", "kind", "extreme"), ("loss", "delta", 1.0),
                                ("loss", "q_hi", 0.95), ("loss", "q_lo", 0.05),
                                ("optim", "beta1", 0.9), ("optim", "beta2", 0.999),
                                ("optim", "eps", 1e-8), ("optim", "lr_min", 0.0),
                                ("optim", "t_mult", 2)):
        with pytest.raises(ConfigError, match=f"training.{section}.*'{key}'"):
            run_config_from_dict({"training": {section: {key: value}}})


def _leaf_paths(obj, path=()):
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_leaf_paths(value, path + (f.name,)))
        else:
            out[".".join(path + (f.name,))] = value
    return out


def test_settable_paths_are_the_33_settings():
    # every leaf of the config dataclasses, set to its default alone; the
    # dataset sets the model's shape and the top level training's seed and
    # augment section, so the loader refuses those
    leaves = _leaf_paths(RunConfig())
    settable = set()
    for path, default in leaves.items():
        try:
            run_config_from_dict(set_path({}, path, default))
        except ConfigError as exc:
            # named by its own path or its section's (training.augment)
            parts = path.split(".")
            assert any(re.search(_names(".".join(parts[:i])), str(exc))
                       for i in range(2, len(parts) + 1)), (path, str(exc))
        else:
            settable.add(path)
    assert settable == set(SETTINGS)
    assert len(settable) == 33
    assert set(leaves) - settable == {
        "model.n_features", "model.lookback", "training.seed",
        *(f"training.augment.{f.name}" for f in fields(AugmentConfig))}


# One case per constraint the run config held as a JSON schema: each bound,
# the feature-mode enum, the target's minimum length, each setting's JSON
# type, and each section's being an object.
BOUNDS = [
    ("seed", -1), ("dataset.target", ""), ("dataset.lookback", 0),
    ("dataset.train_frac", 0), ("dataset.train_frac", 1),
    ("dataset.val_frac", 0), ("dataset.val_frac", 1.0),
    ("features.mode", "everything"), ("features.top_k", 0),
    ("augment.jitter_sigma", -0.01), ("augment.scale_low", 0),
    ("augment.scale_high", 0.0), ("augment.warp_knots", 1),
    ("augment.warp_sigma", -0.01),
    ("model.embed_dim", 1), ("model.lstm_hidden", 0), ("model.gru_hidden", 0),
    ("model.n_states", 1), ("model.n_heads", 0), ("model.stream_dim", 0),
    ("model.dropout", -0.1), ("model.dropout", 1), ("model.amp_gain", -1e-9),
    ("model.n_layers", 0),
    ("training.batch_size", 1), ("training.max_epochs", 0),
    ("training.patience", 0),
    ("training.loss.alpha_high", -0.5), ("training.loss.alpha_low", -0.5),
    ("training.loss.beta", 0),
    ("training.optim.lr_max", 0.0), ("training.optim.weight_decay", -1e-4),
    ("training.optim.clip_norm", 0), ("training.optim.t0", 0),
]
WRONG_TYPE = {int: "7", float: "0.5", bool: 1, str: 5}
CONSTRAINTS = (
    BOUNDS
    + [(path, WRONG_TYPE[kind]) for path, kind in SETTINGS.items()]
    + [(path, None) for path in SETTINGS]
    + [(path, True) for path, kind in SETTINGS.items() if kind is float]
    + [(section, value) for section in SECTIONS for value in (5, [], "x")])
# Values the schema let through as integers or numbers: most then failed
# later with another exit code, or not at all.
NON_INTEGRAL_OR_NON_FINITE = (
    [(path, 7.0) for path, kind in SETTINGS.items() if kind is int]
    + [(path, value) for path, kind in SETTINGS.items() if kind is float
       for value in (math.nan, math.inf, -math.inf, 10**400)])


@pytest.mark.parametrize("path,value", CONSTRAINTS)
def test_each_constraint_names_its_path(path, value):
    with pytest.raises(ConfigError, match=_names(path)):
        run_config_from_dict(set_path({}, path, value))


@pytest.mark.parametrize("path,value", NON_INTEGRAL_OR_NON_FINITE,
                         ids=lambda v: "1e400" if v == 10**400 else None)
def test_non_integral_or_non_finite_values_name_their_path(path, value):
    with pytest.raises(ConfigError, match=_names(path)):
        run_config_from_dict(set_path({}, path, value))


def _config_classes(cls):
    yield cls
    for kind in get_type_hints(cls).values():
        if is_dataclass(kind):
            yield from _config_classes(kind)


# Every float field of every config dataclass: the run config's sections and
# each model kind's config, as built in Python without ``from_json``.
FLOAT_FIELDS = [
    (cls, name)
    for cls in sorted(set(_config_classes(RunConfig)) | {c for c, _ in MODELS.values()},
                      key=lambda c: c.__name__)
    for name, kind in get_type_hints(cls).items() if kind is float]


def test_float_field_table_covers_every_config():
    assert len(FLOAT_FIELDS) == 15
    assert {cls.__name__ for cls, _ in FLOAT_FIELDS} == {
        "AugmentConfig", "DatasetConfig", "LossConfig", "ModelConfig",
        "OptimConfig", "TcnConfig"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_validate_refuses_non_finite_float_fields(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        replace(cls(), **{name: value}).validate()


# Hypothesis: documents over the real section and key names, each value of
# its field's type, then one path (a setting, a section, a field the loader
# refuses or an unknown key) set to any JSON value.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400),
    st.floats(), st.text(max_size=3), st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from(["mode", "beta", "x"]), st.integers(0, 3),
                    max_size=2))
TYPICAL = {int: st.integers(-1, 40), float: st.floats(-0.25, 1.25),
           bool: st.booleans(),
           str: st.sampled_from(["full", "minimal", "raw_only", "tempmax", ""])}


def _section(cls):
    hints = get_type_hints(cls)
    return st.fixed_dictionaries({}, optional={
        name: _section(kind) if is_dataclass(kind) else TYPICAL[kind]
        for name, kind in hints.items()})


@st.composite
def config_docs(draw):
    doc = draw(_section(RunConfig))
    if draw(st.booleans()):
        paths = sorted(_leaf_paths(RunConfig())) + list(SECTIONS)
        path = draw(st.sampled_from(paths + ["bogus", "training.loss.bogus"]))
        set_path(doc, path, draw(JSON_VALUES))
    return doc


def _assert_field_types(obj):
    for name, kind in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(kind):
            _assert_field_types(value)
        elif kind is float:
            assert type(value) in (int, float) and math.isfinite(value), name
        else:
            assert type(value) is kind, name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_docs())
def test_any_document_loads_typed_or_raises_config_error(doc):
    try:
        cfg = run_config_from_dict(doc)
    except ConfigError:
        return
    _assert_field_types(cfg)
    assert cfg.training.seed == cfg.seed
    assert cfg.training.augment is cfg.augment


def test_enum_and_range_violations_name_paths():
    with pytest.raises(ConfigError, match=r"features\.mode"):
        run_config_from_dict({"features": {"mode": "everything"}})
    with pytest.raises(ConfigError, match=r"model\.dropout"):
        run_config_from_dict({"model": {"dropout": 1.5}})
    with pytest.raises(ConfigError, match=r"training\.loss\.beta"):
        run_config_from_dict({"training": {"loss": {"beta": 0}}})
    with pytest.raises(ConfigError, match=r"training\.batch_size"):
        run_config_from_dict({"training": {"batch_size": 1}})


def test_zero_val_frac_is_a_config_error():
    with pytest.raises(ConfigError, match=r"dataset\.val_frac"):
        run_config_from_dict({"dataset": {"val_frac": 0}})
    with pytest.raises(ConfigError, match=r"dataset\.val_frac"):
        DatasetConfig(val_frac=0.0).validate()


def test_inverted_scale_range_is_a_config_error():
    inverted = {"scale_low": 1.2, "scale_high": 0.8}
    with pytest.raises(ConfigError, match=r"augment\.scale_low"):
        run_config_from_dict({"augment": inverted})
    with pytest.raises(ConfigError, match=r"augment\.scale_low"):
        TrainConfig(augment=AugmentConfig(**inverted)).validate()


def test_seed_and_augment_are_threaded_into_training():
    cfg = run_config_from_dict({"seed": 11,
                                "augment": {"enabled": False,
                                            "jitter_sigma": 0.5}})
    assert cfg.seed == 11
    assert cfg.training.seed == 11
    assert cfg.training.augment.enabled is False
    assert cfg.training.augment.jitter_sigma == 0.5
    assert cfg.augment is cfg.training.augment


def test_nested_loss_and_optim_sections():
    cfg = run_config_from_dict({
        "training": {"loss": {"alpha_high": 3.0, "beta": 0.25},
                     "optim": {"lr_max": 0.01, "t0": 5}}})
    assert cfg.training.loss.alpha_high == 3.0
    assert cfg.training.loss.beta == 0.25
    assert cfg.training.optim.lr_max == 0.01
    assert cfg.training.optim.t0 == 5


def test_model_lookback_defaults_to_dataset_lookback():
    cfg = run_config_from_dict({"dataset": {"lookback": 14}})
    ds = prepare(persistence_task_table(0, n_days=200),
                 lookback=cfg.dataset.lookback,
                 feature_spec=FeatureSpec(mode="minimal"))
    assert fit_model_config(cfg.model, ds).lookback == 14
    # the dataset's lookback wins over any the model config was built with
    assert fit_model_config(replace(cfg.model, lookback=21), ds).lookback == 14


def test_readme_config_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"),
                      re.DOTALL)
    cfg = run_config_from_dict(json.loads(block.group(1)))
    assert cfg.seed == 7 and cfg.augment.enabled


def test_load_run_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"seed": 2}))
    assert load_run_config(good).seed == 2
    with pytest.raises(ConfigError, match="JSON object"):
        run_config_from_dict([1, 2])


def test_report_model_kinds_are_the_training_models():
    # the test schema's enum must list every model kind a report can name
    assert REPORT_SCHEMA["properties"]["model_kind"]["enum"] == list(MODELS)


def test_report_schema_accepts_real_reports():
    import numpy as np
    report = evaluation_report(np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([1.1, 2.0, 2.9, 4.2]))
    report["model_kind"] = "persistence"
    report["best_val_loss"] = 0.5
    report["partition"] = "test"
    validate_report(report)
    report["surprise"] = True
    with pytest.raises(jsonschema.ValidationError, match="surprise"):
        validate_report(report)
