"""Run-config schema validation: defaults, dotted error paths, unknown-key
rejection, seed/augment threading, and README's example document."""

import json
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from extremecast.augment import AugmentConfig
from extremecast.config import (DatasetConfig, RunConfig, load_run_config,
                                load_schema, run_config_from_dict,
                                validate_report_dict)
from extremecast.errors import ConfigError
from extremecast.features import FeatureSpec
from extremecast.metrics import evaluation_report
from extremecast.pipeline import prepare
from extremecast.synthetic import persistence_task_table
from extremecast.training import MODELS, TrainConfig, fit_model_config


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


def _schema_leaves(node, path=()):
    props = node.get("properties")
    if props is None:
        return {".".join(path)}
    return set().union(*(_schema_leaves(v, path + (k,)) for k, v in props.items()))


def _settable_fields(obj, path=()):
    out = set()
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out |= _settable_fields(value, path + (f.name,))
        else:
            out.add(".".join(path + (f.name,)))
    return out


def test_schema_leaves_are_the_dataclass_fields():
    # a key in the schema but not in its dataclass would pass validation and
    # then fail in the constructor; one in the dataclass alone is unreachable
    leaves = _schema_leaves(load_schema("run_config.schema.json"))
    cfg = RunConfig()
    settable = {"seed"} | {
        f"{section}.{name}"
        for section in ("dataset", "features", "augment", "model")
        for name in _settable_fields(getattr(cfg, section))}
    # the training section threads the top-level seed and augment in
    settable |= {f"training.{name}" for name in _settable_fields(cfg.training)
                 if name != "seed" and not name.startswith("augment.")}
    settable -= {"model.n_features", "model.lookback"}
    assert leaves == settable
    assert len(leaves) == 33


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
    # the report schema's enum is the one other list of model kinds
    schema = load_schema("report.schema.json")
    assert schema["properties"]["model_kind"]["enum"] == list(MODELS)


def test_report_schema_accepts_real_reports():
    import numpy as np
    report = evaluation_report(np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([1.1, 2.0, 2.9, 4.2]))
    report["model_kind"] = "persistence"
    report["best_val_loss"] = 0.5
    report["partition"] = "test"
    validate_report_dict(report)
    report["surprise"] = True
    with pytest.raises(ConfigError, match="surprise"):
        validate_report_dict(report)
