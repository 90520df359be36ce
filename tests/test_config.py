"""Run-config schema validation: defaults, dotted error paths, unknown-key
rejection, seed/augment threading, and document round-trips."""

import json

import pytest

from extremecast.augment import AugmentConfig
from extremecast.config import (DatasetConfig, RunConfig, load_run_config,
                                run_config_from_dict, validate_config_dict,
                                validate_report_dict)
from extremecast.errors import ConfigError
from extremecast.metrics import evaluation_report
from extremecast.training import TrainConfig


def test_empty_document_yields_defaults():
    cfg = run_config_from_dict({})
    assert cfg == RunConfig().validate()
    assert cfg.training.batch_size == 64
    assert cfg.model.n_states == 9
    assert cfg.eval.tail_q == 0.05


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


def test_enum_and_range_violations_name_paths():
    with pytest.raises(ConfigError, match=r"features\.mode"):
        run_config_from_dict({"features": {"mode": "everything"}})
    with pytest.raises(ConfigError, match=r"model\.dropout"):
        run_config_from_dict({"model": {"dropout": 1.5}})
    with pytest.raises(ConfigError, match=r"eval\.tail_q"):
        run_config_from_dict({"eval": {"tail_q": 0.9}})
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
        "training": {"loss": {"kind": "huber", "delta": 2.0},
                     "optim": {"lr_max": 0.01, "t0": 5}}})
    assert cfg.training.loss.kind == "huber"
    assert cfg.training.loss.delta == 2.0
    assert cfg.training.optim.lr_max == 0.01
    assert cfg.training.optim.t0 == 5


def test_model_lookback_defaults_to_dataset_lookback():
    cfg = run_config_from_dict({"dataset": {"lookback": 14}})
    assert cfg.model.lookback == 14
    explicit = run_config_from_dict({"dataset": {"lookback": 14},
                                     "model": {"lookback": 21}})
    assert explicit.model.lookback == 21


def test_document_round_trip():
    cfg = run_config_from_dict({"seed": 3,
                                "features": {"mode": "minimal", "top_k": 5},
                                "model": {"n_states": 4}})
    doc = cfg.to_dict()
    validate_config_dict(doc)
    assert run_config_from_dict(doc) == cfg


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
