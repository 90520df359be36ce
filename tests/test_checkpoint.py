"""Checkpoint persistence: bitwise round-trips, compatibility guards,
and the JSON/CSV writers."""

import json

import numpy as np
import pytest

from extremecast.checkpoint import (Checkpoint, check_feature_compatibility,
                                    load_checkpoint, load_dataset, read_json,
                                    save_checkpoint, save_dataset, write_csv,
                                    write_json)
from extremecast.data import ScalerParams
from extremecast.errors import CompatibilityError, DataError
from extremecast.features import FeatureSpec
from extremecast.pipeline import prepare
from extremecast.synthetic import persistence_task_table


def make_ckpt(params):
    return Checkpoint(
        model_kind="tcn",
        model_config={"n_features": 2, "lookback": 4, "channels": [3],
                      "kernel": 2, "dilations": [1], "dropout": 0.0},
        params=params,
        feature_names=["a", "b"],
        scaler=ScalerParams(columns={"a": (1.5, 2.0), "b": (0.0, 1.0)}),
        lookback=4,
        target="a",
        seed=7,
        best_val_loss=0.25,
        best_epoch=3,
    )


def test_round_trip_is_bitwise(tmp_path):
    awkward = np.array([0.1, 1.0 / 3.0, np.pi, -0.0, 5e-324, 1e308,
                        -2.2250738585072014e-308, 123456789.123456789])
    params = {"w": awkward.reshape(2, 4), "b": np.array([1e-17])}
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_ckpt(params), path)
    loaded = load_checkpoint(path)
    for name, arr in params.items():
        assert loaded.params[name].shape == arr.shape
        assert loaded.params[name].tobytes() == arr.tobytes()
    assert loaded.scaler.columns == {"a": (1.5, 2.0), "b": (0.0, 1.0)}
    assert loaded.feature_names == ["a", "b"]
    assert loaded.best_val_loss == 0.25
    assert loaded.best_epoch == 3
    assert loaded.seed == 7
    # same bytes when saved again
    save_checkpoint(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_schema_version_guard(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_ckpt({"w": np.zeros(2)}), path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(CompatibilityError, match="schema_version"):
        load_checkpoint(path)


def test_unknown_model_kind_guard(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_ckpt({"w": np.zeros(2)}), path)
    doc = json.loads(path.read_text())
    doc["model_kind"] = "perceptron"
    path.write_text(json.dumps(doc))
    with pytest.raises(CompatibilityError, match="perceptron"):
        load_checkpoint(path)
    doc["model_kind"] = ["tcn"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CompatibilityError, match="unknown model kind"):
        load_checkpoint(path)
    bad = make_ckpt({})
    bad.model_kind = "perceptron"
    with pytest.raises(CompatibilityError):
        save_checkpoint(bad, tmp_path / "bad.json")


def test_feature_compatibility_names_first_divergence():
    ckpt = make_ckpt({})
    check_feature_compatibility(ckpt, ["a", "b"])  # no error
    with pytest.raises(CompatibilityError, match="position 1.*'b'.*'c'"):
        check_feature_compatibility(ckpt, ["a", "c"])
    with pytest.raises(CompatibilityError, match="position 2"):
        check_feature_compatibility(ckpt, ["a", "b", "c"])


def test_wall_clock_not_persisted(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_ckpt({"w": np.zeros(1)}), path)
    doc = json.loads(path.read_text())
    assert "wall_clock_to_best" not in doc["train_state"]
    # checkpoints written with the old null slot still load
    doc["train_state"]["wall_clock_to_best"] = None
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path).best_epoch == 3


def test_write_json_sorted_and_utf8(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"b": 1, "a": [0.5, None], "c": "résumé"}, path)
    text = path.read_text(encoding="utf-8")
    assert text == '{"a":[0.5,null],"b":1,"c":"résumé"}\n'
    assert read_json(path) == {"a": [0.5, None], "b": 1, "c": "résumé"}
    with pytest.raises(DataError):
        (tmp_path / "junk.json").write_text("{nope")
        read_json(tmp_path / "junk.json")


def test_write_csv_repr_floats(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["name", "value"], [["x", 0.1], ["y", np.float64(2.0)],
                                        ["z", 3]])
    assert path.read_text(encoding="utf-8") == (
        "name,value\nx,0.1\ny,2.0\nz,3\n")


def test_dataset_round_trip_is_bitwise(tmp_path):
    table = persistence_task_table(seed=5, n_days=200)
    ds = prepare(table, lookback=6,
                 feature_spec=FeatureSpec(mode="minimal"))
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.feature_names == ds.feature_names
    assert loaded.lookback == ds.lookback
    assert loaded.target == ds.target
    assert loaded.mode == ds.mode
    assert loaded.scaler.columns == ds.scaler.columns
    assert loaded.split == ds.split
    assert loaded.dates == ds.dates
    assert loaded.audit == ds.audit
    assert loaded.target_raw.tobytes() == ds.target_raw.tobytes()
    for name in ("train", "val", "test"):
        a, b = ds.parts[name], loaded.parts[name]
        assert a.X.shape == b.X.shape
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.target_rows.tobytes() == b.target_rows.tobytes()
    # byte-identical re-save
    save_dataset(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_dataset_kind_and_version_guards(tmp_path):
    table = persistence_task_table(seed=5, n_days=120)
    ds = prepare(table, lookback=6,
                 feature_spec=FeatureSpec(mode="minimal"))
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(CompatibilityError, match="schema_version"):
        load_dataset(path)
    ckpt_path = tmp_path / "ckpt.json"
    save_checkpoint(make_ckpt({"w": np.zeros(1)}), ckpt_path)
    with pytest.raises(CompatibilityError, match="prepared-dataset"):
        load_dataset(ckpt_path)
