"""End-to-end command-line workflow: artifact layout, determinism,
exit codes, and the explain/augment/sweep outputs."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from extremecast.cli import main
from extremecast.config import validate_report_dict
from extremecast.synthetic import sinusoid_ar_table, table_to_csv
from extremecast.training import FEATURE_MODES, MODELS

CONFIG = {
    "seed": 7,
    "dataset": {"target": "tempmax", "lookback": 8,
                "train_frac": 0.8, "val_frac": 0.2},
    "features": {"mode": "minimal"},
    "augment": {"enabled": False},
    "model": {"embed_dim": 8, "lstm_hidden": 4, "gru_hidden": 4,
              "n_states": 3, "n_heads": 2, "stream_dim": 8,
              "dropout": 0.0, "n_layers": 1},
    "training": {"batch_size": 32, "max_epochs": 3, "patience": 5},
    "eval": {"tail_q": 0.05},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One prepared dataset + one trained checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    table_to_csv(sinusoid_ar_table(seed=11, n_days=400), root / "raw.csv")
    doc = dict(CONFIG)
    doc["dataset"] = dict(CONFIG["dataset"], csv_path=str(root / "raw.csv"))
    (root / "config.json").write_text(json.dumps(doc))
    assert main(["prepare", "--config", str(root / "config.json"),
                 "--out", str(root / "data.json")]) == 0
    assert main(["train", "--config", str(root / "config.json"),
                 "--data", str(root / "data.json"),
                 "--out", str(root / "ckpt.json")]) == 0
    return root


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------- workflow


def test_prepare_outputs(work, capsys):
    data = json.loads((work / "data.json").read_text())
    assert data["kind"] == "prepared_dataset"
    audit = read_rows(work / "data_audit.csv")
    assert audit[0] == ["feature", "group", "corr", "chosen"]
    assert len(audit) > 1
    chosen = [r for r in audit[1:] if r[3] == "True"]
    assert len(chosen) == len(data["feature_names"])


def test_prepare_rerun_is_byte_identical(work):
    out2 = work / "data_again.json"
    assert main(["prepare", "--config", str(work / "config.json"),
                 "--out", str(out2)]) == 0
    assert out2.read_bytes() == (work / "data.json").read_bytes()
    assert (work / "data_again_audit.csv").read_bytes() == \
        (work / "data_audit.csv").read_bytes()


def test_train_rerun_is_byte_identical(work):
    out2 = work / "ckpt_again.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(out2)]) == 0
    assert out2.read_bytes() == (work / "ckpt.json").read_bytes()
    assert (work / "ckpt_again_history.csv").read_bytes() == \
        (work / "ckpt_history.csv").read_bytes()


def test_train_history_columns(work):
    rows = read_rows(work / "ckpt_history.csv")
    assert rows[0] == ["epoch", "train_loss", "val_loss", "lr"]
    assert len(rows) == 1 + CONFIG["training"]["max_epochs"]


def test_evaluate_report_schema_and_residuals(work):
    report_path = work / "report.json"
    assert main(["evaluate", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    validate_report_dict(report)
    assert report["model_kind"] == "dual_stream"
    assert report["partition"] == "test"
    assert isinstance(report["best_val_loss"], float)
    rows = read_rows(work / "report_residuals.csv")
    assert rows[0] == ["date", "y", "yhat", "e"]
    assert len(rows) == 1 + report["n_test"]
    # identical rerun
    again = work / "report2.json"
    assert main(["evaluate", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--report", str(again)]) == 0
    assert again.read_bytes() == report_path.read_bytes()


def test_evaluate_config_sets_tail_q(work, tmp_path):
    doc = json.loads((work / "config.json").read_text())
    doc["eval"]["tail_q"] = 0.1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    n_high = []
    for extra in ([], ["--config", str(config)]):
        report = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", str(work / "ckpt.json"),
                     "--data", str(work / "data.json"),
                     "--report", str(report), *extra]) == 0
        n_high.append(json.loads(report.read_text())["n_high"])
    assert n_high[1] > n_high[0]


@pytest.mark.parametrize("kind", MODELS)
def test_every_model_kind_trains_and_evaluates_byte_identically(work, kind):
    runs = []
    for run in ("a", "b"):
        stem = f"kind_{kind}_{run}"
        assert main(["train", "--config", str(work / "config.json"),
                     "--data", str(work / "data.json"),
                     "--out", str(work / f"{stem}.json"),
                     "--model", kind]) == 0
        assert main(["evaluate", "--checkpoint", str(work / f"{stem}.json"),
                     "--data", str(work / "data.json"),
                     "--report", str(work / f"{stem}_report.json")]) == 0
        runs.append([(work / f"{stem}{suffix}").read_bytes()
                     for suffix in (".json", "_history.csv", "_report.json",
                                    "_report_residuals.csv")])
    assert runs[0] == runs[1]
    assert json.loads(runs[0][2])["model_kind"] == kind


def test_baseline_persistence_trivial_checkpoint(work):
    ckpt_path = work / "pers.json"
    report_path = work / "pers_report.json"
    assert main(["baseline", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--model", "persistence",
                 "--out", str(ckpt_path),
                 "--report", str(report_path)]) == 0
    doc = json.loads(ckpt_path.read_text())
    assert doc["model_kind"] == "persistence"
    assert doc["params"] == {}
    report = json.loads(report_path.read_text())
    validate_report_dict(report)
    assert report["model_kind"] == "persistence"
    assert report["metrics"]["rmse"] > 0.0


def test_seed_resolution_order(work, monkeypatch):
    cfg_noseed = work / "config_noseed.json"
    doc = json.loads((work / "config.json").read_text())
    doc.pop("seed")
    cfg_noseed.write_text(json.dumps(doc))

    def seed_of(args):
        out = work / "seed_probe.json"
        assert main(["train", "--config", str(args),
                     "--data", str(work / "data.json"),
                     "--out", str(out), "--model", "persistence"]) == 0
        return json.loads(out.read_text())["seed"]

    monkeypatch.delenv("EXTREMECAST_SEED", raising=False)
    assert seed_of(work / "config.json") == 7     # config seed
    assert seed_of(cfg_noseed) == 0               # default
    monkeypatch.setenv("EXTREMECAST_SEED", "99")
    assert seed_of(cfg_noseed) == 99              # env fallback
    assert seed_of(work / "config.json") == 7     # config beats env
    out = work / "seed_probe.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--model", "persistence",
                 "--seed", "123"]) == 0
    assert json.loads(out.read_text())["seed"] == 123   # flag beats all
    monkeypatch.setenv("EXTREMECAST_SEED", "not-a-number")
    assert main(["train", "--config", str(cfg_noseed),
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--model", "persistence"]) == 2


# ------------------------------------------------------------------ explain


def test_explain_occlusion_rows(work):
    out = work / "occ.csv"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "occlusion", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["feature", "delta_rmse", "occluded_rmse",
                       "baseline_rmse"]
    names = json.loads((work / "data.json").read_text())["feature_names"]
    assert [r[0] for r in rows[1:]] == names


def test_explain_attention_rows_are_stochastic(work):
    out = work / "attn.csv"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "attention", "--out", str(out),
                 "--sample", "3"]) == 0
    rows = read_rows(out)
    L = CONFIG["dataset"]["lookback"]
    assert len(rows) == 1 + L and len(rows[1]) == L
    for row in rows[1:]:
        assert abs(sum(map(float, row)) - 1.0) <= 1e-9


def test_explain_states_rows_are_stochastic(work):
    out = work / "states.csv"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "states", "--out", str(out)]) == 0
    rows = read_rows(out)
    N = CONFIG["model"]["n_states"]
    assert rows[0] == [f"state{j}" for j in range(N)]
    for row in rows[1:]:
        assert abs(sum(map(float, row)) - 1.0) <= 1e-9
    trans = read_rows(work / "states_transition.csv")
    assert len(trans) == 1 + N
    for row in trans[1:]:
        assert abs(sum(map(float, row)) - 1.0) <= 1e-9


def test_explain_kmeans_k_distinct_labels(work):
    out = work / "km.csv"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "kmeans", "--out", str(out), "--k", "3"]) == 0
    rows = read_rows(out)
    assert rows[0] == ["date", "cluster"]
    labels = {r[1] for r in rows[1:]}
    assert labels == {"0", "1", "2"}
    centroids = read_rows(work / "km_centroids.csv")
    assert centroids[0] == ["cluster", "year", "month", "tempmax"]
    assert len(centroids) == 4


def test_explain_pdp_and_residuals(work):
    out = work / "pdp.csv"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "pdp", "--feature", "tempmax",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["value", "mean_prediction", "mean_prediction_scaled"]
    assert len(rows) == 21
    # missing --feature is a config error
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "pdp", "--out", str(out)]) == 2
    res_out = work / "resid.json"
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "residuals", "--out", str(res_out)]) == 0
    diag = json.loads(res_out.read_text())
    assert set(diag) >= {"n", "mean", "std", "acf", "band", "histogram", "qq"}


def test_explain_permutation_deterministic(work):
    out1, out2 = work / "perm1.csv", work / "perm2.csv"
    for out in (out1, out2):
        assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                     "--data", str(work / "data.json"),
                     "--method", "permutation", "--out", str(out),
                     "--repeats", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert rows[0] == ["feature", "mean_drop", "std", "repeats"]


def test_explain_internals_need_dual_stream(work):
    ckpt = work / "pers_for_internals.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(ckpt), "--model", "persistence"]) == 0
    assert main(["explain", "--checkpoint", str(ckpt),
                 "--data", str(work / "data.json"),
                 "--method", "attention", "--out", str(work / "x.csv")]) == 5


# --------------------------------------------------------------- exit codes


def test_unknown_explain_method_exit_2(work, capsys):
    code = main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(work / "data.json"),
                 "--method", "shapley", "--out", str(work / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "shapley" in err and "occlusion" in err and "states" in err


def test_invalid_config_exit_2(work, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((work / "config.json").read_text())
    doc["dataset"]["lookback"] = "eight"
    bad.write_text(json.dumps(doc))
    assert main(["prepare", "--config", str(bad),
                 "--out", str(tmp_path / "d.json")]) == 2
    assert "dataset.lookback" in capsys.readouterr().err
    assert main(["prepare", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d.json")]) == 2


def test_bad_data_exit_3(work, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(garbage),
                 "--out", str(tmp_path / "c.json")]) == 3


@pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
def test_infinite_csv_cell_exit_3(work, tmp_path, capsys, token):
    lines = (work / "raw.csv").read_text().splitlines()
    col = lines[0].split(",").index("tempmax")
    cells = lines[5].split(",")
    cells[col] = token
    lines[5] = ",".join(cells)
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["prepare", "--config", str(work / "config.json"),
                 "--input", str(bad), "--out", str(tmp_path / "d.json")]) == 3
    err = capsys.readouterr().err
    assert "row 6" in err and "'tempmax'" in err and token in err


def test_feature_mismatch_exit_5(work, tmp_path, capsys):
    doc = json.loads((work / "data.json").read_text())
    victim = doc["feature_names"][1]
    doc["feature_names"][1] = "intruder"
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(doc))
    code = main(["evaluate", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(mismatched),
                 "--report", str(tmp_path / "r.json")])
    assert code == 5
    err = capsys.readouterr().err
    assert "position 1" in err and victim in err and "intruder" in err


TAMPERINGS = {
    "extra_config_key": lambda doc: doc["model_config"].update(bogus=1),
    "no_params_field": lambda doc: doc.pop("params"),
    "param_data_short_of_shape":
        lambda doc: doc["params"]["head.W"]["data"].pop(),
    "missing_param": lambda doc: doc["params"].pop("head.W"),
    "fractional_lookback": lambda doc: doc.update(lookback=8.5),
    "fractional_seed": lambda doc: doc.update(seed=7.9),
    "null_param_cell": lambda doc: doc["params"]["head.W"]["data"].__setitem__(
        0, None),
}


@pytest.mark.parametrize("tampering", TAMPERINGS)
def test_malformed_checkpoint_exit_5(work, tmp_path, capsys, tampering):
    ckpt = tmp_path / "tcn.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(ckpt), "--model", "tcn"]) == 0
    doc = json.loads(ckpt.read_text())
    TAMPERINGS[tampering](doc)
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(work / "data.json"),
                 "--report", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def longer_data(work):
    """The module's dataset prepared again at lookback 10, same features."""
    doc = json.loads((work / "config.json").read_text())
    doc["dataset"]["lookback"] = 10
    (work / "config_lb10.json").write_text(json.dumps(doc))
    out = work / "data_lb10.json"
    assert main(["prepare", "--config", str(work / "config_lb10.json"),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", ["nbeats", "dual_stream", "tcn"])
def test_lookback_mismatch_exit_5(work, longer_data, tmp_path, capsys, kind):
    ckpt = tmp_path / f"{kind}.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(ckpt), "--model", kind]) == 0
    assert json.loads(longer_data.read_text())["feature_names"] == \
        json.loads(ckpt.read_text())["feature_names"]
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(longer_data),
                 "--report", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "checkpoint has 8" in err and "dataset has 10" in err


def _shift(part, edge, by):
    def tamper(doc):
        doc["split"][part][edge] += by
    return tamper


def _short_val(doc):
    doc["split"]["val"][1] = doc["split"]["train"][0] = doc["lookback"]


DATASET_TAMPERINGS = {
    "no_audit_field": lambda doc: doc.pop("audit"),
    "feature_matrix_one_short": lambda doc: doc["feature_matrix"].pop(),
    "dates_one_short": lambda doc: doc["dates"].pop(),
    "test_overlaps_train": _shift("test", 0, -10),
    "gap_between_val_and_train": _shift("train", 0, 5),
    "val_shorter_than_lookback_plus_1": _short_val,
    "lookback_0": lambda doc: doc.update(lookback=0),
    "target_scaled_one_short": lambda doc: doc["target_scaled"].pop(),
    "fractional_lookback": lambda doc: doc.update(lookback=8.5),
    "float_n_days": lambda doc: doc["split"].update(
        n_days=float(doc["split"]["n_days"])),
    "null_test_feature_cell":
        lambda doc: doc["feature_matrix"].__setitem__(-1, None),
    "null_test_target_scaled":
        lambda doc: doc["target_scaled"].__setitem__(-1, None),
    "null_test_target_raw": lambda doc: doc["target_raw"].__setitem__(-1, None),
    "scaler_lacks_target": lambda doc: doc["scaler"].pop(doc["target"]),
}


@pytest.mark.parametrize("tampering", DATASET_TAMPERINGS)
def test_malformed_dataset_exit_5(work, tmp_path, capsys, tampering):
    doc = json.loads((work / "data.json").read_text())
    DATASET_TAMPERINGS[tampering](doc)
    bad = tmp_path / "data.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(work / "ckpt.json"),
                 "--data", str(bad), "--report", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed dataset" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_sample_index_out_of_range_exit_3(work, tmp_path, capsys):
    data = str(work / "data.json")
    assert main(["explain", "--checkpoint", str(work / "ckpt.json"),
                 "--data", data, "--method", "attention",
                 "--sample", "100000", "--out", str(tmp_path / "a.csv")]) == 3
    assert "sample index 100000 out of range" in capsys.readouterr().err
    assert main(["augment-preview", "--config", str(work / "config.json"),
                 "--data", data, "--sample", "-1",
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert "sample index -1 out of range" in capsys.readouterr().err


# ------------------------------------------------------- augment and sweep


def test_augment_preview(work):
    out = work / "aug.csv"
    assert main(["augment-preview", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--sample", "2"]) == 0
    rows = read_rows(out)
    names = json.loads((work / "data.json").read_text())["feature_names"]
    assert rows[0] == ["variant", "t", *names, "y"]
    L = CONFIG["dataset"]["lookback"]
    assert len(rows) == 1 + 4 * L
    variants = [r[0] for r in rows[1:]]
    assert variants == (["original"] * L + ["jitter"] * L
                        + ["scale"] * L + ["warp"] * L)
    orig = np.array([[float(v) for v in r[2:-1]] for r in rows[1:1 + L]])
    jit = np.array([[float(v) for v in r[2:-1]]
                    for r in rows[1 + L:1 + 2 * L]])
    assert not np.array_equal(orig, jit)
    # y is carried through untouched
    ys = {r[-1] for r in rows[1:]}
    assert len(ys) == 1


def test_sweep_learning_curve_csv(work):
    out = work / "lc.csv"
    assert main(["sweep", "--config", str(work / "config.json"),
                 "--kind", "learning-curve",
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--model", "persistence"]) == 0
    rows = read_rows(out)
    assert rows[0][:4] == ["fraction", "n_train", "best_epoch",
                           "best_val_loss"]
    assert [r[0] for r in rows[1:]] == ["0.2", "0.4", "0.6", "0.8", "1.0"]
    assert main(["sweep", "--config", str(work / "config.json"),
                 "--kind", "learning-curve",
                 "--out", str(out), "--model", "persistence"]) == 2


def test_sweep_feature_ablation_csv(work, tmp_path):
    doc = json.loads((work / "config.json").read_text())
    doc["training"]["max_epochs"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    outs = [tmp_path / f"ablation_{run}.csv" for run in ("a", "b")]
    for out in outs:
        assert main(["sweep", "--config", str(config),
                     "--kind", "feature-ablation",
                     "--out", str(out), "--model", "tcn"]) == 0
    rows = read_rows(outs[0])
    assert rows[0][:2] == ["mode", "n_features"]
    assert [r[0] for r in rows[1:]] == list(FEATURE_MODES)
    assert outs[0].read_bytes() == outs[1].read_bytes()
