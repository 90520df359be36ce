"""End-to-end command-line workflow: artifact layout, determinism,
exit codes, and the explain/augment/sweep outputs."""

import base64
import csv
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import extremecast
from extremecast import cli
from extremecast.baselines import MODELS
from extremecast.checkpoint import load_checkpoint, load_dataset
from extremecast.cli import main
from extremecast.features import FEATURE_MODES
from extremecast.model import embed, multi_head_attention, wrap_params
from extremecast.synthetic import sinusoid_ar_table, table_to_csv
from extremecast.training import rebuild_model
from test_config import set_path, validate_report

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
    validate_report(report)
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
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--model", "persistence",
                 "--out", str(ckpt_path)]) == 0
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", str(work / "data.json"),
                 "--report", str(report_path)]) == 0
    doc = json.loads(ckpt_path.read_text())
    assert doc["model_kind"] == "persistence"
    assert doc["params"] == {}
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["model_kind"] == "persistence"
    assert report["metrics"]["rmse"] > 0.0


def test_checkpoint_with_removed_train_settings_evaluates_unchanged(work):
    # checkpoints written while the loss tails and the AdamW/SGDR constants
    # were settable still hold them in extra.train_config; only the record moves
    doc = json.loads((work / "ckpt.json").read_text())
    train_config = doc["extra"]["train_config"]
    assert "q_hi" not in train_config["loss"]
    assert "beta1" not in train_config["optim"]
    train_config["loss"].update(q_hi=0.95, q_lo=0.05)
    train_config["optim"].update(lr_min=0.0, beta1=0.9, beta2=0.999,
                                 eps=1e-8, t_mult=2)
    (work / "old_ckpt.json").write_text(json.dumps(doc))
    reports = []
    for stem in ("ckpt", "old_ckpt"):
        out = work / f"{stem}_compat_report.json"
        assert main(["evaluate", "--checkpoint", str(work / f"{stem}.json"),
                     "--data", str(work / "data.json"),
                     "--report", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_seed_resolution_order(work):
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

    assert seed_of(work / "config.json") == 7     # config seed
    assert seed_of(cfg_noseed) == 0               # default
    out = work / "seed_probe.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--model", "persistence",
                 "--seed", "123"]) == 0
    assert json.loads(out.read_text())["seed"] == 123   # flag beats all


# Every command that takes --seed, with the output path it would write.
SEED_COMMANDS = {
    "train": lambda w, out: ["train", "--config", w / "config.json",
                             "--data", w / "data.json", "--out", out,
                             "--model", "persistence"],
    "explain": lambda w, out: ["explain", "--checkpoint", w / "ckpt.json",
                               "--data", w / "data.json", "--method", "kmeans",
                               "--out", out],
    "augment-preview": lambda w, out: ["augment-preview",
                                       "--config", w / "config.json",
                                       "--data", w / "data.json", "--out", out],
    "sweep": lambda w, out: ["sweep", "--config", w / "config.json",
                             "--kind", "learning-curve",
                             "--data", w / "data.json", "--out", out,
                             "--model", "persistence"],
}


@pytest.mark.parametrize("seed", [-3, 2**64, 2**64 + 5])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_out_of_range_seed_flag_exit_2(work, tmp_path, capsys, command, seed):
    # the config's seed rule: Rng masks a seed to 64 bits, so these would
    # alias 2**64 - 3 and seeds 0 and 5
    out = tmp_path / "out"
    argv = SEED_COMMANDS[command](work, out) + ["--seed", seed]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be in [0, 2**64)")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_largest_seed_flag_is_kept(work, tmp_path):
    out = tmp_path / "ckpt.json"
    argv = SEED_COMMANDS["train"](work, out) + ["--seed", 2**64 - 1]
    assert main([str(a) for a in argv]) == 0
    assert load_checkpoint(out).seed == 2**64 - 1


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
    # the head mean of multi_head_attention's weights for test window 3,
    # from the float64 parameters, bit for bit
    ckpt = load_checkpoint(work / "ckpt.json")
    ds = load_dataset(work / "data.json")
    cfg = rebuild_model(ckpt, ds).cfg
    params = wrap_params(ckpt.params, requires_grad=False)
    E = embed(params, ds.part("test").X[3:4], cfg)
    attn = multi_head_attention(E, params, cfg.n_heads)[1].value[0].mean(axis=0)
    assert [[float(v) for v in row] for row in rows[1:]] == attn.tolist()


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


# Config values that used to pass the schema and then fail later: a float in
# an integer setting, a NaN in a number; (command, path, value)
CONFIG_TAMPERINGS = {
    "float_lookback": ("prepare", "dataset.lookback", 7.0),
    "nan_clip_norm": ("train", "training.optim.clip_norm", math.nan),
    "nan_lr_max": ("train", "training.optim.lr_max", math.nan),
    "inf_amp_gain": ("train", "model.amp_gain", math.inf),
}


@pytest.mark.parametrize("tampering", CONFIG_TAMPERINGS)
def test_non_integral_or_non_finite_config_exit_2(work, tmp_path, capsys,
                                                  tampering):
    command, path, value = CONFIG_TAMPERINGS[tampering]
    doc = set_path(json.loads((work / "config.json").read_text()), path, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    data = [] if command == "prepare" else ["--data", str(work / "data.json")]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([command, "--config", str(config), *data,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not out.exists()


def test_bad_data_exit_3(work, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(garbage),
                 "--out", str(tmp_path / "c.json")]) == 3


@pytest.mark.parametrize("kind", ["dual_stream", "persistence"])
def test_one_window_validation_set_exit_3(work, tmp_path, capsys, kind):
    # 60 days at lookback 8 and the default fractions leave one val window
    table_to_csv(sinusoid_ar_table(seed=0, n_days=60), tmp_path / "raw.csv")
    data, out = tmp_path / "data.json", tmp_path / "ckpt.json"
    assert main(["prepare", "--config", str(work / "config.json"),
                 "--input", str(tmp_path / "raw.csv"),
                 "--out", str(data)]) == 0
    assert "val: 1 windows" in capsys.readouterr().out
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(data), "--out", str(out), "--model", kind]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: validation set of 1 windows ")
    assert len(err.splitlines()) == 1 and not out.exists()


def _directory(path, work):
    path.mkdir()


def _json_array(path, work):
    path.write_text("[1, 2]")


def _non_utf8(name):
    """A writer of the shared file ``name`` after a 0xff byte, which UTF-8
    never holds."""
    def write(path, work):
        path.write_bytes(b"\xff" + (work / name).read_bytes())
    return write


# unreadable or non-object input files: (command, the argument the hostile
# file replaces, its writer or None for a missing path, exit code)
HOSTILE_FILES = {
    "missing_csv": ("prepare", "--input", None, 3),
    "directory_csv": ("prepare", "--input", _directory, 3),
    "non_utf8_csv": ("prepare", "--input", _non_utf8("raw.csv"), 3),
    "non_utf8_config": ("prepare", "--config", _non_utf8("config.json"), 2),
    "missing_checkpoint": ("evaluate", "--checkpoint", None, 3),
    "missing_dataset": ("evaluate", "--data", None, 3),
    "array_checkpoint": ("evaluate", "--checkpoint", _json_array, 5),
    "array_dataset": ("evaluate", "--data", _json_array, 5),
}


@pytest.mark.parametrize("case", HOSTILE_FILES)
def test_hostile_input_file_exits_with_its_code(work, tmp_path, capsys, case):
    command, flag, writer, code = HOSTILE_FILES[case]
    hostile = tmp_path / "hostile"
    if writer is not None:
        writer(hostile, work)
    out = tmp_path / "out.json"
    if command == "prepare":
        args = {"--config": work / "config.json", "--input": work / "raw.csv",
                "--out": out}
    else:
        args = {"--checkpoint": work / "ckpt.json",
                "--data": work / "data.json", "--report": out}
    args[flag] = hostile
    capsys.readouterr()
    argv = [str(a) for pair in args.items() for a in pair]
    assert main([command, *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not out.exists()


# an output path in a directory that does not exist: (command, its inputs,
# the output flag); each writer fails after the work is done
MISSING_OUTPUT_DIRS = {
    "prepare": ("prepare", {"--config": "config.json", "--input": "raw.csv"},
                "--out"),
    "train": ("train", {"--config": "config.json", "--data": "data.json"},
              "--out"),
    "evaluate": ("evaluate", {"--checkpoint": "ckpt.json",
                              "--data": "data.json"}, "--report"),
}


@pytest.mark.parametrize("case", MISSING_OUTPUT_DIRS)
def test_missing_output_directory_exits_3(work, tmp_path, capsys, case):
    command, inputs, flag = MISSING_OUTPUT_DIRS[case]
    out = tmp_path / "absent" / "out.json"
    argv = [str(a) for name, file in inputs.items() for a in (name, work / file)]
    capsys.readouterr()
    assert main([command, *argv, flag, str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write ")
    assert len(err.splitlines()) == 1 and not out.parent.exists()


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


# float64 bit patterns a saver never writes
NAN, POS_INF, NEG_INF = 0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000


def _edit_packed(locate, edit):
    """A tampering that unpacks the base64 array ``locate(doc)`` names (a
    (holder, key) pair) as uint64 words, edits them and packs them again."""
    def tamper(doc):
        holder, key = locate(doc)
        words = np.frombuffer(base64.b64decode(holder[key]), dtype="<u8")
        holder[key] = base64.b64encode(edit(words.copy()).tobytes()).decode()
    return tamper


def _drop_last(words):
    return words[:-1]


def _set_last(bits):
    def edit(words):
        words[-1] = bits
        return words
    return edit


def _head_w(doc):
    return doc["params"]["head.W"], "data"


def _urlsafe_char(holder, key):
    holder[key] = "-" + holder[key][1:]


def _float_shape(doc):
    shape = doc["params"]["head.W"]["shape"]
    shape[0] = float(shape[0])


# The list-format ids (``*_cell``) are kept: each edit now hits the packed
# string that replaced the list.
TAMPERINGS = {
    "extra_config_key": lambda doc: doc["model_config"].update(bogus=1),
    "no_params_field": lambda doc: doc.pop("params"),
    "param_data_short_of_shape": _edit_packed(_head_w, _drop_last),
    "missing_param": lambda doc: doc["params"].pop("head.W"),
    "fractional_lookback": lambda doc: doc.update(lookback=8.5),
    "fractional_seed": lambda doc: doc.update(seed=7.9),
    "null_param_cell": lambda doc: doc["params"]["head.W"].update(data=None),
    "string_param_cell":
        lambda doc: doc["params"]["head.W"].update(data="0.5"),
    "bool_param_cell": lambda doc: doc["params"]["head.W"].update(data=True),
    "nan_param": _edit_packed(_head_w, _set_last(NAN)),
    "pos_inf_param": _edit_packed(_head_w, _set_last(POS_INF)),
    "neg_inf_param": _edit_packed(_head_w, _set_last(NEG_INF)),
    "urlsafe_char_in_param": lambda doc: _urlsafe_char(*_head_w(doc)),
    "float_param_shape": _float_shape,
    "zero_target_scale":
        lambda doc: doc["scaler"].__setitem__(doc["target"], [1.0, 0.0]),
    "string_epoch": lambda doc: doc["train_state"].update(epoch="x"),
    "string_best_val_loss":
        lambda doc: doc["train_state"].update(best_val_loss="abc"),
    "zero_kernel": lambda doc: doc["model_config"].update(kernel=0),
    "float_kernel": lambda doc: doc["model_config"].update(kernel=3.0),
    "float_channel":
        lambda doc: doc["model_config"]["channels"].__setitem__(0, 16.0),
    "nan_dropout": lambda doc: doc["model_config"].update(dropout=math.nan),
    "float_n_heads": lambda doc: doc["model_config"].update(n_heads=4.0),
    "nan_amp_gain": lambda doc: doc["model_config"].update(amp_gain=math.nan),
}
# rows that edit the dual-stream checkpoint; the others edit the TCN's
DUAL_STREAM_TAMPERINGS = {"float_n_heads", "nan_amp_gain"}


@pytest.fixture(scope="module")
def tcn_ckpt(work):
    """One trained TCN checkpoint; each tampering edits its own copy."""
    out = work / "tcn.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"),
                 "--out", str(out), "--model", "tcn"]) == 0
    return out


@pytest.mark.parametrize("tampering", TAMPERINGS)
def test_malformed_checkpoint_exit_5(work, tcn_ckpt, tmp_path, capsys,
                                     tampering):
    source = (work / "ckpt.json" if tampering in DUAL_STREAM_TAMPERINGS
              else tcn_ckpt)
    doc = json.loads(source.read_text())
    TAMPERINGS[tampering](doc)
    ckpt = tmp_path / "tcn.json"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(work / "data.json"),
                 "--report", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_dual_stream_model_config_out_of_range_exit_5(work, tmp_path, capsys):
    doc = json.loads((work / "ckpt.json").read_text())
    doc["model_config"]["n_heads"] = 3   # does not divide embed_dim 8
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--data", str(work / "data.json"),
                 "--report", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: model_config does not fit model kind "
                          "'dual_stream'") and len(err.splitlines()) == 1


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


def _field(name):
    return lambda doc: (doc, name)


# The test rows are the last days, so ``_set_last`` edits a test-row value.
DATASET_TAMPERINGS = {
    "no_audit_field": lambda doc: doc.pop("audit"),
    "feature_matrix_one_short":
        _edit_packed(_field("feature_matrix"), _drop_last),
    "dates_one_short": lambda doc: doc["dates"].pop(),
    "test_overlaps_train": _shift("test", 0, -10),
    "gap_between_val_and_train": _shift("train", 0, 5),
    "val_shorter_than_lookback_plus_1": _short_val,
    "lookback_0": lambda doc: doc.update(lookback=0),
    "target_scaled_one_short":
        _edit_packed(_field("target_scaled"), _drop_last),
    "target_raw_one_short": _edit_packed(_field("target_raw"), _drop_last),
    "fractional_lookback": lambda doc: doc.update(lookback=8.5),
    "float_n_days": lambda doc: doc["split"].update(
        n_days=float(doc["split"]["n_days"])),
    "null_test_feature_cell": lambda doc: doc.update(feature_matrix=None),
    "null_test_target_scaled": lambda doc: doc.update(target_scaled=None),
    "null_test_target_raw": lambda doc: doc.update(target_raw=None),
    "scaler_lacks_target": lambda doc: doc["scaler"].pop(doc["target"]),
    "string_test_feature_cell": lambda doc: doc.update(feature_matrix="0.123"),
    "bool_test_target_raw": lambda doc: doc.update(target_raw=True),
    **{f"{label}_test_{name}": _edit_packed(_field(name), _set_last(bits))
       for name in ("feature_matrix", "target_scaled", "target_raw")
       for label, bits in (("nan", NAN), ("pos_inf", POS_INF),
                           ("neg_inf", NEG_INF))},
    "urlsafe_char_in_feature_matrix":
        lambda doc: _urlsafe_char(doc, "feature_matrix"),
    "zero_target_scale":
        lambda doc: doc["scaler"].__setitem__(doc["target"], [1.0, 0.0]),
    "negative_target_scale":
        lambda doc: doc["scaler"].__setitem__(doc["target"], [1.0, -2.0]),
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


def _as_v1_lists(doc, holders):
    """The list format of schema version 1: each packed array as a JSON
    number list."""
    doc["schema_version"] = 1
    for holder, key in holders:
        holder[key] = np.frombuffer(base64.b64decode(holder[key]),
                                    dtype="<f8").tolist()


def test_v1_list_format_files_exit_5(work, tmp_path, capsys):
    data = json.loads((work / "data.json").read_text())
    _as_v1_lists(data, [(data, k) for k in ("feature_matrix", "target_scaled",
                                             "target_raw")])
    ckpt = json.loads((work / "ckpt.json").read_text())
    _as_v1_lists(ckpt, [(entry, "data") for entry in ckpt["params"].values()])
    for name, doc in (("data", data), ("ckpt", ckpt)):
        (tmp_path / f"{name}_v1.json").write_text(json.dumps(doc))
    for args, what in (((work / "ckpt.json", tmp_path / "data_v1.json"),
                        "dataset"),
                       ((tmp_path / "ckpt_v1.json", work / "data.json"),
                        "checkpoint")):
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(args[0]),
                     "--data", str(args[1]),
                     "--report", str(tmp_path / "r.json")]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} schema_version 1 unsupported")
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


def test_learning_curve_sweep_without_rows_exit_3(work, tmp_path, capsys):
    # 400 days leave fewer than 2 batches of 512 windows at every fraction
    doc = json.loads((work / "config.json").read_text())
    doc["training"]["batch_size"] = 512
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "lc.csv"
    capsys.readouterr()
    with pytest.warns(UserWarning, match="fewer than 2 batches"):
        code = main(["sweep", "--config", str(config),
                     "--kind", "learning-curve",
                     "--data", str(work / "data.json"),
                     "--out", str(out), "--model", "persistence"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "fewer than 2 batches" in err and "batch_size 512" in err
    assert not out.exists()


def test_warnings_print_one_plain_line_each(tmp_path):
    # in a fresh process, where no test harness records warnings: a constant
    # pdp feature and each skipped learning-curve fraction print as one
    # ``warning: …`` line, without the source path and line
    table = sinusoid_ar_table(seed=11, n_days=400)
    table.columns["precip"][150:] = 0.0           # constant on val and test
    table_to_csv(table, tmp_path / "raw.csv")
    doc = dict(CONFIG, training=dict(CONFIG["training"], batch_size=512))
    doc["dataset"] = dict(CONFIG["dataset"], csv_path=str(tmp_path / "raw.csv"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    data, ckpt = str(tmp_path / "data.json"), str(tmp_path / "ckpt.json")
    assert main(["prepare", "--config", str(config), "--out", data]) == 0
    assert main(["train", "--config", str(config), "--data", data,
                 "--model", "persistence", "--out", ckpt]) == 0
    src = str(Path(list(extremecast.__path__)[0]).resolve().parent)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "extremecast", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)

    pdp = run("explain", "--checkpoint", ckpt, "--data", data, "--method", "pdp",
              "--feature", "precip", "--out", str(tmp_path / "pdp.csv"))
    assert pdp.returncode == 0, pdp.stderr
    assert pdp.stderr == ("warning: feature 'precip' is constant on test; "
                          "emitting a single-point curve\n")
    sweep = run("sweep", "--config", str(config), "--kind", "learning-curve",
                "--data", data, "--model", "persistence",
                "--out", str(tmp_path / "lc.csv"))
    assert sweep.returncode == 3, sweep.stderr
    lines = sweep.stderr.splitlines()
    assert lines[:-1] == [f"warning: fraction {f} yields fewer than 2 batches; "
                          "skipped" for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert lines[-1].startswith("error: learning-curve sweep")


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


# -------------------------------------------------------------- heap policy


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library,
                                  lambda name: types.SimpleNamespace()],
                         ids=["oserror", "no-mallopt"])
def test_heap_policy_is_a_noop_without_mallopt(work, tmp_path, monkeypatch,
                                               cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    out = tmp_path / "ckpt.json"
    assert main(["train", "--config", str(work / "config.json"),
                 "--data", str(work / "data.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (work / "ckpt.json").read_bytes()
    assert (tmp_path / "ckpt_history.csv").read_bytes() == \
        (work / "ckpt_history.csv").read_bytes()


@pytest.mark.parametrize("pinned", [1, 0], ids=["glibc", "stub"])
def test_heap_policy_pins_mmap_threshold_before_trim(monkeypatch, pinned):
    # any successful mallopt call freezes glibc's dynamic mmap threshold, so
    # the trim threshold is raised only once the mmap threshold is pinned
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return pinned

    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._keep_freed_heap()
    expected = [(-3, 32 << 20), (-1, 1 << 30)]
    assert calls == expected[:1 + pinned]


# ------------------------------------------------------------ scipy-free paths

# every command in one fresh process in which any scipy import raises:
# prepare, train for all four kinds, evaluate, the seven explain methods,
# augment-preview and both sweeps (with the TCN and N-BEATS baselines);
# prints the commands that failed and the jsonschema modules loaded
_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from extremecast import cli
cfg, out = sys.argv[1:3]
data = ["--data", out + "/data.json"]
explain = ["explain", "--checkpoint", out + "/dual_stream.json", *data]
steps = [["prepare", "--config", cfg, "--out", out + "/data.json"]]
steps += [["train", "--config", cfg, *data, "--model", kind,
           "--out", f"{out}/{kind}.json"]
          for kind in ("dual_stream", "tcn", "nbeats", "persistence")]
steps += [["evaluate", "--checkpoint", out + "/dual_stream.json", *data,
           "--report", out + "/report.json"]]
steps += [explain + ["--method", method, "--out", f"{out}/{method}.out", *extra]
          for method, extra in [("occlusion", []),
                                ("pdp", ["--feature", "tempmax"]),
                                ("permutation", ["--repeats", "1"]),
                                ("residuals", []), ("kmeans", []),
                                ("attention", []), ("states", [])]]
steps += [["augment-preview", "--config", cfg, *data,
           "--out", out + "/augment.csv"],
          ["sweep", "--config", cfg, "--kind", "learning-curve", *data,
           "--model", "tcn", "--out", out + "/curve.csv"],
          ["sweep", "--config", cfg, "--kind", "feature-ablation",
           "--model", "nbeats", "--out", out + "/ablation.csv"]]
failed = [step[:4] for step in steps if cli.main(step) != 0]
schema = sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")
print(json.dumps({"failed": failed, "jsonschema": schema}))
"""


def test_main_paths_load_no_scipy(tmp_path):
    table_to_csv(sinusoid_ar_table(seed=11, n_days=400), tmp_path / "raw.csv")
    doc = dict(CONFIG, augment={"enabled": True},
               training=dict(CONFIG["training"], max_epochs=1))
    doc["dataset"] = dict(CONFIG["dataset"], csv_path=str(tmp_path / "raw.csv"))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    src = str(Path(list(extremecast.__path__)[0]).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "config.json"),
         str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"failed": [], "jsonschema": []}
