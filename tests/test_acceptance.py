"""Acceptance gate: one test per release criterion, named so the pytest -v
line doubles as the criterion's pass/fail record.

Every oracle here is computed independently of the library code under test
(plain-loop brute force, closed-form fixtures, or finite differences).  The
end-to-end skill and tail-effect criteria (07, 08) share one module-scoped
set of training runs; criterion 07 additionally prints the measured
improvement for every seed so the recorded outcome is self-contained.
"""

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import extremecast
from extremecast.augment import AugmentConfig, augment_windows, time_warp
from extremecast.baselines import NBeatsConfig, NBeatsModel, TcnConfig, TcnModel
from extremecast.cli import main as cli_main
from extremecast.data import SplitSpec, chronological_split, impute_two_stage
from extremecast.diagnostics import (kmeans, occlusion_sensitivity,
                                     partial_dependence,
                                     permutation_importance)
from extremecast.features import FeatureSpec, build_features, savgol_causal
from extremecast.losses import LossConfig, compute_loss
from extremecast.metrics import TAIL_Q, regression_metrics
from extremecast.model import (DualStreamModel, ModelConfig, forward,
                               fuse_outputs, wrap_params)
from extremecast.pipeline import PreparedDataset, prepare
from extremecast.rng import Rng
from extremecast.synthetic import sinusoid_ar_table, table_to_csv
from extremecast.tensor import Var
from extremecast.training import (PersistenceConfig, TrainConfig, build_model,
                                  evaluate_checkpoint, evaluate_model, train)
from gradcheck import grad_check
from persistence_task import persistence_task_table

# ----------------------------------------------------------------- fixtures

# Compact end-to-end setup for the synthetic-skill criteria: full feature
# set, one recurrent layer, short lookback (the signal is AR(1) plus a
# smooth seasonal term, so a week of history carries all usable information).
SKILL_SEEDS = (0, 1, 2, 3, 4)
SKILL_LOOKBACK = 7

MSE_ABLATION = LossConfig(alpha_high=1.0, alpha_low=1.0,
                          beta=1.0)  # equal weights reduce to plain MSE


def skill_model_cfg(n_features: int) -> ModelConfig:
    return ModelConfig(n_features=n_features, lookback=SKILL_LOOKBACK,
                       embed_dim=16, lstm_hidden=8, gru_hidden=8, n_states=4,
                       n_heads=2, stream_dim=16, dropout=0.0, n_layers=1)


def skill_train_cfg(seed: int, loss: LossConfig) -> TrainConfig:
    return TrainConfig(batch_size=32, max_epochs=50, patience=30, seed=seed,
                       loss=loss, augment=AugmentConfig(enabled=False))


def union_tail_rmse(report: dict) -> float:
    """RMSE over test days strictly beyond the 5%/95% observation quantiles."""
    y = np.array([r["y"] for r in report["residuals"]])
    e = np.array([r["e"] for r in report["residuals"]])
    mask = (y > np.quantile(y, 0.95)) | (y < np.quantile(y, 0.05))
    return float(np.sqrt(np.mean(e[mask] ** 2)))


@pytest.fixture(scope="module")
def synthetic_runs():
    """Per seed: persistence RMSE plus (rmse, union-tail rmse) for a run
    trained with the extreme loss and an otherwise-identical MSE ablation."""
    results = {}
    for seed in SKILL_SEEDS:
        table = sinusoid_ar_table(seed=seed, n_days=2000)
        ds = prepare(table, lookback=SKILL_LOOKBACK,
                     feature_spec=FeatureSpec(mode="full"))
        pers, _ = build_model(PersistenceConfig(), ds)
        pers_rmse = evaluate_model(pers, {}, ds)["metrics"]["rmse"]
        entry = {"pers_rmse": pers_rmse}
        for arm, loss in (("extreme", LossConfig()),
                          ("mse", MSE_ABLATION)):
            t0 = time.time()
            ckpt, _ = train(ds, skill_model_cfg(ds.n_features),
                            skill_train_cfg(seed, loss))
            report = evaluate_checkpoint(ckpt, ds)
            entry[arm] = {"rmse": report["metrics"]["rmse"],
                          "tail_rmse": union_tail_rmse(report),
                          "seconds": time.time() - t0}
        results[seed] = entry
    return results


def tiny_dual_cfg() -> ModelConfig:
    return ModelConfig(n_features=6, lookback=8, embed_dim=8, lstm_hidden=4,
                       gru_hidden=4, n_states=3, n_heads=2, stream_dim=8,
                       dropout=0.0)


# -------------------------------------------------- 1: gradient correctness


def _grad_check_model(model, params, X, targets, budget_s=60.0):
    def f(wrapped):
        pred, _ = model.forward(wrapped, X, train=False)
        return compute_loss(pred, targets, LossConfig())

    t0 = time.time()
    # floor=1e-6: with a loss of magnitude O(1) the central difference at
    # eps=1e-5 carries ~1e-11 absolute roundoff noise, so gradient entries
    # below ~1e-7 cannot be resolved to 1e-4 relative by any oracle.  The
    # floor treats |analytic - numeric| <= 1e-10 as a match while still
    # flagging any real bug (sign/factor errors produce rel ~ O(1)).
    report = grad_check(f, params, eps=1e-5, floor=1e-6)
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"grad check took {elapsed:.1f}s"
    assert report.passed(1e-4), (report.worst_param, report.max_rel_error)
    return report


def test_criterion_01_gradient_correctness():
    rng = Rng(11, "init")
    data_rng = Rng(5, "acceptance")
    X = data_rng.gaussian_array((4, 8, 6))
    targets = data_rng.gaussian_array(4, 0.0, 1.0)

    dual = DualStreamModel(tiny_dual_cfg())
    _grad_check_model(dual, dual.init_params(rng), X, targets)

    tcn = TcnModel(TcnConfig(n_features=6, lookback=8, channels=(4, 6),
                             kernel=2, dilations=(1, 2), dropout=0.0))
    _grad_check_model(tcn, tcn.init_params(Rng(12, "init")), X, targets)

    nb = NBeatsModel(NBeatsConfig(lookback=8, stacks=2, fc_units=8),
                     target_index=0)
    _grad_check_model(nb, nb.init_params(Rng(13, "init")), X, targets)


# ------------------------------------------------------ 2: loss equivalence


def _quantile_linear(sorted_vals, q):
    """numpy's default linear-interpolation quantile, re-derived by hand."""
    h = (len(sorted_vals) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def _brute_force_extreme(pred, target, cfg):
    s = sorted(float(v) for v in target)
    tau_hi = _quantile_linear(s, 1.0 - TAIL_Q)
    tau_lo = _quantile_linear(s, TAIL_Q)
    total = 0.0
    for p, t in zip(pred, target):
        if t > tau_hi:
            w = cfg.alpha_high
        elif t < tau_lo:
            w = cfg.alpha_low
        else:
            w = cfg.beta
        total += w * (p - t) ** 2
    return total / len(target)


def test_criterion_02_loss_oracle_equivalence():
    rng = Rng(7, "acceptance")
    worst = 0.0
    for case in range(1000):
        n = 2 + rng.randint(63)
        target = rng.gaussian_array(n, 0.0, 2.0)
        pred = Var(target + rng.gaussian_array(n, 0.0, 1.0))
        cfg = LossConfig(alpha_high=0.5 + 3.0 * rng.uniform(),
                         alpha_low=0.5 + 3.0 * rng.uniform(),
                         beta=0.1 + rng.uniform())
        loss = compute_loss(pred, target, cfg)
        worst = max(worst, abs(loss.value
                               - _brute_force_extreme(pred.value, target, cfg)))
    assert worst <= 1e-12, worst

    # alpha_high == alpha_low == beta collapses to beta * MSE, bit for bit
    target = Rng(8, "acceptance").gaussian_array(64, 10.0, 4.0)
    pred = Var(target + Rng(9, "acceptance").gaussian_array(64, 0.0, 2.0))
    flat = LossConfig(alpha_high=0.5, alpha_low=0.5, beta=0.5)
    loss = compute_loss(pred, target, flat)
    assert loss.value == 0.5 * np.mean((pred.value - target) ** 2)


# ----------------------------------------------------- 3: simplex invariants


def test_criterion_03_simplex_invariants():
    cfg = tiny_dual_cfg()
    total = 0
    draw = 0
    while total < 10_000:
        B = 100
        params = wrap_params(
            DualStreamModel(cfg).init_params(Rng(1000 + draw, "init")),
            requires_grad=False)
        X = Rng(2000 + draw, "acceptance").gaussian_array(
            (B, cfg.lookback, cfg.n_features), 0.0, 1.0 + (draw % 3))
        _, intro = forward(params, X, cfg)
        for name, rows in (("p", intro["p"].reshape(-1, cfg.n_states)),
                           ("attention",
                            intro["attention"].reshape(-1, cfg.lookback)),
                           ("transition", intro["transition"])):
            assert np.all(rows >= -1e-10), name
            npt.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-10,
                                err_msg=name)
        total += B
        draw += 1


# ----------------------------------------------------- 4: fusion betweenness


def test_criterion_04_fusion_betweenness():
    rng = Rng(21, "acceptance")
    n, d = 10_000, 16
    o_m = Var(rng.gaussian_array((n, d), 0.0, 3.0))
    o_a = Var(rng.gaussian_array((n, d), 0.0, 3.0))
    W = Var(rng.gaussian_array((2 * d, d), 0.0, 0.7))
    b = Var(rng.gaussian_array(d, 0.0, 0.5))
    fused, gamma = fuse_outputs(o_m, o_a, W, b)
    lo = np.minimum(o_m.value, o_a.value)
    hi = np.maximum(o_m.value, o_a.value)
    assert np.all(gamma.value >= 0.0) and np.all(gamma.value <= 1.0)
    assert np.all(fused.value >= lo - 1e-12)
    assert np.all(fused.value <= hi + 1e-12)


# --------------------------------------------- 5: Savitzky-Golay exactness


def test_criterion_05_savitzky_golay_exactness():
    t = np.arange(90, dtype=np.float64)
    cubic = 0.003 * t**3 - 0.25 * t**2 + 2.0 * t - 5.0
    sm = savgol_causal(cubic, window=7, poly=3)
    rel = np.max(np.abs(sm - cubic)) / max(1.0, np.max(np.abs(cubic)))
    assert rel <= 1e-9, rel
    const = np.full(40, -3.75)
    npt.assert_allclose(savgol_causal(const, 7, 3), const, rtol=0, atol=1e-12)


# --------------------------------------------------- 6: pipeline causality


def _truncated(table, cut):
    short = table.copy()
    short.dates = short.dates[:cut]
    for name in short.columns:
        short.columns[name] = short.columns[name][:cut]
    return short


def test_criterion_06_pipeline_causality_audit():
    n = 500
    lookback = 10
    table = sinusoid_ar_table(seed=6, n_days=n)
    split = chronological_split(n, lookback)
    feats, _ = build_features(table, split, FeatureSpec())
    fit_end = split.train[1]

    # Recomputing on a table truncated at a cut date (with the fitted train
    # region intact) must reproduce every derived value at dates <= cut.
    cut_rng = Rng(60, "acceptance")
    for _ in range(20):
        cut = fit_end + 1 + cut_rng.randint(n - fit_end - 1)
        short_split = SplitSpec(cut, val=split.val, train=split.train,
                                test=(fit_end, cut))
        feats_short, _ = build_features(_truncated(table, cut), short_split,
                                        FeatureSpec())
        assert set(feats_short) == set(feats)
        for name in feats:
            npt.assert_array_equal(feats_short[name], feats[name][:cut],
                                   err_msg=f"cut={cut} feature={name}")

    # The same audit through imputation on a gappy table: every missing day
    # is filled from earlier days only, so a table that ends right after a
    # missing day fills it, and derives every feature, as the full table does.
    gappy = table.copy()
    missing = np.sort(np.concatenate([
        [3, 4, 5, 40],
        fit_end + 2 + np.unique([cut_rng.randint(n - fit_end - 4)
                                 for _ in range(12)])]))
    for col in gappy.columns.values():
        col[missing] = np.nan
    gappy_feats, _ = build_features(impute_two_stage(gappy), split,
                                    FeatureSpec())
    for day in missing[missing > fit_end]:
        cut = day + 1
        short_split = SplitSpec(cut, val=split.val, train=split.train,
                                test=(fit_end, cut))
        feats_short, _ = build_features(
            impute_two_stage(_truncated(gappy, cut)), short_split, FeatureSpec())
        for name in gappy_feats:
            npt.assert_array_equal(feats_short[name], gappy_feats[name][:cut],
                                   err_msg=f"missing day {day} feature={name}")

    # No window crosses a partition boundary, and each window is exactly the
    # lookback rows preceding its target day.
    ds = prepare(table, lookback=lookback)
    for part_name in ("train", "val", "test"):
        lo, hi = getattr(ds.split, part_name)
        part = ds.part(part_name)
        assert part.target_rows.min() >= lo + lookback
        assert part.target_rows.max() < hi
        for i in (0, part.n_samples - 1):
            d = part.target_rows[i]
            npt.assert_array_equal(part.X[i],
                                   ds.feature_matrix[d - lookback:d])


# ------------------------------------------------- 7: synthetic skill (e2e)


def test_criterion_07_synthetic_end_to_end_skill(synthetic_runs):
    total_s = sum(r["extreme"]["seconds"] for r in synthetic_runs.values())
    wins = 0
    print(f"\n  [criterion 7] five training runs took {total_s:.0f}s "
          f"(budget 900s)")
    for seed, r in synthetic_runs.items():
        imp = 1.0 - r["extreme"]["rmse"] / r["pers_rmse"]
        wins += imp >= 0.20
        print(f"  [criterion 7] seed {seed}: model rmse "
              f"{r['extreme']['rmse']:.4f} vs persistence "
              f"{r['pers_rmse']:.4f} -> improvement {imp * 100:+.1f}% "
              f"(needs >= +20%)")
    assert total_s <= 900.0
    assert wins >= 3, (
        f"{wins}/5 seeds reached the 20% improvement bar; on this AR(1) "
        f"synthetic the optimal one-step predictor itself improves on "
        f"persistence by only ~15%, so the bar exceeds the task's ceiling")


# ---------------------------------------------------- 8: extreme-loss effect


def test_criterion_08_extreme_loss_tail_effect(synthetic_runs):
    wins = 0
    for seed, r in synthetic_runs.items():
        ewl, mse = r["extreme"]["tail_rmse"], r["mse"]["tail_rmse"]
        wins += ewl <= mse
        print(f"\n  [criterion 8] seed {seed}: tail rmse extreme-loss "
              f"{ewl:.4f} vs mse-ablation {mse:.4f} "
              f"({'no worse' if ewl <= mse else 'worse'})")
    assert wins >= 3, f"extreme loss helped tails in only {wins}/5 seeds"


# ------------------------------------------------------------ 9: determinism


def _full_cli_run(root: Path, tag: str) -> dict:
    """prepare -> train -> evaluate -> three explain artifacts; returns
    {relative name: bytes}."""
    out = root / tag
    out.mkdir()
    config = {
        "seed": 13,
        "dataset": {"csv_path": str(root / "raw.csv"), "target": "tempmax",
                    "lookback": 8, "train_frac": 0.8, "val_frac": 0.2},
        "features": {"mode": "minimal"},
        "augment": {"enabled": True},
        "model": {"embed_dim": 8, "lstm_hidden": 4, "gru_hidden": 4,
                  "n_states": 3, "n_heads": 2, "stream_dim": 8,
                  "dropout": 0.2, "n_layers": 1},
        "training": {"batch_size": 32, "max_epochs": 4, "patience": 5},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    steps = [
        ["prepare", "--config", str(cfg_path), "--out", str(out / "data.json")],
        ["train", "--config", str(cfg_path), "--data", str(out / "data.json"),
         "--out", str(out / "ckpt.json")],
        ["evaluate", "--checkpoint", str(out / "ckpt.json"),
         "--data", str(out / "data.json"), "--report", str(out / "report.json")],
        ["explain", "--checkpoint", str(out / "ckpt.json"),
         "--data", str(out / "data.json"), "--method", "occlusion",
         "--out", str(out / "occlusion.csv")],
        ["explain", "--checkpoint", str(out / "ckpt.json"),
         "--data", str(out / "data.json"), "--method", "permutation",
         "--out", str(out / "permutation.csv")],
        ["explain", "--checkpoint", str(out / "ckpt.json"),
         "--data", str(out / "data.json"), "--method", "kmeans",
         "--out", str(out / "kmeans.csv")],
    ]
    for step in steps:
        assert cli_main(step) == 0, step
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "config.json"}


def test_criterion_09_bitwise_determinism(tmp_path):
    table_to_csv(sinusoid_ar_table(seed=17, n_days=420), tmp_path / "raw.csv")
    first = _full_cli_run(tmp_path, "run1")
    second = _full_cli_run(tmp_path, "run2")
    assert set(first) == set(second)
    assert len(first) >= 8  # dataset, audit, ckpt, history, report, residuals…
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


# Runs prepare -> train -> evaluate in one process, then prints the number of
# OS threads it holds, so the caller can see that the BLAS setting took.
_THREADED_RUN = """
import os, sys
from extremecast.cli import main
cfg, out = sys.argv[1], sys.argv[2]
steps = [
    ["prepare", "--config", cfg, "--out", out + "/data.json"],
    ["train", "--config", cfg, "--data", out + "/data.json",
     "--out", out + "/ckpt.json"],
    ["evaluate", "--checkpoint", out + "/ckpt.json",
     "--data", out + "/data.json", "--report", out + "/report.json"],
]
for step in steps:
    if main(step) != 0:
        sys.exit(f"step failed: {step[0]}")
task = "/proc/self/task"
print(len(os.listdir(task)) if os.path.isdir(task) else -1)
"""


def _default_size_config(tmp_path: Path) -> Path:
    """A run config at the default model dimensions and lookback 30, whose
    285 test windows make one full 256-window eval batch."""
    table_to_csv(sinusoid_ar_table(seed=5, n_days=900), tmp_path / "raw.csv")
    config = {
        "seed": 3,
        "dataset": {"csv_path": str(tmp_path / "raw.csv"), "target": "tempmax",
                    "lookback": 30, "train_frac": 0.65, "val_frac": 0.55},
        "augment": {"enabled": False},
        "training": {"max_epochs": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def _src_dir() -> str:
    return str(Path(list(extremecast.__path__)[0]).resolve().parent)


def test_criterion_09_determinism_across_blas_threads(tmp_path):
    """Default model dimensions at lookback 30, so the eval batches'
    [256, 32] @ [32, 128] products are large enough for OpenBLAS to split
    across threads; one and two threads must write the same bytes."""
    cfg_path = _default_size_config(tmp_path)
    src = _src_dir()
    artifacts, task_counts = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_RUN, str(cfg_path), str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        task_counts[threads] = int(done.stdout.strip().splitlines()[-1])
        artifacts[threads] = {p.name: p.read_bytes()
                              for p in sorted(out.iterdir())}
    print(f"\n  [criterion 9] OS threads per run: {task_counts}")
    if task_counts["1"] > 0:
        assert task_counts["2"] > task_counts["1"], task_counts
    one, two = artifacts["1"], artifacts["2"]
    assert set(one) == set(two) and len(one) >= 4, sorted(one)
    for name in one:
        assert one[name] == two[name], f"{name} differs between 1 and 2 threads"


# One phase of prepare -> train -> evaluate -> explain --method permutation.
# The "train" phase prepares and trains. The "explain" phase runs in a process
# that has not trained, as the CLI runs one subcommand per process: training
# frees large mmap'd blocks, after which glibc's dynamic thresholds keep the
# eval temporaries even without the policy. It evaluates and explains, then
# runs one warm-up evaluate and three more, and prints the minor page faults
# of those three (0 without the resource module). With a fourth argument,
# cli's heap policy is patched out.
_HEAP_RUN = """
import sys
from extremecast import cli
try:
    import resource
except ImportError:
    resource = None
cfg, out, phase = sys.argv[1:4]
if len(sys.argv) > 4:
    cli._keep_freed_heap = lambda: None
data = ["--data", out + "/data.json"]
evaluate = ["evaluate", "--checkpoint", out + "/ckpt.json", *data, "--report"]
steps = {
    "train": [["prepare", "--config", cfg, "--out", out + "/data.json"],
              ["train", "--config", cfg, *data, "--out", out + "/ckpt.json"]],
    "explain": [evaluate + [out + "/report.json"],
                ["explain", "--checkpoint", out + "/ckpt.json", *data,
                 "--method", "permutation", "--repeats", "1",
                 "--out", out + "/perm.csv"],
                evaluate + [out + "/again.json"]],
}[phase]
for step in steps:
    if cli.main(step) != 0:
        sys.exit(f"step failed: {step[0]}")
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0
if phase == "explain":
    before = faults()
    for _ in range(3):
        if cli.main(evaluate + [out + "/again.json"]) != 0:
            sys.exit("step failed: evaluate")
    print(faults() - before)
"""


def test_criterion_09_heap_policy_keeps_bits_and_saves_faults(tmp_path):
    """cli.main keeps glibc's freed heap. That must write the same bytes as
    the default allocator, and on glibc the repeated eval forwards stop
    faulting their temporaries in again (about 5,600 faults per pass over
    the 285 test windows without it)."""
    cfg_path = _default_size_config(tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=_src_dir())
    artifacts, faults = {}, {}
    for side, extra in (("shipped", []), ("patched_out", ["noop"])):
        out = tmp_path / side
        out.mkdir()
        for phase in ("train", "explain"):
            done = subprocess.run(
                [sys.executable, "-c", _HEAP_RUN, str(cfg_path), str(out),
                 phase, *extra],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr[-2000:]
        faults[side] = int(done.stdout.strip().splitlines()[-1])
        artifacts[side] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    print(f"\n  [criterion 9] minor faults over three evaluates: {faults}")
    shipped, bare = artifacts["shipped"], artifacts["patched_out"]
    assert set(shipped) == set(bare) and len(shipped) >= 6, sorted(shipped)
    for name in shipped:
        assert shipped[name] == bare[name], f"{name} differs with the policy"
    if sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc":
        assert faults["shipped"] < 0.1 * faults["patched_out"], faults


# ------------------------------------------------------------ 10: metrics


def _brute_force_metrics(y, yhat):
    n = len(y)
    e = [yhat[i] - y[i] for i in range(n)]
    mse = math.fsum(v * v for v in e) / n
    mae = math.fsum(abs(v) for v in e) / n
    my = math.fsum(y) / n
    ss_tot = math.fsum((v - my) ** 2 for v in y)
    r2 = 1.0 - math.fsum(v * v for v in e) / ss_tot
    me = math.fsum(e) / n
    var_e = math.fsum((v - me) ** 2 for v in e) / n
    var_y = ss_tot / n
    ev = 1.0 - var_e / var_y
    mp = math.fsum(yhat) / n
    cov = math.fsum((y[i] - my) * (yhat[i] - mp) for i in range(n)) / n
    sd_y = math.sqrt(var_y)
    sd_p = math.sqrt(math.fsum((v - mp) ** 2 for v in yhat) / n)
    pearson = cov / (sd_y * sd_p)
    return {"mse": mse, "rmse": math.sqrt(mse), "mae": mae, "r2": r2,
            "explained_variance": ev, "pearson_r": pearson}


def test_criterion_10_metric_oracle():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
    assert m.mse == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.r2 == pytest.approx(0.0, abs=1e-15)
    assert m.mae == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.rmse == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    rng = Rng(10, "acceptance")
    for case in range(100):
        n = 2 + rng.randint(199)
        y = rng.gaussian_array(n, 20.0, 8.0)
        yhat = y + rng.gaussian_array(n, 0.0, 3.0)
        got = regression_metrics(y, yhat)
        want = _brute_force_metrics(list(y), list(yhat))
        for key, expected in want.items():
            assert getattr(got, key) == pytest.approx(expected, abs=1e-10), \
                (case, key)


# --------------------------------------------------- 11: diagnostics sanity


def test_criterion_11_diagnostics_sanity():
    # (a) a model trained on a series where only the lagged target is
    # informative must rank that feature first under both methods
    table = persistence_task_table(seed=3, n_days=500)
    ds = prepare(table, lookback=8, feature_spec=FeatureSpec(mode="minimal"))
    cfg = ModelConfig(n_features=ds.n_features, lookback=8, embed_dim=16,
                      lstm_hidden=8, gru_hidden=8, n_states=4, n_heads=2,
                      stream_dim=16, dropout=0.0, n_layers=1)
    tcfg = TrainConfig(batch_size=32, max_epochs=25, patience=25, seed=3,
                       loss=LossConfig(),
                       augment=AugmentConfig(enabled=False))
    ckpt, _ = train(ds, cfg, tcfg)
    model, _ = build_model(cfg, ds)
    occ = occlusion_sensitivity(model, ckpt.params, ds)
    perm = permutation_importance(model, ckpt.params, ds, repeats=3, seed=3)
    occ_first = max(occ["rows"], key=lambda r: r["delta_rmse"])["feature"]
    perm_first = max(perm["rows"], key=lambda r: r["mean_drop"])["feature"]
    assert occ_first == "tempmax", occ["rows"]
    assert perm_first == "tempmax", perm["rows"]

    # (b) partial dependence recovers a planted linear response
    planted = _planted_linear_dataset(slope_feature="x0", n=60, lookback=5)
    slope = 1.7

    class PlantedModel:
        def forward(self, params, X, train=False, rng=None):
            Xv = X if isinstance(X, Var) else Var(X)
            return Var(slope * Xv.value[:, :, 0].mean(axis=1)), {}

    pdp = partial_dependence(PlantedModel(), {}, planted, "x0", grid_size=20)
    fit = np.polyfit(np.array(pdp["grid"]), np.array(pdp["mean_prediction"]), 1)
    assert abs(fit[0] - slope) <= 1e-2, fit

    # (c) k-means recovers two planted blobs exactly
    blob_rng = Rng(14, "acceptance")
    a = blob_rng.gaussian_array((40, 2), 0.0, 0.5)
    b = blob_rng.gaussian_array((40, 2), 0.0, 0.5) + 10.0
    points = np.vstack([a, b])
    labels = np.array([0] * 40 + [1] * 40)
    assign, centroids, _ = kmeans(points, 2, Rng(15, "acceptance"))
    same = np.array_equal(assign, labels)
    flipped = np.array_equal(assign, 1 - labels)
    assert same or flipped
    want = {tuple(np.round(a.mean(axis=0), 9)), tuple(np.round(b.mean(axis=0), 9))}
    got = {tuple(np.round(c, 9)) for c in centroids}
    assert got == want


def _planted_linear_dataset(slope_feature: str, n: int, lookback: int):
    """Identity-scaled dataset whose first feature sweeps a known range."""
    from extremecast.data import ScalerParams, WindowPartition
    import datetime as dt

    rng = Rng(22, "acceptance")
    n_days = n + lookback
    x0 = rng.uniform_array(n_days, -2.0, 2.0)
    x1 = rng.gaussian_array(n_days)
    matrix = np.column_stack([x0, x1])
    y = rng.gaussian_array(n_days)
    X = np.stack([matrix[d - lookback:d] for d in range(lookback, n_days)])
    rows = np.arange(lookback, n_days)
    scaler = ScalerParams(columns={slope_feature: (0.0, 1.0),
                                   "x1": (0.0, 1.0), "t": (0.0, 1.0)})
    split = SplitSpec(n_days, val=(0, 0), train=(0, 0), test=(0, n_days))
    part = WindowPartition(X=X, y=y[rows].copy(), target_rows=rows)
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n_days)]
    return PreparedDataset(
        feature_names=[slope_feature, "x1"], lookback=lookback, target="t",
        scaler=scaler, split=split, parts={"test": part, "train": part,
                                           "val": part},
        dates=dates, target_raw=y.copy(), audit=[], mode="minimal",
        feature_matrix=matrix, target_scaled=y)


# ------------------------------------------------- 12: augmentation contract


def test_criterion_12_augmentation_contract():
    rng = Rng(30, "acceptance")
    X = rng.gaussian_array((6, 12, 3))
    y = rng.gaussian_array(6)

    # exact 4x expansion, originals first and targets untouched
    Xa, ya = augment_windows(X, y, seed=5, cfg=AugmentConfig())
    assert Xa.shape == (24, 12, 3) and ya.shape == (24,)
    npt.assert_array_equal(Xa[:6], X)
    for block in range(4):
        npt.assert_array_equal(ya[block * 6:(block + 1) * 6], y)

    # zero-strength settings make every variant the identity
    calm = AugmentConfig(jitter_sigma=0.0, scale_low=1.0, scale_high=1.0,
                         warp_sigma=0.0)
    Xa, ya = augment_windows(X, y, seed=5, cfg=calm)
    for block in range(4):
        npt.assert_array_equal(Xa[block * 6:(block + 1) * 6], X)

    # time warp pins both endpoints
    for trial in range(10):
        W = time_warp(X[0], Rng(trial, "augment"), sigma=0.4)
        npt.assert_allclose(W[0], X[0][0], rtol=0, atol=1e-9)
        npt.assert_allclose(W[-1], X[0][-1], rtol=0, atol=1e-9)


# ---------------------------------------- 13: optional real-data sanity run


def test_criterion_13_real_data_floor():
    csv_path = os.environ.get("EXTREMECAST_BAGHDAD_CSV")
    if not csv_path:
        for candidate in (Path("data/baghdad.csv"),
                          Path("examples/baghdad.csv")):
            if candidate.is_file():
                csv_path = str(candidate)
                break
    if not csv_path or not Path(csv_path).is_file():
        pytest.skip("archived station dataset not present; set "
                    "EXTREMECAST_BAGHDAD_CSV to run this check")
    from extremecast.data import load_csv
    table = load_csv(csv_path, target="tempmax")
    ds = prepare(table, lookback=30, feature_spec=FeatureSpec(mode="full"))
    cfg = ModelConfig(n_features=ds.n_features, lookback=30)
    tcfg = TrainConfig(seed=0)
    ckpt, _ = train(ds, cfg, tcfg)
    report = evaluate_checkpoint(ckpt, ds)
    assert report["metrics"]["r2"] >= 0.90, report["metrics"]
