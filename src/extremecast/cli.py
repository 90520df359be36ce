"""Command-line interface.

Subcommands cover the full workflow: ``prepare`` (CSV -> dataset artifact),
``train`` (dataset -> checkpoint, history), ``evaluate`` (checkpoint +
dataset -> metrics report, residuals), ``explain``
(importance / dependence / residual / clustering / internal-state
diagnostics), ``augment-preview`` (before/after CSV for one window) and
``sweep`` (learning-curve and feature-ablation tables).

Every artifact is a deterministic function of (config bytes, input bytes,
seed): rerunning a command with identical inputs rewrites identical bytes.
Failures exit with the code carried by the raised error: 2 config,
3 data, 4 numeric, 5 compatibility.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import (load_checkpoint, load_dataset, save_checkpoint,
                         save_dataset, write_csv, write_json)
from .config import RunConfig, load_run_config
from .data import load_csv
from .diagnostics import (kmeans_regimes, occlusion_sensitivity,
                          partial_dependence, permutation_importance,
                          ranking_agreement, residual_diagnostics)
from .errors import CompatibilityError, ConfigError, DataError, ExtremecastError
from .model import raw_predictions, wrap_params
from .pipeline import PreparedDataset, prepare
from .training import (HISTORY_COLUMNS, MODELS, evaluate_checkpoint,
                       feature_ablation, fit_model_config, learning_curve,
                       rebuild_model, train)

EXPLAIN_METHODS = ("occlusion", "pdp", "permutation", "residuals", "kmeans",
                   "attention", "states")

SWEEP_KINDS = ("learning-curve", "feature-ablation")


# ------------------------------------------------------------------ helpers


def _sibling(path, suffix: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + suffix)


def _base_model_config(run_cfg: RunConfig, kind: str):
    """The run config's model section when it configures this kind (the
    dual stream), else the kind's defaults."""
    cls = MODELS[kind][0]
    return run_cfg.model if isinstance(run_cfg.model, cls) else cls()


# --------------------------------------------------------------- subcommands


def cmd_prepare(args) -> int:
    run_cfg = load_run_config(args.config)
    csv_path = args.input or run_cfg.dataset.csv_path
    if not csv_path:
        raise ConfigError("no input CSV: pass --input or set dataset.csv_path")
    table = load_csv(csv_path, target=run_cfg.dataset.target)
    ds = prepare(table, lookback=run_cfg.dataset.lookback,
                 train_frac=run_cfg.dataset.train_frac,
                 val_frac=run_cfg.dataset.val_frac,
                 feature_spec=run_cfg.features)
    save_dataset(ds, args.out)
    audit_path = _sibling(args.out, "_audit.csv")
    write_csv(audit_path, ["feature", "group", "corr", "chosen"],
              [list(row) for row in ds.audit])
    print(f"dataset: {ds.split.n_days} days, {ds.n_features} features "
          f"(mode {ds.mode}), lookback {ds.lookback}")
    for name in ("train", "val", "test"):
        print(f"  {name}: {ds.part(name).n_samples} windows")
    print(f"dataset -> {args.out}")
    print(f"feature audit -> {audit_path}")
    return 0


def cmd_train(args) -> int:
    run_cfg = load_run_config(args.config)
    seed = run_cfg.seed if args.seed is None else args.seed
    ds = load_dataset(args.data)
    train_cfg = replace(run_cfg.training, seed=seed)
    model_cfg = fit_model_config(_base_model_config(run_cfg, args.model), ds)
    ckpt, state = train(ds, model_cfg, train_cfg)
    save_checkpoint(ckpt, args.out)
    history_path = _sibling(args.out, "_history.csv")
    write_csv(history_path, list(HISTORY_COLUMNS),
              [[row[k] for k in HISTORY_COLUMNS] for row in state.history])
    print(f"model {ckpt.model_kind}: seed {seed}, "
          f"{state.epoch} epochs ({state.stopped_reason})")
    if ckpt.best_val_loss is not None:
        print(f"  best epoch {ckpt.best_epoch}, "
              f"best val loss {ckpt.best_val_loss}")
    print(f"  wall clock {state.wall_clock_total:.1f}s "
          f"(to best {state.wall_clock_to_best:.1f}s)")
    print(f"checkpoint -> {args.out}")
    print(f"history -> {history_path}")
    return 0


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    report = evaluate_checkpoint(ckpt, ds, partition=args.partition)
    report["model_kind"] = ckpt.model_kind
    report["best_val_loss"] = ckpt.best_val_loss
    report["partition"] = args.partition
    write_json(report, args.report)
    residuals_path = _sibling(args.report, "_residuals.csv")
    write_csv(residuals_path, ["date", "y", "yhat", "e"],
              [[r["date"], r["y"], r["yhat"], r["e"]]
               for r in report["residuals"]])
    m = report["metrics"]
    print(f"partition {args.partition}: n={report['n_test']}")
    for key in ("rmse", "mae", "r2"):
        print(f"  {key} = {m[key]}")
    print(f"  extreme_high_rmse = {report['extreme_high_rmse']} "
          f"(n={report['n_high']})")
    print(f"  extreme_low_rmse = {report['extreme_low_rmse']} "
          f"(n={report['n_low']})")
    print(f"report -> {args.report}")
    print(f"residuals -> {residuals_path}")
    return 0


def _sample(ds: PreparedDataset, partition: str, index: int):
    """Window ``index`` of a partition as one-sample (X, y) stacks."""
    part = ds.part(partition)
    if not 0 <= index < part.n_samples:
        raise DataError(f"sample index {index} out of range "
                        f"[0, {part.n_samples})")
    return part.X[index:index + 1], part.y[index:index + 1]


def _sample_internals(model, ckpt, ds: PreparedDataset, args) -> dict:
    """The dual-stream model's introspection dict for window ``args.sample``
    of ``args.partition``, from one eval-mode forward."""
    if ckpt.model_kind != "dual_stream":
        raise CompatibilityError(
            f"method {args.method!r} reads dual-stream internals; "
            f"checkpoint is {ckpt.model_kind!r}")
    X, _ = _sample(ds, args.partition, args.sample)
    _, intro = model.forward(wrap_params(ckpt.params, requires_grad=False),
                             X, train=False)
    return intro


def cmd_explain(args) -> int:
    if args.method not in EXPLAIN_METHODS:
        raise ConfigError(f"unknown explain method {args.method!r}; valid: "
                          + ", ".join(EXPLAIN_METHODS))
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    model = rebuild_model(ckpt, ds)
    seed = ckpt.seed if args.seed is None else args.seed
    out = Path(args.out)

    if args.method == "occlusion":
        result = occlusion_sensitivity(model, ckpt.params, ds,
                                       partition=args.partition)
        write_csv(out, ["feature", "delta_rmse", "occluded_rmse",
                        "baseline_rmse"],
                  [[r["feature"], r["delta_rmse"], r["occluded_rmse"],
                    result["baseline_rmse"]] for r in result["rows"]])
        top = max(result["rows"], key=lambda r: r["delta_rmse"])
        print(f"baseline rmse {result['baseline_rmse']}")
        print(f"most sensitive feature: {top['feature']} "
              f"(delta_rmse {top['delta_rmse']})")
    elif args.method == "pdp":
        if not args.feature:
            raise ConfigError("--feature is required for method 'pdp'")
        result = partial_dependence(model, ckpt.params, ds, args.feature,
                                    grid_size=args.grid_size,
                                    partition=args.partition)
        write_csv(out, ["value", "mean_prediction", "mean_prediction_scaled"],
                  [[g, p, s] for g, p, s in
                   zip(result["grid"], result["mean_prediction"],
                       result["mean_prediction_scaled"])])
        print(f"partial dependence on {args.feature}: "
              f"{len(result['grid'])} grid points")
    elif args.method == "permutation":
        result = permutation_importance(model, ckpt.params, ds,
                                        partition=args.partition,
                                        repeats=args.repeats, seed=seed)
        write_csv(out, ["feature", "mean_drop", "std", "repeats"],
                  [[r["feature"], r["mean_drop"], r["std"], r["repeats"]]
                   for r in result["rows"]])
        occ = occlusion_sensitivity(model, ckpt.params, ds,
                                    partition=args.partition)
        rho = ranking_agreement(occ, result)
        top = max(result["rows"], key=lambda r: r["mean_drop"])
        print(f"top feature: {top['feature']} (mean_drop {top['mean_drop']})")
        print(f"occlusion/permutation ranking agreement (spearman): {rho}")
    elif args.method == "residuals":
        y, yhat = raw_predictions(model, ckpt.params, ds, args.partition)
        diag = residual_diagnostics(yhat - y, predictions=yhat)
        write_json(diag, out)
        inside = sum(abs(row["r"]) <= diag["band"] for row in diag["acf"])
        print(f"residuals: n={diag['n']}, mean {diag['mean']:.4f}, "
              f"std {diag['std']:.4f}")
        print(f"acf: {inside}/{len(diag['acf'])} lags inside the "
              f"+/-{diag['band']:.4f} band")
    elif args.method == "kmeans":
        result = kmeans_regimes(ds.dates, ds.target_raw, ds.target, k=args.k,
                                seed=seed)
        write_csv(out, ["date", "cluster"],
                  [[d.isoformat(), int(c)]
                   for d, c in zip(ds.dates, result["assignments"])])
        centroid_path = _sibling(out, "_centroids.csv")
        write_csv(centroid_path, ["cluster", *result["feature_names"]],
                  [[i, *centroid]
                   for i, centroid in enumerate(result["centroids"])])
        sizes = np.bincount(result["assignments"], minlength=args.k)
        print(f"kmeans: k={args.k}, cluster sizes {sizes.tolist()}, "
              f"final wcss {result['wcss_history'][-1]}")
        print(f"centroids -> {centroid_path}")
    elif args.method == "attention":
        intro = _sample_internals(model, ckpt, ds, args)
        attn = intro["attention"][0].mean(axis=0)       # heads -> [L, L]
        write_csv(out, [f"t{j}" for j in range(attn.shape[1])],
                  [list(row) for row in attn])
        print(f"attention map for sample {args.sample}: "
              f"{attn.shape[0]}x{attn.shape[1]} (head-averaged)")
    else:  # states
        intro = _sample_internals(model, ckpt, ds, args)
        P = intro["p"][0]                               # [L, N]
        write_csv(out, [f"state{j}" for j in range(P.shape[1])],
                  [list(row) for row in P])
        trans_path = _sibling(out, "_transition.csv")
        write_csv(trans_path, [f"state{j}" for j in
                               range(intro["transition"].shape[1])],
                  [list(row) for row in intro["transition"]])
        print(f"state probabilities for sample {args.sample}: "
              f"{P.shape[0]} steps x {P.shape[1]} states")
        print(f"transition matrix -> {trans_path}")
    print(f"output -> {out}")
    return 0


def cmd_augment_preview(args) -> int:
    from .augment import augment_windows

    run_cfg = load_run_config(args.config)
    seed = run_cfg.seed if args.seed is None else args.seed
    ds = load_dataset(args.data)
    X1, y1 = _sample(ds, "train", args.sample)
    cfg = replace(run_cfg.augment, enabled=True)
    X4, y4 = augment_windows(X1, y1, seed, cfg)
    variants = ("original", "jitter", "scale", "warp")
    rows = []
    for v, name in enumerate(variants):
        for t in range(X4.shape[1]):
            rows.append([name, t, *X4[v, t, :], y4[v]])
    write_csv(args.out, ["variant", "t", *ds.feature_names, "y"], rows)
    print(f"augment preview: sample {args.sample}, seed {seed}, "
          f"{X4.shape[1]} steps x {ds.n_features} features x "
          f"{len(variants)} variants")
    print(f"output -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    run_cfg = load_run_config(args.config)
    seed = run_cfg.seed if args.seed is None else args.seed
    train_cfg = replace(run_cfg.training, seed=seed)
    model_cfg = _base_model_config(run_cfg, args.model)
    if args.kind == "learning-curve":
        if not args.data:
            raise ConfigError("learning-curve sweep needs --data")
        ds = load_dataset(args.data)
        rows = learning_curve(ds, fit_model_config(model_cfg, ds), train_cfg,
                              csv_path=args.out)
    else:  # feature-ablation
        csv_path = args.input or run_cfg.dataset.csv_path
        if not csv_path:
            raise ConfigError("feature-ablation sweep needs --input "
                              "or dataset.csv_path")
        table = load_csv(csv_path, target=run_cfg.dataset.target)
        # feature_ablation fits the config to each mode's dataset
        rows = feature_ablation(table, model_cfg, train_cfg,
                                lookback=run_cfg.dataset.lookback,
                                train_frac=run_cfg.dataset.train_frac,
                                val_frac=run_cfg.dataset.val_frac,
                                feature_spec=run_cfg.features,
                                csv_path=args.out)
    for row in rows:
        head = list(row.items())[:4]
        print("  " + ", ".join(f"{k}={v}" for k, v in head))
    print(f"sweep ({args.kind}) -> {args.out}")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremecast",
        description="Deterministic extreme-aware temperature forecasting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a dataset artifact from a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--input", default=None, help="raw CSV (default: "
                   "dataset.csv_path from the config)")
    p.add_argument("--out", required=True, help="dataset JSON to write")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset JSON from prepare")
    p.add_argument("--out", required=True, help="checkpoint JSON to write")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", default="dual_stream", choices=MODELS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="report JSON to write")
    p.add_argument("--partition", default="test",
                   choices=("train", "val", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="model and residual diagnostics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   help="one of: " + ", ".join(EXPLAIN_METHODS))
    p.add_argument("--out", required=True)
    p.add_argument("--partition", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--feature", default=None, help="feature name (pdp)")
    p.add_argument("--sample", type=int, default=0,
                   help="window index (attention, states)")
    p.add_argument("--k", type=int, default=4, help="cluster count (kmeans)")
    p.add_argument("--repeats", type=int, default=5,
                   help="shuffle repeats (permutation)")
    p.add_argument("--grid-size", type=int, default=20,
                   help="grid points (pdp)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("augment-preview",
                       help="before/after CSV for one training window")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("sweep",
                       help="learning-curve or feature-ablation table")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    p.add_argument("--data", default=None,
                   help="dataset JSON (learning-curve)")
    p.add_argument("--input", default=None, help="raw CSV (feature-ablation)")
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument("--model", default="dual_stream", choices=MODELS)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


# glibc's mallopt parameters (malloc.h) and the values main sets. Each eval
# forward allocates and frees 25-35 MB in temporaries of up to about 8 MB; by
# default glibc hands that memory back when the forward ends and faults it in
# again on the next batch.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # above every temporary, so none is mmap'd
_TRIM_THRESHOLD = 1 << 30  # the freed heap is kept, never trimmed


def _keep_freed_heap() -> None:
    """Make glibc keep the process's freed heap for the next allocation.

    Any successful mallopt call freezes glibc's dynamic mmap threshold, so
    the threshold is pinned first: the trim setting alone would freeze it
    at 128 KiB and mmap every large temporary. A no-op where the C library
    has no mallopt (macOS, Windows) or a stub that returns 0 (musl).
    Allocation policy moves no value: every artifact byte stays the same.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExtremecastError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
