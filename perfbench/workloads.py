"""The three benchmark workloads: their inputs, set-up, operation and checks.

Every input is generated here from the workload seed: the CSV, the run
config and, for ``explain``, the checkpoint.  The program sees only those
files, through the same in-process entry point as the ``extremecast`` CLI.

* ``train``: ``extremecast train`` on the clean synthetic table, for a fixed
  epoch count.  Time goes to recording the tape, ``backward``, the dropout
  masks' bulk RNG draws and AdamW.
* ``explain``: ``evaluate``, ``explain --method permutation`` (which also
  runs occlusion) and ``explain --method pdp`` on the test windows of a
  checkpoint holding the seeded initial parameters.  Many no-grad forward
  passes and JSON loads; no backward pass and no bulk RNG.
* ``prepare``: ``extremecast prepare`` on a CSV with seeded missing days and
  blank cells, then ``augment_windows`` over the train windows.  Data,
  features, pipeline, the dataset write and the RNG's small-request path;
  never the tape.

Every set-up generates its table, then times only the program's calls:
writing the table as CSV, ``extremecast prepare`` on it and loading the
dataset it wrote; on ``explain`` also building and saving the checkpoint.
On ``prepare`` the set-up's ``extremecast prepare`` is the workload's
prepare step, and the operation is the augmentation.  Checks and digests
run off the clock.

A set-up or operation raises ``CheckFailed`` when its output is wrong: a
non-zero exit code, a non-finite loss or RMSE, a wrong window count, or
(explain) an occlusion baseline that differs from the evaluated RMSE.  Byte
identity across repeats is checked by the caller from the returned digests.
Times are calibrated seconds (see ``probe``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from probe import Probe

LOOKBACK = 30
TRAIN_FRAC = 0.8
VAL_FRAC = 0.2
BATCH_SIZE = 64
DROPOUT = 0.2
PERMUTATION_REPEATS = 1
MISSING_DAY_SHARE = 0.03
BLANK_CELL_SHARE = 0.02


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass(frozen=True)
class Size:
    n_days: int
    epochs: int
    grid_size: int
    # set up at least this many times and for this much CPU time, so that
    # short set-ups give many samples
    setups: int
    setup_seconds: float


FULL = Size(n_days=2000, epochs=1, grid_size=20, setups=3, setup_seconds=4.0)
SMOKE = Size(n_days=400, epochs=1, grid_size=3, setups=2, setup_seconds=0.0)


@dataclass
class Context:
    pkg: dict           # short name -> imported extremecast module
    seed: int
    size: Size
    workdir: Path
    probe: Probe
    dataset: object = None      # the set-up's loaded dataset
    features: list = field(default_factory=list)   # set by the set-up

    def path(self, name: str) -> Path:
        return self.workdir / name

    def cli(self, *argv) -> None:
        """Run one extremecast subcommand in this process, output discarded."""
        with redirect_stdout(io.StringIO()):
            code = self.pkg["cli"].main([str(a) for a in argv])
        if code != 0:
            raise CheckFailed(f"extremecast {argv[0]} exited with code {code}")


@dataclass
class SetupResult:
    seconds: float          # the program's calls in the set-up
    prepare_s: float        # extremecast prepare alone
    raw: float              # seconds, in uncalibrated CPU seconds
    artifacts: dict


@dataclass
class Outcome:
    seconds: float          # time the throughput is taken over
    windows: int            # windows processed in that time
    eval_windows: int       # windows the program forwards in eval mode
    raw: float              # seconds, in uncalibrated CPU seconds
    artifacts: dict


def partition_sizes(n_days: int) -> dict:
    """Window counts of the chronological split (see extremecast.data)."""
    n_period = math.floor(n_days * TRAIN_FRAC)
    n_val = math.floor(n_period * VAL_FRAC)
    return {"val": n_val - LOOKBACK, "train": n_period - n_val - LOOKBACK,
            "test": n_days - n_period - LOOKBACK}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(ctx: Context, *names: str) -> dict:
    return {name: digest(ctx.path(name)) for name in names}


def require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailed(f"{what} is not finite")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_dataset(ctx: Context, ds) -> None:
    """Check a loaded dataset's window counts and values."""
    want = partition_sizes(ctx.size.n_days)
    got = {p: ds.part(p).n_samples for p in want}
    if got != want:
        raise CheckFailed(f"dataset windows {got}, expected {want}")
    require_finite(ds.feature_matrix, "dataset feature matrix")


def run_config(ctx: Context) -> dict:
    epochs = ctx.size.epochs
    return {"seed": ctx.seed,
            "dataset": {"target": "tempmax", "lookback": LOOKBACK,
                        "train_frac": TRAIN_FRAC, "val_frac": VAL_FRAC},
            "augment": {"enabled": False},
            "model": {"dropout": DROPOUT},
            "training": {"batch_size": BATCH_SIZE, "max_epochs": epochs,
                         "patience": epochs}}


def clean_table(ctx: Context):
    return ctx.pkg["synthetic"].sinusoid_ar_table(ctx.seed,
                                                  n_days=ctx.size.n_days)


def set_up(ctx: Context, trace, table, then=None) -> SetupResult:
    """Write ``table`` as CSV, prepare it and load the dataset, then run
    ``then(ctx, ds)`` (more program calls, with artifact names returned);
    only these calls are timed.  Leaves the dataset in ``ctx``."""
    ctx.path("run.json").write_text(json.dumps(run_config(ctx)) + "\n",
                                    encoding="utf-8")
    probe = ctx.probe
    with trace(), probe.timed() as setup:
        ctx.pkg["synthetic"].table_to_csv(table, str(ctx.path("input.csv")))
        with probe.timed() as prepare:
            ctx.cli("prepare", "--config", ctx.path("run.json"),
                    "--input", ctx.path("input.csv"),
                    "--out", ctx.path("data.json"))
        ds = ctx.pkg["checkpoint"].load_dataset(ctx.path("data.json"))
        written = then(ctx, ds) if then is not None else ()
    check_dataset(ctx, ds)
    ctx.dataset = ds
    ctx.features = list(ds.feature_names)
    return SetupResult(setup.seconds, prepare.seconds, setup.raw,
                       digests(ctx, "input.csv", "data.json", "data_audit.csv",
                               *written))


# ------------------------------------------------------------------ train


def train_setup(ctx: Context, trace) -> SetupResult:
    return set_up(ctx, trace, clean_table(ctx))


def train_operation(ctx: Context) -> Outcome:
    with ctx.probe.timed() as op:
        ctx.cli("train", "--config", ctx.path("run.json"),
                "--data", ctx.path("data.json"), "--out", ctx.path("model.json"))
    history = read_csv(ctx.path("model_history.csv"))
    if len(history) != ctx.size.epochs:
        raise CheckFailed(f"history has {len(history)} epochs, "
                          f"expected {ctx.size.epochs}")
    require_finite([float(r[k]) for r in history
                    for k in ("train_loss", "val_loss")], "training loss")
    ckpt = json.loads(ctx.path("model.json").read_text(encoding="utf-8"))
    best = ckpt["train_state"]["best_val_loss"]
    if best is None:
        raise CheckFailed("checkpoint has no best validation loss")
    require_finite(best, "best validation loss")
    sizes = partition_sizes(ctx.size.n_days)
    return Outcome(seconds=op.seconds, windows=sizes["train"] * ctx.size.epochs,
                   eval_windows=sizes["val"] * ctx.size.epochs, raw=op.raw,
                   artifacts=digests(ctx, "model.json", "model_history.csv"))


# ---------------------------------------------------------------- explain


def save_initial_checkpoint(ctx: Context, ds) -> tuple[str]:
    """The checkpoint of the seeded initial parameters, as model.json."""
    pkg = ctx.pkg
    cfg = pkg["model"].ModelConfig(n_features=ds.n_features,
                                   lookback=ds.lookback, dropout=DROPOUT)
    params = pkg["model"].DualStreamModel(cfg).init_params(
        pkg["rng"].Rng(ctx.seed, "init"))
    ckpt = pkg["checkpoint"].Checkpoint(
        model_kind="dual_stream", model_config=asdict(cfg), params=params,
        feature_names=list(ds.feature_names), scaler=ds.scaler,
        lookback=ds.lookback, target=ds.target, seed=ctx.seed, best_epoch=0)
    pkg["checkpoint"].save_checkpoint(ckpt, ctx.path("model.json"))
    return ("model.json",)


def explain_setup(ctx: Context, trace) -> SetupResult:
    return set_up(ctx, trace, clean_table(ctx), save_initial_checkpoint)


def explain_operation(ctx: Context) -> Outcome:
    cli = ctx.pkg["cli"]
    common = ("--checkpoint", ctx.path("model.json"),
              "--data", ctx.path("data.json"), "--partition", "test")
    feature = ctx.features[0]
    # explain --method permutation runs occlusion but writes only the
    # permutation table; keep occlusion's baseline for the check below
    baselines = []
    occlusion = cli.occlusion_sensitivity

    def capture(*args, **kwargs):
        result = occlusion(*args, **kwargs)
        baselines.append(result["baseline_rmse"])
        return result

    cli.occlusion_sensitivity = capture
    try:
        with ctx.probe.timed() as op:
            ctx.cli("evaluate", *common, "--report", ctx.path("report.json"))
            ctx.cli("explain", *common, "--method", "permutation",
                    "--repeats", PERMUTATION_REPEATS, "--out", ctx.path("perm.csv"))
            ctx.cli("explain", *common, "--method", "pdp", "--feature", feature,
                    "--grid-size", ctx.size.grid_size, "--out", ctx.path("pdp.csv"))
    finally:
        cli.occlusion_sensitivity = occlusion

    report = json.loads(ctx.path("report.json").read_text(encoding="utf-8"))
    rmses = [report["metrics"][k] for k in ("mse", "rmse", "mae")] + [
        report[k] for k in ("extreme_high_rmse", "extreme_low_rmse")
        if report[k] is not None]
    require_finite(rmses, "evaluation errors")
    if baselines != [report["metrics"]["rmse"]]:
        raise CheckFailed(f"occlusion baseline_rmse {baselines} differs from "
                          f"evaluated rmse {report['metrics']['rmse']}")
    require_finite([float(r["mean_drop"]) for r in read_csv(ctx.path("perm.csv"))],
                   "permutation importance")
    pdp = read_csv(ctx.path("pdp.csv"))
    if len(pdp) != ctx.size.grid_size:
        raise CheckFailed(f"pdp has {len(pdp)} grid points, "
                          f"expected {ctx.size.grid_size}")
    require_finite([float(r["mean_prediction"]) for r in pdp],
                   "partial dependence")

    n_test = partition_sizes(ctx.size.n_days)["test"]
    n_features = len(ctx.features)
    # evaluate; permutation's baseline and shuffles; occlusion's baseline and
    # occlusions; one pass per pdp grid point
    passes = (1 + (1 + n_features * PERMUTATION_REPEATS) + (1 + n_features)
              + ctx.size.grid_size)
    return Outcome(seconds=op.seconds, windows=passes * n_test,
                   eval_windows=passes * n_test, raw=op.raw,
                   artifacts=digests(ctx, "report.json", "report_residuals.csv",
                                     "perm.csv", "pdp.csv"))


# ---------------------------------------------------------------- prepare


def gappy_table(ctx: Context):
    """The synthetic table with seeded missing days and blank cells.  The
    first and last days stay, so the calendar and the window counts do not
    change."""
    table = clean_table(ctx)
    gen = np.random.default_rng(ctx.seed)
    keep = gen.random(table.n_days) >= MISSING_DAY_SHARE
    keep[0] = keep[-1] = True
    columns = {}
    for name in sorted(table.columns):
        col = table.columns[name].copy()
        col[gen.random(table.n_days) < BLANK_CELL_SHARE] = np.nan
        columns[name] = col[keep]
    dates = [d for d, k in zip(table.dates, keep) if k]
    return ctx.pkg["data"].TimeSeriesTable(dates, columns)


def prepare_setup(ctx: Context, trace) -> SetupResult:
    return set_up(ctx, trace, gappy_table(ctx))


def prepare_operation(ctx: Context) -> Outcome:
    augment = ctx.pkg["augment"]
    part = ctx.dataset.part("train")
    with ctx.probe.timed() as op:
        X, y = augment.augment_windows(part.X, part.y, ctx.seed,
                                       augment.AugmentConfig())
    if X.shape != (4 * part.n_samples, *part.X.shape[1:]) or y.shape != (X.shape[0],):
        raise CheckFailed(f"augmented shapes {X.shape}, {y.shape}")
    require_finite(X, "augmented windows")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X))
    h.update(np.ascontiguousarray(y))
    return Outcome(seconds=op.seconds, windows=part.n_samples, eval_windows=0,
                   raw=op.raw, artifacts={"augmented": h.hexdigest()})


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context, Callable], SetupResult]
    operation: Callable[[Context], Outcome]
    # what windows_per_s measures on this workload, named for the report
    windows_metric: str


WORKLOADS = {w.name: w for w in (
    Workload("train", train_setup, train_operation, "train_windows_per_s"),
    Workload("explain", explain_setup, explain_operation, "explain_windows_per_s"),
    Workload("prepare", prepare_setup, prepare_operation, "augment_windows_per_s"),
)}
