"""Training loop and ablation sweeps.

This module owns building, fitting and scoring models and the two sweeps;
the kind table (``baselines.MODELS``), ``TrainConfig`` and ``from_json``
sit below it.

Each epoch shuffles the training windows (stream "shuffle"), iterates
mini-batches (final partial batch kept only with >= 2 samples, since the
extreme loss takes in-batch quantiles), runs forward → loss → backward →
global-norm clip → AdamW with a cosine warm-restart learning rate (forward
and backward run at ``model.TAPE_DTYPE``; the loss, the gradients handed to
the clip and the parameters are float64), then
scores the full validation partition with the same loss over ``predict``'s
eval-mode batches, the predictions ``evaluate`` reports.
Training stops after ``patience`` epochs without strict validation
improvement (or at ``max_epochs``) and returns the best epoch's parameters.

``learning_curve`` retrains on the chronologically latest fraction of the
training windows — those nearest the evaluation boundary — by handing
``train`` a dataset whose training partition holds only them, and
``feature_ablation`` rebuilds the dataset per feature mode with identical
seeds.  Both return their rows; the CLI writes them.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .augment import augment_windows
from .baselines import MODELS
from .checkpoint import Checkpoint, check_feature_compatibility
from .config import TrainConfig, from_json
from .errors import CompatibilityError, ConfigError, DataError, NumericError
from .features import FEATURE_MODES, FeatureSpec
from .losses import LossConfig, compute_loss
from .metrics import evaluation_report
from .model import TAPE_DTYPE, predict, raw_predictions, wrap_params
from .optim import (AdamWState, adamw_step, clip_global_norm,
                    cosine_warm_restart_lr)
from .pipeline import PreparedDataset, prepare
from .rng import Rng
from .tensor import Var

HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss", "lr")
LEARNING_CURVE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class TrainState:
    epoch: int = 0
    best_epoch: int = 0
    best_val_loss: float = math.inf
    epochs_since_improvement: int = 0
    history: list = field(default_factory=list)
    wall_clock_to_best: float = 0.0
    wall_clock_total: float = 0.0
    optim_state: AdamWState = field(default_factory=AdamWState)
    stopped_reason: str = ""


def build_model(model_cfg, dataset: PreparedDataset):
    """Instantiate the model named by a config object; returns (model, kind)."""
    for kind, (cls, builder) in MODELS.items():
        if isinstance(model_cfg, cls):
            return builder(model_cfg, dataset), kind
    raise ConfigError(f"unrecognized model config type {type(model_cfg).__name__}")


def model_config_from_dict(kind: str, doc: dict):
    """Rebuild a model config dataclass from its JSON form, read as strictly
    as a run config's sections (``config.from_json``)."""
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        return from_json(MODELS[kind][0], doc, "model_config").validate()
    except ConfigError as exc:
        raise CompatibilityError(
            f"model_config does not fit model kind {kind!r}: {exc}") from exc


def fit_model_config(model_cfg, dataset: PreparedDataset):
    """The config with whichever of n_features/lookback it has set to the
    dataset's."""
    dims = {"n_features": dataset.n_features, "lookback": dataset.lookback}
    return replace(model_cfg, **{k: v for k, v in dims.items()
                                 if hasattr(model_cfg, k)}).validate()


def rebuild_model(ckpt: Checkpoint, dataset: PreparedDataset):
    """The checkpoint's model for a dataset, after checking that the dataset's
    feature list and lookback are the checkpoint's and that the stored
    parameter names and shapes are the model's."""
    check_feature_compatibility(ckpt, dataset.feature_names)
    if ckpt.lookback != dataset.lookback:
        raise CompatibilityError(
            f"lookback mismatch: checkpoint has {ckpt.lookback}, "
            f"dataset has {dataset.lookback}")
    model_cfg = model_config_from_dict(ckpt.model_kind, ckpt.model_config)
    model, _ = build_model(model_cfg, dataset)
    expected = dict(model._specs)
    for name in sorted(expected.keys() | ckpt.params.keys()):
        have = ckpt.params[name].shape if name in ckpt.params else None
        if have != expected.get(name):
            raise CompatibilityError(
                f"checkpoint parameter {name!r}: shape {have} in the checkpoint, "
                f"{expected.get(name)} in the {ckpt.model_kind} model")
    return model


def _batch_spans(n: int, batch_size: int) -> list:
    """[lo, hi) spans over a permutation; a trailing span of 1 is dropped."""
    spans = []
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        if hi - lo >= 2:
            spans.append((lo, hi))
    return spans


def _training_arrays(dataset: PreparedDataset, cfg: TrainConfig):
    part = dataset.part("train")
    X, y = part.X, part.y
    if cfg.augment.enabled:
        X, y = augment_windows(X, y, cfg.seed, cfg.augment)
    return X, y


def _validation_loss(model, params, part, loss_cfg: LossConfig) -> float:
    """The loss over a partition's windows, scored through ``predict``."""
    loss = float(compute_loss(Var(predict(model, params, part.X)), part.y,
                              loss_cfg).value)
    if not math.isfinite(loss):
        raise NumericError("non-finite validation loss")
    return loss


def _train_step(model, params, X, y, cfg: TrainConfig, state: TrainState,
                lr: float, dropout_rng: Rng, where: str) -> float:
    """Forward, loss, backward, clip and AdamW on one batch; updates
    ``params`` in place and returns the batch loss.  ``backward`` frees the
    step's tape as it walks it; the parameter gradients die with this frame,
    before validation runs."""
    wrapped = wrap_params(params, dtype=TAPE_DTYPE)
    pred = model.forward(wrapped, X, train=True, rng=dropout_rng)
    loss = compute_loss(pred, y, cfg.loss)
    loss_value = float(loss.value)
    if not math.isfinite(loss_value):
        raise NumericError(f"non-finite training loss at {where}")
    T.backward(loss)
    grads = {name: wrapped[name].grad.astype(np.float64, copy=False) for name in params
             if wrapped[name].grad is not None}
    clip_global_norm(grads, cfg.optim.clip_norm)
    adamw_step(params, grads, state.optim_state, cfg.optim, lr, model.no_decay)
    return loss_value


def _make_checkpoint(dataset, kind, model_cfg, params, cfg, state) -> Checkpoint:
    best = None if math.isinf(state.best_val_loss) else state.best_val_loss
    return Checkpoint(
        model_kind=kind,
        model_config=asdict(model_cfg),
        params=params,
        feature_names=list(dataset.feature_names),
        scaler=dataset.scaler,
        lookback=dataset.lookback,
        target=dataset.target,
        seed=cfg.seed,
        best_val_loss=best,
        best_epoch=state.best_epoch,
        extra={"train_config": asdict(cfg), "feature_mode": dataset.mode},
    )


def train(dataset: PreparedDataset, model_cfg, train_cfg: TrainConfig):
    """Full training run; returns (Checkpoint, TrainState)."""
    cfg = train_cfg.validate()
    model, kind = build_model(model_cfg, dataset)
    val = dataset.part("val")
    if val.n_samples < 2:
        raise DataError(f"validation set of {val.n_samples} windows cannot "
                        "score the extreme-weighted loss, which needs >= 2")

    state = TrainState()
    started = time.monotonic()

    if kind == "persistence":
        state.best_val_loss = _validation_loss(model, {}, val, cfg.loss)
        state.wall_clock_total = time.monotonic() - started
        state.stopped_reason = "no_training_needed"
        return _make_checkpoint(dataset, kind, model_cfg, {}, cfg, state), state

    X, y = _training_arrays(dataset, cfg)
    spans = _batch_spans(X.shape[0], cfg.batch_size)
    if not spans:
        raise DataError(
            f"training set of {X.shape[0]} windows cannot fill a batch of >= 2")

    params = model.init_params(Rng(cfg.seed, "init"))
    best_params = {k: v.copy() for k, v in params.items()}
    shuffle_rng = Rng(cfg.seed, "shuffle")
    dropout_rng = Rng(cfg.seed, "dropout")

    for epoch in range(1, cfg.max_epochs + 1):
        lr = cosine_warm_restart_lr(epoch - 1, cfg.optim)
        perm = shuffle_rng.permutation(X.shape[0])
        loss_sum, n_seen = 0.0, 0
        for b, (lo, hi) in enumerate(spans):
            idx = perm[lo:hi]
            loss_value = _train_step(model, params, X[idx], y[idx], cfg, state,
                                     lr, dropout_rng, f"epoch {epoch}, batch {b}")
            loss_sum += loss_value * idx.size
            n_seen += idx.size

        val_loss = _validation_loss(model, params, val, cfg.loss)
        state.epoch = epoch
        state.history.append({"epoch": epoch, "train_loss": loss_sum / n_seen,
                              "val_loss": val_loss, "lr": lr})
        if val_loss < state.best_val_loss:
            state.best_val_loss = val_loss
            state.best_epoch = epoch
            state.epochs_since_improvement = 0
            state.wall_clock_to_best = time.monotonic() - started
            best_params = {k: v.copy() for k, v in params.items()}
        else:
            state.epochs_since_improvement += 1
        if state.epochs_since_improvement >= cfg.patience:
            state.stopped_reason = "early_stopping"
            break
    else:
        state.stopped_reason = "max_epochs"

    state.wall_clock_total = time.monotonic() - started
    ckpt = _make_checkpoint(dataset, kind, model_cfg, best_params, cfg, state)
    return ckpt, state


def evaluate_model(model, params, dataset: PreparedDataset,
                   partition: str = "test") -> dict:
    """Raw-unit evaluation report for one partition."""
    y, yhat = raw_predictions(model, params, dataset, partition)
    dates = [dataset.dates[r] for r in dataset.part(partition).target_rows]
    return evaluation_report(y, yhat, dates=dates)


def evaluate_checkpoint(ckpt: Checkpoint, dataset: PreparedDataset,
                        partition: str = "test") -> dict:
    return evaluate_model(rebuild_model(ckpt, dataset), ckpt.params, dataset,
                          partition)


def _effective_batches(n: int, cfg: TrainConfig) -> int:
    if cfg.augment.enabled:
        n *= 4
    return len(_batch_spans(n, cfg.batch_size))


def learning_curve(dataset: PreparedDataset, model_cfg, train_cfg: TrainConfig,
                   fractions=LEARNING_CURVE_FRACTIONS) -> list:
    """Retrain on trailing fractions of the training windows; rows of
    (fraction, n_train, test metrics)."""
    cfg = train_cfg.validate()
    part = dataset.part("train")
    rows = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("learning-curve fractions must be in (0, 1]")
        n_keep = int(round(part.n_samples * fraction))
        if _effective_batches(n_keep, cfg) < 2:
            warnings.warn(
                f"fraction {fraction} yields fewer than 2 batches; skipped",
                stacklevel=2)
            continue
        keep = slice(part.n_samples - n_keep, None)
        trailing = replace(part, X=part.X[keep], y=part.y[keep],
                           target_rows=part.target_rows[keep])
        ckpt, state = train(replace(dataset,
                                    parts={**dataset.parts, "train": trailing}),
                            model_cfg, cfg)
        report = evaluate_checkpoint(ckpt, dataset)
        row = {"fraction": fraction,
               "n_train": n_keep,
               "best_epoch": state.best_epoch,
               "best_val_loss": state.best_val_loss}
        row.update(report["metrics"])
        rows.append(row)
    return rows


def feature_ablation(table, model_cfg, train_cfg: TrainConfig,
                     modes=FEATURE_MODES, lookback: int = 30,
                     train_frac: float = 0.8, val_frac: float = 0.2,
                     feature_spec=None) -> list:
    """Train and evaluate under each feature mode with identical seeds."""
    if not modes:
        raise ConfigError("feature_ablation needs at least one mode")
    rows = []
    for mode in modes:
        spec = replace(feature_spec or FeatureSpec(), mode=mode).validate()
        ds = prepare(table, lookback=lookback, train_frac=train_frac,
                     val_frac=val_frac, feature_spec=spec)
        ckpt, state = train(ds, fit_model_config(model_cfg, ds), train_cfg)
        report = evaluate_checkpoint(ckpt, ds)
        row = {"mode": mode, "n_features": ds.n_features,
               "best_epoch": state.best_epoch,
               "best_val_loss": state.best_val_loss}
        row.update(report["metrics"])
        rows.append(row)
    return rows
