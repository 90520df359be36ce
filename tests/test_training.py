"""Training-loop tests: batching rules, early stopping, determinism,
best-checkpoint restoration, and the sweep helpers."""

import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import extremecast.training as training
from extremecast.augment import AugmentConfig
from extremecast.baselines import (NBeatsConfig, NBeatsModel, PersistenceConfig,
                                   TcnConfig, TcnModel)
from extremecast.config import TrainConfig
from extremecast.errors import (CompatibilityError, ConfigError, DataError,
                               NumericError)
from extremecast.features import FeatureSpec
from extremecast.losses import LossConfig
from extremecast.model import DualStreamModel, ModelConfig
from extremecast.optim import OptimConfig, cosine_warm_restart_lr
from extremecast.pipeline import prepare
from extremecast.rng import Rng
from extremecast.training import (_batch_spans, _training_arrays, build_model,
                                  evaluate_checkpoint, evaluate_model,
                                  feature_ablation, fit_model_config,
                                  learning_curve, model_config_from_dict,
                                  train)
from persistence_task import persistence_task_table


@pytest.fixture(scope="module")
def table():
    return persistence_task_table(0, n_days=300)


@pytest.fixture(scope="module")
def dataset(table):
    return prepare(table, lookback=8, feature_spec=FeatureSpec(mode="minimal"))


def quick_cfg(**kw):
    base = dict(batch_size=32, max_epochs=3, patience=25, seed=3,
                loss=LossConfig(), optim=OptimConfig(),
                augment=AugmentConfig(enabled=False))
    base.update(kw)
    return TrainConfig(**base)


def tiny_nbeats():
    return NBeatsConfig(lookback=8, stacks=2, fc_units=8)


# ------------------------------------------------------------ config/units


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(patience=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0).validate()


def test_default_size_step_frees_its_tape_as_backward_walks_it():
    # forward, loss, backward, clip and AdamW (whose state it creates) on
    # one batch of 64 default-size windows; the float32 tape alone holds
    # about 20 MB before backward
    model = DualStreamModel(ModelConfig())
    params = model.init_params(Rng(0, "init"))
    rng = Rng(1, "data")
    X, y = rng.gaussian_array((64, 30, 30)), rng.gaussian_array((64,))
    tracemalloc.start()
    try:
        training._train_step(model, params, X, y, TrainConfig(), training.TrainState(),
                             1e-3, Rng(2, "dropout"), "step 0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


def test_batch_spans_drop_singleton_tail():
    assert _batch_spans(130, 64) == [(0, 64), (64, 128), (128, 130)]
    assert _batch_spans(129, 64) == [(0, 64), (64, 128)]
    assert _batch_spans(5, 64) == [(0, 5)]
    assert _batch_spans(1, 64) == []
    assert _batch_spans(0, 64) == []


def test_training_arrays_take_latest_fraction(dataset, monkeypatch):
    # each learning-curve run trains on the trailing windows of the partition
    seen = []
    real_train = training.train

    def spy(ds, model_cfg, cfg):
        seen.append(ds)
        return real_train(ds, model_cfg, cfg)

    monkeypatch.setattr(training, "train", spy)
    rows = learning_curve(dataset, PersistenceConfig(), quick_cfg(),
                          fractions=(0.3, 1.0))
    full = dataset.part("train")
    n_keep = int(round(full.n_samples * 0.3))
    assert [r["n_train"] for r in rows] == [n_keep, full.n_samples]
    for ds, n in zip(seen, (n_keep, full.n_samples)):
        X, y = _training_arrays(ds, quick_cfg())
        np.testing.assert_array_equal(X, full.X[-n:])
        np.testing.assert_array_equal(y, full.y[-n:])
        np.testing.assert_array_equal(ds.part("train").target_rows,
                                      full.target_rows[-n:])
        assert ds.part("test") is dataset.part("test")


def test_training_arrays_augment_quadruples(dataset):
    n = dataset.part("train").n_samples
    X, y = _training_arrays(dataset, quick_cfg(augment=AugmentConfig(
        enabled=True)))
    assert X.shape[0] == 4 * n and y.shape[0] == 4 * n


def test_no_decay_sets_by_name():
    # biases, layer-norm gains and the transition logits skip weight decay
    dual = DualStreamModel(ModelConfig(n_features=3, lookback=4, embed_dim=4,
                                       lstm_hidden=2, gru_hidden=2, n_states=2,
                                       n_heads=2, stream_dim=2, n_layers=1))
    assert dual.no_decay == {
        "emb.b", "lstm.0.f.b", "lstm.0.b.b", "em.b", "trans.logits", "head_m.b",
        "amp.b1", "amp.b2", "gru.0.f.bx", "gru.0.f.bh", "gru.0.b.bx",
        "gru.0.b.bh", "head_a.b", "fuse.b", "out.b"}
    # with and without the first block's residual projection block.0.res.W
    for n_features, res in ((3, True), (4, False)):
        tcn = TcnModel(TcnConfig(n_features=n_features, lookback=4,
                                 channels=(4, 5), dilations=(1, 2)))
        assert ("block.0.res.W" in dict(tcn._specs)) == res
        assert tcn.no_decay == {
            "block.0.conv.b", "block.0.ln.g", "block.0.ln.b",
            "block.1.conv.b", "block.1.ln.g", "block.1.ln.b", "head.b"}
    nbeats = NBeatsModel(NBeatsConfig(lookback=4, stacks=2, fc_units=3), 0)
    assert nbeats.no_decay == {f"stack.{s}.{n}.b" for s in (0, 1)
                               for n in ("fc1", "fc2", "back", "fore")}
    # (no-decay, all) parameter counts at the default configs
    counts = [(len(m.no_decay), len(m._specs)) for m in (
        DualStreamModel(ModelConfig()), TcnModel(TcnConfig()),
        TcnModel(TcnConfig(n_features=16)), NBeatsModel(NBeatsConfig(), 0))]
    assert counts == [(21, 49), (10, 23), (10, 22), (16, 32)]


def test_model_config_round_trip(dataset):
    for cfg in (ModelConfig(n_features=11, lookback=8, embed_dim=8,
                            lstm_hidden=4, gru_hidden=4, n_states=3,
                            n_heads=2, stream_dim=8),
                TcnConfig(n_features=11, lookback=8, channels=(3, 5),
                          kernel=2, dilations=(1, 2)),
                tiny_nbeats(),
                PersistenceConfig()):
        model, kind = build_model(cfg, dataset)
        rebuilt = model_config_from_dict(kind, asdict(cfg))
        assert rebuilt == cfg
    with pytest.raises(ConfigError):
        model_config_from_dict("bogus", {})
    with pytest.raises(ConfigError):
        build_model(object(), dataset)


# ------------------------------------------------------------ core loop


def test_early_stopping_contract(dataset, monkeypatch):
    seq = iter([1.0, 2.0, 3.0, 4.0])
    snaps = []

    def scripted_val(model, params, part, loss_cfg):
        snaps.append({k: v.copy() for k, v in params.items()})
        return next(seq)

    monkeypatch.setattr(training, "_validation_loss", scripted_val)
    ckpt, state = train(dataset, tiny_nbeats(),
                        quick_cfg(max_epochs=10, patience=1))
    assert state.epoch == 2
    assert len(state.history) == 2
    assert state.best_epoch == 1
    assert state.best_val_loss == 1.0
    assert state.stopped_reason == "early_stopping"
    for name, arr in ckpt.params.items():
        np.testing.assert_array_equal(arr, snaps[0][name])


def test_same_seed_runs_are_bitwise_identical(dataset):
    runs = [train(dataset, tiny_nbeats(), quick_cfg()) for _ in range(2)]
    (c1, s1), (c2, s2) = runs
    assert s1.history == s2.history  # float equality, not approx
    assert c1.params.keys() == c2.params.keys()
    for name in c1.params:
        np.testing.assert_array_equal(c1.params[name], c2.params[name])


def test_val_loss_improves_on_learnable_synthetic(dataset):
    ckpt, state = train(dataset, tiny_nbeats(), quick_cfg(max_epochs=6))
    assert state.best_val_loss < state.history[0]["val_loss"]


def test_best_checkpoint_reproduces_best_val_loss(dataset):
    cfg = quick_cfg(max_epochs=5)
    ckpt, state = train(dataset, tiny_nbeats(), cfg)
    model, _ = build_model(tiny_nbeats(), dataset)
    redo = training._validation_loss(model, ckpt.params, dataset.part("val"),
                                     cfg.loss)
    assert abs(redo - state.best_val_loss) <= 1e-12


def test_validation_scores_val_windows_through_predict(dataset, monkeypatch):
    # val is scored on predict's batches, the predictions evaluate reports
    seen = []
    real_predict = training.predict

    def spy(model, params, X, *args, **kwargs):
        seen.append(X)
        return real_predict(model, params, X, *args, **kwargs)

    monkeypatch.setattr(training, "predict", spy)
    train(dataset, tiny_nbeats(), quick_cfg(max_epochs=1))
    assert len(seen) == 1 and seen[0] is dataset.part("val").X


def test_history_invariants(dataset):
    cfg = quick_cfg(max_epochs=5)
    ckpt, state = train(dataset, tiny_nbeats(), cfg)
    assert len(state.history) <= cfg.max_epochs
    assert state.wall_clock_to_best <= state.wall_clock_total
    running = math.inf
    for row in state.history:
        running = min(running, row["val_loss"])
        assert row["lr"] == cosine_warm_restart_lr(row["epoch"] - 1, cfg.optim)
        assert set(row) == set(training.HISTORY_COLUMNS)
    assert running == state.best_val_loss
    assert ckpt.best_epoch == state.best_epoch


def test_persistence_trains_trivially(dataset):
    ckpt, state = train(dataset, PersistenceConfig(), quick_cfg())
    assert ckpt.model_kind == "persistence"
    assert ckpt.params == {}
    assert state.history == []
    assert state.stopped_reason == "no_training_needed"
    assert math.isfinite(state.best_val_loss)


@pytest.mark.parametrize("config", [ModelConfig(), PersistenceConfig()],
                         ids=["dual_stream", "persistence"])
def test_one_window_validation_set_is_refused(config):
    # the extreme-weighted loss needs >= 2 targets; persistence scores val too
    ds = prepare(persistence_task_table(0, n_days=52), lookback=7,
                 feature_spec=FeatureSpec(mode="minimal"))
    assert ds.part("val").n_samples == 1
    with pytest.raises(DataError, match="validation set of 1 windows"):
        train(ds, fit_model_config(config, ds), quick_cfg())


def test_non_finite_loss_aborts_with_location(dataset, monkeypatch):
    class ExplodingModel:
        no_decay = frozenset()

        def init_params(self, rng):
            return {"w": np.zeros(1)}

        def forward(self, params, X, train=False, rng=None):
            from extremecast.tensor import Var
            return Var(np.full(X.shape[0], np.inf))

    monkeypatch.setattr(training, "build_model",
                        lambda cfg, ds: (ExplodingModel(), "tcn"))
    with pytest.raises(NumericError, match=r"epoch 1, batch 0"):
        train(dataset, tiny_nbeats(), quick_cfg())


def test_optimizer_never_sees_val_or_test(dataset):
    inner, _ = build_model(tiny_nbeats(), dataset)
    train_bytes = {dataset.part("train").X[i].tobytes()
                   for i in range(dataset.part("train").n_samples)}
    seen = {"train_ok": True, "eval_arrays": []}

    class Auditor:
        no_decay = inner.no_decay

        def init_params(self, rng):
            return inner.init_params(rng)

        def forward(self, params, X, train=False, rng=None):
            if train:
                for row in np.asarray(X):
                    if row.tobytes() not in train_bytes:
                        seen["train_ok"] = False
            else:
                seen["eval_arrays"].append(np.asarray(X))
            return inner.forward(params, X, train=train, rng=rng)

    import unittest.mock as mock
    with mock.patch.object(training, "build_model",
                           lambda cfg, ds: (Auditor(), "nbeats")):
        train(dataset, tiny_nbeats(), quick_cfg(max_epochs=2))
    assert seen["train_ok"]
    for arr in seen["eval_arrays"]:
        assert np.array_equal(arr, dataset.part("val").X)


# ----------------------------------------------------------------- sweeps


def test_evaluate_model_report(dataset):
    model, _ = build_model(PersistenceConfig(), dataset)
    report = evaluate_model(model, {}, dataset)
    assert report["n_test"] == dataset.part("test").n_samples
    assert math.isfinite(report["metrics"]["rmse"])
    assert "training_time_s" not in report


def test_evaluate_checkpoint_refuses_swapped_feature_columns(dataset):
    # the same windows with two feature columns swapped would still give a
    # plausible report; the feature lists tell the datasets apart
    tcn = TcnConfig(n_features=dataset.n_features, lookback=8, channels=(4,),
                    dilations=(1,))
    ckpt, _ = train(dataset, tcn, quick_cfg(max_epochs=1))
    order = [1, 0, *range(2, dataset.n_features)]
    swapped = replace(
        dataset, feature_names=[dataset.feature_names[i] for i in order],
        parts={k: replace(p, X=p.X[:, :, order]) for k, p in dataset.parts.items()})
    evaluate_checkpoint(ckpt, dataset)
    with pytest.raises(CompatibilityError, match="position 0"):
        evaluate_checkpoint(ckpt, swapped)


def test_learning_curve_rows(dataset):
    cfg = quick_cfg(max_epochs=2)
    rows = learning_curve(dataset, tiny_nbeats(), cfg, fractions=(0.5, 1.0))
    assert [r["fraction"] for r in rows] == [0.5, 1.0]
    assert rows[0]["n_train"] < rows[1]["n_train"]
    # the full-fraction row must match a plain run with the same seed
    ckpt, _ = train(dataset, tiny_nbeats(), cfg)
    direct = evaluate_checkpoint(ckpt, dataset)
    assert rows[1]["rmse"] == direct["metrics"]["rmse"]
    assert learning_curve(dataset, tiny_nbeats(), cfg, fractions=()) == []


def test_learning_curve_skips_tiny_fraction(dataset):
    cfg = quick_cfg(max_epochs=2)
    with pytest.warns(UserWarning, match="fewer than 2 batches"):
        rows = learning_curve(dataset, tiny_nbeats(), cfg,
                              fractions=(0.01, 0.1))
    assert rows == []
    # augmentation makes 4 windows of each, so 0.1 of the windows fills 2
    # batches, while 0.01 still does not
    augmented = replace(cfg, augment=AugmentConfig(enabled=True))
    with pytest.warns(UserWarning, match="fraction 0.01 yields"):
        rows = learning_curve(dataset, tiny_nbeats(), augmented,
                              fractions=(0.01, 0.1))
    assert [row["fraction"] for row in rows] == [0.1]
    with pytest.raises(ConfigError):
        learning_curve(dataset, tiny_nbeats(), cfg, fractions=(1.5,))


def test_feature_ablation_rows(table):
    cfg = quick_cfg(max_epochs=2)
    tcn = TcnConfig(n_features=1, lookback=8, channels=(4,), kernel=2,
                    dilations=(1,), dropout=0.0)
    rows = feature_ablation(table, tcn, cfg, lookback=8)
    by_mode = {r["mode"]: r for r in rows}
    assert list(by_mode) == ["full", "minimal", "raw_only"]
    assert (by_mode["raw_only"]["n_features"]
            < by_mode["minimal"]["n_features"]
            < by_mode["full"]["n_features"])
    for row in rows:
        assert math.isfinite(row["rmse"])
    with pytest.raises(ConfigError):
        feature_ablation(table, tcn, cfg, modes=())
    with pytest.raises(ConfigError):
        feature_ablation(table, tcn, cfg, modes=("bogus",))
