"""Reference-forecaster unit tests.

Oracles:
* causal convolution vs a brute-force double loop,
* bitwise causality (perturbations outside the receptive field cannot move
  the prediction),
* the N-BEATS decomposition identity (prediction == sum of stack forecasts,
  and zeroed trailing stacks are exact no-ops),
* zero-weight networks emit their output bias,
* finite-difference gradient checks on tiny configs.
"""

import numpy as np
import pytest

import extremecast.tensor as T
from extremecast.baselines import (
    NBeatsConfig,
    NBeatsModel,
    PersistenceModel,
    TcnConfig,
    TcnModel,
    causal_conv,
)
from extremecast.errors import ConfigError, DataError
from extremecast.losses import LossConfig, compute_loss
from extremecast.rng import Rng
from extremecast.tensor import Var
from gradcheck import grad_check


def tiny_tcn_cfg():
    return TcnConfig(n_features=4, lookback=8, channels=(3, 5), kernel=2,
                     dilations=(1, 2), dropout=0.0)


def tiny_nbeats_cfg():
    return NBeatsConfig(lookback=8, stacks=2, fc_units=6)


# ------------------------------------------------------------- persistence


def test_persistence_returns_last_target_value():
    rng = Rng(5, "x")
    X = rng.gaussian_array((6, 7, 3))
    model = PersistenceModel(target_index=2)
    pred, intro = model.forward({}, X)
    assert np.array_equal(pred.value, X[:, -1, 2])
    assert intro == {}


def test_persistence_requires_target_column():
    with pytest.raises(DataError):
        PersistenceModel(target_index=-1)


# --------------------------------------------------------- causal convolution


def brute_force_causal_conv(x, kernels, bias, dilation):
    """out[b,t] = bias + sum_j x[b, t-(k-1-j)*d] @ W_j, zeros before t=0."""
    B, L, Cin = x.shape
    k = len(kernels)
    Cout = kernels[0].shape[1]
    out = np.zeros((B, L, Cout))
    for b in range(B):
        for t in range(L):
            acc = bias.copy()
            for j in range(k):
                src = t - (k - 1 - j) * dilation
                if src >= 0:
                    acc = acc + x[b, src, :] @ kernels[j]
            out[b, t, :] = acc
    return out


def test_causal_conv_matches_brute_force():
    rng = Rng(11, "conv")
    x = rng.gaussian_array((3, 9, 4))
    for dilation in (1, 2, 3):
        kernels = [rng.gaussian_array((4, 5)) for _ in range(3)]
        bias = rng.gaussian_array((5,))
        got = causal_conv(Var(x), [Var(w) for w in kernels], Var(bias),
                          dilation)
        want = brute_force_causal_conv(x, kernels, bias, dilation)
        np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-12)


def test_causal_conv_is_causal_bitwise():
    rng = Rng(12, "conv")
    x = rng.gaussian_array((2, 10, 3))
    kernels = [Var(rng.gaussian_array((3, 4))) for _ in range(3)]
    bias = Var(rng.gaussian_array((4,)))
    base = causal_conv(Var(x), kernels, bias, 2).value
    x2 = x.copy()
    x2[:, 6, :] += 3.0
    bumped = causal_conv(Var(x2), kernels, bias, 2).value
    assert np.array_equal(base[:, :6, :], bumped[:, :6, :])
    assert not np.array_equal(base[:, 6:, :], bumped[:, 6:, :])


# --------------------------------------------------------------------- TCN


def test_tcn_config_validation():
    with pytest.raises(ConfigError):
        TcnConfig(channels=(16, 32), dilations=(1, 2, 4)).validate()
    with pytest.raises(ConfigError):
        TcnConfig(kernel=0).validate()
    with pytest.raises(ConfigError):
        TcnConfig(dropout=1.0).validate()


def test_tcn_init_params_layout():
    model = TcnModel(tiny_tcn_cfg())
    params = model.init_params(Rng(3, "init"))
    assert np.array_equal(params["block.0.ln.g"], np.ones(3))
    assert np.array_equal(params["block.0.conv.b"], np.zeros(3))
    assert np.array_equal(params["head.b"], np.zeros(1))
    # channel change in both blocks -> both residual projections exist
    assert params["block.0.res.W"].shape == (4, 3)
    assert params["block.1.res.W"].shape == (3, 5)
    bound = 1.0 / np.sqrt(4)
    W0 = params["block.0.conv.W0"]
    assert np.all(np.abs(W0) < bound) and np.any(W0 != 0.0)
    # weights and gains decay, biases and layer-norm params do not
    assert "block.0.conv.b" in model.no_decay
    assert "block.0.ln.g" in model.no_decay
    assert "block.0.ln.b" in model.no_decay
    assert "head.b" in model.no_decay
    assert "block.0.conv.W0" not in model.no_decay
    assert "block.0.res.W" not in model.no_decay


def test_tcn_receptive_field_is_bitwise_causal():
    # kernel 2, dilations (1, 2): reach = 1 + 1*1 + 1*2 = 4 timesteps, so
    # the prediction (read off the final timestep) ignores the first
    # lookback - 4 rows entirely.
    cfg = tiny_tcn_cfg()
    model = TcnModel(cfg)
    params = model.init_params(Rng(7, "init"))
    rng = Rng(7, "data")
    X = rng.gaussian_array((5, cfg.lookback, cfg.n_features))
    base = model.forward(params, X)[0].value

    outside = X.copy()
    outside[:, : cfg.lookback - 4, :] += 11.0
    assert np.array_equal(model.forward(params, outside)[0].value, base)

    inside = X.copy()
    inside[:, cfg.lookback - 4, :] += 11.0
    assert not np.array_equal(model.forward(params, inside)[0].value, base)


def test_tcn_zero_weights_output_bias():
    model = TcnModel(tiny_tcn_cfg())
    params = {k: np.zeros_like(v)
              for k, v in model.init_params(Rng(1, "init")).items()}
    params["head.b"] = np.array([2.5])
    X = Rng(1, "data").gaussian_array((4, 8, 4))
    pred, _ = model.forward(params, X)
    np.testing.assert_array_equal(pred.value, np.full(4, 2.5))


def test_tcn_forward_shape_and_eval_determinism():
    cfg = TcnConfig(n_features=4, lookback=8, channels=(3, 5), kernel=2,
                    dilations=(1, 2), dropout=0.2)
    model = TcnModel(cfg)
    params = model.init_params(Rng(9, "init"))
    X = Rng(9, "data").gaussian_array((6, 8, 4))
    a = model.forward(params, X)[0].value
    b = model.forward(params, X)[0].value
    assert a.shape == (6,)
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        model.forward(params, X, train=True)  # dropout active, no stream
    with pytest.raises(ConfigError):
        model.forward(params, X[:, :, :3])


def test_tcn_dropout_training_path_uses_stream():
    cfg = TcnConfig(n_features=4, lookback=8, channels=(3, 5), kernel=2,
                    dilations=(1, 2), dropout=0.5)
    model = TcnModel(cfg)
    params = model.init_params(Rng(2, "init"))
    X = Rng(2, "data").gaussian_array((3, 8, 4))
    one = model.forward(params, X, train=True, rng=Rng(4, "dropout"))[0].value
    two = model.forward(params, X, train=True, rng=Rng(4, "dropout"))[0].value
    other = model.forward(params, X, train=True, rng=Rng(5, "dropout"))[0].value
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other)


def test_tcn_gradients_fd():
    model = TcnModel(tiny_tcn_cfg())
    raw = model.init_params(Rng(21, "init"))
    X = Rng(21, "data").gaussian_array((4, 8, 4))
    with T.no_grad():
        base = model.forward(raw, X)[0].value
    target = base + np.array([0.11, -0.05, 0.02, -0.08])

    def loss_fn(work):
        pred, _ = model.forward(work, X)
        return compute_loss(pred, target, LossConfig())

    report = grad_check(loss_fn, raw)
    assert report.passed(1e-4), report.worst_param


# ------------------------------------------------------------ N-BEATS-lite


def test_nbeats_requires_target_column():
    with pytest.raises(DataError):
        NBeatsModel(tiny_nbeats_cfg(), target_index=-1)


def test_nbeats_config_validation():
    with pytest.raises(ConfigError):
        NBeatsConfig(stacks=0).validate()
    with pytest.raises(ConfigError):
        NBeatsConfig(fc_units=0).validate()


def test_nbeats_decomposition_identity():
    model = NBeatsModel(tiny_nbeats_cfg(), target_index=1)
    params = model.init_params(Rng(31, "init"))
    X = Rng(31, "data").gaussian_array((5, 8, 3))
    pred, intro = model.forward(params, X)
    fc = intro["stack_forecasts"]
    assert fc.shape == (5, 2)
    recomposed = fc[:, 0].copy()
    for s in range(1, fc.shape[1]):
        recomposed = recomposed + fc[:, s]
    assert np.array_equal(pred.value, recomposed)


def test_nbeats_zeroed_trailing_stacks_are_noops():
    cfg4 = NBeatsConfig(lookback=8, stacks=4, fc_units=6)
    model4 = NBeatsModel(cfg4, target_index=0)
    params4 = model4.init_params(Rng(41, "init"))
    for name in list(params4):
        if name.startswith(("stack.2.", "stack.3.")):
            params4[name] = np.zeros_like(params4[name])

    model2 = NBeatsModel(NBeatsConfig(lookback=8, stacks=2, fc_units=6),
                         target_index=0)
    params2 = {k: v for k, v in params4.items()
               if k.startswith(("stack.0.", "stack.1."))}

    X = Rng(41, "data").gaussian_array((6, 8, 2))
    np.testing.assert_array_equal(model4.forward(params4, X)[0].value,
                                  model2.forward(params2, X)[0].value)


def test_nbeats_zero_weights_output_forecast_biases():
    model = NBeatsModel(tiny_nbeats_cfg(), target_index=0)
    params = {k: np.zeros_like(v)
              for k, v in model.init_params(Rng(1, "init")).items()}
    params["stack.0.fore.b"] = np.array([1.25])
    params["stack.1.fore.b"] = np.array([-0.25])
    X = Rng(1, "data").gaussian_array((3, 8, 2))
    pred, _ = model.forward(params, X)
    np.testing.assert_array_equal(pred.value, np.full(3, 1.0))


def test_nbeats_uses_only_target_column():
    model = NBeatsModel(tiny_nbeats_cfg(), target_index=1)
    params = model.init_params(Rng(51, "init"))
    X = Rng(51, "data").gaussian_array((4, 8, 3))
    base = model.forward(params, X)[0].value
    X2 = X.copy()
    X2[:, :, 0] += 9.0
    X2[:, :, 2] -= 4.0
    assert np.array_equal(model.forward(params, X2)[0].value, base)
    X3 = X.copy()
    X3[:, 3, 1] += 1.0
    assert not np.array_equal(model.forward(params, X3)[0].value, base)


def test_nbeats_gradients_fd():
    model = NBeatsModel(tiny_nbeats_cfg(), target_index=0)
    raw = model.init_params(Rng(61, "init"))
    X = Rng(61, "data").gaussian_array((4, 8, 2))
    with T.no_grad():
        base = model.forward(raw, X)[0].value
    target = base + np.array([0.07, -0.12, 0.04, -0.02])

    def loss_fn(work):
        pred, _ = model.forward(work, X)
        return compute_loss(pred, target, LossConfig())

    report = grad_check(loss_fn, raw)
    assert report.passed(1e-4), report.worst_param
