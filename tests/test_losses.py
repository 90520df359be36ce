import numpy as np
import numpy.testing as npt
import pytest

from extremecast.losses import LossConfig, compute_loss, extreme_weights
from extremecast.metrics import TAIL_Q
from extremecast.rng import Rng
from extremecast.tensor import Var, backward
from extremecast import tensor as T


def brute_force_extreme(pred, target, cfg):
    """Independent oracle: explicit loop, quantiles by the interpolation rule."""
    t = sorted(target)
    n = len(t)

    def quant(q):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return t[lo] * (1 - frac) + t[hi] * frac

    hi, lo = quant(1.0 - TAIL_Q), quant(TAIL_Q)
    total = 0.0
    for p, y in zip(pred, target):
        if y > hi:
            w = cfg.alpha_high
        elif y < lo:
            w = cfg.alpha_low
        else:
            w = cfg.beta
        total += w * (p - y) ** 2
    return total / n


def test_frozen_example():
    target = np.arange(1.0, 21.0)
    pred = Var(target + 1.0)
    cfg = LossConfig()
    loss = compute_loss(pred, target, cfg)
    w = extreme_weights(target, cfg)
    assert loss.value == pytest.approx(0.65, abs=1e-12)
    assert w[-1] == 2.0 and w[0] == 2.0 and set(w[1:-1]) == {0.5}


def test_equal_weights_is_beta_times_mse():
    rng = Rng(3, "init")
    target = rng.gaussian_array(64, 10.0, 5.0)
    pred = rng.gaussian_array(64, 10.0, 5.0)
    cfg = LossConfig(alpha_high=0.5, alpha_low=0.5, beta=0.5)
    loss = compute_loss(Var(pred), target, cfg)
    assert loss.value == pytest.approx(0.5 * np.mean((pred - target) ** 2), rel=1e-15)


def test_against_brute_force_oracle():
    rng = Rng(7, "init")
    for case in range(50):
        b = 2 + rng.randint(63)
        target = rng.gaussian_array(b, 20.0, 8.0)
        pred = target + rng.gaussian_array(b, 0.0, 3.0)
        cfg = LossConfig()
        loss = compute_loss(Var(pred), target, cfg)
        assert loss.value == pytest.approx(
            brute_force_extreme(pred, target, cfg), abs=1e-12), case


def test_closed_form_gradient():
    # d loss / d pred_i = 2 * w_i * (pred_i - t_i) / B, derived by hand
    rng = Rng(9, "init")
    target = rng.gaussian_array(16)
    pred = Var(rng.gaussian_array(16), requires_grad=True)
    cfg = LossConfig()
    loss = compute_loss(pred, target, cfg)
    w = extreme_weights(target, cfg)
    backward(loss)
    npt.assert_allclose(pred.grad, 2.0 * w * (pred.value - target) / 16.0, rtol=1e-14)


def test_weights_ignore_predictions():
    # predictions whose tails sit at the targets' opposite end leave the
    # weights, and so the loss, to the targets alone
    target = np.linspace(0, 10, 30)
    pred = -100.0 * target
    cfg = LossConfig(alpha_high=3.0, alpha_low=1.0)
    w = extreme_weights(target, cfg)
    assert w[-1] == 3.0 and w[0] == 1.0
    assert compute_loss(Var(pred), target, cfg).value == pytest.approx(
        np.mean(w * (pred - target) ** 2), rel=1e-15)


def test_batch_too_small():
    with pytest.raises(ValueError):
        extreme_weights(np.array([1.0]), LossConfig())
