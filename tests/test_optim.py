import math

import numpy as np
import numpy.testing as npt
import pytest

from extremecast.optim import (BETA1, BETA2, EPS, T_MULT, AdamWState,
                               OptimConfig, adamw_step, clip_global_norm,
                               cosine_warm_restart_lr)


def test_single_step_scalar():
    cfg = OptimConfig(weight_decay=0.0)
    params = {"w": np.array([1.0])}
    adamw_step(params, {"w": np.array([1.0])}, AdamWState(), cfg, lr=0.1)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-6)


def test_decay_is_decoupled_and_exact():
    cfg = OptimConfig(weight_decay=0.01)
    lr = 0.05
    theta0 = 3.0
    with_wd = {"w": np.array([theta0])}
    without = {"w": np.array([theta0])}
    g = {"w": np.array([0.37])}
    adamw_step(with_wd, {k: v.copy() for k, v in g.items()}, AdamWState(), cfg, lr)
    adamw_step(without, {k: v.copy() for k, v in g.items()}, AdamWState(),
               OptimConfig(weight_decay=0.0), lr)
    npt.assert_allclose(without["w"] - with_wd["w"], lr * cfg.weight_decay * theta0,
                        rtol=1e-12)


def test_no_decay_names_skip_decay():
    cfg = OptimConfig(weight_decay=0.5)
    params = {"W": np.array([2.0]), "b": np.array([2.0])}
    grads = {"W": np.array([0.0]), "b": np.array([0.0])}
    adamw_step(params, grads, AdamWState(), cfg, lr=0.1, no_decay=frozenset({"b"}))
    assert params["b"][0] == 2.0
    assert params["W"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_moment_bias_correction_two_steps():
    # hand-rolled two-step trajectory oracle
    cfg = OptimConfig(weight_decay=0.0)
    lr, b1, b2, eps = 0.1, BETA1, BETA2, EPS
    g1, g2 = 0.5, -0.25
    theta = 1.0
    m = v = 0.0
    for t, g in [(1, g1), (2, g2)]:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    params = {"w": np.array([1.0])}
    state = AdamWState()
    adamw_step(params, {"w": np.array([g1])}, state, cfg, lr)
    adamw_step(params, {"w": np.array([g2])}, state, cfg, lr)
    npt.assert_allclose(params["w"], theta, rtol=1e-14)


def test_cosine_schedule_shape():
    assert T_MULT == 2
    cfg = OptimConfig(lr_max=5e-3, t0=10)
    assert cosine_warm_restart_lr(0, cfg) == pytest.approx(5e-3)
    assert cosine_warm_restart_lr(5, cfg) == pytest.approx(2.5e-3, abs=1e-12)
    assert cosine_warm_restart_lr(10, cfg) == pytest.approx(5e-3)  # restart
    assert cosine_warm_restart_lr(20, cfg) == pytest.approx(2.5e-3, abs=1e-12)
    assert cosine_warm_restart_lr(30, cfg) == pytest.approx(5e-3)  # second restart
    # each cycle anneals to 0: the last epoch of the first sits one step short
    assert cosine_warm_restart_lr(9, cfg) == 0.5 * 5e-3 * (1.0 + math.cos(math.pi * 9 / 10))
    # monotone within a cycle
    lrs = [cosine_warm_restart_lr(e, cfg) for e in range(10)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))
    lrs2 = [cosine_warm_restart_lr(e, cfg) for e in range(10, 30)]
    assert all(a > b for a, b in zip(lrs2, lrs2[1:]))
    with pytest.raises(ValueError):
        cosine_warm_restart_lr(-1, cfg)


def test_clip_global_norm():
    grads = {"a": np.array([0.0, 10.0])}
    norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(10.0)
    npt.assert_allclose(grads["a"], [0.0, 5.0])
    # below threshold: untouched
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(5.0)
    npt.assert_array_equal(grads["a"], [3.0])
    # zero gradients stay zero
    grads = {"a": np.zeros(3)}
    assert clip_global_norm(grads, 1.0) == 0.0
    npt.assert_array_equal(grads["a"], np.zeros(3))
