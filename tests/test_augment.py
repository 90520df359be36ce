"""Augmentation tests: exact 4x layout, per-sample stream independence,
documented zero-strength identities, warp invariants."""

import numpy as np
import numpy.testing as npt
import pytest

from extremecast.augment import (_JITTER_BLOCK, AugmentConfig, _warp_grid,
                                 augment_windows, jitter, magnitude_warp, scale,
                                 time_warp)
from extremecast.errors import DataError
from extremecast.rng import Rng


def sample_stack(n=6, L=24, F=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, L, F))
    y = rng.normal(size=n)
    return X, y


def test_expansion_is_exactly_4x_in_documented_order():
    X, y = sample_stack()
    Xa, ya = augment_windows(X, y, seed=5, cfg=AugmentConfig())
    n = X.shape[0]
    assert Xa.shape == (4 * n, *X.shape[1:])
    assert ya.shape == (4 * n,)
    # block 0 is the untouched originals; targets repeat across blocks
    npt.assert_array_equal(Xa[:n], X)
    for b in range(4):
        npt.assert_array_equal(ya[b * n:(b + 1) * n], y)
    # augmented blocks actually differ from the originals
    for b in range(1, 4):
        assert not np.array_equal(Xa[b * n:(b + 1) * n], X)


def test_expansion_deterministic_and_per_sample_independent():
    X, y = sample_stack()
    a1 = augment_windows(X, y, seed=9, cfg=AugmentConfig())
    a2 = augment_windows(X, y, seed=9, cfg=AugmentConfig())
    npt.assert_array_equal(a1[0], a2[0])
    a3 = augment_windows(X, y, seed=10, cfg=AugmentConfig())
    assert not np.array_equal(a1[0], a3[0])

    # sample i's draws are keyed by (seed, i): changing every OTHER sample's
    # content leaves sample 2's augmented copies bit-identical
    X2 = X + 5.0
    X2[2] = X[2]
    full, _ = augment_windows(X, y, seed=9, cfg=AugmentConfig())
    other, _ = augment_windows(X2, y, seed=9, cfg=AugmentConfig())
    n = X.shape[0]
    for b in range(1, 4):
        npt.assert_array_equal(full[b * n + 2], other[b * n + 2])


def test_expansion_matches_window_by_window_reference():
    # enough windows that the jitter noise is drawn in more than one block
    n = 2 * _JITTER_BLOCK + 3
    X, y = sample_stack(n=n, L=6, F=3, seed=4)
    cfg = AugmentConfig()
    base = Rng(13, "augment")
    warped = [time_warp(X[i], base.substream(f"timewarp/{i}"), cfg.warp_knots,
                        cfg.warp_sigma) if i % 2 == 0 else
              magnitude_warp(X[i], base.substream(f"magwarp/{i}"), cfg.warp_knots,
                             cfg.warp_sigma) for i in range(n)]
    expect = np.concatenate([
        X,
        [jitter(X[i], base.substream(f"jitter/{i}"), cfg.jitter_sigma)
         for i in range(n)],
        [scale(X[i], base.substream(f"scale/{i}"), cfg.scale_low, cfg.scale_high)
         for i in range(n)],
        warped])
    Xa, _ = augment_windows(X, y, seed=13, cfg=cfg)
    assert Xa.tobytes() == expect.tobytes()


def test_zero_strength_produces_exact_copies():
    X, y = sample_stack(n=4)
    cfg = AugmentConfig(jitter_sigma=0.0, scale_low=1.0, scale_high=1.0,
                        warp_sigma=0.0)
    Xa, _ = augment_windows(X, y, seed=1, cfg=cfg)
    for b in range(4):
        npt.assert_array_equal(Xa[b * 4:(b + 1) * 4], X)


def test_augment_is_train_only():
    # its callers (training, augment-preview) pass training windows only
    X, y = sample_stack(n=2)
    with pytest.raises(DataError, match="matching y"):
        augment_windows(X, y[:1], seed=0, cfg=AugmentConfig())


def test_jitter_moments_and_scale_range():
    X = np.zeros((200, 8))
    J = jitter(X, Rng(3, "augment"), sigma=0.05)
    assert abs(J.mean()) < 0.005 and abs(J.std() - 0.05) < 0.005
    npt.assert_array_equal(jitter(X, Rng(3, "augment"), 0.0), X)

    base = np.ones((5, 3))
    for k in range(20):
        S = scale(base, Rng(k, "augment"), 0.9, 1.1)
        f = S[0, 0]
        assert 0.9 <= f <= 1.1
        npt.assert_allclose(S, np.full_like(base, f), rtol=1e-15)
    with pytest.raises(DataError, match="inverted"):
        scale(base, Rng(0, "augment"), 1.2, 0.8)


def test_time_warp_fixes_endpoints_and_monotone_grid():
    L = 30
    X = np.random.default_rng(1).normal(size=(L, 5))
    for k in range(10):
        rng = Rng(100 + k, "augment")
        tau = _warp_grid(L, rng, knots=4, sigma=0.2)
        assert tau[0] == pytest.approx(1.0, abs=1e-9)
        assert tau[-1] == pytest.approx(float(L), abs=1e-9)
        assert np.all(np.diff(tau) > 0)
        W = time_warp(X, Rng(100 + k, "augment"))
        npt.assert_allclose(W[0], X[0], atol=1e-9)
        npt.assert_allclose(W[-1], X[-1], atol=1e-9)
        # warped values stay within the per-column envelope of the original
        assert np.all(W <= X.max(axis=0) + 1e-12)
        assert np.all(W >= X.min(axis=0) - 1e-12)


def test_time_warp_zero_sigma_identity_and_short_window():
    X = np.random.default_rng(2).normal(size=(10, 3))
    npt.assert_array_equal(time_warp(X, Rng(0, "augment"), sigma=0.0), X)
    with pytest.raises(DataError, match="at least 2"):
        time_warp(X[:1], Rng(0, "augment"))


def test_magnitude_warp_bounded_multiplier():
    L = 40
    X = np.ones((L, 3))
    for k in range(10):
        M = magnitude_warp(X, Rng(k, "augment"), knots=4, sigma=0.4)
        # each row is a single multiplier within the documented clip range
        npt.assert_allclose(M[:, 0], M[:, 1], rtol=1e-15)
        assert np.all(M >= 0.5 - 1e-12) and np.all(M <= 1.5 + 1e-12)
    npt.assert_array_equal(magnitude_warp(X, Rng(0, "augment"), sigma=0.0), X)


def test_warp_parity_rule():
    # even samples get time warp (row values preserved at endpoints), odd get
    # magnitude warp (rows are scaled copies)
    X, y = sample_stack(n=2, L=16, F=3, seed=7)
    Xa, _ = augment_windows(X, y, seed=21, cfg=AugmentConfig())
    w_even, w_odd = Xa[6], Xa[7]
    npt.assert_allclose(w_even[0], X[0][0], atol=1e-9)   # time warp endpoint
    ratio = w_odd / X[1]
    npt.assert_allclose(ratio, np.repeat(ratio[:, :1], 3, axis=1), rtol=1e-10)
