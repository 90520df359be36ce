"""Augmentation tests: exact 4x layout, per-sample stream independence,
documented zero-strength identities, warp invariants.  The block kernels are
checked bit for bit against the per-window transforms kept here as
references."""

import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from extremecast.augment import (_BLOCK, WARP_RETRIES, AugmentConfig,
                                 _natural_spline, _warp_grids,
                                 augment_windows, jitter, magnitude_warp,
                                 scale, time_warp)
from extremecast.checkpoint import load_dataset, write_csv
from extremecast.cli import main
from extremecast.errors import DataError, NumericError
from extremecast.rng import Rng
from extremecast.synthetic import sinusoid_ar_table, table_to_csv

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def sample_stack(n=6, L=24, F=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, L, F))
    y = rng.normal(size=n)
    return X, y


# ------------------------------------------- per-window references


def jitter_ref(X, rng, sigma):
    if sigma == 0.0:
        return X.copy()
    return X + rng.gaussian_array(X.shape, 0.0, sigma)


def scale_ref(X, rng, low, high):
    if low > high:
        raise DataError(f"scale range inverted: ({low}, {high})")
    if low == high == 1.0:
        return X.copy()
    return X * rng.uniform(low, high)


def warp_grid_ref(L, rng, knots, sigma):
    """(tau, draws): the time map and how many offset draws it took."""
    grid = np.arange(1.0, L + 1.0)
    anchors = 1.0 + (np.arange(1, knots + 1) / (knots + 1)) * (L - 1.0)
    for draws in range(1, WARP_RETRIES + 2):
        offsets = rng.gaussian_array(knots, 0.0, sigma * L / knots)
        xs = np.concatenate([[1.0], anchors, [float(L)]])
        ys = np.concatenate([[1.0], anchors + offsets, [float(L)]])
        order = np.argsort(xs)
        spline = CubicSpline(xs[order], ys[order], bc_type="natural")
        tau = np.clip(spline(grid), 1.0, float(L))
        tau.sort()
        if np.all(np.diff(tau) > 0.0):
            return tau, draws
    raise NumericError(f"time warp failed to produce a strictly monotone map "
                       f"after {WARP_RETRIES} retries")


def time_warp_ref(X, rng, knots=4, sigma=0.2):
    L = X.shape[0]
    if L < 2:
        raise DataError("time warp needs a window of at least 2 steps")
    if sigma == 0.0:
        return X.copy()
    tau, _ = warp_grid_ref(L, rng, knots, sigma)
    grid = np.arange(1.0, L + 1.0)
    out = np.empty_like(X)
    for f in range(X.shape[1]):
        out[:, f] = np.interp(tau, grid, X[:, f])
    return out


def magnitude_warp_ref(X, rng, knots=4, sigma=0.2):
    L = X.shape[0]
    if L < 2:
        raise DataError("magnitude warp needs a window of at least 2 steps")
    if sigma == 0.0:
        return X.copy()
    anchors = np.linspace(1.0, float(L), knots + 2)
    values = rng.gaussian_array(knots + 2, 1.0, sigma)
    spline = CubicSpline(anchors, values, bc_type="natural")
    m = np.clip(spline(np.arange(1.0, L + 1.0)), 0.5, 1.5)
    return X * m[:, None]


def augment_ref(X, y, seed, cfg):
    """The 4x expansion, one window and one transform call at a time."""
    if X.ndim != 3 or y.shape[0] != X.shape[0]:
        raise DataError("augment_windows expects X [n, L, F] and matching y")
    base = Rng(seed, "augment")
    n = X.shape[0]
    jittered = np.empty_like(X)
    scaled = np.empty_like(X)
    warped = np.empty_like(X)
    for i in range(n):
        jittered[i] = jitter_ref(X[i], base.substream(f"jitter/{i}"),
                                 cfg.jitter_sigma)
        scaled[i] = scale_ref(X[i], base.substream(f"scale/{i}"),
                              cfg.scale_low, cfg.scale_high)
        if i % 2 == 0:
            warped[i] = time_warp_ref(X[i], base.substream(f"timewarp/{i}"),
                                      cfg.warp_knots, cfg.warp_sigma)
        else:
            warped[i] = magnitude_warp_ref(X[i], base.substream(f"magwarp/{i}"),
                                           cfg.warp_knots, cfg.warp_sigma)
    X_out = np.concatenate([X, jittered, scaled, warped], axis=0)
    y_out = np.concatenate([y, y, y, y], axis=0)
    return X_out, y_out


def outcome(fn, *args):
    """The bytes a call returns, or the type and message of what it raises."""
    try:
        X_out, y_out = fn(*args)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)
    return X_out.dtype, X_out.shape, X_out.tobytes(), y_out.tobytes()


# --------------------------------------------------------- layout and streams


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
    # enough windows that every kernel runs over more than one block
    X, y = sample_stack(n=2 * _BLOCK + 3, L=6, F=3, seed=4)
    cfg = AugmentConfig()
    assert outcome(augment_windows, X, y, 13, cfg) == \
        outcome(augment_ref, X, y, 13, cfg)


# n = 1 leaves the magnitude-warp half empty; block + 1 leaves a last block
# of one window
STACK_SIZES = (1, 2, 3, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


@st.composite
def augment_cases(draw):
    """A window stack, a seed and a config, with at most one transform at
    zero strength."""
    n = draw(st.sampled_from(STACK_SIZES))
    L = draw(st.sampled_from((2, 3, 6, 30)))
    F = draw(st.sampled_from((1, 3, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, L, F)) * 10.0 ** draw(st.integers(-2, 2))
    if draw(st.booleans()):
        # signed zeros at step 1, which every time map hits exactly
        X[:, 0, 0] *= 0.0
    y = rng.normal(size=n)
    low = draw(st.floats(0.5, 1.0))
    cfg = AugmentConfig(jitter_sigma=draw(st.sampled_from((0.01, 0.03, 0.3))),
                        scale_low=low, scale_high=low + draw(st.floats(0.0, 0.5)),
                        warp_knots=draw(st.integers(1, 6)),
                        warp_sigma=draw(st.sampled_from((0.0, 0.2, 0.6))))
    calm = draw(st.sampled_from((None, "jitter", "scale", "warp")))
    if calm == "jitter":
        cfg.jitter_sigma = 0.0
    elif calm == "scale":
        cfg.scale_low = cfg.scale_high = 1.0
    elif calm == "warp":
        cfg.warp_sigma = 0.0
    return X, y, draw(st.integers(0, 2**63 - 1)), cfg


@SETTINGS
@given(augment_cases())
def test_block_kernels_match_per_window_reference_bitwise(case):
    X, y, seed, cfg = case
    assert outcome(augment_windows, X, y, seed, cfg) == \
        outcome(augment_ref, X, y, seed, cfg)


def test_time_warp_retries_match_reference():
    X, y = sample_stack(n=2 * _BLOCK + 3, L=30, F=5, seed=8)
    cfg = AugmentConfig(warp_sigma=0.3)
    base = Rng(17, "augment")
    draws = [warp_grid_ref(30, base.substream(f"timewarp/{i}"), cfg.warp_knots,
                           cfg.warp_sigma)[1] for i in range(0, len(X), 2)]
    # some windows redraw and some do not, so the retry loop runs on a
    # subset of the block
    assert max(draws) > 1 and min(draws) == 1
    assert outcome(augment_windows, X, y, 17, cfg) == \
        outcome(augment_ref, X, y, 17, cfg)


def test_time_warp_out_of_retries_raises_reference_error():
    X, y = sample_stack(n=3, L=30, F=2, seed=3)
    # offsets of std 20 * 30 / 4 clip most of the map to its ends
    cfg = AugmentConfig(warp_sigma=20.0)
    want = outcome(augment_ref, X, y, 2, cfg)
    assert want[0] is NumericError and "after 10 retries" in want[1]
    assert outcome(augment_windows, X, y, 2, cfg) == want
    with pytest.raises(NumericError, match="strictly monotone"):
        time_warp(X[0], Rng(2, "augment"), sigma=20.0)


def test_short_window_and_inverted_scale_raise_reference_errors():
    X, y = sample_stack(n=3, L=1, F=2)
    want = outcome(augment_ref, X, y, 0, AugmentConfig())
    assert want == (DataError, "time warp needs a window of at least 2 steps")
    assert outcome(augment_windows, X, y, 0, AugmentConfig()) == want
    with pytest.raises(DataError, match="magnitude warp needs"):
        magnitude_warp(X[0], Rng(0, "augment"))

    X, y = sample_stack(n=3)
    cfg = AugmentConfig(scale_low=1.2, scale_high=0.8)
    want = outcome(augment_ref, X, y, 0, cfg)
    assert want == (DataError, "scale range inverted: (1.2, 0.8)")
    assert outcome(augment_windows, X, y, 0, cfg) == want


def test_inverted_scale_on_short_window_raises_reference_error():
    # both settings are wrong; window 0's scale is checked before its warp
    X, y = sample_stack(n=3, L=1, F=2)
    cfg = AugmentConfig(scale_low=1.2, scale_high=0.8)
    want = outcome(augment_ref, X, y, 0, cfg)
    assert want == (DataError, "scale range inverted: (1.2, 0.8)")
    assert outcome(augment_windows, X, y, 0, cfg) == want


def test_empty_stack_matches_reference():
    # no window draws, so even an invalid config raises nothing
    X, y = sample_stack(n=0, L=1, F=2)
    cfg = AugmentConfig(scale_low=1.2, scale_high=0.8)
    assert outcome(augment_windows, X, y, 0, cfg) == \
        outcome(augment_ref, X, y, 0, cfg)


@pytest.mark.parametrize("n", [1, 2, _BLOCK + 1])
def test_expansion_constructs_one_stream_per_draw(n, monkeypatch):
    # the benchmark's traced rng.streams count wraps Rng.__init__: the base
    # stream plus jitter, scale and one warp stream per window
    made = []
    init = Rng.__init__

    def spy(self, *args, **kwargs):
        made.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rng, "__init__", spy)
    X, y = sample_stack(n=n, L=6, F=2)
    augment_windows(X, y, seed=3, cfg=AugmentConfig())
    assert len(made) == 1 + 3 * n
    assert len(set(made)) == len(made)


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


def test_augment_preview_matches_per_window_reference(tmp_path):
    table_to_csv(sinusoid_ar_table(seed=3, n_days=200), tmp_path / "raw.csv")
    doc = {"seed": 4,
           "dataset": {"target": "tempmax", "lookback": 8, "train_frac": 0.8,
                       "val_frac": 0.2, "csv_path": str(tmp_path / "raw.csv")},
           "features": {"mode": "minimal"},
           "augment": {"enabled": False, "warp_sigma": 0.3}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["prepare", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "data.json")]) == 0
    ds = load_dataset(str(tmp_path / "data.json"))
    part = ds.part("train")
    cfg = AugmentConfig(warp_sigma=0.3)
    for sample in (2, 5):   # time warp, magnitude warp
        out = tmp_path / f"preview{sample}.csv"
        assert main(["augment-preview", "--config", str(tmp_path / "config.json"),
                     "--data", str(tmp_path / "data.json"),
                     "--sample", str(sample), "--out", str(out)]) == 0
        X4, y4 = augment_ref(part.X[sample:sample + 1],
                             part.y[sample:sample + 1], 4, cfg)
        rows = [[name, t, *X4[v, t, :], y4[v]]
                for v, name in enumerate(("original", "jitter", "scale", "warp"))
                for t in range(X4.shape[1])]
        want = tmp_path / f"want{sample}.csv"
        write_csv(want, ["variant", "t", *ds.feature_names, "y"], rows)
        assert out.read_bytes() == want.read_bytes()


# ----------------------------------------------------------- natural spline


def spline_knots(layout, knots, L, m, rng):
    """(x, y [knots + 2, m]): the time-warp or magnitude-warp knots."""
    if layout == "time":
        anchors = 1.0 + (np.arange(1, knots + 1) / (knots + 1)) * (L - 1.0)
        x = np.concatenate([[1.0], anchors, [float(L)]])
        y = np.empty((knots + 2, m))
        y[0], y[-1] = 1.0, float(L)
        y[1:-1] = anchors[:, None] + rng.normal(0.0, 0.2 * L / knots,
                                                (knots, m))
        return x, y
    # the magnitude warp fits the transpose of a [m, knots + 2] draw
    return (np.linspace(1.0, float(L), knots + 2),
            rng.normal(1.0, 0.3, (m, knots + 2)).T)


@SETTINGS
@given(st.sampled_from(("time", "magnitude")), st.integers(1, 7),
       st.integers(5, 59), st.integers(1, 69), st.integers(0, 2**32 - 1))
def test_natural_spline_matches_scipy_bitwise(layout, knots, L, m, seed):
    x, y = spline_knots(layout, knots, L, m, np.random.default_rng(seed))
    grid = np.arange(1.0, L + 1.0)
    want = CubicSpline(x, y, bc_type="natural")(grid)
    assert _natural_spline(x, y, grid).tobytes() == want.tobytes()


def test_natural_spline_golden_digest():
    # pins the augmentation's spline bits whatever scipy is installed
    rng = Rng(5, "spline")
    L, knots, m = 30, 4, 16
    anchors = 1.0 + (np.arange(1, knots + 1) / (knots + 1)) * (L - 1.0)
    x = np.concatenate([[1.0], anchors, [float(L)]])
    y = np.empty((knots + 2, m))
    y[0], y[-1] = 1.0, float(L)
    y[1:-1] = anchors[:, None] + rng.gaussian_array((knots, m), 0.0, 1.5)
    out = _natural_spline(x, y, np.arange(1.0, L + 1.0))
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "53854a691e3f59e22398f15ea18761aca4840851f7ad3580ebfdf00d2b9a45f0")


def test_natural_spline_refuses_a_system_that_needs_pivoting():
    # the first sub-diagonal entry (9.9) exceeds its pivot (0.2)
    x = np.array([0.0, 0.1, 10.0])
    with pytest.raises(NumericError, match="pivoting"):
        _natural_spline(x, np.ones((3, 1)), x)


# ------------------------------------------------------- transform contracts


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
        tau = _warp_grids(L, [rng], knots=4, sigma=0.2)[0]
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
