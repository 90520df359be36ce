"""Feature engineering tests: frozen small fixtures, polynomial-exactness of
the causal smoother, train-only climatology, causality under future edits,
and selection ranking rules.  The vectorised rolling statistics, smoother,
climatology and correlations are checked bit for bit against the per-day
and per-series loops kept here as references; the row-stacked statistics
are checked row by row through ``rowwise``."""

import datetime as dt
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast import features
from extremecast.data import TimeSeriesTable, chronological_split
from extremecast.features import (CLIMATOLOGY_STD_FLOOR, CYCLICAL_CALENDAR,
                                  Climatology, FeatureSpec, _sg_coeffs,
                                  build_features, calendar_fields,
                                  climatology_anomaly,
                                  first_diff, fit_climatology, pearson,
                                  rolling_stat, savgol_causal,
                                  select_features)
from extremecast.synthetic import sinusoid_ar_table

SQ2 = np.sqrt(2.0)
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def mk_table(cols, start=dt.date(2019, 1, 1)):
    n = len(next(iter(cols.values())))
    dates = [start + dt.timedelta(days=i) for i in range(n)]
    np_cols = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
    return TimeSeriesTable(dates, np_cols)


def gappy(table, seed, frac):
    """The table with about `frac` of its days dropped at random."""
    keep = np.random.default_rng(seed).random(table.n_days) >= frac
    dates = [d for d, k in zip(table.dates, keep) if k]
    return TimeSeriesTable(dates, {k: v[keep] for k, v in table.columns.items()})


def rolling_loop(x, window, stat):
    """Reference: one numpy call per day on the trailing slice."""
    n = x.shape[0]
    out = np.empty(n)
    for i in range(n):
        seg = x[max(0, i - window + 1):i + 1]
        if stat == "mean":
            out[i] = seg.mean()
        elif stat == "min":
            out[i] = seg.min()
        elif stat == "max":
            out[i] = seg.max()
        else:
            out[i] = seg.std(ddof=1) if seg.size > 1 else 0.0
    return out


def savgol_loop(x, window=7, poly=3):
    """Reference: one dot product per day on the trailing slice."""
    n = x.shape[0]
    coeffs = {m: _sg_coeffs(m, min(poly, m - 1))
              for m in range(1, min(window, n) + 1)}
    out = np.empty(n)
    for i in range(n):
        m = min(i + 1, window)
        out[i] = coeffs[m] @ x[i - m + 1:i + 1]
    return out


def rowwise(loop):
    """A one-series reference applied to every row of x[..., n]."""
    def apply(x, *args):
        rows = [loop(row, *args) for row in np.atleast_2d(x)]
        return np.array(rows).reshape(x.shape)
    return apply


def pearson_loop(a, b):
    """Reference: the scalar correlation of one series with the target."""
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def climatology_loop(table, columns, train_slice, doy):
    """Reference: one boolean mask and two reductions per column and day;
    ``doy`` is ignored, the days come from ``timetuple``."""
    doy = np.array([d.timetuple().tm_yday for d in table.dates])[train_slice]
    mean, std = {}, {}
    for name in columns:
        col = table.columns[name][train_slice]
        m = np.zeros(367)
        s = np.zeros(367)
        obs = np.zeros(367, dtype=bool)
        glob_m = float(col.mean())
        glob_s = max(float(col.std()), CLIMATOLOGY_STD_FLOOR)
        for d in range(1, 367):
            vals = col[doy == d]
            if vals.size:
                m[d] = vals.mean()
                s[d] = max(float(vals.std()), CLIMATOLOGY_STD_FLOOR)
                obs[d] = True
        for d in range(1, 367):
            if obs[d]:
                continue
            if d == 366 and obs[365]:
                m[d], s[d] = m[365], s[365]
            else:
                m[d], s[d] = glob_m, glob_s
        mean[name], std[name] = m, s
    return Climatology(mean, std)


def assert_same_bits(got, want, msg=""):
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    assert got.tobytes() == want.tobytes(), msg


# ----------------------------------------------------------------- rolling


def test_rolling_stats_frozen():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    npt.assert_array_equal(rolling_stat(x, 2, "mean"), [1.0, 1.5, 2.5, 4.0])
    npt.assert_array_equal(rolling_stat(x, 2, "min"), [1.0, 1.0, 2.0, 3.0])
    npt.assert_array_equal(rolling_stat(x, 2, "max"), [1.0, 2.0, 3.0, 5.0])
    npt.assert_allclose(rolling_stat(x, 2, "std"),
                        [0.0, SQ2 / 2, SQ2 / 2, SQ2], rtol=1e-15)
    npt.assert_allclose(rolling_stat(x, 3, "mean"), [1.0, 1.5, 2.0, 10.0 / 3],
                        rtol=1e-15)
    with pytest.raises(ValueError, match="rolling stat"):
        rolling_stat(x, 2, "median")


def test_rolling_is_trailing_only():
    x = np.arange(20.0)
    r1 = rolling_stat(x, 5, "mean")
    x2 = x.copy()
    x2[10:] = -99.0
    npt.assert_array_equal(r1[:10], rolling_stat(x2, 5, "mean")[:10])


# 8 and 9 straddle numpy's 8-wide unrolled sum, 128 and 129 its pairwise block
ROLLING_WINDOWS_TESTED = (1, 2, 7, 8, 9, 30, 128, 129)


# cells that can make a stacked statistic's bits differ from the per-day
# call's: NaNs of both signs, both zeros and both infinities
SPECIAL_CELLS = (np.nan, np.copysign(np.nan, -1.0), 0.0, -0.0, np.inf, -np.inf)


@st.composite
def rolling_cases(draw):
    """A window, a length below, at or above it, and a stack of 1 to 5
    series (or one 1-D series) with seeded scales and offsets and a few
    special cells."""
    window = draw(st.sampled_from(ROLLING_WINDOWS_TESTED))
    n = max(0, window + draw(st.integers(-window, 40)))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.normal(size=(rows, n))
         * 10.0 ** rng.integers(-3, 5, size=(rows, 1))
         + rng.uniform(-1e3, 1e3, size=(rows, 1)))
    if n:
        cells = st.tuples(st.integers(0, rows * n - 1),
                          st.sampled_from(SPECIAL_CELLS))
        for at, value in draw(st.lists(cells, max_size=6)):
            x.flat[at] = value
    if rows == 1 and draw(st.booleans()):
        x = x[0]
    return x, window


@SETTINGS
@given(rolling_cases())
def test_rolling_stat_matches_per_day_loop_bitwise(case):
    x, window = case
    # sums over both infinities are NaN on both sides
    with np.errstate(invalid="ignore"):
        for stat in ("mean", "min", "max", "std"):
            assert_same_bits(rolling_stat(x, window, stat),
                             rowwise(rolling_loop)(x, window, stat), stat)


def test_rolling_min_max_match_per_day_loop_with_signed_zeros():
    gen = np.random.default_rng(4)
    cells = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
    for _ in range(200):
        shape = (int(gen.integers(1, 6)), int(gen.integers(1, 45)))
        x = gen.choice(cells, size=shape)
        for window in (2, 7, 9, 30):
            for stat in ("min", "max"):
                assert_same_bits(rolling_stat(x, window, stat),
                                 rowwise(rolling_loop)(x, window, stat), stat)
                assert_same_bits(rolling_stat(x[0], window, stat),
                                 rolling_loop(x[0], window, stat), stat)


def test_rolling_std_of_one_point_is_zero_without_warning():
    x = np.random.default_rng(5).normal(size=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(rolling_stat(x, 1, "std"), np.zeros(50))
        assert_same_bits(rolling_stat(x[:1], 7, "std"), np.zeros(1))
        assert rolling_stat(x, 7, "std")[0] == 0.0


def test_rolling_window_below_one_is_rejected():
    x = np.arange(5.0)
    for window in (0, -3):
        with pytest.raises(ValueError, match="window"):
            rolling_stat(x, window, "mean")


# -------------------------------------------------------------- smoothing


def test_savgol_reproduces_cubic_exactly():
    t = np.arange(60, dtype=np.float64)
    x = 0.02 * t**3 - 0.4 * t**2 + 3.0 * t - 7.0
    sm = savgol_causal(x, window=7, poly=3)
    npt.assert_allclose(sm, x, rtol=0, atol=1e-9)


def test_savgol_constant_invariant_including_warmup():
    x = np.full(15, 4.25)
    npt.assert_allclose(savgol_causal(x, 7, 3), x, rtol=0, atol=1e-12)


def test_savgol_causal_and_smooths_noise():
    rng = np.random.default_rng(3)
    x = np.sin(np.arange(200) / 20.0) + rng.normal(0, 0.5, 200)
    sm = savgol_causal(x, 7, 3)
    x2 = x.copy()
    x2[100:] = 0.0
    npt.assert_array_equal(sm[:100], savgol_causal(x2, 7, 3)[:100])
    resid_raw = x - np.sin(np.arange(200) / 20.0)
    resid_sm = sm - np.sin(np.arange(200) / 20.0)
    assert resid_sm[20:].std() < resid_raw[20:].std()
    with pytest.raises(ValueError):
        savgol_causal(x, 0, 3)


@pytest.mark.parametrize("window,poly", [(1, 0), (2, 1), (7, 3), (8, 2), (30, 3)])
@pytest.mark.parametrize("n", ["short", "equal", "long"])
def test_savgol_matches_per_day_loop_bitwise(window, poly, n):
    n = {"short": window - 1, "equal": window, "long": 2000}[n]
    gen = np.random.default_rng(window * 100 + n)
    stack = []
    for scale in (1e-3, 1.0, 1e4):
        x = gen.normal(size=n) * scale + gen.uniform(-1e3, 1e3)
        for series in (x, x[::-1]):
            assert_same_bits(savgol_causal(series, window, poly),
                             savgol_loop(series, window, poly))
            stack.append(series)
    stack = np.stack(stack)
    assert_same_bits(savgol_causal(stack, window, poly),
                     rowwise(savgol_loop)(stack, window, poly))


@SETTINGS
@given(rolling_cases(), st.integers(0, 3))
def test_savgol_stack_matches_per_day_loop_bitwise(case, poly):
    x, window = case
    with np.errstate(invalid="ignore"):
        assert_same_bits(savgol_causal(x, window, poly),
                         rowwise(savgol_loop)(x, window, poly))


def test_savgol_matches_per_day_loop_on_strided_input():
    gen = np.random.default_rng(12)
    base = gen.normal(size=(3000, 3)) * 40.0
    for x in (base[:, 1], base[::3, 0], base[::-2, 2]):
        assert not x.flags.c_contiguous
        assert_same_bits(savgol_causal(x), savgol_loop(x))


# ------------------------------------------------------------- climatology


def test_climatology_train_only_mean_and_z():
    # two identical years in train, one aberrant year outside it
    year = 30.0 + np.sin(2 * np.pi * np.arange(365) / 365.0)
    vals = np.concatenate([year, year + 2.0, year + 100.0])
    table = mk_table({"tempmax": vals}, start=dt.date(2018, 1, 1))
    doy = calendar_fields(table.dates)["day_of_year"]
    clim = fit_climatology(table, ["tempmax"], slice(0, 730), doy)
    # per-day mean is the two train years' average; the +100 year is unseen
    npt.assert_allclose(clim.mean["tempmax"][doy[:365]], year + 1.0, atol=1e-12)
    anom, z, flag = climatology_anomaly(vals, doy, clim, "tempmax", 2.0)
    npt.assert_allclose(anom[:365], -1.0, atol=1e-12)
    npt.assert_allclose(anom[365:730], 1.0, atol=1e-12)
    # aberrant year: anomaly 99, std 1 per day -> everything flagged
    assert np.all(flag[730:] == 1.0)
    npt.assert_allclose(z[730:], 99.0, atol=1e-9)


def test_day_of_year_matches_timetuple():
    # leap years, the century years 1900 and 2100 (not leap) and 2000 (leap),
    # and the ends of the date range
    dates = [dt.date(1, 1, 1), dt.date(9999, 12, 31)]
    for start in (dt.date(1899, 12, 20), dt.date(1999, 12, 20),
                  dt.date(2023, 12, 20), dt.date(2099, 12, 20)):
        dates += [start + dt.timedelta(days=i) for i in range(400)]
    want = np.array([d.timetuple().tm_yday for d in dates])
    got = calendar_fields(dates)["day_of_year"]
    assert got.dtype == np.int64
    npt.assert_array_equal(got, want)
    assert calendar_fields([])["day_of_year"].shape == (0,)


def test_calendar_fields_match_date_methods():
    # every day of 1899-2101 (ISO years of 52 and 53 weeks, weeks that
    # straddle New Year) and the ends of the date range
    first = dt.date(1899, 1, 1).toordinal()
    dates = [dt.date(1, 1, 1), dt.date(9999, 12, 31)] + [
        dt.date.fromordinal(o)
        for o in range(first, dt.date(2101, 12, 31).toordinal() + 1)]
    got = calendar_fields(dates)
    want = {"year": [d.year for d in dates], "month": [d.month for d in dates],
            "day_of_year": [d.timetuple().tm_yday for d in dates],
            "day_of_week": [d.weekday() for d in dates],
            "week_of_year": [d.isocalendar()[1] for d in dates]}
    assert list(got) == list(want)
    for name, values in want.items():
        assert got[name].dtype == np.int64, name
        npt.assert_array_equal(got[name], values, err_msg=name)


def test_climatology_leap_day_borrows_and_global_fallback():
    # 2020 is a leap year: train covering Jan-Feb 2020 observes doy 1..60
    n = 60
    vals = np.linspace(0.0, 10.0, n)
    table = mk_table({"tempmax": vals}, start=dt.date(2020, 1, 1))
    clim = fit_climatology(table, ["tempmax"], slice(0, n),
                           calendar_fields(table.dates)["day_of_year"])
    # an observed day keeps its own statistics
    assert clim.mean["tempmax"][1] == vals[0] and clim.std["tempmax"][1] == 1e-8
    # unobserved ordinary day falls back to global train stats
    assert clim.mean["tempmax"][200] == pytest.approx(vals.mean())
    assert clim.std["tempmax"][200] == pytest.approx(vals.std())
    # fit a table that observes day 365 but not 366: 366 borrows 365
    full = mk_table({"tempmax": np.arange(365.0)}, start=dt.date(2019, 1, 1))
    clim2 = fit_climatology(full, ["tempmax"], slice(0, 365),
                            calendar_fields(full.dates)["day_of_year"])
    assert clim2.mean["tempmax"][366] == clim2.mean["tempmax"][365]


def test_climatology_std_floor():
    table = mk_table({"tempmax": np.full(30, 5.0)})
    doy = calendar_fields(table.dates)["day_of_year"]
    clim = fit_climatology(table, ["tempmax"], slice(0, 30), doy)
    _, z, _ = climatology_anomaly(table.columns["tempmax"], doy, clim,
                                  "tempmax", 2.0)
    assert np.all(np.isfinite(z))


@pytest.mark.parametrize("n_days,train,frac", [
    (1100, slice(30, 1000), 0.1),      # under 8 rows per day of year
    (7400, slice(0, 7400), 0.2),       # 8 to 128 rows per day
    (48000, slice(100, 48000), 0.0),   # 131 years: over 128 rows per day
    (200, slice(20, 180), 0.1),        # under a year: global fallback
])
def test_climatology_matches_per_day_loop_bitwise(n_days, train, frac):
    table = gappy(sinusoid_ar_table(seed=n_days, n_days=n_days), n_days, frac)
    columns = sorted(table.columns)
    doy = calendar_fields(table.dates)["day_of_year"]
    got = fit_climatology(table, columns, train, doy)
    want = climatology_loop(table, columns, train, doy)
    for name in columns:
        assert_same_bits(got.mean[name], want.mean[name], name)
        assert_same_bits(got.std[name], want.std[name], name)
    if n_days == 200:
        assert got.mean["tempmax"][300] == table.columns["tempmax"][train].mean()


def test_climatology_borrows_day_366_from_365_bitwise():
    # 2018 and 2019 are not leap years: the train rows hold day 365, never 366
    table = sinusoid_ar_table(seed=4, n_days=730, start=dt.date(2018, 1, 1))
    doy = calendar_fields(table.dates)["day_of_year"]
    got = fit_climatology(table, ["tempmax", "precip"], slice(0, 730), doy)
    want = climatology_loop(table, ["tempmax", "precip"], slice(0, 730), doy)
    for name in ("tempmax", "precip"):
        assert got.mean[name][366] == got.mean[name][365]
        assert_same_bits(got.mean[name], want.mean[name], name)
        assert_same_bits(got.std[name], want.std[name], name)


# ------------------------------------------------------------- differences


def test_first_diff_frozen():
    npt.assert_array_equal(first_diff(np.array([5.0, 7.0, 4.0])), [0.0, 2.0, -3.0])


# ------------------------------------------------------------ build matrix


def build_full(n_days=400, seed=42):
    table = sinusoid_ar_table(seed=seed, n_days=n_days)
    split = chronological_split(n_days, 30)
    feats, groups = build_features(table, split, FeatureSpec())
    return table, split, feats, groups


def test_build_features_modes():
    table = sinusoid_ar_table(seed=1, n_days=300)
    split = chronological_split(300, 30)
    raw, g_raw = build_features(table, split, FeatureSpec(mode="raw_only"))
    assert set(raw) == set(table.columns)
    assert set(g_raw.values()) == {"raw"}

    minimal, g_min = build_features(table, split, FeatureSpec(mode="minimal"))
    assert set(minimal) == set(table.columns) | set(CYCLICAL_CALENDAR)

    full, g_full = build_features(table, split, FeatureSpec())
    expected_groups = {"raw", "calendar", "rolling", "smoothing", "anomaly",
                       "interaction", "diff"}
    assert set(g_full.values()) == expected_groups
    for want in ("tempmax_7d_mean", "tempmax_30d_std", "temp_range",
                 "tempmax_smooth", "tempmax_anom", "tempmax_zscore",
                 "tempmax_extreme_flag", "heat_index_proxy", "drought_index",
                 "drought_index_30d", "tempmax_diff", "month_sin", "year"):
        assert want in full, want
    n = table.n_days
    assert all(v.shape == (n,) for v in full.values())


def test_cyclical_encodings_ranges_and_period():
    table, _, feats, _ = build_full()
    for name in CYCLICAL_CALENDAR:
        assert np.all(np.abs(feats[name]) <= 1.0)
    npt.assert_allclose(feats["month_sin"] ** 2 + feats["month_cos"] ** 2,
                        np.ones(table.n_days), atol=1e-12)
    npt.assert_allclose(feats["doy_sin"] ** 2 + feats["doy_cos"] ** 2,
                        np.ones(table.n_days), atol=1e-12)


def test_all_derived_features_are_causal():
    # editing the last 50 days (inside the test block) must leave every
    # feature value before the edit untouched
    n = 400
    table = sinusoid_ar_table(seed=9, n_days=n)
    split = chronological_split(n, 30)
    feats, _ = build_features(table, split, FeatureSpec())

    mutated = table.copy()
    for col in mutated.columns.values():
        col[n - 50:] += 37.0
    feats2, _ = build_features(mutated, split, FeatureSpec())

    assert set(feats) == set(feats2)
    for name in feats:
        npt.assert_array_equal(feats[name][: n - 50], feats2[name][: n - 50],
                               err_msg=name)


def assert_features_match_references(table, monkeypatch):
    """build_features equals, name for name and bit for bit, a build whose
    rolling statistics, smoother and climatology are the per-day loops."""
    split = chronological_split(table.n_days, 30)
    got, _ = build_features(table, split, FeatureSpec())
    with monkeypatch.context() as patch:
        patch.setattr(features, "rolling_stat", rowwise(rolling_loop))
        patch.setattr(features, "savgol_causal", rowwise(savgol_loop))
        patch.setattr(features, "fit_climatology", climatology_loop)
        want, _ = build_features(table, split, FeatureSpec())
    assert list(got) == list(want)
    for name in want:
        assert_same_bits(got[name], want[name], name)


def test_full_features_match_per_day_references_bitwise(monkeypatch):
    table = gappy(sinusoid_ar_table(seed=8, n_days=1500), 8, 0.15)
    assert_features_match_references(table, monkeypatch)


def test_signed_zero_features_match_per_day_references_bitwise(monkeypatch):
    # key series of zeros: every rolling min and max is a zero or a NaN, so
    # only the reduction's own choice of zero sign and NaN payload matches.
    # A -0.0 every fourth day makes a running np.minimum keep the other zero
    # at the start of the 30-day windows (asserted, so the case stays hard),
    # and a -NaN followed by a NaN sits in the full 7- and 30-day windows
    n = 400
    zeros = np.zeros(n)
    alternating = np.where(np.arange(n) % 2, -0.0, 0.0)
    every_fourth = np.where(np.arange(n) % 4, 0.0, -0.0)
    nans = alternating.copy()
    nans[200], nans[201] = np.copysign(np.nan, -1.0), np.nan
    table = sinusoid_ar_table(seed=3, n_days=n)
    for name, values in (("tempmax", zeros), ("tempmin", alternating),
                         ("temp", every_fourth), ("feelslike", nans)):
        table.columns[name] = values
    running = np.signbit(np.minimum.accumulate(every_fourth[:29]))
    assert (running != np.signbit(rolling_loop(every_fourth, 30, "min")[:29])).any()
    assert_features_match_references(table, monkeypatch)


# --------------------------------------------------------------- selection


def test_pearson_frozen():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(a, 2 * a + 1) == pytest.approx(1.0)
    assert pearson(a, -a) == pytest.approx(-1.0)
    assert pearson(a, np.full(4, 3.0)) == 0.0
    b = np.array([1.0, 3.0, 2.0, 5.0])
    # hand value: cov/(sd_a sd_b) with ddof-free sums
    da, db = a - a.mean(), b - b.mean()
    expect = (da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum())
    assert pearson(a, b) == pytest.approx(expect, rel=1e-15)


@st.composite
def correlation_cases(draw):
    """A [K, m] stack of seeded series, some constant or scaled copies of
    the target, and the target."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = rng.normal(size=m) * 10.0 ** rng.integers(-3, 5)
    rows = (rng.normal(size=(k, m)) * 10.0 ** rng.integers(-3, 5, size=(k, 1))
            + rng.uniform(-1e3, 1e3, size=(k, 1)))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        rows[i] = rows[i, 0]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        rows[i] = -3.0 * target + 1.0
    return rows, target


@SETTINGS
@given(correlation_cases())
def test_pearson_rows_match_scalar_reference_bitwise(case):
    rows, target = case
    got = pearson(rows, target)
    want = np.array([pearson_loop(row, target) for row in rows])
    assert_same_bits(got, want)
    assert_same_bits(pearson(rows[0], target), want[0].reshape(()))


def test_selection_correlations_match_scalar_reference_bitwise(monkeypatch):
    table, split, feats, groups = build_full(n_days=600, seed=5)
    target = table.columns["tempmax"]
    got = select_features(feats, target, split, 10, groups)
    monkeypatch.setattr(features, "pearson", lambda rows, target: np.array(
        [pearson_loop(row, target) for row in rows]))
    want = select_features(feats, target, split, 10, groups)
    assert got.selected == want.selected
    assert got.audit_rows() == want.audit_rows()
    for name, r in want.correlations.items():
        assert type(got.correlations[name]) is float
        assert_same_bits(np.float64(got.correlations[name]), np.float64(r),
                         name)


def test_selection_of_no_candidates_is_empty():
    res = select_features({}, np.zeros(120), chronological_split(120, 10), 3)
    assert res.selected == [] and res.correlations == {}


def test_selection_ranks_by_next_day_correlation():
    n = 120
    split = chronological_split(n, 10)
    rng = np.random.default_rng(0)
    target = rng.normal(size=n)
    # 'oracle' equals tomorrow's target exactly; 'noise*' are independent
    oracle = np.empty(n)
    oracle[:-1] = target[1:]
    oracle[-1] = 0.0
    cands = {
        "oracle": oracle,
        "noise_a": rng.normal(size=n),
        "noise_b": rng.normal(size=n),
        "flat": np.full(n, 2.0),
    }
    res = select_features(cands, target, split, k=2)
    assert res.selected[0] == "oracle"
    assert abs(res.correlations["oracle"]) == pytest.approx(1.0)
    assert res.correlations["flat"] == 0.0
    # zero-variance candidate sorts last in the audit
    assert [r[0] for r in res.audit_rows()][-1] == "flat"
    flags = {name: chosen for name, _, _, chosen in res.audit_rows()}
    assert flags["oracle"] and not flags["flat"]


def test_selection_tie_break_lexicographic_and_k_cap():
    n = 60
    split = chronological_split(n, 5)
    base = np.sin(np.arange(n) / 3.0)
    target = np.empty(n)
    target[1:] = base[:-1]
    target[0] = 0.0
    cands = {"zeta": base.copy(), "alpha": base.copy(), "mid": base * -1.0}
    res = select_features(cands, target, split, k=2)
    assert res.selected == ["alpha", "mid"] or res.selected == ["alpha", "zeta"]
    # |r| ties between alpha/zeta/mid are broken by name: alpha first
    assert res.selected[0] == "alpha"
    res_all = select_features(cands, target, split, k=10)
    assert len(res_all.selected) == 3
