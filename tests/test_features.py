"""Feature engineering tests: frozen small fixtures, polynomial-exactness of
the causal smoother, train-only climatology, causality under future edits,
and selection ranking rules."""

import datetime as dt

import numpy as np
import numpy.testing as npt
import pytest

from extremecast.data import TimeSeriesTable, chronological_split
from extremecast.errors import DataError
from extremecast.features import (CYCLICAL_CALENDAR, FeatureSpec,
                                  build_features, climatology_anomaly,
                                  day_of_year, first_diff, fit_climatology,
                                  pearson, rolling_stat, savgol_causal,
                                  select_features)
from extremecast.synthetic import sinusoid_ar_table

SQ2 = np.sqrt(2.0)


def mk_table(cols, start=dt.date(2019, 1, 1)):
    n = len(next(iter(cols.values())))
    dates = [start + dt.timedelta(days=i) for i in range(n)]
    np_cols = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
    return TimeSeriesTable(dates, np_cols)


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


# ------------------------------------------------------------- climatology


def test_climatology_train_only_mean_and_z():
    # two identical years in train, one aberrant year outside it
    year = 30.0 + np.sin(2 * np.pi * np.arange(365) / 365.0)
    vals = np.concatenate([year, year + 2.0, year + 100.0])
    table = mk_table({"tempmax": vals}, start=dt.date(2018, 1, 1))
    clim = fit_climatology(table, ["tempmax"], slice(0, 730))
    doy = day_of_year(table.dates)
    # per-day mean is the two train years' average; the +100 year is unseen
    npt.assert_allclose(clim.mean["tempmax"][doy[:365]], year + 1.0, atol=1e-12)
    anom, z, flag = climatology_anomaly(vals, doy, clim, "tempmax", 2.0)
    npt.assert_allclose(anom[:365], -1.0, atol=1e-12)
    npt.assert_allclose(anom[365:730], 1.0, atol=1e-12)
    # aberrant year: anomaly 99, std 1 per day -> everything flagged
    assert np.all(flag[730:] == 1.0)
    npt.assert_allclose(z[730:], 99.0, atol=1e-9)


def test_climatology_leap_day_borrows_and_global_fallback():
    # 2020 is a leap year: train covering Jan-Feb 2020 observes doy 1..60
    n = 60
    vals = np.linspace(0.0, 10.0, n)
    table = mk_table({"tempmax": vals}, start=dt.date(2020, 1, 1))
    clim = fit_climatology(table, ["tempmax"], slice(0, n))
    # an observed day keeps its own statistics
    assert clim.mean["tempmax"][1] == vals[0] and clim.std["tempmax"][1] == 1e-8
    # unobserved ordinary day falls back to global train stats
    assert clim.mean["tempmax"][200] == pytest.approx(vals.mean())
    assert clim.std["tempmax"][200] == pytest.approx(vals.std())
    # fit a table that observes day 365 but not 366: 366 borrows 365
    full = mk_table({"tempmax": np.arange(365.0)}, start=dt.date(2019, 1, 1))
    clim2 = fit_climatology(full, ["tempmax"], slice(0, 365))
    assert clim2.mean["tempmax"][366] == clim2.mean["tempmax"][365]


def test_climatology_std_floor():
    table = mk_table({"tempmax": np.full(30, 5.0)})
    clim = fit_climatology(table, ["tempmax"], slice(0, 30), std_floor=1e-8)
    doy = day_of_year(table.dates)
    _, z, _ = climatology_anomaly(table.columns["tempmax"], doy, clim,
                                  "tempmax", 2.0)
    assert np.all(np.isfinite(z))


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
    with pytest.raises(DataError, match="feature mode"):
        build_features(table, split, FeatureSpec(mode="bogus"))


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
    with pytest.raises(DataError, match="top_k"):
        select_features(cands, target, split, k=0)
