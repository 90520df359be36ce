"""Metric oracles: frozen hand computations, an independent brute-force
implementation for random fixtures, tail-subset contracts, and the
explained-variance identity."""

import datetime as dt
import math

import numpy as np
import pytest

from extremecast.metrics import (evaluation_report, regression_metrics,
                                 tail_rmse)


def brute_force_metrics(y, yhat):
    """Independent implementation: plain Python loops, no numpy reductions."""
    n = len(y)
    e = [yhat[i] - y[i] for i in range(n)]
    mse = sum(v * v for v in e) / n
    mae = sum(abs(v) for v in e) / n
    ybar = sum(y) / n
    ss_tot = sum((v - ybar) ** 2 for v in y)
    r2 = 1.0 - sum(v * v for v in e) / ss_tot
    ebar = sum(e) / n
    var_e = sum((v - ebar) ** 2 for v in e) / n
    var_y = ss_tot / n
    ev = 1.0 - var_e / var_y
    pbar = sum(yhat) / n
    num = sum((y[i] - ybar) * (yhat[i] - pbar) for i in range(n))
    den = math.sqrt(sum((v - ybar) ** 2 for v in y)
                    * sum((v - pbar) ** 2 for v in yhat))
    pr = num / den
    mape = sum(abs(e[i]) / max(abs(y[i]), 1e-6) for i in range(n)) / n * 100.0
    return mse, math.sqrt(mse), mae, r2, ev, pr, mape


def test_frozen_fixture():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
    assert m.mse == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.mae == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.r2 == pytest.approx(0.0, abs=1e-15)
    assert m.explained_variance == pytest.approx(0.0, abs=1e-15)
    assert m.pearson_r is None  # constant predictions
    assert "pearson_r" in m.null_reasons


def test_perfect_predictions():
    y = np.array([3.0, -1.0, 7.5, 0.25])
    m = regression_metrics(y, y.copy())
    assert m.mse == 0.0 and m.rmse == 0.0 and m.mae == 0.0
    assert m.r2 == 1.0 and m.pearson_r == pytest.approx(1.0)


def test_random_fixtures_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        y = rng.normal(20, 8, n)
        yhat = y + rng.normal(0, 2, n)
        m = regression_metrics(y, yhat)
        b = brute_force_metrics(list(y), list(yhat))
        got = (m.mse, m.rmse, m.mae, m.r2, m.explained_variance,
               m.pearson_r, m.mape_percent)
        for g, want in zip(got, b):
            assert g == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_rmse_is_sqrt_mse_and_permutation_invariant():
    rng = np.random.default_rng(3)
    y = rng.normal(size=40)
    yhat = y + rng.normal(0, 0.5, 40)
    m = regression_metrics(y, yhat)
    assert m.rmse == pytest.approx(np.sqrt(m.mse), abs=1e-12)
    perm = rng.permutation(40)
    mp = regression_metrics(y[perm], yhat[perm])
    for f in ("mse", "mae", "r2", "explained_variance", "pearson_r",
              "mape_percent"):
        assert getattr(m, f) == pytest.approx(getattr(mp, f), abs=1e-12)


def test_explained_variance_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        y = rng.normal(10, 4, 50)
        yhat = y + rng.normal(0.7, 1.0, 50)  # biased errors
        m = regression_metrics(y, yhat)
        e = yhat - y
        assert m.explained_variance - m.r2 == pytest.approx(
            e.mean() ** 2 / np.var(y), abs=1e-9)


def test_constant_observations_report_null_with_reason():
    m = regression_metrics(np.full(10, 4.0), np.arange(10.0))
    assert m.r2 is None and m.explained_variance is None and m.pearson_r is None
    assert "constant" in m.null_reasons["r2"]
    assert np.isfinite(m.mse)


def test_mape_epsilon_guard():
    y = np.array([0.0, 10.0])
    yhat = np.array([1.0, 11.0])
    m = regression_metrics(y, yhat)
    # |1|/1e-6 * 100 dominates; finite, huge, well-defined
    assert np.isfinite(m.mape_percent)
    assert m.mape_percent == pytest.approx((1e8 + 10.0) / 2.0)


def test_tail_rmse_uniform_error():
    y = np.arange(1.0, 101.0)
    hi, n_hi, _ = tail_rmse(y, y + 1.0, "high")
    lo, n_lo, _ = tail_rmse(y, y + 1.0, "low")
    assert hi == pytest.approx(1.0) and lo == pytest.approx(1.0)
    assert n_hi == 5 and n_lo == 5


def test_tail_rmse_brute_force_subset():
    # y = 1..100, yhat = y except the last entry is 95: the high tail is the
    # strict exceedance set {96..100}, and only y=100 carries error 5
    y = np.arange(1.0, 101.0)
    yhat = y.copy()
    yhat[-1] = 95.0
    hi, n, reason = tail_rmse(y, yhat, "high")
    assert n == 5 and reason is None
    assert hi == pytest.approx(np.sqrt(25.0 / 5.0))


def test_tail_rmse_strictness_and_empty():
    y = np.full(10, 3.0)
    out, n, reason = tail_rmse(y, y, "high")
    assert out is None and n == 0 and "strictly" in reason
    with pytest.raises(ValueError, match="tail"):
        tail_rmse(y, y, "middle")


def test_tail_partition_reconstitutes_mse():
    # q=0.5 tails plus the middle slice partition the samples; the
    # count-weighted average of their MSEs is the overall MSE
    rng = np.random.default_rng(11)
    y = rng.normal(size=101)
    yhat = y + rng.normal(0, 1, 101)
    hi, n_hi, _ = tail_rmse(y, yhat, "high", q=0.5)
    lo, n_lo, _ = tail_rmse(y, yhat, "low", q=0.5)
    med = np.quantile(y, 0.5)
    mid_mask = (y >= med) & (y <= med)  # strict tails leave only ties
    mid = yhat[mid_mask] - y[mid_mask]
    total = hi ** 2 * n_hi + lo ** 2 * n_lo + float(np.sum(mid * mid))
    assert n_hi + n_lo + mid_mask.sum() == 101
    m = regression_metrics(y, yhat)
    assert total / 101 == pytest.approx(m.mse, abs=1e-12)


def test_evaluation_report_structure():
    y = np.arange(30.0)
    yhat = y + 0.5
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(30)]
    rep = evaluation_report(y, yhat, dates)
    assert rep["n_test"] == 30
    assert rep["metrics"]["rmse"] == pytest.approx(0.5)
    assert rep["extreme_high_rmse"] == pytest.approx(0.5)
    assert rep["n_high"] >= 1 and rep["n_low"] >= 1
    assert "training_time_s" not in rep
    first = rep["residuals"][0]
    assert first == {"date": "2021-01-01", "y": 0.0, "yhat": 0.5, "e": 0.5}
