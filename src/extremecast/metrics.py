"""Regression metric suite with tail-focused extensions.

All metrics are computed in raw target units (degrees C) after inverse
scaling.  Metrics that are undefined for a constant observation vector
(R^2, explained variance, Pearson r) are reported as None together with a
reason string rather than NaN, so JSON reports stay explicit.

Tail metrics restrict the RMSE to test days whose observed value strictly
exceeds the 95th percentile (high tail) or strictly falls below the 5th
percentile (low tail) of the evaluated split's own observations; quantiles
use the same linear-interpolation rule as the scaler and the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAPE_EPS = 1e-6
TAIL_Q = 0.05      # the share of observations in each extreme tail


@dataclass
class MetricSet:
    mse: float
    rmse: float
    mae: float
    r2: float | None
    explained_variance: float | None
    pearson_r: float | None
    mape_percent: float
    n: int
    null_reasons: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mse": self.mse, "rmse": self.rmse, "mae": self.mae,
            "r2": self.r2, "explained_variance": self.explained_variance,
            "pearson_r": self.pearson_r, "mape_percent": self.mape_percent,
            "n": self.n, "null_reasons": dict(self.null_reasons),
        }


def regression_metrics(y: np.ndarray, yhat: np.ndarray) -> MetricSet:
    """Standard regression metrics; see module docstring for conventions."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("regression_metrics expects equal-length non-empty 1-D arrays")
    e = yhat - y
    mse = float(np.mean(e * e))
    rmse = float(np.sqrt(mse))
    mae = float(np.mean(np.abs(e)))
    mape = float(np.mean(np.abs(e) / np.maximum(np.abs(y), MAPE_EPS)) * 100.0)

    nulls: dict[str, str] = {}
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = None
        ev = None
        pr = None
        nulls["r2"] = nulls["explained_variance"] = nulls["pearson_r"] = \
            "observations are constant (zero variance)"
    else:
        r2 = 1.0 - float(np.sum(e * e)) / ss_tot
        ev = 1.0 - float(np.var(e)) / float(np.var(y))
        sy = float(np.std(yhat))
        if sy == 0.0:
            pr = None
            nulls["pearson_r"] = "predictions are constant (zero variance)"
        else:
            c = np.corrcoef(y, yhat)
            pr = float(c[0, 1])
    return MetricSet(mse, rmse, mae, r2, ev, pr, mape, y.size, nulls)


def tail_rmse(y: np.ndarray, yhat: np.ndarray,
              tail: str) -> tuple[float | None, int, str | None]:
    """(rmse, n, reason) over the strict 5% tail of the observations.

    ``tail``: "high" keeps y > quantile(y, 1 - TAIL_Q); "low" keeps
    y < quantile(y, TAIL_Q).
    An empty subset yields (None, 0, reason).
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if tail == "high":
        thr = float(np.quantile(y, 1.0 - TAIL_Q))
        mask = y > thr
    elif tail == "low":
        thr = float(np.quantile(y, TAIL_Q))
        mask = y < thr
    else:
        raise ValueError(f"tail must be 'high' or 'low', got {tail!r}")
    n = int(mask.sum())
    if n == 0:
        return None, 0, f"no observations strictly beyond the {tail} threshold {thr!r}"
    e = yhat[mask] - y[mask]
    return float(np.sqrt(np.mean(e * e))), n, None


def evaluation_report(y: np.ndarray, yhat: np.ndarray, dates=None) -> dict:
    """Full report dict (JSON-ready): overall metrics, both tails, residual
    rows (date, y, yhat, e)."""
    m = regression_metrics(y, yhat)
    hi, n_hi, hi_reason = tail_rmse(y, yhat, "high")
    lo, n_lo, lo_reason = tail_rmse(y, yhat, "low")
    if dates is None:
        date_strs = [""] * y.shape[0]
    else:
        date_strs = [d.isoformat() for d in dates]
    residuals = [
        {"date": date_strs[i], "y": float(y[i]), "yhat": float(yhat[i]),
         "e": float(yhat[i] - y[i])}
        for i in range(y.shape[0])
    ]
    report = {
        "metrics": m.to_dict(),
        "extreme_high_rmse": hi,
        "extreme_low_rmse": lo,
        "n_test": int(y.shape[0]),
        "n_high": n_hi,
        "n_low": n_lo,
        "tail_q": TAIL_Q,
        "residuals": residuals,
    }
    reasons = {}
    if hi_reason:
        reasons["extreme_high_rmse"] = hi_reason
    if lo_reason:
        reasons["extreme_low_rmse"] = lo_reason
    if reasons:
        report["tail_null_reasons"] = reasons
    return report
