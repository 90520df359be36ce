"""Causal feature engineering and next-day-correlation feature selection.

Every derived series at day t uses rows <= t only.  Column sets where the
method description says "key variables" are declared here once:

* rolling stats, smoothing: tempmax, tempmin, temp, feelslike
* first differences: the four above plus sealevelpressure

Derived groups: calendar, rolling (trailing windows of ROLLING_WINDOWS
days), smoothing (causal Savitzky-Golay, window 7, order 3), anomaly
(climatology z-scores, flagged beyond |z| > ZSCORE_FLAG), interaction, diff.
Raw numeric columns always stay in the candidate pool.  Feature modes:
"full" builds every group, "minimal" only the four cyclical calendar
encodings, "raw_only" no derived features.

Selection ranks candidates by |Pearson r| between feature(t) and target(t+1)
over train-partition rows, keeps the top k, breaks ties lexicographically,
and forces zero-variance features to rank last (r treated as 0).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SplitSpec, TimeSeriesTable
from .errors import ConfigError, DataError

KEY_SERIES = ("tempmax", "tempmin", "temp", "feelslike")
DIFF_SERIES = KEY_SERIES + ("sealevelpressure",)
CYCLICAL_CALENDAR = ("month_sin", "month_cos", "doy_sin", "doy_cos")
ROLLING_WINDOWS = (7, 30)
ZSCORE_FLAG = 2.0
CLIMATOLOGY_STD_FLOOR = 1e-8
FEATURE_MODES = ("full", "minimal", "raw_only")
_ROLLING = {"mean": np.mean, "min": np.min, "max": np.max,
            "std": partial(np.std, ddof=1)}


@dataclass
class FeatureSpec:
    mode: str = "full"               # one of FEATURE_MODES
    top_k: int = 30

    def validate(self) -> "FeatureSpec":
        if self.mode not in FEATURE_MODES:
            raise ConfigError(f"features.mode must be one of {FEATURE_MODES}, "
                              f"got {self.mode!r}")
        if self.top_k < 1:
            raise ConfigError("features.top_k must be >= 1")
        return self


def rolling_stat(x: np.ndarray, window: int, stat: str) -> np.ndarray:
    """Trailing statistic over the last `window` days, partial at the start.

    std uses ddof=1; a single-point window yields std 0.  Each full window
    is reduced as one row of a sliding-window view along its last axis,
    which runs the same inner loop as the call on the 1-D slice, so the
    bits equal a per-day loop's.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if stat not in _ROLLING:
        raise ValueError(f"unknown rolling stat {stat!r}")
    reduce = _ROLLING[stat]
    n = x.shape[0]
    out = np.zeros(n)
    # a one-point std is left at 0 rather than computed with ddof=1
    lo = 1 if stat == "std" else 0
    for i in range(lo, min(window - 1, n)):
        out[i] = reduce(x[:i + 1])
    if n >= window > lo:
        out[window - 1:] = reduce(sliding_window_view(x, window), axis=-1)
    return out


def _sg_coeffs(n_pts: int, order: int) -> np.ndarray:
    """Weights reproducing the least-squares polynomial value at the right
    edge of an n_pts window.  Derived from the normal equations: with
    positions p = -(n_pts-1)..0 and Vandermonde A (columns p^0..p^order),
    the fitted value at p=0 is the constant coefficient of
    (A^T A)^{-1} A^T x, i.e. row 0 of that matrix dotted with the window."""
    p = np.arange(-(n_pts - 1), 1, dtype=np.float64)
    A = np.vander(p, order + 1, increasing=True)
    G = A.T @ A
    return np.linalg.solve(G, A.T)[0]


def savgol_causal(x: np.ndarray, window: int = 7, poly: int = 3) -> np.ndarray:
    """Causal Savitzky-Golay: value at t from the window ending at t.

    Start-of-series windows shrink and the polynomial order drops to
    n_pts - 1 when fewer points than poly + 1 are available.  Exact for
    polynomials up to `poly` once the window is full.
    """
    if window < 1 or poly < 0:
        raise ValueError("window must be >= 1 and poly >= 0")
    n = x.shape[0]
    coeffs = {m: _sg_coeffs(m, min(poly, m - 1)) for m in range(1, min(window, n) + 1)}
    out = np.empty(n)
    for i in range(min(window - 1, n)):
        out[i] = coeffs[i + 1] @ x[:i + 1]
    if n >= window:
        # a stack of [1, window] @ [window, 1] products runs the vector dot
        # kernel of the one-day `coeffs @ x[i-window+1:i+1]`, so the bits
        # equal a per-day loop's; a plain `view @ coeffs` (matrix-vector
        # kernel) moves them
        view = sliding_window_view(x, window)[:, None, :]
        out[window - 1:] = (view @ coeffs[window][:, None])[:, 0, 0]
    return out


@dataclass
class Climatology:
    """Per day-of-year mean/std per column, fitted on train rows only."""
    mean: dict[str, np.ndarray]   # indexed by day-of-year 1..366 at [doy]
    std: dict[str, np.ndarray]


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def calendar_fields(dates) -> dict[str, np.ndarray]:
    """The integer calendar fields of each date, from its proleptic ordinal
    as datetime64: ``year``, ``month``, ``day_of_year`` (1 to 366, its days
    since 1 January), ``day_of_week`` (Monday 0) and ``week_of_year``, the
    ISO week, which is the week of the year that holds the date's Thursday."""
    ordinal = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    weekday = (ordinal + 6) % 7
    days = (ordinal - _EPOCH_ORDINAL).astype("datetime64[D]")
    years = days.astype("datetime64[Y]")
    thursday = days + (3 - weekday)
    return {"year": years.astype(np.int64) + 1970,
            "month": days.astype("datetime64[M]").astype(np.int64) % 12 + 1,
            "day_of_year": (days - years).astype(np.int64) + 1,
            "day_of_week": weekday,
            "week_of_year": (thursday - thursday.astype("datetime64[Y]"))
            .astype(np.int64) // 7 + 1}


def fit_climatology(table: TimeSeriesTable, columns, train_slice: slice,
                    doy: np.ndarray) -> Climatology:
    """Statistics per column and day of year; std floored at
    CLIMATOLOGY_STD_FLOOR.  Day 366 borrows day 365 when only 365 is
    observed; any other unobserved day takes the global train statistics.
    ``doy`` is ``calendar_fields(table.dates)["day_of_year"]``.

    Train rows are stably sorted by day of year, and the days with c rows
    are reduced together as one C-contiguous [columns, days, c] stack along
    its last axis, which gives the bits of reducing each day's rows alone.
    """
    doy = doy[train_slice]
    cols = np.stack([table.columns[name][train_slice] for name in columns])
    glob_m = cols.mean(axis=-1)
    glob_s = np.maximum(cols.std(axis=-1), CLIMATOLOGY_STD_FLOOR)
    order = np.argsort(doy, kind="stable")
    days, starts, counts = np.unique(doy[order], return_index=True,
                                     return_counts=True)
    by_day = cols[:, order]
    m = np.zeros((len(columns), 367))
    s = np.zeros((len(columns), 367))
    m[:, 1:] = glob_m[:, None]
    s[:, 1:] = glob_s[:, None]
    for c in np.unique(counts):
        group = counts == c
        stack = np.ascontiguousarray(
            by_day[:, starts[group][:, None] + np.arange(c)])
        m[:, days[group]] = stack.mean(axis=-1)
        s[:, days[group]] = np.maximum(stack.std(axis=-1),
                                       CLIMATOLOGY_STD_FLOOR)
    if 365 in days and 366 not in days:
        m[:, 366], s[:, 366] = m[:, 365], s[:, 365]
    return Climatology(dict(zip(columns, m)), dict(zip(columns, s)))


def climatology_anomaly(x: np.ndarray, doy: np.ndarray, clim: Climatology,
                        name: str, flag_threshold: float):
    m = clim.mean[name][doy]
    s = clim.std[name][doy]
    anom = x - m
    z = anom / s
    flag = (np.abs(z) > flag_threshold).astype(np.float64)
    return anom, z, flag


def first_diff(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    out[0] = 0.0
    out[1:] = x[1:] - x[:-1]
    return out


def build_features(table: TimeSeriesTable, split: SplitSpec,
                   spec: FeatureSpec) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """All candidate series (raw + derived) and their group labels, for a
    spec that passes ``FeatureSpec.validate``."""
    n = table.n_days
    feats: dict[str, np.ndarray] = {}
    groups: dict[str, str] = {}

    def put(name, values, group):
        feats[name] = np.asarray(values, dtype=np.float64)
        groups[name] = group

    for name, col in table.columns.items():
        put(name, col.copy(), "raw")

    if spec.mode == "raw_only":
        return feats, groups

    cal = calendar_fields(table.dates)
    doy = cal["day_of_year"]
    month = cal["month"].astype(np.float64)
    put("month_sin", np.sin(2 * np.pi * month / 12.0), "calendar")
    put("month_cos", np.cos(2 * np.pi * month / 12.0), "calendar")
    put("doy_sin", np.sin(2 * np.pi * doy / 365.25), "calendar")
    put("doy_cos", np.cos(2 * np.pi * doy / 365.25), "calendar")
    if spec.mode == "minimal":
        return feats, groups
    put("year", cal["year"], "calendar")
    put("month", month, "calendar")
    put("day_of_year", doy, "calendar")
    put("day_of_week", cal["day_of_week"], "calendar")
    put("quarter", (cal["month"] - 1) // 3 + 1, "calendar")
    put("week_of_year", cal["week_of_year"], "calendar")

    cols = table.columns
    for name in KEY_SERIES:
        if name not in cols:
            continue
        for w in ROLLING_WINDOWS:
            for stat in ("mean", "min", "max", "std"):
                put(f"{name}_{w}d_{stat}", rolling_stat(cols[name], w, stat),
                    "rolling")
    if "tempmax" in cols and "tempmin" in cols:
        rng_ = cols["tempmax"] - cols["tempmin"]
        put("temp_range", rng_, "rolling")
        for w in ROLLING_WINDOWS:
            put(f"temp_range_vol_{w}", rolling_stat(rng_, w, "std"), "rolling")

    for name in KEY_SERIES:
        if name in cols:
            put(f"{name}_smooth", savgol_causal(cols[name]), "smoothing")

    clim = fit_climatology(table, sorted(cols), split.slice_("train"), doy)
    for name in sorted(cols):
        anom, z, flag = climatology_anomaly(cols[name], doy, clim, name,
                                            ZSCORE_FLAG)
        put(f"{name}_anom", anom, "anomaly")
        put(f"{name}_zscore", z, "anomaly")
        put(f"{name}_extreme_flag", flag, "anomaly")

    if "temp" in cols and "humidity" in cols:
        put("heat_index_proxy", cols["temp"] + 0.1 * cols["humidity"], "interaction")
    if "tempmax" in cols and "precip" in cols:
        drought = cols["tempmax"] - 2.0 * cols["precip"]
        put("drought_index", drought, "interaction")
        put("drought_index_30d", rolling_stat(drought, 30, "mean"), "interaction")

    for name in DIFF_SERIES:
        if name in cols:
            put(f"{name}_diff", first_diff(cols[name]), "diff")

    assert all(v.shape == (n,) for v in feats.values())
    return feats, groups


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Pearson correlation; 0 when either side has zero variance."""
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


@dataclass
class SelectionResult:
    selected: list            # ordered by rank
    correlations: dict[str, float]
    groups: dict[str, str] = field(default_factory=dict)

    def audit_rows(self):
        ranked = sorted(self.correlations,
                        key=lambda n: (-abs(self.correlations[n]), n))
        chosen = set(self.selected)
        return [(name, self.groups.get(name, ""), self.correlations[name],
                 name in chosen) for name in ranked]


def select_features(candidates: dict[str, np.ndarray], target: np.ndarray,
                    split: SplitSpec, k: int,
                    groups: dict[str, str] | None = None) -> SelectionResult:
    """Top-k candidates by |corr(feature_t, target_{t+1})| on train rows.

    Ties break lexicographically; zero-variance features score 0 and thus
    sort last (before the lexicographic key).  Returns min(k, n_candidates);
    ``k`` >= 1 is ``FeatureSpec.validate``'s rule.
    """
    lo, hi = split.train
    if hi - lo < 3:
        raise DataError("train partition too short for selection")
    corr = {}
    for name, x in candidates.items():
        corr[name] = pearson(x[lo:hi - 1], target[lo + 1:hi])
    ranked = sorted(corr, key=lambda n: (-abs(corr[n]), n))
    return SelectionResult(ranked[:min(k, len(ranked))], corr, dict(groups or {}))
