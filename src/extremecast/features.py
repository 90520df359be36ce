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

The rolling statistics and the smoother take a stack of series with time on
the last axis, so building runs one call per (window, stat) for all series;
every value keeps the bits of one numpy call per series and day.

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
_RUNNING = {"min": np.minimum, "max": np.maximum}


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
    """Trailing statistic over the last `window` days of each series of
    ``x[..., n]`` (time on the last axis), partial at the start.

    std uses ddof=1; a single-point window yields std 0.  Every value has
    the bits of the 1-D call on its row's trailing slice, because a
    reduction along the last axis of a stack runs each row's inner loop as
    the call on that row alone does.  mean and std reduce all full windows
    as the rows of one sliding-window view, and each start-of-series day in
    one call for every series.  min and max run np.minimum/np.maximum:
    accumulated over the first window-1 days, folded over `window` shifted
    views for the full windows.  That gives the reduction's value, but
    where it is 0.0 or not finite the sign of a zero or a NaN's payload may
    differ, so those windows are reduced again.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if stat not in _ROLLING:
        raise ValueError(f"unknown rolling stat {stat!r}")
    if stat in _RUNNING:
        return _rolling_extreme(x, window, stat)
    reduce = _ROLLING[stat]
    n = x.shape[-1]
    out = np.zeros(x.shape)
    # a one-point std is left at 0 rather than computed with ddof=1
    lo = 1 if stat == "std" else 0
    for i in range(lo, min(window - 1, n)):
        out[..., i] = reduce(x[..., :i + 1], axis=-1)
    if n >= window > lo:
        out[..., window - 1:] = reduce(sliding_window_view(x, window, axis=-1),
                                       axis=-1)
    return out


def _rolling_extreme(x: np.ndarray, window: int, stat: str) -> np.ndarray:
    """rolling_stat's min and max.  A separate path because the folds cost
    per call where a sliding-window reduction costs per element: about 3x
    faster on the feature stacks, 7% of `extremecast prepare`
    (BENCH_32.json, ablation "fork")."""
    running, reduce = _RUNNING[stat], _ROLLING[stat]
    n = x.shape[-1]
    head = min(window - 1, n)
    out = np.empty(x.shape)
    running.accumulate(x[..., :head], axis=-1, out=out[..., :head])
    full = out[..., head:]
    if n >= window:
        full[...] = x[..., :n - head]
        for j in range(1, window):
            running(full, x[..., j:j + n - head], out=full)
    redo = out == 0.0
    redo |= ~np.isfinite(out)
    for *row, i in zip(*np.nonzero(redo[..., :head])):
        out[(*row, i)] = reduce(x[(*row, slice(0, i + 1))])
    at = np.nonzero(redo[..., head:])
    if at[0].size:
        full[at] = reduce(sliding_window_view(x, window, axis=-1)[at], axis=-1)
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
    """Causal Savitzky-Golay on each series of ``x[..., n]`` (time on the
    last axis): the value at t comes from the window ending at t.

    Start-of-series windows shrink and the polynomial order drops to
    n_pts - 1 when fewer points than poly + 1 are available.  Exact for
    polynomials up to `poly` once the window is full.  Each window length's
    weights are solved once for all series.  Every day is a stack of
    [1, m] @ [m, 1] products, one per series, which runs the vector dot
    kernel of the one-day ``weights @ x[t-m+1:t+1]``, so the bits equal a
    per-day loop's; the matrix-vector forms ``x[..., :m] @ weights`` and
    ``view @ weights`` move them.
    """
    if window < 1 or poly < 0:
        raise ValueError("window must be >= 1 and poly >= 0")
    n = x.shape[-1]
    out = np.empty(x.shape)
    for i in range(min(window - 1, n)):
        weights = _sg_coeffs(i + 1, min(poly, i))[:, None]
        out[..., i] = (x[..., None, :i + 1] @ weights)[..., 0, 0]
    if n >= window:
        weights = _sg_coeffs(window, min(poly, window - 1))[:, None]
        view = sliding_window_view(x, window, axis=-1)[..., None, :]
        out[..., window - 1:] = (view @ weights)[..., 0, 0]
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
    keys = [name for name in KEY_SERIES if name in cols]
    series = {name: cols[name] for name in keys}
    reads = {stat: list(keys) for stat in _ROLLING}   # the series each is read for
    if "tempmax" in cols and "tempmin" in cols:
        series["temp_range"] = cols["tempmax"] - cols["tempmin"]
        reads["std"].append("temp_range")
    if "tempmax" in cols and "precip" in cols:
        series["drought_index"] = cols["tempmax"] - 2.0 * cols["precip"]
        reads["mean"].append("drought_index")

    def stack(names):
        """The named series as the rows of one C-contiguous [len(names), n]
        array, so each (window, stat) is one call for all of them."""
        return np.array([series[name] for name in names]).reshape(len(names), n)

    rolled = {}
    for stat, names in reads.items():
        rows = stack(names)
        for w in ROLLING_WINDOWS:
            rolled.update(zip([(name, w, stat) for name in names],
                              rolling_stat(rows, w, stat)))
    for name in keys:
        for w in ROLLING_WINDOWS:
            for stat in ("mean", "min", "max", "std"):
                put(f"{name}_{w}d_{stat}", rolled[name, w, stat], "rolling")
    if "temp_range" in series:
        put("temp_range", series["temp_range"], "rolling")
        for w in ROLLING_WINDOWS:
            put(f"temp_range_vol_{w}", rolled["temp_range", w, "std"],
                "rolling")

    for name, values in zip(keys, savgol_causal(stack(keys))):
        put(f"{name}_smooth", values, "smoothing")

    clim = fit_climatology(table, sorted(cols), split.slice_("train"), doy)
    for name in sorted(cols):
        anom, z, flag = climatology_anomaly(cols[name], doy, clim, name,
                                            ZSCORE_FLAG)
        put(f"{name}_anom", anom, "anomaly")
        put(f"{name}_zscore", z, "anomaly")
        put(f"{name}_extreme_flag", flag, "anomaly")

    if "temp" in cols and "humidity" in cols:
        put("heat_index_proxy", cols["temp"] + 0.1 * cols["humidity"], "interaction")
    if "drought_index" in series:
        put("drought_index", series["drought_index"], "interaction")
        put("drought_index_30d", rolled["drought_index", 30, "mean"],
            "interaction")

    for name in DIFF_SERIES:
        if name in cols:
            put(f"{name}_diff", first_diff(cols[name]), "diff")

    assert all(v.shape == (n,) for v in feats.values())
    return feats, groups


def pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain Pearson correlation of each row of ``a[..., m]`` with ``b[m]``
    along the last axis; 0 where either side has zero variance.  Each row's
    value has the bits of the call on that row alone; 1-D ``a`` gives a
    0-d array."""
    da = a - a.mean(axis=-1, keepdims=True)
    db = b - b.mean(axis=-1, keepdims=True)
    num = (da * db).sum(axis=-1)
    denom = np.sqrt((da * da).sum(axis=-1) * (db * db).sum(axis=-1))
    return np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)


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
    rows = np.array([x[lo:hi - 1] for x in candidates.values()])
    rows = rows.reshape(len(candidates), hi - 1 - lo)   # no candidates: [0, m]
    corr = dict(zip(candidates, pearson(rows, target[lo + 1:hi]).tolist()))
    ranked = sorted(corr, key=lambda n: (-abs(corr[n]), n))
    return SelectionResult(ranked[:min(k, len(ranked))], corr, dict(groups or {}))
