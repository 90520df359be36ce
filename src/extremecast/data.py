"""Daily weather table loading, imputation, scaling, splitting, windowing.

Conventions fixed here:

* A table holds one row per calendar day, strictly increasing, no gaps;
  missing calendar days found while loading are inserted as all-missing rows
  before imputation.  Missing numeric cells are NaN.
* Imputation is two-stage: linear interpolation between observed neighbours,
  then backward-fill before the first observation and forward-fill after the
  last one.
* The robust scaler is (x - median) / IQR with quantiles by the linear
  interpolation rule (numpy default); an IQR of zero falls back to a divisor
  of 1.  Fitting uses train-partition rows only.
* The chronological split takes the last 20% of days as test.  The
  validation block is the FIRST 20% of the remaining training period and the
  train block is the rest - the validation set predates the train set.  This
  reproduces the published recipe verbatim and is intentional.
* Windows never cross a partition boundary: a sample with target day d uses
  rows d-L..d-1 and exists only when all of them lie in d's own partition.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

TARGET_COLUMN = "tempmax"
DATE_COLUMNS = ("datetime", "date")


@dataclass
class TimeSeriesTable:
    dates: list
    columns: dict[str, np.ndarray]
    text_columns: dict[str, list] = field(default_factory=dict)
    missing_mask: dict[str, np.ndarray] = field(default_factory=dict)
    target: str = TARGET_COLUMN

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def copy(self) -> "TimeSeriesTable":
        return TimeSeriesTable(
            dates=list(self.dates),
            columns={k: v.copy() for k, v in self.columns.items()},
            text_columns={k: list(v) for k, v in self.text_columns.items()},
            missing_mask={k: v.copy() for k, v in self.missing_mask.items()},
            target=self.target,
        )


def _parse_date(raw: str, row: int):
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError:
        raise DataError(f"row {row}: unparseable date {raw!r} (expected YYYY-MM-DD)")


def load_csv(path: str, target: str = TARGET_COLUMN) -> TimeSeriesTable:
    """Read a daily weather CSV into a table.

    The date column must be named 'datetime' or 'date'.  A column is numeric
    when every non-empty cell parses as a float; otherwise it is kept as
    text and ignored downstream.  Blank and 'nan' cells are missing values; an
    infinite one ('inf', '1e999') is an error, as are duplicate or
    out-of-order dates.  Missing calendar days become all-missing rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        rows = list(reader)
    header = [h.strip() for h in header]
    date_col = next((c for c in DATE_COLUMNS if c in header), None)
    if date_col is None:
        raise DataError(f"{path}: no 'datetime' or 'date' column in header")
    di = header.index(date_col)
    if not rows:
        raise DataError(f"{path}: no data rows")

    dates = []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"row {r}: expected {len(header)} fields, got {len(row)}")
        d = _parse_date(row[di], r)
        if dates:
            if d == dates[-1]:
                raise DataError(f"row {r}: duplicate date {d.isoformat()}")
            if d < dates[-1]:
                raise DataError(f"row {r}: date {d.isoformat()} breaks chronological order")
        dates.append(d)

    # dense daily calendar; unlisted days become missing rows
    full_dates = []
    day = dates[0]
    while day <= dates[-1]:
        full_dates.append(day)
        day += dt.timedelta(days=1)
    pos = {d: i for i, d in enumerate(full_dates)}
    n = len(full_dates)

    raw_cells: dict[str, list] = {h: [None] * n for h in header if h != date_col}
    csv_row = [0] * n
    for r, (row, d) in enumerate(zip(rows, dates), start=2):
        i = pos[d]
        csv_row[i] = r
        for j, h in enumerate(header):
            if h == date_col:
                continue
            raw_cells[h][i] = row[j]

    columns: dict[str, np.ndarray] = {}
    text_columns: dict[str, list] = {}
    missing_mask: dict[str, np.ndarray] = {}
    for name, cells in raw_cells.items():
        parsed = np.full(n, np.nan)
        numeric = True
        for i, cell in enumerate(cells):
            if cell is None or cell.strip() == "":
                continue
            try:
                parsed[i] = float(cell)
            except ValueError:
                numeric = False
                break
        if numeric:
            inf = np.flatnonzero(np.isinf(parsed))
            if inf.size:
                raise DataError(f"row {csv_row[inf[0]]}: column {name!r} holds the "
                                f"infinite value {cells[inf[0]].strip()!r}")
            columns[name] = parsed
            missing_mask[name] = np.isnan(parsed)
        else:
            text_columns[name] = [None if c is None or c.strip() == "" else c
                                  for c in cells]
    if target not in columns:
        raise DataError(f"{path}: target column {target!r} missing or non-numeric")
    return TimeSeriesTable(full_dates, columns, text_columns, missing_mask, target)


def impute_two_stage(table: TimeSeriesTable) -> TimeSeriesTable:
    """Linear interpolation of interior gaps, edge back/forward fill."""
    out = table.copy()
    n = out.n_days
    idx = np.arange(n)
    for name, col in out.columns.items():
        known = np.isfinite(col)
        if not known.any():
            raise DataError(f"cannot impute column {name!r}: no observed values")
        if known.all():
            continue
        out.columns[name] = np.interp(idx, idx[known], col[known])
    return out


@dataclass
class ScalerParams:
    """Per-column (median, divisor) of the robust scaler."""
    columns: dict[str, tuple[float, float]]

    def transform(self, name: str, x: np.ndarray) -> np.ndarray:
        med, div = self.columns[name]
        return (x - med) / div

    def invert(self, name: str, x: np.ndarray) -> np.ndarray:
        med, div = self.columns[name]
        return x * div + med


def fit_scaler(columns: dict[str, np.ndarray], fit_slice: slice) -> ScalerParams:
    """Median/IQR per column over ``fit_slice`` rows; IQR 0 -> divisor 1."""
    params = {}
    for name, col in columns.items():
        rows = col[fit_slice]
        if rows.size == 0:
            raise DataError(f"scaler fit on empty slice for column {name!r}")
        med = float(np.median(rows))
        iqr = float(np.quantile(rows, 0.75) - np.quantile(rows, 0.25))
        params[name] = (med, iqr if iqr > 0.0 else 1.0)
    return ScalerParams(params)


@dataclass
class SplitSpec:
    n_days: int
    val: tuple[int, int]    # [start, stop)
    train: tuple[int, int]
    test: tuple[int, int]

    def slice_(self, part: str) -> slice:
        lo, hi = getattr(self, part)
        return slice(lo, hi)


def chronological_split(n_days: int, lookback: int, train_frac: float = 0.8,
                        val_frac: float = 0.2) -> SplitSpec:
    """Last (1-train_frac) of days is test; first val_frac of the training
    period is validation; the remainder is train.  Each partition must keep
    at least lookback+1 rows so it yields at least one window."""
    if not 0.0 < train_frac < 1.0:
        raise DataError(f"train_frac must be in (0, 1), got {train_frac}")
    if not 0.0 < val_frac < 1.0:
        raise DataError(f"val_frac must be in (0, 1), got {val_frac}")
    if lookback < 1:
        raise DataError(f"lookback must be >= 1, got {lookback}")
    n_period = int(np.floor(n_days * train_frac))
    n_val = int(np.floor(n_period * val_frac))
    split = SplitSpec(n_days, val=(0, n_val), train=(n_val, n_period),
                      test=(n_period, n_days))
    for part in ("val", "train", "test"):
        lo, hi = getattr(split, part)
        if hi - lo < lookback + 1:
            raise DataError(
                f"partition {part!r} has {hi - lo} rows; needs at least "
                f"lookback+1 = {lookback + 1}")
    return split


@dataclass
class WindowPartition:
    X: np.ndarray            # [n, L, F]
    y: np.ndarray            # [n]
    target_rows: np.ndarray  # table row index of each sample's target day

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


def make_windows(features: np.ndarray, target: np.ndarray, split: SplitSpec,
                 lookback: int) -> dict[str, WindowPartition]:
    """Slide length-L windows inside each partition.

    Sample with target day d: X = rows [d-L, d), y = target[d].  Samples
    whose window would cross the partition's lower boundary do not exist.
    """
    n, _ = features.shape
    if n != split.n_days or target.shape[0] != n:
        raise DataError("features/target length does not match the split")
    out = {}
    for part in ("train", "val", "test"):
        lo, hi = getattr(split, part)
        targets = np.arange(lo + lookback, hi)
        X = np.stack([features[d - lookback:d] for d in targets], axis=0) \
            if targets.size else np.zeros((0, lookback, features.shape[1]))
        out[part] = WindowPartition(X=X, y=target[targets].copy(),
                                    target_rows=targets)
    return out
