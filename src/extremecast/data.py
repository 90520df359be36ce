"""Daily weather table loading, imputation, scaling, splitting, windowing.

Conventions fixed here:

* A table holds one row per calendar day, strictly increasing, no gaps;
  missing calendar days found while loading are inserted as all-missing rows
  before imputation.  Missing numeric cells are NaN.
* A column is kept only when every non-empty cell parses as a float; a
  column holding any other text is dropped while loading.
* Imputation is two-stage and causal: each missing cell takes the last
  observed value before it (a forward fill), so no filled day depends on a
  later one; cells before the first observation take the first observed
  value (a back-fill).
* The robust scaler is (x - median) / IQR with quantiles by the linear
  interpolation rule (numpy default); an IQR of zero falls back to a divisor
  of 1.  Fitting uses train-partition rows only.
* The chronological split takes the last 20% of days as test.  The
  validation block is the FIRST 20% of the remaining training period and the
  train block is the rest - the validation set predates the train set.  This
  reproduces the published recipe verbatim and is intentional.
* Windows never cross a partition boundary: a sample with target day d uses
  rows d-L..d-1 and exists only when all of them lie in d's own partition.
  The window stacks are read-only views of the scaled day matrix, so each
  scaled day is held once, however many windows cover it.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

TARGET_COLUMN = "tempmax"
DATE_COLUMNS = ("datetime", "date")


@dataclass
class TimeSeriesTable:
    dates: list
    columns: dict[str, np.ndarray]
    target: str = TARGET_COLUMN

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def copy(self) -> "TimeSeriesTable":
        return TimeSeriesTable(
            dates=list(self.dates),
            columns={k: v.copy() for k, v in self.columns.items()},
            target=self.target,
        )


def _parse_date(raw: str, row: int):
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError:
        raise DataError(f"row {row}: unparseable date {raw!r} (expected YYYY-MM-DD)")


def load_csv(path: str, target: str = TARGET_COLUMN) -> TimeSeriesTable:
    """Read a daily weather CSV into a table.

    The date column must be named 'datetime' or 'date', and no column name
    may repeat.  A leading byte-order mark is ignored.  A column is numeric
    when every non-empty cell parses as a float; otherwise it is dropped.
    Blank and 'nan' cells are missing values; an infinite one ('inf',
    '1e999') is an error, as are duplicate or out-of-order dates.  Missing
    calendar days become all-missing rows.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    repeated = next((h for h in header if header.count(h) > 1), None)
    if repeated is not None:
        raise DataError(f"{path}: column {repeated!r} appears more than once "
                        f"in the header")
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
        if dates and d <= dates[-1]:
            if d == dates[-1]:
                raise DataError(f"row {r}: duplicate date {d.isoformat()}")
            raise DataError(f"row {r}: date {d.isoformat()} breaks chronological order")
        dates.append(d)

    # dense daily calendar; unlisted days become missing rows, and data row
    # k (from 0) lands on day offset[k]
    ordinal = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    full_dates = list(map(dt.date.fromordinal, range(ordinal[0], ordinal[-1] + 1)))
    offset = ordinal - ordinal[0]

    columns: dict[str, np.ndarray] = {}
    for name, cells in zip(header, zip(*rows)):
        if name == date_col:
            continue
        try:
            parsed = np.fromiter(
                map(float, [c or "nan" for c in map(str.strip, cells)]),
                np.float64, len(cells))
        except ValueError:
            continue        # a text cell: the column is not numeric
        inf = np.flatnonzero(np.isinf(parsed))
        if inf.size:
            k = inf[0]
            raise DataError(f"row {k + 2}: column {name!r} holds the "
                            f"infinite value {cells[k].strip()!r}")
        col = np.full(len(full_dates), np.nan)
        col[offset] = parsed
        columns[name] = col
    if target not in columns:
        raise DataError(f"{path}: target column {target!r} missing or non-numeric")
    return TimeSeriesTable(full_dates, columns, target)


def impute_two_stage(table: TimeSeriesTable) -> TimeSeriesTable:
    """Forward fill from the last observed day, back-fill before the first."""
    out = table.copy()
    idx = np.arange(out.n_days)
    for name, col in out.columns.items():
        known = np.isfinite(col)
        if not known.any():
            raise DataError(f"cannot impute column {name!r}: no observed values")
        if known.all():
            continue
        # row of the last observed day at or before each day; -1 before the first
        source = np.maximum.accumulate(np.where(known, idx, -1))
        source[source < 0] = np.argmax(known)
        out.columns[name] = col[source]
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
    """Median/IQR per column over ``fit_slice`` rows; IQR 0 -> divisor 1.

    The columns are stacked as rows and reduced along the last axis in one
    ``median`` and one ``quantile`` call, which gives the bits of the calls
    on each column alone.
    """
    names = list(columns)
    rows = np.stack([columns[name][fit_slice] for name in names])
    if rows.shape[1] == 0:
        raise DataError(f"scaler fit on empty slice for column {names[0]!r}")
    med = np.median(rows, axis=-1)
    q25, q75 = np.quantile(rows, [0.25, 0.75], axis=-1)
    iqr = q75 - q25
    return ScalerParams({name: (float(m), float(d) if d > 0.0 else 1.0)
                         for name, m, d in zip(names, med, iqr)})


@dataclass
class SplitSpec:
    n_days: int
    val: tuple[int, int]    # [start, stop)
    train: tuple[int, int]
    test: tuple[int, int]

    def slice_(self, part: str) -> slice:
        lo, hi = getattr(self, part)
        return slice(lo, hi)


def check_split(split: SplitSpec, lookback: int) -> SplitSpec:
    """The one valid-split rule: lookback >= 1, and val | train | test lie
    contiguous over [0, n_days), each with >= lookback+1 rows (one window)."""
    if lookback < 1:
        raise DataError(f"lookback must be >= 1, got {lookback}")
    (v0, v1), (t0, t1), (s0, s1) = split.val, split.train, split.test
    if (v0, t0, s0, s1) != (0, v1, t1, split.n_days):
        raise DataError(f"{split} is not contiguous val | train | test")
    for part in ("val", "train", "test"):
        lo, hi = getattr(split, part)
        if hi - lo < lookback + 1:
            raise DataError(f"partition {part!r} has {hi - lo} rows; needs at "
                            f"least lookback+1 = {lookback + 1}")
    return split


def chronological_split(n_days: int, lookback: int, train_frac: float = 0.8,
                        val_frac: float = 0.2) -> SplitSpec:
    """Last (1-train_frac) of days is test; first val_frac of the training
    period is validation; the remainder is train; see ``check_split``."""
    if not 0.0 < train_frac < 1.0:
        raise DataError(f"train_frac must be in (0, 1), got {train_frac}")
    if not 0.0 < val_frac < 1.0:
        raise DataError(f"val_frac must be in (0, 1), got {val_frac}")
    n_period = int(np.floor(n_days * train_frac))
    n_val = int(np.floor(n_period * val_frac))
    return check_split(SplitSpec(n_days, val=(0, n_val),
                                 train=(n_val, n_period),
                                 test=(n_period, n_days)), lookback)


@dataclass
class WindowPartition:
    X: np.ndarray            # [n, L, F], read-only view of the day matrix
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
    Each partition's X is a read-only view of ``features``, not a copy.
    ``split`` must pass ``check_split``, so every partition has a window.
    """
    n, _ = features.shape
    if n != split.n_days or target.shape[0] != n:
        raise DataError("features/target length does not match the split")
    # view[s] holds rows [s, s + L): the window of target day s + L
    view = sliding_window_view(features, lookback, axis=0).swapaxes(1, 2)
    out = {}
    for part in ("train", "val", "test"):
        lo, hi = getattr(split, part)
        targets = np.arange(lo + lookback, hi)
        out[part] = WindowPartition(X=view[lo:hi - lookback],
                                    y=target[targets].copy(),
                                    target_rows=targets)
    return out
