"""Loader, imputation, scaler, split, and windowing tests with hand-computed
fixtures.  The column-wise loader, the CSV writer and the stacked scaler fit
are checked bit for bit against the per-cell and per-column loops kept here
as references."""

import csv
import datetime as dt

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast.data import (DATE_COLUMNS, ScalerParams, TimeSeriesTable,
                              _parse_date, chronological_split, fit_scaler,
                              impute_two_stage, load_csv, make_windows)
from extremecast.errors import DataError
from extremecast.synthetic import sinusoid_ar_table, table_to_csv


def mk_table(values, start=dt.date(2020, 1, 1), name="tempmax"):
    arr = np.asarray(values, dtype=np.float64)
    dates = [start + dt.timedelta(days=i) for i in range(arr.size)]
    return TimeSeriesTable(dates, {name: arr})


def write_csv(path, rows, header="datetime,tempmax,temp"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def load_csv_loop(path, target="tempmax"):
    """Reference: the loader one row and one cell at a time; each cell is
    scattered into a dense calendar, then parsed with its own ``float``."""
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
    for i, h in enumerate(header):
        if h in header[:i] or h in header[i + 1:]:
            raise DataError(f"{path}: column {h!r} appears more than once "
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
        if dates:
            if d == dates[-1]:
                raise DataError(f"row {r}: duplicate date {d.isoformat()}")
            if d < dates[-1]:
                raise DataError(f"row {r}: date {d.isoformat()} breaks chronological order")
        dates.append(d)

    full_dates = []
    day = dates[0]
    while day <= dates[-1]:
        full_dates.append(day)
        day += dt.timedelta(days=1)
    pos = {d: i for i, d in enumerate(full_dates)}
    n = len(full_dates)

    raw_cells = {h: [None] * n for h in header if h != date_col}
    csv_row = [0] * n
    for r, (row, d) in enumerate(zip(rows, dates), start=2):
        i = pos[d]
        csv_row[i] = r
        for j, h in enumerate(header):
            if h != date_col:
                raw_cells[h][i] = row[j]

    columns = {}
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
        if not numeric:
            continue
        inf = np.flatnonzero(np.isinf(parsed))
        if inf.size:
            raise DataError(f"row {csv_row[inf[0]]}: column {name!r} holds the "
                            f"infinite value {cells[inf[0]].strip()!r}")
        columns[name] = parsed
    if target not in columns:
        raise DataError(f"{path}: target column {target!r} missing or non-numeric")
    return TimeSeriesTable(full_dates, columns, target)


def table_to_csv_loop(table, path):
    """Reference: the CSV writer one cell at a time."""
    names = sorted(table.columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["datetime"] + names) + "\n")
        for i, d in enumerate(table.dates):
            cells = [d.isoformat()]
            for n in names:
                v = table.columns[n][i]
                cells.append("" if np.isnan(v) else repr(float(v)))
            fh.write(",".join(cells) + "\n")


def fit_scaler_loop(columns, fit_slice):
    """Reference: one median and two quantile calls per column."""
    params = {}
    for name, col in columns.items():
        rows = col[fit_slice]
        if rows.size == 0:
            raise DataError(f"scaler fit on empty slice for column {name!r}")
        med = float(np.median(rows))
        iqr = float(np.quantile(rows, 0.75) - np.quantile(rows, 0.25))
        params[name] = (med, iqr if iqr > 0.0 else 1.0)
    return ScalerParams(params)


# ---------------------------------------------------------------- loading


def test_load_csv_basic_and_types(tmp_path):
    p = write_csv(tmp_path / "w.csv", [
        "2021-01-01,10.5,8.0",
        "2021-01-02,11.0,",
        "2021-01-03,9.25,7.5",
        "2021-01-04,9.0,nan",
    ])
    t = load_csv(p)
    assert t.n_days == 4
    npt.assert_array_equal(t.columns["tempmax"], [10.5, 11.0, 9.25, 9.0])
    npt.assert_array_equal(np.isnan(t.columns["temp"]), [False, True, False, True])


def test_load_csv_inserts_missing_calendar_days(tmp_path):
    p = write_csv(tmp_path / "w.csv", [
        "2021-01-01,10.0,1.0",
        "2021-01-04,13.0,4.0",
    ])
    t = load_csv(p)
    assert t.n_days == 4
    assert t.dates[1] == dt.date(2021, 1, 2)
    assert np.isnan(t.columns["tempmax"][1]) and np.isnan(t.columns["tempmax"][2])


def test_load_csv_drops_text_columns(tmp_path):
    p = write_csv(tmp_path / "w.csv", [
        "2021-01-01,10.0,sunny,1.5",
        "2021-01-02,11.0,rain,",
        "2021-01-03,12.0,,2.5",
    ], header="datetime,tempmax,conditions,precip")
    t = load_csv(p)
    assert sorted(t.columns) == ["precip", "tempmax"]


def test_load_csv_errors_name_offending_row(tmp_path):
    dup = write_csv(tmp_path / "dup.csv", [
        "2021-01-01,1.0,1.0", "2021-01-01,2.0,2.0"])
    with pytest.raises(DataError, match="row 3: duplicate"):
        load_csv(dup)
    disorder = write_csv(tmp_path / "ooo.csv", [
        "2021-01-02,1.0,1.0", "2021-01-01,2.0,2.0"])
    with pytest.raises(DataError, match="row 3.*chronological"):
        load_csv(disorder)
    ragged = write_csv(tmp_path / "rag.csv", ["2021-01-01,1.0"])
    with pytest.raises(DataError, match="row 2: expected 3 fields"):
        load_csv(ragged)
    baddate = write_csv(tmp_path / "bd.csv", ["01/02/2021,1.0,1.0"])
    with pytest.raises(DataError, match="row 2: unparseable date"):
        load_csv(baddate)
    notarget = write_csv(tmp_path / "nt.csv", ["2021-01-01,1.0,1.0"],
                         header="datetime,foo,bar")
    with pytest.raises(DataError, match="tempmax"):
        load_csv(notarget)
    nodate = tmp_path / "nd.csv"
    nodate.write_text("day,tempmax\n2021-01-01,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="datetime"):
        load_csv(str(nodate))
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_csv(str(empty))


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("datetime,tempmax\n2021-01-01,1.5\n2021-01-02,2.5\n"
                  .encode("utf-8-sig"))
    t = load_csv(str(p))
    assert t.dates == [dt.date(2021, 1, 1), dt.date(2021, 1, 2)]
    npt.assert_array_equal(t.columns["tempmax"], [1.5, 2.5])


def test_load_csv_refuses_a_repeated_column_name(tmp_path):
    p = write_csv(tmp_path / "rep.csv", ["2021-01-01,1.0,2.0"],
                  header="datetime,tempmax, tempmax")
    with pytest.raises(DataError, match="column 'tempmax' appears more than "
                                        "once in the header"):
        load_csv(p)


def test_csv_round_trip_preserves_values(tmp_path):
    table = sinusoid_ar_table(seed=77, n_days=64)
    path = tmp_path / "synth.csv"
    table_to_csv(table, str(path))
    back = load_csv(str(path))
    assert back.dates == table.dates
    for name, col in table.columns.items():
        npt.assert_array_equal(back.columns[name], col)  # repr round-trip


def test_table_to_csv_matches_per_cell_writer(tmp_path):
    table = sinusoid_ar_table(seed=5, n_days=300)
    gen = np.random.default_rng(5)
    for col in table.columns.values():
        col[gen.random(table.n_days) < 0.1] = np.nan
    table.columns["tempmax"][:3] = [0.0, -0.0, 1e-300]
    table_to_csv(table, str(tmp_path / "got.csv"))
    table_to_csv_loop(table, str(tmp_path / "want.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# -------------------------------------------------------------- imputation


def test_impute_interior_linear():
    # an interior gap carries the last observed day forward; it never looks
    # at the next observed day (which a linear interpolation would)
    t = impute_two_stage(mk_table([10.0, np.nan, 12.0]))
    npt.assert_array_equal(t.columns["tempmax"], [10.0, 10.0, 12.0])


def test_impute_edges_fill_and_long_gap():
    t = impute_two_stage(mk_table([np.nan, np.nan, 5.0, np.nan, np.nan, 8.0, np.nan]))
    npt.assert_array_equal(t.columns["tempmax"], [5, 5, 5, 5, 5, 8, 8])
    # each column fills from its own observations
    two = mk_table([1.0, np.nan, np.nan, 4.0])
    two.columns["temp"] = np.array([np.nan, 2.0, np.nan, np.nan])
    t = impute_two_stage(two)
    npt.assert_array_equal(t.columns["tempmax"], [1, 1, 1, 4])
    npt.assert_array_equal(t.columns["temp"], [2, 2, 2, 2])


def ffill_loop(col):
    """Reference: one day at a time, carry the last observed value forward;
    days before the first observation take the first observed value."""
    out = col.copy()
    last = col[np.isfinite(col)][0]
    for i, v in enumerate(col):
        if np.isfinite(v):
            last = v
        out[i] = last
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.none(), st.floats(-50.0, 50.0)), min_size=1,
                max_size=60).filter(lambda cells: any(c is not None for c in cells)))
def test_impute_matches_per_day_forward_fill(cells):
    col = np.array([np.nan if c is None else c for c in cells])
    out = impute_two_stage(mk_table(col)).columns["tempmax"]
    npt.assert_array_equal(out, ffill_loop(col))


def test_impute_noop_when_complete_and_error_when_empty():
    t0 = mk_table([1.0, 2.0, 3.0])
    npt.assert_array_equal(impute_two_stage(t0).columns["tempmax"], [1, 2, 3])
    with pytest.raises(DataError, match="no observed"):
        impute_two_stage(mk_table([np.nan, np.nan]))


# ------------------------------------------------------------------ scaler


def test_scaler_unit_iqr_is_identity():
    cols = {"a": np.array([-1.0, -0.5, 0.0, 0.5, 1.0])}
    sc = fit_scaler(cols, slice(0, 5))
    assert sc.columns["a"] == (0.0, 1.0)
    npt.assert_array_equal(sc.transform("a", cols["a"]), cols["a"])
    npt.assert_array_equal(sc.invert("a", sc.transform("a", cols["a"])), cols["a"])


def test_scaler_median_iqr_values():
    x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    sc = fit_scaler({"a": x}, slice(0, 5))
    med, div = sc.columns["a"]
    assert med == 3.0
    assert div == pytest.approx(2.0)  # q75=4, q25=2 by linear interpolation
    assert sc.transform("a", np.array([5.0]))[0] == pytest.approx(1.0)


def test_scaler_constant_column_divisor_one():
    sc = fit_scaler({"a": np.full(6, 7.0)}, slice(0, 6))
    assert sc.columns["a"] == (7.0, 1.0)
    npt.assert_array_equal(sc.transform("a", np.array([7.0, 9.0])), [0.0, 2.0])


def test_scaler_fits_only_given_slice():
    x = np.concatenate([np.zeros(10), np.full(10, 1000.0)])
    sc = fit_scaler({"a": x}, slice(0, 10))
    assert sc.columns["a"] == (0.0, 1.0)
    with pytest.raises(DataError, match="empty slice"):
        fit_scaler({"a": x}, slice(5, 5))


@pytest.mark.parametrize("n_rows", [1, 2, 7, 8, 600, 601])
def test_scaler_matches_per_column_calls_bitwise(n_rows):
    gen = np.random.default_rng(n_rows)
    cols = {f"c{j}": gen.normal(size=n_rows + 9) * 10.0 ** (j - 3)
            for j in range(8)}
    cols["constant"] = np.full(n_rows + 9, 2.5)        # IQR 0 -> divisor 1
    cols["steps"] = np.round(gen.normal(size=n_rows + 9))
    got = fit_scaler(cols, slice(4, 4 + n_rows)).columns
    want = fit_scaler_loop(cols, slice(4, 4 + n_rows)).columns
    assert list(got) == list(want)
    for name in want:
        assert np.array(got[name]).tobytes() == np.array(want[name]).tobytes(), name
    assert got["constant"] == (2.5, 1.0)


# ------------------------------------------------------------------- split


def test_split_100_days_frozen():
    s = chronological_split(100, lookback=10)
    assert (s.val, s.train, s.test) == ((0, 16), (16, 80), (80, 100))
    # validation precedes train by construction
    assert s.val[1] == s.train[0] and s.train[1] == s.test[0]


def test_split_rejects_bad_arguments():
    with pytest.raises(DataError, match="train_frac"):
        chronological_split(100, 10, train_frac=1.0)
    with pytest.raises(DataError, match="val_frac"):
        chronological_split(100, 10, val_frac=0.0)
    with pytest.raises(DataError, match="lookback"):
        chronological_split(100, 0)
    with pytest.raises(DataError, match="partition 'val'"):
        chronological_split(100, lookback=20)  # val gets 16 < 21 rows


def test_split_covers_all_days_exactly_once():
    for n in (97, 250, 1000):
        s = chronological_split(n, lookback=7)
        assert s.val[0] == 0 and s.test[1] == n
        assert s.val[1] == s.train[0] and s.train[1] == s.test[0]


# ----------------------------------------------------------------- windows


def windows_loop(features, target, split, lookback):
    """Reference: each partition's windows copied one target day at a time."""
    out = {}
    for part in ("train", "val", "test"):
        lo, hi = getattr(split, part)
        targets = np.arange(lo + lookback, hi)
        X = np.stack([features[d - lookback:d] for d in targets], axis=0)
        out[part] = (X, target[targets].copy(), targets)
    return out


def test_make_windows_contents_and_boundaries():
    n, L = 100, 10
    split = chronological_split(n, L)
    feats = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 3))
    target = np.arange(n, dtype=np.float64) * 10.0
    parts = make_windows(feats, target, split, L)

    assert parts["val"].n_samples == 6      # 16 rows -> targets 10..15
    assert parts["train"].n_samples == 54   # 64 rows -> targets 26..79
    assert parts["test"].n_samples == 10    # 20 rows -> targets 90..99

    # first train sample: target day 26, window rows 16..25 (never crosses
    # into the validation block)
    first = parts["train"]
    assert first.target_rows[0] == 26
    npt.assert_array_equal(first.X[0][:, 0], np.arange(16, 26, dtype=np.float64))
    assert first.y[0] == 260.0

    for name in ("train", "val", "test"):
        lo, hi = getattr(split, name)
        rows = parts[name].target_rows
        assert rows.min() >= lo + L and rows.max() < hi


def test_make_windows_length_mismatch():
    split = chronological_split(100, 5)
    with pytest.raises(DataError, match="does not match"):
        make_windows(np.zeros((99, 2)), np.zeros(99), split, 5)
