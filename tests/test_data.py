"""Loader, imputation, scaler, split, and windowing tests with hand-computed
fixtures."""

import datetime as dt

import numpy as np
import numpy.testing as npt
import pytest

from extremecast.data import (TimeSeriesTable, chronological_split, fit_scaler,
                              impute_two_stage, load_csv, make_windows)
from extremecast.errors import DataError
from extremecast.synthetic import sinusoid_ar_table, table_to_csv


def mk_table(values, start=dt.date(2020, 1, 1), name="tempmax"):
    arr = np.asarray(values, dtype=np.float64)
    dates = [start + dt.timedelta(days=i) for i in range(arr.size)]
    return TimeSeriesTable(dates, {name: arr},
                           missing_mask={name: np.isnan(arr)})


def write_csv(path, rows, header="datetime,tempmax,temp"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


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
    assert np.isnan(t.columns["temp"][1])
    npt.assert_array_equal(t.missing_mask["temp"], [False, True, False, True])


def test_load_csv_inserts_missing_calendar_days(tmp_path):
    p = write_csv(tmp_path / "w.csv", [
        "2021-01-01,10.0,1.0",
        "2021-01-04,13.0,4.0",
    ])
    t = load_csv(p)
    assert t.n_days == 4
    assert t.dates[1] == dt.date(2021, 1, 2)
    assert np.isnan(t.columns["tempmax"][1]) and np.isnan(t.columns["tempmax"][2])


def test_load_csv_text_columns_kept_aside(tmp_path):
    p = write_csv(tmp_path / "w.csv", [
        "2021-01-01,10.0,sunny",
        "2021-01-02,11.0,rain",
    ], header="datetime,tempmax,conditions")
    t = load_csv(p)
    assert "conditions" not in t.columns
    assert t.text_columns["conditions"] == ["sunny", "rain"]


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


def test_csv_round_trip_preserves_values(tmp_path):
    table = sinusoid_ar_table(seed=77, n_days=64)
    path = tmp_path / "synth.csv"
    table_to_csv(table, str(path))
    back = load_csv(str(path))
    assert back.dates == table.dates
    for name, col in table.columns.items():
        npt.assert_array_equal(back.columns[name], col)  # repr round-trip


# -------------------------------------------------------------- imputation


def test_impute_interior_linear():
    t = impute_two_stage(mk_table([10.0, np.nan, 12.0]))
    npt.assert_array_equal(t.columns["tempmax"], [10.0, 11.0, 12.0])


def test_impute_edges_fill_and_long_gap():
    t = impute_two_stage(mk_table([np.nan, np.nan, 5.0, np.nan, np.nan, 8.0, np.nan]))
    npt.assert_array_equal(t.columns["tempmax"], [5, 5, 5, 6, 7, 8, 8])


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
