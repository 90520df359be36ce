"""Property tests of the one split rule, ``data.check_split``: which splits
it accepts, what an accepted split guarantees to windowing, and that
``chronological_split`` only ever returns splits it accepts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast.data import (SplitSpec, check_split, chronological_split,
                              make_windows)
from extremecast.errors import DataError
from test_data import windows_loop

PARTS = ("val", "train", "test")
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@st.composite
def splits(draw):
    """Three partition lengths near lookback + 1 laid out contiguously, with
    at most one of the six edges nudged off that layout."""
    lookback = draw(st.integers(-1, 8))
    n_val, n_train, n_test = (max(0, lookback + 1 + draw(st.integers(-2, 6)))
                              for _ in range(3))
    n_days = n_val + n_train + n_test
    edges = [0, n_val, n_val, n_val + n_train, n_val + n_train, n_days]
    if draw(st.booleans()):
        edges[draw(st.integers(0, 5))] += draw(st.integers(-2, 2))
    return SplitSpec(n_days, val=tuple(edges[0:2]), train=tuple(edges[2:4]),
                     test=tuple(edges[4:6])), lookback


def _accepts(split, lookback):
    try:
        assert check_split(split, lookback) is split
    except DataError:
        return False
    return True


@SETTINGS
@given(splits())
def test_check_split_accepts_exactly_contiguous_windowable_splits(case):
    split, lookback = case
    days = [d for part in PARTS for d in range(*getattr(split, part))]
    long_enough = all(hi - lo >= lookback + 1
                      for lo, hi in (getattr(split, p) for p in PARTS))
    expected = (lookback >= 1 and long_enough
                and days == list(range(split.n_days)))
    assert _accepts(split, lookback) == expected


@SETTINGS
@given(splits())
def test_accepted_split_windows_every_partition_inside_itself(case):
    split, lookback = case
    if not _accepts(split, lookback):
        return
    rows = np.arange(split.n_days, dtype=np.float64)
    features = np.column_stack([rows, -rows])
    parts = make_windows(features, rows * 10.0, split, lookback)
    reference = windows_loop(features, rows * 10.0, split, lookback)
    targets = np.concatenate([parts[p].target_rows for p in PARTS])
    assert np.unique(targets).size == targets.size
    for name in PARTS:
        part, (lo, hi) = parts[name], getattr(split, name)
        assert part.n_samples >= 1
        assert part.X[:, :, 0].min() >= lo and part.target_rows.max() < hi
        np.testing.assert_array_equal(part.X[:, -1, 0], part.target_rows - 1)
        for got, want in zip((part.X, part.y, part.target_rows), reference[name]):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


@SETTINGS
@given(n_days=st.integers(0, 400), lookback=st.integers(1, 30),
       train_frac=st.floats(0.05, 0.95), val_frac=st.floats(0.05, 0.95))
def test_chronological_split_returns_only_accepted_splits(
        n_days, lookback, train_frac, val_frac):
    try:
        split = chronological_split(n_days, lookback, train_frac, val_frac)
    except DataError as err:
        assert "partition" in str(err)
        return
    assert split.n_days == n_days and _accepts(split, lookback)


def test_check_split_names_the_broken_rule():
    with pytest.raises(DataError, match="lookback must be >= 1"):
        check_split(SplitSpec(30, (0, 10), (10, 20), (20, 30)), 0)
    with pytest.raises(DataError, match="not contiguous"):
        check_split(SplitSpec(30, (0, 10), (12, 20), (20, 30)), 3)
    with pytest.raises(DataError, match="partition 'test' has 3 rows"):
        check_split(SplitSpec(30, (0, 10), (10, 27), (27, 30)), 3)
