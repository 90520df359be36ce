"""Property tests of the data path on generated CSVs: ``load_csv`` against
the per-cell reference ``test_data.load_csv_loop``, and ``load_csv`` →
``prepare`` through the CLI.  Each CSV is a small daily table with calendar
gaps and missing cells (blank, whitespace-only or ``nan``), plus a few drawn
hazards: infinite and ``1_0`` cells, text, ragged rows, repeated, unordered
or unparseable dates, a repeated column name, a constant or all-blank
column, and a byte-order mark."""

import contextlib
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast.checkpoint import load_dataset
from extremecast.cli import main
from extremecast.data import load_csv
from extremecast.errors import DataError
from extremecast.features import FEATURE_MODES
from test_data import load_csv_loop

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
NAMES = ("tempmax", "temp", "humidity", "precip")
MISSING = ("", "  ", "\t", "nan", " NaN ")      # cells that load as NaN
# (kind, what it puts at a drawn row and column)
CELL_HAZARDS = {"blank": "", "spaces": "  \t", "nan": "nan", "NaN": " NaN ",
                "inf": "inf", "-inf": "-inf", "huge": "1e999",
                "underscore": "1_0", "text": "sunny", "padded": " 2.5 "}
ROW_HAZARDS = ("short_row", "long_row", "blank_line", "same_date",
               "earlier_date", "bad_date", "blank_date")
COLUMN_HAZARDS = ("constant", "all_blank", "repeated_name", "no_target")


@st.composite
def csv_docs(draw):
    """The text of a daily CSV (``\\n`` line ends) and whether it starts
    with a byte-order mark."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                          unique=True))
    hazards = draw(st.lists(st.sampled_from(
        sorted(CELL_HAZARDS) + list(ROW_HAZARDS) + list(COLUMN_HAZARDS)),
        max_size=3))
    if "no_target" in hazards:
        names = [n for n in names if n != "tempmax"] or ["temp"]
    elif "tempmax" not in names:
        names.insert(0, "tempmax")
    if "repeated_name" in hazards:
        names.append(names[draw(st.integers(0, len(names) - 1))])
    date_name = draw(st.sampled_from(["datetime", "date"]))
    header = list(names)
    header.insert(draw(st.integers(0, len(names))), date_name)
    di = header.index(date_name)

    n_rows = draw(st.one_of(st.integers(1, 12), st.integers(20, 60)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ordinal = dt.date(2019, 12, 20).toordinal() + draw(st.integers(0, 400))
    days, rows = [], []
    for _ in range(n_rows):
        row = [repr(round(float(v), 2)) for v in gen.normal(20.0, 6.0, len(header))]
        row = [MISSING[gen.integers(len(MISSING))] if gen.random() < 0.05 else c
               for c in row]
        row[di] = dt.date.fromordinal(ordinal).isoformat()
        days.append(ordinal)
        ordinal += 1 if gen.random() < 0.85 else int(gen.integers(2, 5))
        rows.append(row)

    data_cols = [j for j in range(len(header)) if j != di]
    # cells first, dates next, and the row lengths last
    for hazard in sorted(hazards, key=lambda h: (h in ROW_HAZARDS,
                                                 h.endswith("_row")
                                                 or h == "blank_line")):
        r = draw(st.integers(0, n_rows - 1))
        c = data_cols[draw(st.integers(0, len(data_cols) - 1))]
        if hazard in CELL_HAZARDS:
            rows[r][c] = CELL_HAZARDS[hazard]
        elif hazard == "constant":
            for row in rows:
                row[c] = row[c] if row[c] in MISSING else "4.25"
        elif hazard == "all_blank":
            for row in rows:
                row[c] = ""
        elif hazard == "short_row":
            del rows[r][-1]
        elif hazard == "long_row":
            rows[r].append("1.0")
        elif hazard == "blank_line":
            rows[r] = []
        elif hazard == "bad_date":
            rows[r][di] = rows[r][di].replace("-", "/")
        elif hazard == "blank_date":
            rows[r][di] = ""
        elif r > 0:        # same_date, earlier_date
            shift = 0 if hazard == "same_date" else -1
            rows[r][di] = dt.date.fromordinal(days[r - 1] + shift).isoformat()
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", draw(st.booleans())


def write(directory, doc):
    text, bom = doc
    path = Path(directory) / "raw.csv"
    path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    return path


def outcome(load, path):
    """A loaded table as its dates and column bytes, or the error message."""
    try:
        table = load(str(path))
    except DataError as exc:
        return "error", str(exc)
    return ("table", table.dates, table.target,
            {name: col.tobytes() for name, col in table.columns.items()})


@SETTINGS
@given(csv_docs())
def test_load_csv_matches_per_cell_reference(doc):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, doc)
        assert outcome(load_csv, path) == outcome(load_csv_loop, path)


@SETTINGS
@given(csv_docs(), st.integers(1, 3), st.sampled_from(FEATURE_MODES))
def test_prepare_on_generated_csv_ends_in_dataset_or_exit_3(doc, lookback,
                                                            mode):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, doc)
        config = Path(directory) / "run.json"
        config.write_text(json.dumps({
            "dataset": {"target": "tempmax", "lookback": lookback},
            "features": {"mode": mode, "top_k": 6}}))
        out = Path(directory) / "data.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["prepare", "--config", str(config),
                         "--input", str(path), "--out", str(out)])
        if code == 0:
            ds = load_dataset(out)
            assert np.isfinite(ds.feature_matrix).all()
            assert ds.n_features >= 1 and ds.lookback == lookback
        else:
            assert code == 3
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
            assert not out.exists()
