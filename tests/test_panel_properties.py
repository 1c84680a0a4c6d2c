"""Property tests: the columnar panel against plain-Python references.

Panels built from records are checked against a row-by-row construction,
and ``read_panel_csv`` against the csv-module reader it falls back to,
kept here in its earlier form as the reference.
"""

import csv
import tempfile
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from sdidml.errors import (
    DataError,
    DuplicateIndexError,
    EmptyControlPoolError,
    FieldTypeError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
)
from sdidml.panel import (
    REQUIRED_COLUMNS,
    Cohort,
    _panel_from_columns,
    build_panel,
    read_panel_csv,
    subset_units,
    to_records,
    unit_rows,
)

# mixed case and a non-ASCII id: the panel must order units like sorted()
UNIT_IDS = ("a", "b", "B", "u10", "u2", "é")
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def record_sets(draw):
    """Small unbalanced panels, maybe corrupted, shuffled, maybe as text."""
    p = draw(st.integers(0, 2))
    units = draw(st.lists(st.sampled_from(UNIT_IDS), min_size=1, max_size=5,
                          unique=True))
    recs = []
    for unit in units:
        times = draw(st.lists(st.integers(-2, 5), min_size=1, max_size=5, unique=True))
        adopt = draw(st.one_of(st.none(), st.integers(-2, 6)))
        for t in times:
            rec = {"unit": unit, "time": t, "outcome": draw(finite),
                   "treatment": int(adopt is not None and t >= adopt)}
            rec.update({f"x{j}": draw(finite) for j in range(p)})
            recs.append(rec)
    if draw(st.booleans()):  # duplicated (unit, time) pair
        dup = dict(draw(st.sampled_from(recs)))
        dup["outcome"] = draw(finite)
        recs.append(dup)
    if draw(st.booleans()):  # one flipped treatment, possibly reverting
        i = draw(st.integers(0, len(recs) - 1))
        recs[i] = dict(recs[i], treatment=1 - recs[i]["treatment"])
    recs = draw(st.permutations(recs))
    if draw(st.booleans()):  # every cell as text, as a CSV reader yields it
        recs = [{k: str(v) for k, v in rec.items()} for rec in recs]
    return recs, [f"x{j}" for j in range(p)]


def reference_panel(recs, names):
    """Row-by-row construction; returns the error class or the expected columns."""
    rows = sorted(((str(r["unit"]), int(r["time"]), float(r["outcome"]),
                    int(r["treatment"]), tuple(float(r[n]) for n in names))
                   for r in recs), key=lambda row: row[:2])
    keys = [row[:2] for row in rows]
    if len(set(keys)) != len(keys):
        return DuplicateIndexError
    cohort = {}
    for unit, group in groupby(rows, key=lambda row: row[0]):
        first = None
        for _, t, _, d, _ in group:
            if d == 1 and first is None:
                first = t
            elif d == 0 and first is not None:
                return NonAbsorbingTreatmentError
        cohort[unit] = Cohort(first)
    firsts = [c.first_treated for c in cohort.values()]
    if None not in firsts and len(set(firsts)) < 2:
        return EmptyControlPoolError
    units = sorted(cohort)
    periods = sorted({row[1] for row in rows})
    return {
        "units": tuple(units), "periods": tuple(periods), "cohort": cohort,
        "unit_codes": [units.index(row[0]) for row in rows],
        "time_codes": [periods.index(row[1]) for row in rows],
        "outcomes": [row[2] for row in rows],
        "treatments": [row[3] for row in rows],
        "covariates": np.array([row[4] for row in rows]).reshape(len(rows), len(names)),
    }


def assert_matches(panel, expected):
    assert panel.units == expected["units"]
    assert panel.periods == expected["periods"]
    assert panel.cohort == expected["cohort"]
    for name in ("unit_codes", "time_codes", "outcomes", "treatments", "covariates"):
        assert_array_equal(getattr(panel, name), expected[name])


@settings(max_examples=300, deadline=None)
@given(record_sets())
def test_build_panel_matches_row_reference(case):
    recs, names = case
    expected = reference_panel(recs, names)
    if isinstance(expected, type):
        with pytest.raises(expected):
            build_panel(recs, names)
    else:
        assert_matches(build_panel(recs, names), expected)


@st.composite
def panels_and_codes(draw):
    recs, names = draw(record_sets())
    if isinstance(reference_panel(recs, names), type):
        recs, names = [{"unit": "a", "time": 1, "outcome": 0.0, "treatment": 0}], []
    panel = build_panel(recs, names)
    codes = draw(st.lists(st.integers(0, panel.n_units - 1), max_size=6))
    return panel, codes


@settings(max_examples=200, deadline=None)
@given(panels_and_codes())
def test_unit_rows_concatenates_each_units_rows(case):
    panel, codes = case
    expected = [np.flatnonzero(panel.unit_codes == c) for c in codes]
    assert_array_equal(unit_rows(panel, codes),
                       np.concatenate([np.empty(0, dtype=np.intp), *expected]))


@settings(max_examples=200, deadline=None)
@given(panels_and_codes())
def test_subset_units_rejects_repeats_and_matches_row_reference(case):
    panel, codes = case
    if len(set(codes)) != len(codes):
        with pytest.raises(DuplicateIndexError):
            subset_units(panel, codes)
        return
    if not codes:
        with pytest.raises(MissingFieldError):
            subset_units(panel, codes)
        return
    chosen = {panel.units[c] for c in codes}
    expected = reference_panel([rec for rec in to_records(panel) if rec["unit"] in chosen],
                               panel.covariate_names)
    if isinstance(expected, type):
        with pytest.raises(expected):
            subset_units(panel, codes)
    else:
        assert_matches(subset_units(panel, codes), expected)


# -- CSV ingest -----------------------------------------------------------------


def reference_read_panel_csv(path):
    """The csv-module reader: every row through ``csv.reader``, then cell by cell."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open panel CSV {path}: {exc}") from None
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingFieldError(f"{path}: empty file") from None
            for col in REQUIRED_COLUMNS:
                if col not in header:
                    raise MissingFieldError(f"{path}: missing {col!r} column")
            rows = []
            for line, row in enumerate(reader):
                if not row:
                    continue
                if len(row) != len(header):
                    raise FieldTypeError(
                        f"{path}: line {line + 2} has {len(row)} fields, "
                        f"header has {len(header)}")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    cells = list(zip(*rows)) or [()] * len(header)
    columns = {name: cells[header.index(name)] for name in header}
    return _panel_from_columns(columns, [c for c in header if c not in REQUIRED_COLUMNS])


def read_both(data: bytes):
    """(result or exception) of read_panel_csv and of the reference on one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(data)
        results = []
        for read in (read_panel_csv, reference_read_panel_csv):
            try:
                results.append(read(path))
            except Exception as exc:  # the same class and message are required
                results.append(exc)
        return results


def assert_same_read(data: bytes):
    got, want = read_both(data)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want
        assert got.treatments.tobytes() == want.treatments.tobytes()
        assert [type(t) for t in got.periods] == [type(t) for t in want.periods]
    return got


# Cell texts that only float() accepts, that nothing accepts, or that parse
# to a value the panel rejects.
ODD_NUMBERS = ("1_0", "١٢", " 3", "+0.0", "1e400", "-1e400", "1e-400", "nan",
               "inf", "", " ", "0x10", "1e", "2", "0.5", "True", "1e19", "9007199254740993")
ODD_UNITS = ('"q,r"', '"s""t"', "", "a\rb")
UNIT_CELLS = ("a", "b", "B", "u10", "u2", "é", " a", "a ", " ", "x\x85y", "#c", "'q'")
DIGITS = st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{0,20})?(e-?[0-9]{1,3})?", fullmatch=True)


def number_cell(value):
    """Plain texts of a finite float, or a random decimal string."""
    return st.one_of(st.just(repr(value)), st.just(f"{value:.17e}"), st.just(f" {value!r}"),
                     DIGITS)


def integer_cell(value):
    """Plain texts of an integer, -0 for zero."""
    return st.sampled_from((str(value), f"{value}.0", f" {value}", f"{value}e0",
                            "-0" if value == 0 else str(value)))


@st.composite
def csv_texts(draw):
    """A small panel as CSV bytes, with up to two odd cells, rows, lines or names."""
    p = draw(st.integers(0, 2))
    header = draw(st.permutations(["unit", "time", "outcome", "treatment",
                                   *(f"x{j}" for j in range(p))]))
    rows = []
    units = draw(st.lists(st.sampled_from(UNIT_CELLS), min_size=1, max_size=4, unique=True))
    for unit in units:
        adopt = draw(st.one_of(st.none(), st.integers(-1, 4)))
        for t in draw(st.lists(st.integers(-1, 4), min_size=1, max_size=4, unique=True)):
            cells = {"unit": unit, "time": draw(integer_cell(t)),
                     "treatment": draw(integer_cell(int(adopt is not None and t >= adopt)))}
            rows.append([cells[name] if name in cells else draw(number_cell(draw(finite)))
                         for name in header])
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(("cell", "row", "line", "name")))
        i = draw(st.integers(0, len(rows) - 1))
        if change == "cell":
            j = draw(st.integers(0, len(rows[i]) - 1))
            unit = header[j:j + 1] == ["unit"]
            rows[i][j] = draw(st.sampled_from(ODD_UNITS if unit else ODD_NUMBERS))
        elif change == "row":  # one field short or one too many
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
        elif change == "line":  # a blank or whitespace-only line
            rows.insert(i, [draw(st.sampled_from(("", " ", "\t")))])
        else:  # a repeated, missing or padded header name
            j = draw(st.integers(0, len(header) - 1))
            if draw(st.booleans()):
                header = [*header, header[j]]
            else:
                odd = draw(st.sampled_from(("", f" {header[j]}", f"{header[j]}\r ")))
                header = [*header[:j], odd, *header[j + 1:]]
    ends = draw(st.sampled_from((["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"])))
    text = "".join(",".join(row) + draw(st.sampled_from(ends)) for row in [header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 19:  # hypothesis favours small integers
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example(b"unit,time,outcome,treatment,x0\r \nA,1,0.5,0,1\n")  # a CR inside the header
@example(b"unit,time,outcome,treatment\nA,0.5,1,0\n")
@example(b"unit,time,outcome,treatment\nA,1e19,1,0\nB,1,1,0\n")
@example(b"unit,time,outcome,treatment,x0\nA,1,1,0,inf\n")
@example(b"unit,time,outcome,treatment\nA,1,1,-0\nA,2,1,1\nB,1,1,0\n")
@example(b"unit,time,outcome,treatment\nA,1,1,2\nB,1,1,0\n")
@example(b"unit,time,outcome,treatment\n\r")  # a blank line, and no data row
def test_read_panel_csv_matches_the_csv_module_reader(data):
    assert_same_read(data)


def test_bad_byte_after_the_first_chunk_names_the_same_offset():
    rows = "".join(f"u{i},1,{i}.5,0\n" for i in range(2000))
    data = ("unit,time,outcome,treatment\n" + rows).encode() + b"\xffA,1,0,0\n"
    assert len(data) > 3 * 8192
    got = assert_same_read(data)
    assert "not UTF-8" in str(got)
