"""Property tests: the columnar panel against a plain-Python row reference."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from sdidml.errors import (
    DuplicateIndexError,
    EmptyControlPoolError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
)
from sdidml.panel import Cohort, build_panel, subset_units, to_records, unit_rows

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
