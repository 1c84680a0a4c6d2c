"""Panel ingestion, validation, and treatment-exposure encoding.

A :class:`PanelDataset` is a set of aligned numpy columns with one entry
per (unit, time) observation, in canonical (unit, time) order: unit and
period codes into the sorted ``units`` and ``periods``, the outcome Y, the
binary absorbing treatment D and a fixed-width covariate matrix X. Adoption
cohorts g(i) = min{t : D_it = 1} are derived per unit. The constructor
checks every value. A CSV file (:func:`read_panel_csv`) is streamed line by
line through one ``np.loadtxt`` pass, so its peak memory stays near the
size of the panel, not of the text; a file that pass cannot parse is read
again through the csv module and one number converter. Both passes only
parse, and hand their columns to the constructor.
Panels are sliced by row index (:func:`unit_rows`, :func:`subset_units`),
never rebuilt row by row. The data layer builds no model features: the
cross-fit standardizes the covariates (:mod:`sdidml.crossfit`).
"""

from __future__ import annotations

import csv
import re
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateIndexError,
    EmptyControlPoolError,
    FieldTypeError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
    NonFiniteValueError,
)

REQUIRED_COLUMNS = ("unit", "time", "outcome", "treatment")
# A CSV line, its LF or CRLF end removed, in which every quote opens or
# closes a whole field: a field is a quoted one ("" inside stands for a
# quote) that holds no CR, or unquoted text without a quote. On such a
# line ``_FIELDS.findall`` yields the raw text of every field.
_FIELD = r'(?:"(?:[^"\r]|"")*"|[^",]*)'
_WHOLE_FIELDS = re.compile(f"{_FIELD}(?:,{_FIELD})*")
_FIELDS = re.compile(_FIELD)


class PanelDataset:
    """Validated, immutable panel stored as columns in (unit, time) order.

    The constructor takes the columns in any row order and checks each
    value, naming the first input row that breaks a rule, rule by rule:

    - :class:`MissingFieldError`: an empty unit id;
    - :class:`FieldTypeError`: a time that is not an integer of magnitude below 2**53;
    - :class:`NonFiniteValueError`: a NaN or infinite outcome;
    - :class:`FieldTypeError`: a treatment other than 0 or 1;
    - :class:`NonFiniteValueError`: a NaN or infinite covariate.

    It then sorts the rows and rejects duplicate (unit, time) pairs,
    non-absorbing treatment and a panel without never-treated units or a
    second cohort to serve as controls. Times are stored as int64 and
    treatments as exactly 0.0 or 1.0, so a treatment of -0 reads as 0.0.

    Attributes
    ----------
    units : tuple of str
        Sorted unit identifiers.
    periods : tuple of int
        Sorted distinct time periods.
    covariate_names : tuple of str
    unit_codes, time_codes : ndarray of intp
        Per-row indices into ``units`` and ``periods``.
    outcomes, treatments : ndarray of float64
        Per-row Y and D (D is 0.0 or 1.0).
    covariates : ndarray of float64, shape (n_obs, n_covariates)
    cohort_times : ndarray of float64
        Per-unit first treated period, ``np.inf`` for never treated.
    unit_starts : ndarray of intp, length n_units + 1
        Row offsets: unit k owns rows ``unit_starts[k]:unit_starts[k + 1]``.

    All arrays are read-only. Panels compare equal when their columns do,
    and are not hashable.
    """

    __slots__ = (
        "units", "periods", "covariate_names", "unit_codes", "time_codes",
        "outcomes", "treatments", "covariates", "cohort_times", "unit_starts",
    )

    def __init__(self, unit_ids: Sequence[str], times: Sequence[int],
                 outcomes: Sequence[float], treatments: Sequence[float],
                 covariates, covariate_names: Sequence[str]):
        covariate_names = tuple(covariate_names)
        n = len(unit_ids)
        if not n:
            raise MissingFieldError("no observations supplied")
        unit_ids = np.asarray(unit_ids, dtype=str)
        times = np.asarray(times, dtype=np.float64)
        outcomes = np.asarray(outcomes, dtype=np.float64)
        treatments = np.asarray(treatments, dtype=np.float64)
        covariates = np.asarray(covariates, dtype=np.float64)
        if covariates.shape != (n, len(covariate_names)):
            raise FieldTypeError(
                f"expected {len(covariate_names)} covariates per observation, "
                f"got an array of shape {covariates.shape}")
        _check_values(unit_ids, times, outcomes, treatments, covariates, covariate_names)

        units, unit_codes = np.unique(unit_ids, return_inverse=True)
        periods, time_codes = np.unique(times.astype(np.int64), return_inverse=True)
        order = np.lexsort((time_codes, unit_codes))
        unit_codes, time_codes = unit_codes[order], time_codes[order]
        unit_names, period_values = tuple(units.tolist()), tuple(periods.tolist())

        same_unit = unit_codes[1:] == unit_codes[:-1]
        duplicate = np.flatnonzero(same_unit & (time_codes[1:] == time_codes[:-1]))
        if duplicate.size:
            k = duplicate[0]
            raise DuplicateIndexError(
                f"duplicate (unit, time) pair ({unit_names[unit_codes[k]]!r}, "
                f"{period_values[time_codes[k]]})")

        treated = treatments[order] == 1.0
        treatments = treated.astype(np.float64)
        cohort_times = np.full(len(units), np.inf)
        np.minimum.at(cohort_times, unit_codes[treated],
                      periods.astype(np.float64)[time_codes[treated]])
        revert = np.flatnonzero(same_unit & (treatments[1:] < treatments[:-1]))
        if revert.size:
            k = revert[0] + 1
            raise NonAbsorbingTreatmentError(
                f"unit {unit_names[unit_codes[k]]!r}: treatment reverts to 0 at "
                f"t={period_values[time_codes[k]]} after first treatment at "
                f"t={int(cohort_times[unit_codes[k]])}")
        _check_control_pool(cohort_times)
        _fill(self, unit_names, period_values, covariate_names, unit_codes, time_codes,
              outcomes[order], treatments, covariates[order], cohort_times)

    # -- basic introspection --------------------------------------------------

    @property
    def n_obs(self) -> int:
        return len(self.outcomes)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (self.units == other.units and self.periods == other.periods
                and self.covariate_names == other.covariate_names
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("unit_codes", "time_codes", "outcomes",
                                     "treatments", "covariates")))

    def __repr__(self) -> str:
        n_never = int(np.isinf(self.cohort_times).sum())
        return (f"PanelDataset(n_obs={self.n_obs}, units={self.n_units}, "
                f"periods={self.n_periods}, p={self.n_covariates}, "
                f"never_treated={n_never})")


def _check_values(unit_ids, times, outcomes, treatments, covariates, covariate_names):
    """Raise for the first row breaking a rule; apart, so its masks die before the sort."""
    p = len(covariate_names)
    for ok, error, message in (
            (unit_ids != "", MissingFieldError, lambda i: f"row {i}: missing field 'unit'"),
            ((np.abs(times) < 2.0 ** 53) & (times == np.trunc(times)), FieldTypeError,
             lambda i: f"row {i}: field 'time' = {times[i].item()!r} is not an integer"),
            (np.isfinite(outcomes), NonFiniteValueError,
             lambda i: f"row {i}: field 'outcome' is not finite"),
            ((treatments == 0.0) | (treatments == 1.0), FieldTypeError,
             lambda i: f"row {i}: field 'treatment' = {treatments[i].item()!r} is not 0/1"),
            (np.isfinite(covariates).ravel(), NonFiniteValueError,
             lambda k: f"row {k // p}: field {covariate_names[k % p]!r} is not finite")):
        if not ok.all():
            raise error(message(int(ok.argmin())))


def _check_control_pool(cohort_times: np.ndarray) -> None:
    """Reject a panel in which no unit can serve as a control."""
    if not np.isinf(cohort_times).any() and np.unique(cohort_times).size < 2:
        raise EmptyControlPoolError(
            "every unit is treated in the same cohort; no never-treated or "
            "later-treated unit can serve as a control")


def _fill(panel: PanelDataset, units: tuple, periods: tuple, covariate_names: tuple,
          unit_codes, time_codes, outcomes, treatments, covariates,
          cohort_times) -> PanelDataset:
    """Store sorted, validated columns in ``panel``'s slots, read-only, with
    each unit's row offsets derived from ``unit_codes``."""
    panel.units, panel.periods, panel.covariate_names = units, periods, covariate_names
    columns = {"unit_codes": unit_codes, "time_codes": time_codes, "outcomes": outcomes,
               "treatments": treatments, "covariates": covariates,
               "cohort_times": cohort_times,
               "unit_starts": np.searchsorted(unit_codes, np.arange(len(units) + 1))}
    for name, arr in columns.items():
        arr.setflags(write=False)
        setattr(panel, name, arr)
    return panel


def control_pool(cohort_times: np.ndarray, g: int, t: int, control_rule: str,
                 anticipation: int) -> np.ndarray:
    """Units that may serve as controls of cohort g at period t.

    ``cohort_times`` is per-unit adoption time (np.inf when never treated).
    ``never_treated`` admits the never-treated units; ``not_yet_treated``
    admits those adopting after max(t, g) + ``anticipation``, so that no
    control is already anticipating its own treatment.
    """
    if control_rule == "never_treated":
        return np.isinf(cohort_times)
    return cohort_times > max(t, g) + anticipation


def unit_rows(panel: PanelDataset, codes) -> np.ndarray:
    """Row indices of the units with the given codes, unit after unit.

    Codes index ``panel.units`` and may repeat; each unit's rows are
    contiguous and in time order.
    """
    codes = np.asarray(codes, dtype=np.intp)
    starts = panel.unit_starts[codes]
    lengths = panel.unit_starts[codes + 1] - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(offsets.size)


# -- parsing ---------------------------------------------------------------------

def _numbers(texts, field: str) -> list:
    """Doubles of a column of cell texts by ``float(text.strip())``; errors name the row."""
    out = []
    for row, text in enumerate(texts):
        try:
            out.append(float(str(text).strip()))
        except ValueError:
            if text == "":
                raise MissingFieldError(f"row {row}: missing field {field!r}") from None
            raise FieldTypeError(
                f"row {row}: field {field!r} = {text!r} is not a number") from None
    return out


def _panel_from_columns(columns: Mapping[str, Sequence],
                        covariate_names: Sequence[str]) -> PanelDataset:
    """Parse raw cell columns (one per field, rows aligned) into a panel."""
    time, outcome, treatment, *X = (_numbers(columns[name], name) for name in
                                    ("time", "outcome", "treatment", *covariate_names))
    return PanelDataset(columns["unit"], time, outcome, treatment,
                        np.reshape(X, (len(covariate_names), len(time))).T, covariate_names)


def pivot_unit_time(panel: PanelDataset, values: np.ndarray):
    """Arrange an observation-aligned vector into a (units x periods) matrix.

    An (R, n_obs) stack of vectors gives an (R, units, periods) stack of
    matrices. Missing (unit, period) cells are NaN; also returns the
    (units x periods) presence mask.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != panel.n_obs:
        raise ValueError(f"expected vectors of length {panel.n_obs}")
    mat = np.full((*values.shape[:-1], panel.n_units, panel.n_periods), np.nan)
    mat[..., panel.unit_codes, panel.time_codes] = values
    present = np.zeros((panel.n_units, panel.n_periods), dtype=bool)
    present[panel.unit_codes, panel.time_codes] = True
    return mat, present


def subset_units(panel: PanelDataset, codes) -> PanelDataset:
    """Panel of the units with the given codes, sliced from ``panel``'s columns.

    ``codes`` index ``panel.units`` in any order; the subset lists its units
    in sorted order, as the constructor would. Its rows are ``panel``'s
    rows of those units, which are already sorted, unique per (unit, time)
    and absorbing, and each unit keeps its cohort, so only the checks a
    subset can fail run again: no codes (:class:`MissingFieldError`), a
    repeated code (:class:`DuplicateIndexError`, as a duplicated unit's
    rows would raise) and no control pool (:class:`EmptyControlPoolError`).
    Periods that no chosen unit observes are dropped. The full-mode
    bootstrap refits one subset per replicate.
    """
    codes = np.sort(np.asarray(codes, dtype=np.intp))
    if not codes.size:
        raise MissingFieldError("no observations supplied")
    repeated = np.flatnonzero(codes[1:] == codes[:-1])
    if repeated.size:
        k = codes[repeated[0]]
        raise DuplicateIndexError(
            f"duplicate (unit, time) pair ({panel.units[k]!r}, "
            f"{panel.periods[panel.time_codes[panel.unit_starts[k]]]})")
    cohort_times = panel.cohort_times[codes]
    _check_control_pool(cohort_times)
    rows = unit_rows(panel, codes)
    observed = np.zeros(panel.n_periods, dtype=bool)
    observed[panel.time_codes[rows]] = True
    period_code = np.cumsum(observed) - 1
    return _fill(PanelDataset.__new__(PanelDataset),
                 tuple(panel.units[c] for c in codes.tolist()),
                 tuple(t for t, seen in zip(panel.periods, observed.tolist()) if seen),
                 panel.covariate_names, np.searchsorted(codes, panel.unit_codes[rows]),
                 period_code[panel.time_codes[rows]], panel.outcomes[rows],
                 panel.treatments[rows], panel.covariates[rows], cohort_times)


# -- CSV interface -------------------------------------------------------------

def _panel_from_lines(lines) -> Optional[PanelDataset]:
    """The panel of plain CSV lines, parsed by one ``np.loadtxt`` pass.

    ``lines`` is an iterable of lines that end at LF, as a file opened with
    ``newline="\n"`` yields them; they are checked as ``loadtxt`` reads
    them, so the text is never held whole. A quoted field is read as the
    csv module reads it. Returns None, for the csv-module reader to parse or
    reject, only for input this pass cannot parse: a line with a quote that
    does not open or close a whole field (such as a quoted field that spans
    lines or holds a CR) or a field whose raw text is longer than the csv
    module allows a field, a header that repeats or lacks a name, no data
    row, a line that fails to decode, or a cell or row that ``loadtxt``
    rejects. Lines end at LF or CRLF and empty lines are skipped, as in the
    csv module; a CR anywhere else in a line makes ``loadtxt`` reject it.
    The parsed columns go to the constructor, which raises for a bad value.

    The time, outcome, treatment and covariate columns are views of the
    parsed records (the covariates are copied only when other columns sit
    between them), so the constructor's sorted copy is the only other one.
    """
    limit = csv.field_size_limit()

    def plain(line):
        if '"' not in line:
            return len(line) <= limit or max(map(len, line.split(","))) <= limit
        text = line.removesuffix("\n").removesuffix("\r")
        return _WHOLE_FIELDS.fullmatch(text) is not None and (
            len(text) <= limit or max(map(len, _FIELDS.findall(text))) <= limit)

    def data_rows(lines):
        blank = True
        for line in lines:
            if not plain(line):
                raise ValueError("a line for the csv module")
            blank = blank and line in ("\n", "\r\n", "\r")
            yield line
        if blank:
            raise ValueError("no data row")

    try:
        lines = iter(lines)
        head = next(lines, "").removesuffix("\n").removesuffix("\r")
        if "\r" in head or not plain(head):
            return None
        header = next(csv.reader([head]), [])
        if len(set(header)) < len(header) or not set(REQUIRED_COLUMNS) <= set(header):
            return None
        fields = []  # one per required column, one subarray per run of adjacent covariates
        for name in header:
            if name in REQUIRED_COLUMNS:
                fields.append((name, object if name == "unit" else np.float64))
            elif fields and fields[-1][0] not in REQUIRED_COLUMNS:
                run, _, (width,) = fields[-1]
                fields[-1] = (run, np.float64, (width + 1,))
            else:
                fields.append((f"x{len(fields)}", np.float64, (1,)))
        data = np.loadtxt(data_rows(lines), dtype=fields, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    except ValueError:  # UnicodeDecodeError is one too
        return None
    runs = [data[field[0]] for field in fields if field[0] not in REQUIRED_COLUMNS]
    X = runs[0] if len(runs) == 1 else np.hstack([np.empty((len(data), 0)), *runs])
    return PanelDataset(data["unit"], data["time"], data["outcome"], data["treatment"], X,
                        [name for name in header if name not in REQUIRED_COLUMNS])


def _read_csv_cells(path, lines) -> PanelDataset:
    """Parse CSV lines with the csv module and :func:`_numbers`.

    Accepts every text :func:`_panel_from_lines` accepts, with the same
    result, and raises the panel errors, naming ``path`` and the line.
    """
    reader = csv.reader(lines)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingFieldError(f"{path}: empty file") from None
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise MissingFieldError(f"{path}: missing {col!r} column")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DataError(f"{path}: column {name!r} appears more than once")
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
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    cells = list(zip(*rows)) or [()] * len(header)
    columns = {name: cells[header.index(name)] for name in header}
    return _panel_from_columns(columns, [c for c in header if c not in REQUIRED_COLUMNS])


def _open_csv(path, newline: str):
    try:
        return open(path, newline=newline, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open panel CSV {path}: {exc}") from None


def read_panel_csv(path) -> PanelDataset:
    """Read the canonical CSV layout: unit,time,outcome,treatment,<covariates...>.

    One streaming pass: :func:`_panel_from_lines` parses the lines as they
    are read, so the text is never held whole and peak memory stays near
    twice the size of the panel's columns. A file it cannot parse, at
    whatever line, is opened again for :func:`_read_csv_cells`, which parses
    it cell by cell or raises the error that names the bad cell or line.
    """
    with _open_csv(path, "\n") as fh:
        panel = _panel_from_lines(fh)
    if panel is None:
        with _open_csv(path, "") as fh:
            panel = _read_csv_cells(path, fh)
    return panel


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write the canonical CSV layout, lossless for finite doubles.

    Rows are formatted one unit at a time, so no row list of the whole
    panel is built.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + list(panel.covariate_names))
        for k, unit in enumerate(panel.units):
            rows = slice(panel.unit_starts[k], panel.unit_starts[k + 1])
            writer.writerows(
                [unit, panel.periods[c], y, d, *x] for c, y, d, x in zip(
                    panel.time_codes[rows].tolist(), panel.outcomes[rows].tolist(),
                    panel.treatments[rows].astype(int).tolist(),
                    panel.covariates[rows].tolist()))
