"""Panel ingestion, validation, and treatment-exposure encoding.

A :class:`PanelDataset` is a set of aligned numpy columns with one entry
per (unit, time) observation, in canonical (unit, time) order: unit and
period codes into the sorted ``units`` and ``periods``, the outcome Y, the
binary absorbing treatment D and a fixed-width covariate matrix X. Adoption
cohorts g(i) = min{t : D_it = 1} are derived per unit. Records
(:func:`build_panel`) go through a per-cell column parser. A CSV file
(:func:`read_panel_csv`) is parsed by one ``np.loadtxt`` call and checked
in arrays; a text that parse declines goes through the csv module and the
same per-cell parser, which accepts the same inputs and raises the errors.
Panels are sliced by row index (:func:`unit_rows`, :func:`subset_units`),
never rebuilt row by row.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateIndexError,
    EmptyControlPoolError,
    FieldTypeError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
    NonFiniteValueError,
    UnknownPeriodError,
    UnknownUnitError,
)

REQUIRED_COLUMNS = ("unit", "time", "outcome", "treatment")


@dataclass(frozen=True)
class Cohort:
    """Adoption cohort of a unit: first treated period, or never treated."""

    first_treated: Optional[int] = None

    @property
    def ever_treated(self) -> bool:
        return self.first_treated is not None

    def __repr__(self) -> str:
        if self.first_treated is None:
            return "Cohort(never)"
        return f"Cohort(first_treated={self.first_treated})"


NEVER_TREATED = Cohort(None)


class PanelDataset:
    """Validated, immutable panel stored as columns in (unit, time) order.

    The constructor takes the columns in any row order, sorts them and
    rejects duplicate (unit, time) pairs, non-absorbing treatment and a
    panel without never-treated units or a second cohort to serve as controls.

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

    All arrays are read-only. ``cohort`` is a derived view of the columns;
    :func:`to_records` gives the rows.
    """

    __slots__ = (
        "units", "periods", "covariate_names", "unit_codes", "time_codes",
        "outcomes", "treatments", "covariates", "cohort_times", "unit_starts",
    )

    def __init__(self, unit_ids: Sequence[str], times: Sequence[int],
                 outcomes: Sequence[float], treatments: Sequence[float],
                 covariates, covariate_names: Sequence[str]):
        self.covariate_names = tuple(covariate_names)
        n = len(unit_ids)
        if not n:
            raise MissingFieldError("no observations supplied")
        outcomes = np.asarray(outcomes, dtype=np.float64)
        treatments = np.asarray(treatments, dtype=np.float64)
        covariates = np.asarray(covariates, dtype=np.float64)
        if covariates.shape != (n, self.n_covariates):
            raise FieldTypeError(
                f"expected {self.n_covariates} covariates per observation, "
                f"got an array of shape {covariates.shape}")

        units, unit_codes = np.unique(np.asarray(unit_ids, dtype=str),
                                      return_inverse=True)
        periods, time_codes = np.unique(np.asarray(times), return_inverse=True)
        order = np.lexsort((time_codes, unit_codes))
        unit_codes, time_codes = unit_codes[order], time_codes[order]
        self.units = tuple(units.tolist())
        self.periods = tuple(periods.tolist())

        same_unit = unit_codes[1:] == unit_codes[:-1]
        duplicate = np.flatnonzero(same_unit & (time_codes[1:] == time_codes[:-1]))
        if duplicate.size:
            k = duplicate[0]
            raise DuplicateIndexError(
                f"duplicate (unit, time) pair ({self.units[unit_codes[k]]!r}, "
                f"{self.periods[time_codes[k]]})")

        treatments = treatments[order]
        cohort_times = np.full(len(units), np.inf)
        treated = treatments == 1.0
        np.minimum.at(cohort_times, unit_codes[treated],
                      periods.astype(np.float64)[time_codes[treated]])
        revert = np.flatnonzero(same_unit & (treatments[1:] < treatments[:-1]))
        if revert.size:
            k = revert[0] + 1
            raise NonAbsorbingTreatmentError(
                f"unit {self.units[unit_codes[k]]!r}: treatment reverts to 0 at "
                f"t={self.periods[time_codes[k]]} after first treatment at "
                f"t={int(cohort_times[unit_codes[k]])}")
        if not np.isinf(cohort_times).any() and np.unique(cohort_times).size < 2:
            raise EmptyControlPoolError(
                "every unit is treated in the same cohort; no never-treated or "
                "later-treated unit can serve as a control")

        self.unit_codes = unit_codes
        self.time_codes = time_codes
        self.outcomes = outcomes[order]
        self.treatments = treatments
        self.covariates = covariates[order]
        self.cohort_times = cohort_times
        self.unit_starts = np.searchsorted(unit_codes, np.arange(len(units) + 1))
        for arr in (self.unit_codes, self.time_codes, self.outcomes,
                    self.treatments, self.covariates, self.cohort_times,
                    self.unit_starts):
            arr.setflags(write=False)

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

    @property
    def cohort(self) -> dict[str, Cohort]:
        """unit_id -> Cohort, built from ``cohort_times`` on every access."""
        return {u: NEVER_TREATED if math.isinf(g) else Cohort(int(g))
                for u, g in zip(self.units, self.cohort_times.tolist())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (self.units == other.units and self.periods == other.periods
                and self.covariate_names == other.covariate_names
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("unit_codes", "time_codes", "outcomes",
                                     "treatments", "covariates")))

    def __hash__(self):  # identity hash; datasets are mutable-free but large
        return id(self)

    def __repr__(self) -> str:
        n_never = int(np.isinf(self.cohort_times).sum())
        return (f"PanelDataset(n_obs={self.n_obs}, units={self.n_units}, "
                f"periods={self.n_periods}, p={self.n_covariates}, "
                f"never_treated={n_never})")


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

def _parse_int(value, row: int, field: str) -> int:
    if isinstance(value, bool):
        raise FieldTypeError(f"row {row}: field {field!r} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value):
            return int(value)
        raise FieldTypeError(f"row {row}: field {field!r} = {value!r} is not an integer")
    try:
        text = str(value).strip()
        f = float(text)
    except ValueError:
        raise FieldTypeError(f"row {row}: field {field!r} = {value!r} is not an integer") from None
    if not (math.isfinite(f) and f == int(f)):
        raise FieldTypeError(f"row {row}: field {field!r} = {value!r} is not an integer")
    return int(f)


def _parse_float(value, row: int, field: str) -> float:
    try:
        f = float(value)
    except (TypeError, ValueError):
        raise FieldTypeError(f"row {row}: field {field!r} = {value!r} is not a number") from None
    if not math.isfinite(f):
        raise NonFiniteValueError(f"row {row}: field {field!r} is not finite")
    return f


def _parse_treatment(value, row: int, field: str) -> int:
    try:
        f = float(value)
    except (TypeError, ValueError):
        f = math.nan
    if f not in (0.0, 1.0):
        raise FieldTypeError(f"row {row}: field {field!r} = {value!r} is not 0/1")
    return int(f)


def _cells(values, field: str, parse) -> list:
    """Parse a column cell by cell; errors name the row of the first bad cell."""
    out = []
    for row, value in enumerate(values):
        if value is None or value == "":
            raise MissingFieldError(f"row {row}: missing field {field!r}")
        out.append(parse(value, row, field))
    return out


def _float_column(values, field: str) -> np.ndarray:
    """Parse a column with Python's ``float``, cell by cell only if that fails."""
    try:
        col = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        if np.isfinite(col).all():
            return col
    except (TypeError, ValueError):
        pass
    return np.array(_cells(values, field, _parse_float))


def _panel_from_columns(columns: Mapping[str, Sequence],
                        covariate_names: Sequence[str]) -> PanelDataset:
    """Parse raw cell columns (one per field, rows aligned) into a panel."""
    X = np.array([_float_column(columns[name], name) for name in covariate_names])
    return PanelDataset(_cells(columns["unit"], "unit", lambda v, row, field: str(v)),
                        _cells(columns["time"], "time", _parse_int),
                        _float_column(columns["outcome"], "outcome"),
                        _cells(columns["treatment"], "treatment", _parse_treatment),
                        X.reshape(len(covariate_names), len(columns["unit"])).T,
                        covariate_names)


def build_panel(records: Iterable[Mapping],
                covariate_names: Optional[Sequence[str]] = None) -> PanelDataset:
    """Validate raw rows and assemble a :class:`PanelDataset`.

    Parameters
    ----------
    records : iterable of mappings
        Each row must supply ``unit``, ``time``, ``outcome``, ``treatment``
        and one value per covariate column.
    covariate_names : sequence of str, optional
        Covariate column names. Defaults to all non-required keys of the
        first row, in insertion order.

    Raises
    ------
    MissingFieldError, FieldTypeError, NonFiniteValueError,
    DuplicateIndexError, NonAbsorbingTreatmentError, EmptyControlPoolError
    """
    records = list(records)
    if not records:
        raise MissingFieldError("no input rows")
    if covariate_names is None:
        covariate_names = [k for k in records[0].keys() if k not in REQUIRED_COLUMNS]
    covariate_names = list(covariate_names)
    columns = {name: [rec.get(name) for rec in records]
               for name in (*REQUIRED_COLUMNS, *covariate_names)}
    return _panel_from_columns(columns, covariate_names)


def _rows(panel: PanelDataset):
    """Rows ``[unit, time, outcome, treatment, *covariates]`` of Python scalars."""
    units = [panel.units[c] for c in panel.unit_codes.tolist()]
    times = [panel.periods[c] for c in panel.time_codes.tolist()]
    return [[u, t, y, d, *x] for u, t, y, d, x in zip(
        units, times, panel.outcomes.tolist(),
        panel.treatments.astype(int).tolist(), panel.covariates.tolist())]


def to_records(panel: PanelDataset) -> list[dict]:
    """Serialize back to raw rows (inverse of :func:`build_panel`)."""
    header = (*REQUIRED_COLUMNS, *panel.covariate_names)
    return [dict(zip(header, row)) for row in _rows(panel)]


# -- cohort / event-time queries ----------------------------------------------

def event_time(panel: PanelDataset, unit: str, t: int) -> Optional[int]:
    """Periods elapsed since adoption, e = t - g(i); None if never treated."""
    if unit not in panel.units:
        raise UnknownUnitError(f"unknown unit {unit!r}")
    if t not in panel.periods:
        raise UnknownPeriodError(f"unknown period {t}")
    g = panel.cohort[unit].first_treated
    return None if g is None else t - g


def feature_matrix(panel: PanelDataset, standardize: bool = True,
                   sample_weight: Optional[np.ndarray] = None):
    """Covariate matrix in canonical observation order.

    With ``standardize`` each column is centered and scaled to unit
    population standard deviation; zero-variance columns are centered only
    and their scale is reported as 1. ``sample_weight`` (one non-negative
    weight per observation, positive sum) weights the mean and the standard
    deviation, so integer weights c standardize as the rows repeated c
    times would. Returns ``(matrix, means, scales)``.
    """
    X = np.array(panel.covariates, dtype=np.float64)
    if not standardize:
        return X, np.zeros(X.shape[1]), np.ones(X.shape[1])
    if sample_weight is None:
        means = X.mean(axis=0) if X.shape[0] else np.zeros(X.shape[1])
        scales = X.std(axis=0, ddof=0) if X.shape[0] else np.ones(X.shape[1])
    else:
        total = sample_weight.sum()
        means = sample_weight @ X / total
        scales = np.sqrt(sample_weight @ (X - means) ** 2 / total)
    scales = np.where(scales == 0.0, 1.0, scales)
    X = (X - means) / scales
    return X, means, scales


def pivot_unit_time(panel: PanelDataset, values: np.ndarray):
    """Arrange an observation-aligned vector into a (units x periods) matrix.

    Missing (unit, period) cells are NaN; also returns the presence mask.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (panel.n_obs,):
        raise ValueError(f"expected vector of length {panel.n_obs}")
    mat = np.full((panel.n_units, panel.n_periods), np.nan)
    mat[panel.unit_codes, panel.time_codes] = values
    present = np.zeros((panel.n_units, panel.n_periods), dtype=bool)
    present[panel.unit_codes, panel.time_codes] = True
    return mat, present


def subset_units(panel: PanelDataset, codes) -> PanelDataset:
    """Panel of the units with the given codes.

    ``codes`` index ``panel.units``. Used for subgroup estimation and the
    full-mode bootstrap refits; the result passes full validation, so an
    invalid subset (e.g. one with no control pool, or a repeated unit)
    raises the corresponding panel error.
    """
    rows = unit_rows(panel, codes)
    return PanelDataset(np.asarray(panel.units)[panel.unit_codes[rows]],
                        np.asarray(panel.periods)[panel.time_codes[rows]],
                        panel.outcomes[rows], panel.treatments[rows],
                        panel.covariates[rows], panel.covariate_names)


# -- CSV interface -------------------------------------------------------------

def _panel_from_text(text: str) -> Optional[PanelDataset]:
    """The panel of a plain CSV text, parsed by one ``np.loadtxt`` call.

    Returns None, for the csv-module reader to parse or reject, whenever
    the text has a quote, a field longer than the csv module allows, a
    repeated or missing header name or no data row, when ``loadtxt``
    rejects a cell or a row, or when a value fails a check the cell parser
    makes: finite outcome and covariates, an integral time below 2**53 in
    magnitude, a 0/1 treatment and a non-empty unit id. Lines end at LF
    or CRLF and empty lines are skipped, as in the csv module; a CR
    anywhere else in a line makes it decline.
    """
    if '"' in text:
        return None
    lines = text.split("\n")  # loadtxt ends a line at a CR too, and rejects a CR inside one
    head = lines[0].removesuffix("\r")
    header = head.split(",")
    if ("\r" in head or len(set(header)) < len(header)
            or not set(REQUIRED_COLUMNS) <= set(header)
            or all(line in ("", "\r") for line in lines[1:])
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    at = header.index("unit")  # the columns before and after it are two float fields
    dtype = np.dtype([("before", np.float64, (at,)), ("unit", object),
                      ("after", np.float64, (len(header) - at - 1,))])
    try:
        data = np.loadtxt(lines[1:], dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1)
    except ValueError:
        return None
    values = np.hstack([data["before"], data["after"]])
    numeric = header[:at] + header[at + 1:]
    time, outcome, d = (values[:, numeric.index(name)] for name in REQUIRED_COLUMNS[1:])
    covariate_names = [name for name in numeric if name not in REQUIRED_COLUMNS]
    X = values[:, [numeric.index(name) for name in covariate_names]]
    ids = data["unit"]
    if not (np.isfinite(outcome).all() and np.isfinite(X).all()
            and (np.abs(time) < 2.0 ** 53).all() and (time == np.trunc(time)).all()
            and ((d == 0.0) | (d == 1.0)).all() and all(ids)):
        return None
    return PanelDataset(ids, time.astype(np.int64), outcome,
                        (d == 1.0).astype(np.float64), X, covariate_names)


def _read_csv_cells(path, lines) -> PanelDataset:
    """Parse CSV lines with the csv module and the per-cell column parser.

    Accepts every text :func:`_panel_from_text` accepts, with the same
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


def read_panel_csv(path) -> PanelDataset:
    """Read the canonical CSV layout: unit,time,outcome,treatment,<covariates...>.

    The text is read once and parsed by :func:`_panel_from_text`; a text
    it declines goes to :func:`_read_csv_cells`, which parses it cell by
    cell or raises the error that names the bad cell or line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open panel CSV {path}: {exc}") from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            fh.seek(0)  # the line-by-line reader reports where decoding fails
            return _read_csv_cells(path, fh)
    panel = _panel_from_text(text)
    if panel is None:
        panel = _read_csv_cells(path, io.StringIO(text, newline=""))
    return panel


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write the canonical CSV layout, lossless for finite doubles."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + list(panel.covariate_names))
        writer.writerows(_rows(panel))
