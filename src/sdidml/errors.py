"""Exception hierarchy shared across the package, and the one JSON reader.

Three broad families mirror the CLI exit codes: configuration problems,
data/panel problems, and estimation problems. Every config object (run
config, learner, DGP, effect) is read from JSON through a key table
``{json key: (field, kind, nullable)}``, one table per kind for objects
with a ``kind`` key: :func:`json_fields` rejects any key outside the table
and :func:`json_value` checks each value's JSON type; :func:`json_object`
writes the object back under the same keys.
"""

import math
from operator import attrgetter


class SdidmlError(Exception):
    """Base class for all package-specific errors."""


# --- configuration ----------------------------------------------------------

class ConfigError(SdidmlError):
    """Invalid or inconsistent run configuration."""


class InvalidConfigError(ConfigError):
    """A simulation DGP configuration violates its invariants."""


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false"}


def json_value(value, kind, what: str, error: type = ConfigError, nullable: bool = False):
    """A JSON value as ``kind``, or ``error`` naming ``what``.

    ``kind`` is str, int, float or bool, or a converter that takes the JSON
    value and raises its own error. true/false is not a number, 2.0 is not
    an integer, and a float field takes any finite JSON number: not the
    ``NaN`` and ``Infinity`` that Python's ``json`` reads, nor an integer
    beyond float range. null is taken only when ``nullable``.
    """
    if value is None and nullable:
        return None
    if kind not in _TYPE_NAMES:
        return kind(value)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise error(f"{what} must be {_TYPE_NAMES[kind]}{' or null' if nullable else ''}, "
                    f"got {value!r}")
    try:
        converted = kind(value)
    except OverflowError:  # an integer beyond float range
        converted = math.inf
    if kind is float and not math.isfinite(converted):
        raise error(f"{what} must be a finite number, got {value!r}")
    return converted


def json_fields(d, keys, what: str, error: type = ConfigError) -> dict:
    """``{field: value}`` of the JSON object ``d`` read against the table
    ``keys`` = ``{json key: (field, kind, nullable)}``; any other key raises."""
    if not isinstance(d, dict):
        raise error(f"expected a JSON object of {what}s, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise error(f"unknown {what}(s): {unknown}")
    return {keys[k][0]: json_value(v, keys[k][1], f"{what} {k!r}", error, keys[k][2])
            for k, v in d.items()}


def json_kind_fields(d, tables, what: str, error: type = ConfigError) -> tuple:
    """The ``kind`` of the JSON object ``d`` and its other fields, read
    by :func:`json_fields` against ``tables[kind]``."""
    kinds = tuple(tables)
    if not isinstance(d, dict) or d.get("kind") not in kinds:
        raise error(f"unknown {what} kind in {d!r}: expected an object whose 'kind' "
                    f"is one of {kinds}")
    kind = d["kind"]
    params = {k: v for k, v in d.items() if k != "kind"}
    return kind, json_fields(params, tables[kind], f"{kind} {what} parameter", error)


def json_object(obj, keys) -> dict:
    """The JSON object of ``obj`` that :func:`json_fields` reads with ``keys``:
    a dotted field is an attribute path, a tuple is written as a list and an
    object with a ``to_dict`` as that dict."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value.to_dict() if hasattr(value, "to_dict") else value

    return {key: plain(attrgetter(field)(obj)) for key, (field, _, _) in keys.items()}


# --- data / panel -----------------------------------------------------------

class DataError(SdidmlError):
    """Raw input cannot be turned into a valid panel."""


class MissingFieldError(DataError):
    """A required field is absent from an input row."""


class FieldTypeError(DataError):
    """A field value cannot be parsed into its required type/domain."""


class NonFiniteValueError(DataError):
    """Outcome or covariate holds NaN or infinity."""


class DuplicateIndexError(DataError):
    """The same (unit, time) pair appears more than once."""


class NonAbsorbingTreatmentError(DataError):
    """A unit's treatment indicator reverts from 1 back to 0."""


class EmptyControlPoolError(DataError):
    """No never-treated or later-treated unit exists to serve as control."""


class MissingArtifactsError(DataError):
    """A prior run's output files are absent from the given directory."""


# --- learners ---------------------------------------------------------------

class LearnerError(SdidmlError):
    """Base class for supervised-learner failures."""


class DimensionMismatchError(LearnerError):
    """Feature/target shapes are inconsistent with the fitted model."""


class NonFiniteInputError(LearnerError):
    """Training or prediction input contains NaN or infinity."""


class SingularSystemError(LearnerError):
    """The linear system has no unique solution (rank-deficient design)."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at max_iter before reaching tolerance."""


# --- cross-fitting ----------------------------------------------------------

class TooManyFoldsError(SdidmlError):
    """More folds requested than there are units."""


class AlignmentMismatchError(SdidmlError):
    """Nuisance fits do not line up with the panel they are applied to."""


# --- estimation -------------------------------------------------------------

class EstimationError(SdidmlError):
    """Second-stage estimation failed."""


class EmptyResultError(EstimationError):
    """No (g, t) cell was estimable."""


class DegenerateDesignError(EstimationError):
    """Fixed effects absorb all regressor variation."""


class BootstrapFailureError(EstimationError):
    """Too large a share of bootstrap replicates failed to estimate."""


class NoPreCellsError(EstimationError):
    """No pre-treatment cells are available for the pre-trend test."""


class InsufficientPrePeriodsError(EstimationError):
    """A cohort lacks the pre-treatment periods needed for the placebo shift."""
