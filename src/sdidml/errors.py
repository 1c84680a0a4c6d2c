"""Exception hierarchy shared across the package.

Three broad families mirror the CLI exit codes: configuration problems,
data/panel problems, and estimation problems. ``json_number`` checks the
type of a numeric learner or DGP parameter read from JSON.
"""


class SdidmlError(Exception):
    """Base class for all package-specific errors."""


# --- configuration ----------------------------------------------------------

class ConfigError(SdidmlError):
    """Invalid or inconsistent run configuration."""


class InvalidConfigError(ConfigError):
    """A simulation DGP configuration violates its invariants."""


def json_number(value, kind: type, what: str, error: type = ConfigError):
    """A JSON config value as ``kind`` (int or float), or ``error`` naming ``what``.

    An int field takes a JSON integer and a float field any JSON number; a
    bool is neither, and 2.0 is not an integer.
    """
    allowed = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise error(f"{what} must be {'a number' if kind is float else 'an integer'}, "
                    f"got {value!r}")
    return kind(value)


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


class NonConvergenceError(EstimationError):
    """Alternating-projection demeaning did not reach tolerance."""


class DegenerateDesignError(EstimationError):
    """Fixed effects absorb all regressor variation."""


class BootstrapFailureError(EstimationError):
    """Too large a share of bootstrap replicates failed to estimate."""


class NoPreCellsError(EstimationError):
    """No pre-treatment cells are available for the pre-trend test."""


class InsufficientPrePeriodsError(EstimationError):
    """A cohort lacks the pre-treatment periods needed for the placebo shift."""
