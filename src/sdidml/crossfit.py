"""Cross-fitted nuisance estimation.

Folds are assigned at the unit level, at least two of them, so every
observation's prediction comes from models trained without any observation
of its own unit. The folds are one read-only intp array over unit codes,
each label in ``range(config.n_folds)``; a bootstrap replicate indexes its
parent's array by the drawn codes.

:func:`outcome_residuals` is the one cross-fit of the outcome model g. It
builds the features (:func:`nuisance_features`: the standardized
covariates and one-hot period indicators, the first period omitted as the
reference; adoption-cohort information is deliberately excluded so the
treatment contrast survives into the structural stage), fits
``config.g_learner`` on every fold's complement in one held-out
:func:`learners.fit` call and returns the read-only outcome residual
y_tilde = Y - g_hat in observation order. The contrast estimator reads
only y_tilde, so the point estimate, the bootstrap and the placebo refits
all cross-fit g through :func:`outcome_residuals` alone. It takes optional
per-observation weights, which weight the feature standardization and
every fit; a full-mode bootstrap replicate passes how many times each of
its distinct units was drawn. :func:`crossfit_nuisance` adds the
treatment model m, fit once per adoption cohort on one row per unit: the
cohort propensity P(G = g | X at the base period) among the cohort and
its controls (Callaway and Sant'Anna 2021), which feeds the overlap
report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import learners
from .config import PipelineConfig
from .errors import (
    AlignmentMismatchError,
    ConfigError,
    LearnerError,
    TooManyFoldsError,
)
from .panel import PanelDataset, control_pool


def assign_folds(panel: PanelDataset, n_folds: int, seed: int) -> np.ndarray:
    """Shuffle the unit codes by ``seed`` and deal them round-robin.

    Returns the read-only intp array of each unit code's fold, a
    deterministic function of the seed and the number of units. Fold sizes
    differ by at most one unit. Fewer than two folds would leave no unit to
    hold out.
    """
    if n_folds < 2:
        raise ConfigError("n_folds must be >= 2")
    if n_folds > panel.n_units:
        raise TooManyFoldsError(
            f"{n_folds} folds requested for {panel.n_units} units")
    fold = np.empty(panel.n_units, dtype=np.intp)
    fold[np.random.default_rng(seed).permutation(panel.n_units)] = (
        np.arange(panel.n_units) % n_folds)
    fold.setflags(write=False)
    return fold


def nuisance_features(panel: PanelDataset,
                      sample_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Feature matrix for the nuisance models: standardized X + period dummies.

    The columns are the covariates, each centered and scaled to unit
    population SD (a zero-variance column is centered only), then one dummy
    per period after the earliest, which is the omitted reference so the
    dummies stay linearly independent of an intercept. ``sample_weight``,
    one checked weight per observation (:func:`learners.check_sample_weight`),
    weights the mean and the SD, so integer weights c standardize as the
    rows repeated c times would.
    """
    covariates, p = panel.covariates, panel.n_covariates
    features = np.zeros((panel.n_obs, p + panel.n_periods - 1))
    X = features[:, :p]  # filled in place: no temporary of the covariates' size
    if sample_weight is None:
        means, scales = covariates.mean(axis=0), covariates.std(axis=0)
        np.subtract(covariates, means, out=X)
    else:
        total = sample_weight.sum()
        np.subtract(covariates, sample_weight @ covariates / total, out=X)
        scales = np.sqrt(sample_weight @ X ** 2 / total)
    X /= np.where(scales == 0.0, 1.0, scales)
    later = np.flatnonzero(panel.time_codes)
    features[later, p - 1 + panel.time_codes[later]] = 1.0
    return features


def outcome_residuals(panel: PanelDataset, config: PipelineConfig, folds: np.ndarray,
                      sample_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """The read-only outcome residual Y - g_hat in observation order, g_hat
    the out-of-fold predictions of ``config.g_learner``.

    ``folds`` gives each of ``panel``'s units, in ``panel.units`` order, a
    fold in ``range(config.n_folds)``, or :class:`AlignmentMismatchError`
    is raised. One held-out fit (:func:`learners.fit` and
    :func:`learners.predict` with each observation's fold) trains the
    learner, for each fold k that holds an observation, on all observations
    of units outside fold k and evaluates it on fold k's observations; a
    fold with none is not fit, and a learner failure names its fold. Ridge
    with lambda > 0 builds every fold's fit from per-fold moments, within
    rounding of a fit on the complement's rows.

    ``sample_weight`` gives each observation a weight in the standardization
    (:func:`nuisance_features`) and in every fit (:func:`learners.fit`);
    integer weights c give the residuals of the panel whose units are
    repeated c times, every copy in its unit's fold.
    """
    if folds.shape != (panel.n_units,):
        raise AlignmentMismatchError(f"fold assignment covers {folds.size} "
                                     f"units; the panel has {panel.n_units}")
    if not (0 <= folds.min() and folds.max() < config.n_folds):
        raise AlignmentMismatchError(f"fold labels span [{folds.min()}, {folds.max()}]; "
                                     f"K = {config.n_folds} allows [0, {config.n_folds})")
    fold_of_obs = folds[panel.unit_codes]
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    features = nuisance_features(panel, w)
    model = learners.fit(config.g_learner, features, panel.outcomes, w, folds=fold_of_obs)
    y_tilde = panel.outcomes - learners.predict(model, features, folds=fold_of_obs)
    y_tilde.setflags(write=False)
    return y_tilde


@dataclass(frozen=True)
class CohortPropensity:
    """Out-of-fold propensity P(G = g | X at b) of cohort g's fit sample.

    ``units`` holds the codes (into ``panel.units``) of the sample: the
    units of cohort g and of its control pool at cell (g, g), each observed
    at the base period b = g - 1 - anticipation. ``propensity`` holds their
    clipped predictions, in the same order; ``n_clipped`` counts the
    entries the clip moved. Both arrays are read-only.
    """

    g: int
    units: np.ndarray
    propensity: np.ndarray
    n_clipped: int


@dataclass(frozen=True)
class NuisanceFits:
    """The out-of-fold outcome residual Y - g_hat per observation
    (:func:`outcome_residuals`), one propensity per cohort with a unit
    observed at its base period, in cohort order, and the unit folds."""

    y_tilde: np.ndarray
    propensities: tuple[CohortPropensity, ...]
    folds: np.ndarray


def _cohort_propensities(panel: PanelDataset, config: PipelineConfig,
                         folds: np.ndarray) -> tuple[CohortPropensity, ...]:
    """One cross-fit of ``config.m_learner`` per cohort g with a unit
    observed at its base period b, on one row per unit of the fit sample
    (see :class:`CohortPropensity`), which follows ``config.control_rule``
    and ``config.anticipation`` as the cells do.

    The target is 1{G = g} and the folds are the unit folds. The features
    are the unit's covariates at b, centered and scaled by the mean and
    population SD of each fold's training units (a zero SD scales by 1),
    so no unit's own covariates reach its prediction. A fold without a unit
    of the sample to predict, or without one to train on, is not fit, and
    its units are left out; a cohort left with no unit gets no propensity.
    Predictions are clipped into [clip_eps, 1 - clip_eps] by
    ``config.clip_eps``.
    """
    spec, clip_eps = config.m_learner, config.clip_eps
    row = np.full((panel.n_units, panel.n_periods), -1)
    row[panel.unit_codes, panel.time_codes] = np.arange(panel.n_obs)
    period_code = {t: i for i, t in enumerate(panel.periods)}
    cohort_times = panel.cohort_times
    out = []
    for g in sorted({int(v) for v in cohort_times[np.isfinite(cohort_times)]}):
        bi = period_code.get(g - 1 - config.anticipation)
        if bi is None:
            continue
        in_cohort = cohort_times == g
        pool = control_pool(cohort_times, g, g, config.control_rule, config.anticipation)
        units = np.flatnonzero((in_cohort | pool) & (row[:, bi] >= 0))
        if not in_cohort[units].any():  # no unit of g observed at b: no cell either
            continue
        X = panel.covariates[row[units, bi]]
        target = in_cohort[units].astype(np.float64)
        fold = folds[units]
        raw = np.empty(units.size)
        fitted = np.zeros(units.size, dtype=bool)
        for k in range(config.n_folds):
            test = fold == k
            train = ~test
            if not (test.any() and train.any()):
                continue
            X_train = X[train]
            means = X_train.mean(axis=0)
            scales = X_train.std(axis=0)
            scales[scales == 0.0] = 1.0
            try:
                model = learners.fit(spec, (X_train - means) / scales, target[train])
            except LearnerError as exc:
                raise type(exc)(f"cohort {g} propensity, fold {k}: {exc}") from exc
            raw[test] = learners.predict(model, (X[test] - means) / scales)
            fitted |= test
        if not fitted.any():
            continue
        units, raw = units[fitted], raw[fitted]
        propensity = np.clip(raw, clip_eps, 1.0 - clip_eps)
        n_clipped = int(np.sum((raw < clip_eps) | (raw > 1.0 - clip_eps)))
        units.setflags(write=False)
        propensity.setflags(write=False)
        out.append(CohortPropensity(g, units, propensity, n_clipped))
    return tuple(out)


def crossfit_nuisance(panel: PanelDataset, config: PipelineConfig,
                      folds: np.ndarray) -> NuisanceFits:
    """The outcome residual of :func:`outcome_residuals`, which checks the
    unit folds ``folds``, then each cohort's propensity by
    :func:`_cohort_propensities` on the same folds."""
    y_tilde = outcome_residuals(panel, config, folds)
    return NuisanceFits(y_tilde=y_tilde, folds=folds,
                        propensities=_cohort_propensities(panel, config, folds))
