"""Cross-fitted nuisance estimation.

Folds are assigned at the unit level, at least two of them, so every
observation's prediction comes from models trained without any observation
of its own unit. The outcome model's feature set is the standardized
covariate matrix augmented with one-hot period indicators (first period
omitted as the reference); adoption-cohort information is deliberately
excluded so the treatment contrast survives into the structural stage.

:func:`crossfit_predictions` cross-fits one learner for one
per-observation target. :func:`crossfit_nuisance` reads both learners, the
propensity clip and the cohorts' control pools from the run's
:class:`~sdidml.config.PipelineConfig`; it calls :func:`crossfit_predictions`
for the outcome model g and then fits the treatment model m once per
adoption cohort, on one row per unit: the cohort propensity P(G = g | X at the base period)
among the cohort and its controls (Callaway and Sant'Anna 2021), which
feeds the overlap report alone. The contrast estimator reads only the
outcome residual y_tilde = Y - g_hat, an array in observation order, so
the bootstrap and placebo refits cross-fit only g. Outcome cross-fits take
optional per-observation weights, which weight the feature
standardization and every fit; a full-mode bootstrap replicate passes how
many times each of its distinct units was drawn. Folds are one array over
unit codes; a replicate indexes its parent's by the drawn codes.
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
from .learners import LearnerSpec
from .panel import PanelDataset, control_pool, feature_matrix


@dataclass(frozen=True)
class FoldAssignment:
    """Unit-level fold labels: ``fold[c]`` is the fold of unit code c."""

    n_folds: int
    fold: np.ndarray


def assign_folds(panel: PanelDataset, n_folds: int, seed: int) -> FoldAssignment:
    """Shuffle the unit codes by ``seed`` and deal them round-robin.

    ``fold`` is a read-only intp array, a deterministic function of the
    seed and the number of units. Fold sizes differ by at most one unit.
    Fewer than two folds would leave no unit to hold out.
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
    return FoldAssignment(n_folds, fold)


def nuisance_features(panel: PanelDataset,
                      sample_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Feature matrix for the nuisance models: standardized X + period dummies.

    The columns are the covariates, then one dummy per period after the
    earliest, which is the omitted reference so the dummies stay linearly
    independent of an intercept. With ``sample_weight`` (one weight per
    observation) the covariates are standardized by their weighted mean and
    weighted population SD.
    """
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    X, _, _ = feature_matrix(panel, sample_weight=w)
    return np.hstack([X, np.eye(panel.n_periods)[panel.time_codes, 1:]])


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
    """Out-of-fold g_hat ~ E[Y|X,t] per observation, and one propensity per
    cohort with a unit observed at its base period, in cohort order."""

    g_hat: np.ndarray
    propensities: tuple[CohortPropensity, ...]
    folds: FoldAssignment


def _unit_folds(panel: PanelDataset, folds: FoldAssignment) -> np.ndarray:
    """The fold of each of ``panel``'s units, in ``panel.units`` order."""
    if folds.fold.shape != (panel.n_units,):
        raise AlignmentMismatchError(f"fold assignment covers {folds.fold.size} "
                                     f"units; the panel has {panel.n_units}")
    return folds.fold


def crossfit_predictions(panel: PanelDataset, spec: LearnerSpec, target: np.ndarray,
                         folds: FoldAssignment,
                         sample_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Out-of-fold predictions of one learner for one per-observation target.

    For each fold k the learner is trained on all observations of units
    outside fold k and evaluated on fold k's observations. A learner
    failure is re-raised with its fold number.

    ``sample_weight`` gives each observation a weight in the standardization
    (:func:`nuisance_features`) and in every fit (:func:`learners.fit`);
    integer weights c give the predictions of the panel whose units are
    repeated c times, every copy in its unit's fold.
    """
    fold_of_obs = _unit_folds(panel, folds)[panel.unit_codes]
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    features = nuisance_features(panel, w)
    predictions = np.empty(panel.n_obs)
    for k in range(folds.n_folds):
        test = fold_of_obs == k
        train = ~test
        try:
            model = learners.fit(spec, features[train], target[train],
                                 None if w is None else w[train])
        except LearnerError as exc:
            raise type(exc)(f"fold {k}: {exc}") from exc
        predictions[test] = learners.predict(model, features[test])
    return predictions


def _cohort_propensities(panel: PanelDataset, config: PipelineConfig,
                         folds: FoldAssignment) -> tuple[CohortPropensity, ...]:
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
    unit_fold = _unit_folds(panel, folds)
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
        fold = unit_fold[units]
        raw = np.empty(units.size)
        fitted = np.zeros(units.size, dtype=bool)
        for k in range(folds.n_folds):
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
                      folds: FoldAssignment) -> NuisanceFits:
    """Out-of-fold g_hat of ``config.g_learner`` by
    :func:`crossfit_predictions`, then each cohort's propensity by
    :func:`_cohort_propensities`."""
    g_hat = crossfit_predictions(panel, config.g_learner, panel.outcomes, folds)
    g_hat.setflags(write=False)
    return NuisanceFits(g_hat=g_hat, folds=folds,
                        propensities=_cohort_propensities(panel, config, folds))
