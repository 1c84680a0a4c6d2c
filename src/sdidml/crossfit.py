"""Cross-fitted nuisance estimation.

Folds are assigned at the unit level so every observation's prediction
comes from models trained without any observation of its own unit. The
nuisance feature set is the standardized covariate matrix augmented with
one-hot period indicators (first period omitted as the reference);
adoption-cohort information is deliberately excluded so the treatment
contrast survives into the structural stage.

:func:`crossfit_predictions` cross-fits one learner for one target.
:func:`crossfit_nuisance` calls it for the outcome model g and then the
treatment model m. The contrast estimator reads only the outcome
residual y_tilde = Y - g_hat, an array in observation order; m_hat feeds
the overlap report alone, so the bootstrap and placebo refits cross-fit
only g. Both functions take optional per-observation weights, which
weight the feature standardization and every fit; a full-mode bootstrap
replicate passes how many times each of its distinct units was drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import learners
from .errors import (
    AlignmentMismatchError,
    ConfigError,
    LearnerError,
    TooManyFoldsError,
)
from .learners import LearnerSpec
from .panel import PanelDataset, feature_matrix


@dataclass(frozen=True)
class FoldAssignment:
    """Unit-level fold labels; a deterministic function of (seed, sorted ids)."""

    n_folds: int
    fold_of_unit: Mapping[str, int]


def assign_folds(panel: PanelDataset, n_folds: int, seed: int) -> FoldAssignment:
    """Shuffle the sorted unit ids by ``seed`` and deal them round-robin.

    Fold sizes differ by at most one unit. ``n_folds=1`` is the degenerate
    no-crossfit diagnostic mode (all units in fold 0).
    """
    if n_folds < 1:
        raise ConfigError("n_folds must be >= 1")
    if n_folds > panel.n_units:
        raise TooManyFoldsError(
            f"{n_folds} folds requested for {panel.n_units} units")
    units = panel.units
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(units))
    fold_of_unit = {units[j]: i % n_folds for i, j in enumerate(order)}
    return FoldAssignment(n_folds, MappingProxyType(fold_of_unit))


def nuisance_features(panel: PanelDataset, sample_weight: Optional[np.ndarray] = None):
    """Feature matrix for the nuisance models: standardized X + period dummies.

    Returns ``(matrix, names)``. The earliest period is the omitted
    reference so the dummies stay linearly independent of an intercept.
    With ``sample_weight`` (one weight per observation) the covariates are
    standardized by their weighted mean and weighted population SD.
    """
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    X, _, _ = feature_matrix(panel, standardize=True, sample_weight=w)
    dummies = np.eye(panel.n_periods)[panel.time_codes, 1:]
    names = [*panel.covariate_names, *(f"t={t}" for t in panel.periods[1:])]
    return np.hstack([X, dummies]), names


@dataclass(frozen=True)
class NuisanceFits:
    """Out-of-fold predictions g_hat ~ E[Y|X,t] and m_hat ~ E[D|X,t]."""

    g_hat: np.ndarray
    m_hat: np.ndarray
    folds: FoldAssignment
    n_clipped: int


def crossfit_predictions(panel: PanelDataset, spec: LearnerSpec, target: np.ndarray,
                         folds: FoldAssignment,
                         sample_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Out-of-fold predictions of one learner for one per-observation target.

    For each fold k the learner is trained on all observations of units
    outside fold k and evaluated on fold k's observations. With one fold it
    is trained and evaluated on the full sample, which is a diagnostic mode
    only. A learner failure is re-raised with its fold number. ``folds``
    may also cover units that are not in ``panel``.

    ``sample_weight`` gives each observation a weight in the standardization
    (:func:`nuisance_features`) and in every fit (:func:`learners.fit`);
    integer weights c give the predictions of the panel whose units are
    repeated c times, every copy in its unit's fold.
    """
    missing = [u for u in panel.units if u not in folds.fold_of_unit]
    if missing:
        raise AlignmentMismatchError(
            f"fold assignment lacks {len(missing)} panel unit(s), e.g. {missing[0]!r}")
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    features, _ = nuisance_features(panel, w)
    fold_of_obs = np.array([folds.fold_of_unit[u] for u in panel.units],
                           dtype=np.intp)[panel.unit_codes]
    predictions = np.empty(panel.n_obs)
    for k in range(folds.n_folds):
        test = fold_of_obs == k
        train = ~test if folds.n_folds > 1 else np.ones(panel.n_obs, dtype=bool)
        try:
            model = learners.fit(spec, features[train], target[train],
                                 None if w is None else w[train])
        except LearnerError as exc:
            raise type(exc)(f"fold {k}: {exc}") from exc
        predictions[test] = learners.predict(model, features[test])
    return predictions


def crossfit_nuisance(panel: PanelDataset, g_spec: LearnerSpec, m_spec: LearnerSpec,
                      folds: FoldAssignment, clip_eps: float = 0.01) -> NuisanceFits:
    """Out-of-fold g_hat and then m_hat, each by :func:`crossfit_predictions`.

    Raw treatment predictions are clipped into [clip_eps, 1 - clip_eps];
    ``n_clipped`` counts entries the clip moved.
    """
    if not 0 <= clip_eps < 0.5:
        raise ConfigError("clip_eps must lie in [0, 0.5)")
    if g_spec.kind == "logistic":
        raise ConfigError("logistic is a treatment-model learner; "
                          "the outcome nuisance needs a regression learner")
    g_hat = crossfit_predictions(panel, g_spec, panel.outcomes, folds)
    m_raw = crossfit_predictions(panel, m_spec, panel.treatments, folds)
    m_hat = np.clip(m_raw, clip_eps, 1.0 - clip_eps)
    n_clipped = int(np.sum((m_raw < clip_eps) | (m_raw > 1.0 - clip_eps)))
    g_hat.setflags(write=False)
    m_hat.setflags(write=False)
    return NuisanceFits(g_hat=g_hat, m_hat=m_hat, folds=folds, n_clipped=n_clipped)
