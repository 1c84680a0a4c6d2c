"""Configuration and orchestration of the five estimation stages.

:class:`PipelineConfig` is the one set of estimation settings; the CLI's
run config wraps it and adds only I/O and run-level fields.
:func:`estimate_effects` covers stages 2-4 (cross-fitting, the outcome
residual y_tilde = Y - g_hat, contrast estimation of the group-time
effects) for a validated panel; :func:`run_pipeline` adds stage 5 from
:mod:`sdidml.aggregate`: the overall, event-time and per-cohort ATTs
(always all three), bootstrap inference merged into them, and the
diagnostics, whose pre-trend test reads the merged event curve. Only this
point estimate fits the treatment model m, once per adoption cohort on one
row per unit, and its cohort propensities feed the overlap report alone;
the bootstrap and the placebo test refit the outcome model alone, inside
``aggregate``. Imports run one way, from this module into
``aggregate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import (
    BOOTSTRAP_MODES,
    AggregatedResults,
    BootstrapInference,
    OverlapReport,
    PlaceboReport,
    PretrendReport,
    aggregate_schemes,
    bootstrap,
    merge_inference,
    overlap_report,
    placebo_test,
    pretrend_test,
)
from .crossfit import FoldAssignment, NuisanceFits, assign_folds, crossfit_nuisance
from .didcore import CONTROL_RULES, GroupTimeEffects, estimate_group_time
from .errors import ConfigError, NoPreCellsError
from .learners import LearnerSpec
from .panel import PanelDataset


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved estimation settings shared by the CLI, bootstrap, and tests."""

    g_learner: LearnerSpec = LearnerSpec.ridge(1.0)
    m_learner: LearnerSpec = LearnerSpec.logistic(1.0)
    n_folds: int = 5
    clip_eps: float = 0.01
    control_rule: str = "never_treated"
    anticipation: int = 0
    bootstrap_reps: int = 199
    bootstrap_mode: str = "full"
    ci_level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.g_learner.kind == "logistic":
            raise ConfigError("logistic is a treatment-model learner; "
                              "the outcome nuisance needs a regression learner")
        if self.n_folds < 2:
            raise ConfigError("K (n_folds) must be >= 2: cross-fitting holds out a fold")
        if not 0 <= self.clip_eps < 0.5:
            raise ConfigError("clip_eps must lie in [0, 0.5)")
        if self.control_rule not in CONTROL_RULES:
            raise ConfigError(f"control_rule must be one of {CONTROL_RULES}")
        if self.anticipation < 0:
            raise ConfigError("anticipation must be >= 0")
        if self.bootstrap_reps < 0 or self.bootstrap_reps == 1:
            raise ConfigError("bootstrap B must be 0 (no inference) or >= 2; "
                              "one replicate gives no spread")
        if self.bootstrap_mode not in BOOTSTRAP_MODES:
            raise ConfigError(f"bootstrap mode must be one of {BOOTSTRAP_MODES}")
        if not 0 < self.ci_level < 1:
            raise ConfigError("ci_level must lie in (0, 1)")


@dataclass(frozen=True)
class EstimationArtifacts:
    """Stages 2-4 outputs for one panel.

    ``y_tilde`` is the read-only outcome residual Y - g_hat, in the
    panel's observation order.
    """

    fits: NuisanceFits
    y_tilde: np.ndarray
    effects: GroupTimeEffects


def estimate_effects(panel: PanelDataset, config: PipelineConfig,
                     folds: Optional[FoldAssignment] = None) -> EstimationArtifacts:
    """Cross-fit g_hat and the cohort propensities, and estimate contrast
    cells on Y - g_hat.

    ``folds`` defaults to ``assign_folds(panel, config.n_folds, config.seed)``.
    """
    if folds is None:
        folds = assign_folds(panel, config.n_folds, config.seed)
    fits = crossfit_nuisance(panel, config.g_learner, config.m_learner, folds,
                             config.clip_eps, config.control_rule, config.anticipation)
    y_tilde = panel.outcomes - fits.g_hat
    y_tilde.setflags(write=False)
    effects = estimate_group_time(panel, y_tilde, config.control_rule, config.anticipation)
    return EstimationArtifacts(fits=fits, y_tilde=y_tilde, effects=effects)


@dataclass(frozen=True)
class PipelineResult:
    """Everything a full run estimates; the caller holds the config."""

    artifacts: EstimationArtifacts
    results: AggregatedResults
    inference: Optional[BootstrapInference]
    overlap: tuple[OverlapReport, ...]
    pretrend: Optional[PretrendReport]
    placebo: Optional[PlaceboReport]


def run_pipeline(panel: PanelDataset, config: PipelineConfig,
                 placebo_shift: Optional[int] = None) -> PipelineResult:
    """Execute stages 1-5 on a validated panel and collect diagnostics.

    The pre-trend report needs bootstrap standard errors, so it is skipped
    (None) when ``config.bootstrap_reps`` leaves inference disabled, as is
    the placebo report unless ``placebo_shift`` is given.
    """
    artifacts = estimate_effects(panel, config)
    results = aggregate_schemes(artifacts.effects)
    inference = None
    pretrend = None
    if config.bootstrap_reps >= 2:
        inference = bootstrap(config, panel, config.bootstrap_mode, artifacts.y_tilde)
        results = merge_inference(results, inference)
        try:
            pretrend = pretrend_test(results, config.anticipation)
        except NoPreCellsError:
            pretrend = None
    overlap = overlap_report(artifacts.fits)
    placebo = None
    if placebo_shift is not None:
        placebo = placebo_test(panel, config, placebo_shift)
    return PipelineResult(artifacts=artifacts, results=results,
                          inference=inference, overlap=overlap,
                          pretrend=pretrend, placebo=placebo)
