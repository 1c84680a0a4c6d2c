"""Orchestration of the five estimation stages.

Every stage reads its settings from one :class:`PipelineConfig`
(:mod:`sdidml.config`); the CLI's run config wraps it and adds only the
input and output paths. :func:`estimate_effects` covers stages 2-4
(cross-fitting, the outcome residual y_tilde = Y - g_hat of
:func:`~sdidml.crossfit.outcome_residuals`, contrast estimation of the
group-time effects) for a validated panel;
:func:`run_pipeline` adds stage 5 from :mod:`sdidml.aggregate`: the
overall, event-time and per-cohort ATTs (always all three) in one table
whose SEs and CIs the bootstrap fills in, and the diagnostics, whose
pre-trend test reads that table's pre-treatment event times. Only this
point estimate fits the treatment model m, once per adoption cohort on
one row per unit, and its cohort propensities feed the overlap report
alone; the bootstrap and the placebo test call ``outcome_residuals``
alone, inside ``aggregate``. Modules import one way, down the layers
``config``, ``crossfit``, ``didcore``, ``aggregate`` and this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .aggregate import (
    AggregatedResults,
    OverlapReport,
    PretrendReport,
    SummaryPoint,
    aggregate_schemes,
    bootstrap,
    overlap_report,
    placebo_test,
    pretrend_test,
)
from .config import PipelineConfig
from .crossfit import NuisanceFits, assign_folds, crossfit_nuisance
from .didcore import GroupTimeEffects, estimate_group_time
from .errors import NoPreCellsError
from .panel import PanelDataset


@dataclass(frozen=True)
class EstimationArtifacts:
    """Stages 2-4 outputs for one panel; ``fits.y_tilde`` holds the outcome
    residual the cells were estimated on."""

    fits: NuisanceFits
    effects: GroupTimeEffects


def estimate_effects(panel: PanelDataset, config: PipelineConfig) -> EstimationArtifacts:
    """Cross-fit the outcome residual and the cohort propensities over the
    folds that ``config.seed`` assigns, and estimate contrast cells on the
    residual."""
    folds = assign_folds(panel, config.n_folds, config.seed)
    fits = crossfit_nuisance(panel, config, folds)
    return EstimationArtifacts(fits=fits,
                               effects=estimate_group_time(panel, fits.y_tilde, config))


@dataclass(frozen=True)
class PipelineResult:
    """Everything a full run estimates; the caller holds the config."""

    artifacts: EstimationArtifacts
    results: AggregatedResults
    overlap: tuple[OverlapReport, ...]
    pretrend: Optional[PretrendReport]
    placebo: Optional[SummaryPoint]


def run_pipeline(panel: PanelDataset, config: PipelineConfig) -> PipelineResult:
    """Execute stages 1-5 on a validated panel and collect diagnostics.

    The pre-trend report needs bootstrap standard errors, so it is skipped
    (None) when ``config.bootstrap_reps`` leaves inference disabled or no
    pre-treatment event time has an SE, as is the placebo's overall summary
    when ``config.placebo_shift`` is None.
    """
    artifacts = estimate_effects(panel, config)
    results = aggregate_schemes(artifacts.effects)
    pretrend = None
    if config.bootstrap_reps >= 2:
        results = bootstrap(config, panel, config.bootstrap_mode, artifacts.fits.y_tilde,
                            results)
        try:
            pretrend = pretrend_test(results, config)
        except NoPreCellsError:
            pretrend = None
    overlap = overlap_report(artifacts.fits)
    placebo = None
    if config.placebo_shift is not None:
        placebo = placebo_test(panel, config)
    return PipelineResult(artifacts=artifacts, results=results, overlap=overlap,
                          pretrend=pretrend, placebo=placebo)
