"""Staggered difference-in-differences with machine-learned residualization.

The pipeline runs in five stages: panel structuring and cohort encoding,
cross-fitted nuisance estimation, the outcome residual y_tilde = Y - g_hat
(one function, :func:`outcome_residuals`, cross-fits the outcome model g
and subtracts it, for the point estimate and every refit; the treatment
model, one cohort propensity per adoption cohort fit on one row per unit,
feeds only the overlap report), structural group-time effect estimation on
y_tilde, and aggregation with bootstrap inference and robustness
diagnostics. Every summary (the overall, event-time and per-cohort ATTs of
the point estimate, of each bootstrap replicate and of each subgroup)
comes from one table of group-time cells, one row per unit weighting.
Every stage reads its settings from one :class:`PipelineConfig`. A
synthetic-panel generator with known oracle effects backs the validation
suite.
"""

__version__ = "0.1.0"

from . import errors
from .panel import PanelDataset, read_panel_csv, write_panel_csv
from .learners import FittedModel, LearnerSpec, fit, predict
from .config import PipelineConfig
from .crossfit import (
    CohortPropensity,
    NuisanceFits,
    assign_folds,
    crossfit_nuisance,
    nuisance_features,
    outcome_residuals,
)
from .didcore import GroupTimeEffects, TwfeResult, estimate_group_time, twfe_baseline
from .aggregate import (
    AggregatedResults,
    OverlapReport,
    PretrendReport,
    SubgroupEffects,
    SummaryPoint,
    aggregate_schemes,
    bootstrap,
    overlap_report,
    placebo_test,
    pretrend_test,
    subgroup_effects,
)
from .pipeline import PipelineResult, estimate_effects, run_pipeline
from .simulate import (
    DGPConfig,
    EffectSpec,
    MonteCarloResult,
    OraclePanel,
    SCENARIO_NAMES,
    generate,
    monte_carlo,
    scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
