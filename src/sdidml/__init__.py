"""Staggered difference-in-differences with machine-learned residualization.

The pipeline runs in five stages: panel structuring and cohort encoding,
cross-fitted nuisance estimation, double residualization, structural
group-time effect estimation, and aggregation with bootstrap inference and
robustness diagnostics. A synthetic-panel generator with known oracle
effects backs the validation suite.
"""

__version__ = "0.1.0"

from . import errors
from .panel import (
    Cohort,
    NEVER_TREATED,
    PanelDataset,
    build_panel,
    event_time,
    feature_matrix,
    read_panel_csv,
    to_records,
    write_panel_csv,
)
from .learners import FittedModel, LearnerSpec, fit, predict
from .crossfit import (
    FoldAssignment,
    NuisanceFits,
    ResidualPanel,
    assign_folds,
    crossfit_nuisance,
    nuisance_features,
    residualize,
)
from .didcore import (
    GroupTimeEffects,
    SubgroupEffects,
    TwfeResult,
    estimate_group_time,
    residual_slope,
    subgroup_effects,
    twfe_baseline,
)
from .aggregate import (
    AggregatedResults,
    BootstrapInference,
    DiagnosticsReport,
    OverlapReport,
    PlaceboReport,
    PretrendReport,
    aggregate,
    bootstrap,
    overlap_report,
    placebo_test,
    pretrend_test,
)
from .pipeline import PipelineConfig, PipelineResult, estimate_effects, run_pipeline
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
