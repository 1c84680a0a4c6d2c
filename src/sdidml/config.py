"""The one set of estimation settings.

Each setting of a run has its one default and its one check here, made
when the frozen :class:`PipelineConfig` is built, for a config file, a
``--seed`` flag and ``benchmark``'s defaults alike. A stage function takes
the config and reads the settings it uses from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .learners import LearnerSpec

CONTROL_RULES = ("never_treated", "not_yet_treated")
BOOTSTRAP_MODES = ("full", "fixed_nuisance")


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved estimation settings shared by the CLI, bootstrap, and tests.

    ``bootstrap_reps`` = 0 turns inference off, and ``placebo_shift`` =
    None turns the placebo test off.
    """

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
    placebo_shift: Optional[int] = None

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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.placebo_shift is not None and self.placebo_shift < 1:
            raise ConfigError("placebo_shift must be >= 1 (or null to skip the placebo)")
