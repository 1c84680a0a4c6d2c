"""Synthetic staggered-adoption panels with known oracle treatment effects.

The generator draws unit covariates (optionally with an AR(1)-drifting
subset), assigns adoption cohorts through a share-weighted multinomial
tilted by a logistic covariate link, builds untreated potential outcomes
from a linear or sparse-nonlinear confounding surface plus unit and period
effects, and adds the configured treatment effect on treated cells. Both
potential outcomes are known inside the generator, so every oracle value is
an exact finite-sample mean of individual effects, not an asymptotic
target.

Randomness comes from numpy's PCG64 generator seeded explicitly; the draw
sequence (covariates, drift innovations, unit effects, period effects,
cohort uniforms, subgroup coins, noise) is fixed, so panels are bit-for-bit
reproducible from (config, seed) and two configs differing only in their
effect specification share every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.stats import norm

from .aggregate import bootstrap, overall_att
from .crossfit import ResidualPanel
from .didcore import estimate_group_time, twfe_baseline
from .errors import InvalidConfigError, json_number
from .panel import PanelDataset
from .pipeline import PipelineConfig, estimate_effects

GENERATOR_NAME = "pcg64"

SCENARIO_NAMES = (
    "S1_homogeneous",
    "S2_dynamic_heterogeneous",
    "S3_highdim_nonlinear",
    "S4_null",
    "S5_pretrend_violation",
)

EFFECT_KINDS = ("null", "homogeneous", "dynamic", "subgroup")
CONFOUNDING_KINDS = ("none", "linear", "sparse_nonlinear")

# JSON key -> field type, checked by errors.json_number.
_EFFECT_TYPES = {"tau": float, "tau_a": float, "tau_b": float}
_DGP_TYPES = {"n_units": int, "n_periods": int, "n_covariates": int, "seed": int,
              "n_time_varying": int, "never_share": float, "selection_strength": float,
              "noise_sd": float, "trend_violation": float, "ar1_rho": float}


def _json_fields(kw: dict, types: Mapping, what: str) -> dict:
    """``kw`` with every typed key checked and converted to its field type."""
    return {key: json_number(value, types[key], f"{what} {key!r}", InvalidConfigError)
            if key in types else value for key, value in kw.items()}


@dataclass(frozen=True)
class EffectSpec:
    """Treatment-effect law applied on treated cells.

    ``dynamic`` effects index the event time e = t - g and hold the last
    listed value for horizons beyond the list. ``subgroup`` effects split
    units into two equal-probability groups with separate constants.
    """

    kind: str
    tau: float = 0.0
    by_event_time: tuple[float, ...] = ()
    tau_a: float = 0.0
    tau_b: float = 0.0

    def __post_init__(self):
        if self.kind not in EFFECT_KINDS:
            raise InvalidConfigError(f"unknown effect kind {self.kind!r}")
        if self.kind == "dynamic" and not self.by_event_time:
            raise InvalidConfigError("dynamic effect needs a non-empty value list")
        object.__setattr__(self, "by_event_time",
                           tuple(float(v) for v in self.by_event_time))

    @classmethod
    def null(cls) -> "EffectSpec":
        return cls("null")

    @classmethod
    def homogeneous(cls, tau: float) -> "EffectSpec":
        return cls("homogeneous", tau=float(tau))

    @classmethod
    def dynamic(cls, values: Sequence[float]) -> "EffectSpec":
        return cls("dynamic", by_event_time=tuple(values))

    @classmethod
    def subgroup(cls, tau_a: float, tau_b: float) -> "EffectSpec":
        return cls("subgroup", tau_a=float(tau_a), tau_b=float(tau_b))

    def value(self, e: int, subgroup: str) -> float:
        if self.kind == "null":
            return 0.0
        if self.kind == "homogeneous":
            return self.tau
        if self.kind == "dynamic":
            return self.by_event_time[min(e, len(self.by_event_time) - 1)]
        return self.tau_a if subgroup == "a" else self.tau_b

    def to_dict(self) -> dict:
        if self.kind == "null":
            return {"kind": "null"}
        if self.kind == "homogeneous":
            return {"kind": "homogeneous", "tau": self.tau}
        if self.kind == "dynamic":
            return {"kind": "dynamic", "by_event_time": list(self.by_event_time)}
        return {"kind": "subgroup", "tau_a": self.tau_a, "tau_b": self.tau_b}

    @classmethod
    def from_dict(cls, d: Mapping) -> "EffectSpec":
        kw = _json_fields(d, _EFFECT_TYPES, "effect parameter")
        kind = kw.pop("kind", None)
        if kind is None:
            raise InvalidConfigError("effect spec needs a 'kind'")
        values = kw.get("by_event_time", ())
        if not isinstance(values, (list, tuple)):
            raise InvalidConfigError("effect by_event_time must be a list of numbers")
        kw["by_event_time"] = tuple(
            json_number(v, float, "effect by_event_time value", InvalidConfigError)
            for v in values)
        try:
            return cls(kind, **kw)
        except TypeError as exc:
            raise InvalidConfigError(f"bad effect parameters: {exc}") from None


@dataclass(frozen=True)
class DGPConfig:
    """Full description of one synthetic data-generating process."""

    n_units: int
    n_periods: int
    n_covariates: int
    cohort_shares: tuple[tuple[int, float], ...]
    never_share: float
    selection_strength: float
    confounding: str
    effect: EffectSpec
    noise_sd: float
    trend_violation: float
    seed: int
    n_time_varying: int = 0
    ar1_rho: float = 0.8

    def __post_init__(self):
        if self.n_units < 2 or self.n_periods < 2 or self.n_covariates < 1:
            raise InvalidConfigError("need n_units >= 2, n_periods >= 2, p >= 1")
        shares = tuple(sorted((int(g), float(s)) for g, s in self.cohort_shares))
        object.__setattr__(self, "cohort_shares", shares)
        for g, s in shares:
            if not 1 < g <= self.n_periods:
                raise InvalidConfigError(
                    f"cohort time {g} outside (1, {self.n_periods}]")
            if s < 0:
                raise InvalidConfigError("cohort shares must be >= 0")
        if len({g for g, _ in shares}) != len(shares):
            raise InvalidConfigError("duplicate cohort time in cohort_shares")
        if self.never_share < 0:
            raise InvalidConfigError("never_share must be >= 0")
        total = math.fsum([s for _, s in shares] + [self.never_share])
        if abs(total - 1.0) > 1e-9:
            raise InvalidConfigError(f"cohort shares plus never_share sum to {total}, not 1")
        if self.confounding not in CONFOUNDING_KINDS:
            raise InvalidConfigError(f"unknown confounding kind {self.confounding!r}")
        if self.confounding == "sparse_nonlinear" and self.n_covariates < 5:
            raise InvalidConfigError("sparse_nonlinear confounding needs p >= 5")
        if self.noise_sd < 0:
            raise InvalidConfigError("noise_sd must be >= 0")
        if not 0 <= self.n_time_varying <= self.n_covariates:
            raise InvalidConfigError("n_time_varying must lie in [0, p]")
        if not -1 < self.ar1_rho < 1:
            raise InvalidConfigError("ar1_rho must lie in (-1, 1)")

    def to_dict(self) -> dict:
        return {
            "n_units": self.n_units,
            "n_periods": self.n_periods,
            "n_covariates": self.n_covariates,
            "cohort_shares": [[g, s] for g, s in self.cohort_shares],
            "never_share": self.never_share,
            "selection_strength": self.selection_strength,
            "confounding": self.confounding,
            "effect": self.effect.to_dict(),
            "noise_sd": self.noise_sd,
            "trend_violation": self.trend_violation,
            "seed": self.seed,
            "n_time_varying": self.n_time_varying,
            "ar1_rho": self.ar1_rho,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DGPConfig":
        kw = _json_fields(d, _DGP_TYPES, "DGP parameter")
        shares = kw.pop("cohort_shares", None)
        if shares is None:
            raise InvalidConfigError("config needs cohort_shares")
        if isinstance(shares, Mapping):  # JSON object keys are strings
            shares = [(int(g) if isinstance(g, str) and g.isdigit() else g, s)
                      for g, s in shares.items()]
        try:
            pairs = tuple(
                (json_number(g, int, "cohort time", InvalidConfigError),
                 json_number(s, float, "cohort share", InvalidConfigError))
                for g, s in shares)
        except (TypeError, ValueError):
            raise InvalidConfigError(
                "cohort_shares must be a list of [cohort time, share] pairs") from None
        effect = kw.pop("effect", None)
        if not isinstance(effect, Mapping):
            raise InvalidConfigError("config needs an effect object")
        try:
            return cls(cohort_shares=pairs, effect=EffectSpec.from_dict(effect), **kw)
        except TypeError as exc:
            raise InvalidConfigError(f"bad DGP parameters: {exc}") from None


@dataclass(frozen=True)
class OraclePanel:
    """Observed panel plus the exact finite-sample oracle effects."""

    panel: PanelDataset
    true_att: Mapping[tuple[int, int], float]
    true_overall_att: float
    true_event_curve: Mapping[int, float]
    subgroup_of_unit: Mapping[str, str]
    generator: str = GENERATOR_NAME


_LINEAR_BETA = (1.0, -0.8, 0.6, -0.4, 0.2)


def _confounding_surface(kind: str, X: np.ndarray) -> np.ndarray:
    """f(X_it) for one period's covariate matrix (n x p)."""
    if kind == "none":
        return np.zeros(X.shape[0])
    if kind == "linear":
        k = min(len(_LINEAR_BETA), X.shape[1])
        return X[:, :k] @ np.asarray(_LINEAR_BETA[:k])
    # sparse sum of thresholds and products over the first five covariates
    x0, x1, x2, x3, x4 = (X[:, j] for j in range(5))
    return (1.5 * (x0 > 0.0) + x1 * x2 + 2.0 * (x3 > 0.5)
            + 0.8 * x4 * (x1 > 0.0))


def generate(config: DGPConfig) -> OraclePanel:
    """Draw one panel and its oracle effects; pure function of the config."""
    rng = np.random.default_rng(config.seed)
    n, T, p = config.n_units, config.n_periods, config.n_covariates
    q = config.n_time_varying
    rho = config.ar1_rho

    # fixed draw sequence; see module docstring
    X_base = rng.standard_normal((n, p))
    innovations = rng.standard_normal((T - 1, n, q)) if q else np.zeros((T - 1, n, 0))
    unit_effects = 0.7 * rng.standard_normal(n)
    period_effects = 0.5 * rng.standard_normal(T)
    cohort_uniforms = rng.random(n)
    subgroup_coin = rng.random(n)
    noise = config.noise_sd * rng.standard_normal((n, T))

    X_by_period = np.empty((T, n, p))
    X_by_period[0] = X_base
    scale = math.sqrt(1.0 - rho * rho)
    for ti in range(1, T):
        X_by_period[ti] = X_by_period[ti - 1]
        if q:
            X_by_period[ti, :, :q] = (rho * X_by_period[ti - 1, :, :q]
                                      + scale * innovations[ti - 1])

    # cohort assignment: share-weighted multinomial tilted by the first covariate
    z = X_base[:, 0]
    tilt = np.exp(np.clip(config.selection_strength * z, -50.0, 50.0))
    cohort_values = [g for g, _ in config.cohort_shares]
    weights = np.empty((n, len(cohort_values) + 1))
    weights[:, 0] = config.never_share
    for j, (_, share) in enumerate(config.cohort_shares):
        weights[:, j + 1] = share * tilt
    probs = weights / weights.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    category = (cohort_uniforms[:, None] > cumulative).sum(axis=1)
    cohort_of_unit = np.where(category == 0, np.inf,
                              np.array([np.nan] + cohort_values)[category])

    subgroups = np.where(subgroup_coin < 0.5, "a", "b")
    ever = np.isfinite(cohort_of_unit)
    t_center = (1 + T) / 2.0

    # (T, n) arrays, period-major; the panel constructor sorts by unit
    periods = np.arange(1, T + 1)
    treated = periods[:, None] >= cohort_of_unit
    Y = np.empty((T, n))
    for ti in range(T):
        f_t = _confounding_surface(config.confounding, X_by_period[ti])
        trend_t = config.trend_violation * (periods[ti] - t_center) * ever
        y0_t = f_t + unit_effects + period_effects[ti] + trend_t + noise[:, ti]
        # snap Y(0) to a 2^-32 grid so that Y(0) + tau - Y(0) == tau exactly
        # for dyadic effects tau
        Y[ti] = np.ldexp(np.round(np.ldexp(y0_t, 32)), -32)

    t_idx, i_idx = np.nonzero(treated)
    t_cell = periods[t_idx]
    g_cell = cohort_of_unit[i_idx].astype(int)
    e_cell = t_cell - g_cell
    eff_cell = np.array([config.effect.value(e, s)
                         for e, s in zip(e_cell.tolist(), subgroups[i_idx])])
    Y[t_idx, i_idx] += eff_cell

    def oracle_mean(mask) -> float:
        # sequential sum in (period, unit) order keeps the oracle reproducible
        values = eff_cell[mask]
        return float(np.add.accumulate(values)[-1] / values.size)

    true_att = {(g, t): oracle_mean((g_cell == g) & (t_cell == t))
                for g, t in sorted(set(zip(g_cell.tolist(), t_cell.tolist())))}
    true_event_curve = {e: oracle_mean(e_cell == e)
                        for e in sorted(set(e_cell.tolist()))}
    true_overall = oracle_mean(slice(None)) if eff_cell.size else math.nan
    unit_ids = [f"u{i:05d}" for i in range(n)]
    panel = PanelDataset(np.tile(unit_ids, T), np.repeat(periods, n),
                         Y.ravel(), treated.ravel(), X_by_period.reshape(T * n, p),
                         [f"x{j}" for j in range(p)])
    subgroup_of_unit = {unit_ids[i]: str(subgroups[i]) for i in range(n)}
    return OraclePanel(panel=panel, true_att=true_att,
                       true_overall_att=true_overall,
                       true_event_curve=true_event_curve,
                       subgroup_of_unit=subgroup_of_unit)


def scenario(name: str) -> DGPConfig:
    """Fixed, documented scenario configurations used by the validation suite.

    S1: moderate staggered panel, linear confounding, constant effect 1.0.
    S2: three cohorts with effects growing in event time; the setting where
        static two-way fixed effects is badly weighted.
    S3: high-dimensional (p=200) sparse-nonlinear confounding with strong
        selection and drifting covariates, so unadjusted contrasts are biased.
    S4: S1 with a null effect, for calibration checks.
    S5: S1 with a control/treated trend divergence, for pre-trend power.
    """
    aliases = {full.split("_")[0]: full for full in SCENARIO_NAMES}
    full = aliases.get(name, name)
    if full not in SCENARIO_NAMES:
        raise InvalidConfigError(
            f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    key = full.split("_")[0]
    if key == "S1":
        return DGPConfig(n_units=200, n_periods=8, n_covariates=20,
                         cohort_shares=((4, 0.25), (6, 0.25)), never_share=0.5,
                         selection_strength=1.0, confounding="linear",
                         effect=EffectSpec.homogeneous(1.0), noise_sd=1.0,
                         trend_violation=0.0, seed=101, n_time_varying=0)
    if key == "S2":
        return DGPConfig(n_units=200, n_periods=10, n_covariates=10,
                         cohort_shares=((3, 0.25), (5, 0.25), (7, 0.2)),
                         never_share=0.3, selection_strength=0.5,
                         confounding="linear",
                         effect=EffectSpec.dynamic((0.4, 0.8, 1.2, 1.6, 2.0,
                                                    2.4, 2.8, 3.2)),
                         noise_sd=1.0, trend_violation=0.0, seed=202,
                         n_time_varying=0)
    if key == "S3":
        return DGPConfig(n_units=300, n_periods=6, n_covariates=200,
                         cohort_shares=((4, 0.4),), never_share=0.6,
                         selection_strength=2.0, confounding="sparse_nonlinear",
                         effect=EffectSpec.homogeneous(1.0), noise_sd=0.8,
                         trend_violation=0.0, seed=303, n_time_varying=5,
                         ar1_rho=0.5)
    if key == "S4":
        return replace(scenario("S1"), effect=EffectSpec.null(), seed=404)
    return replace(scenario("S1"), trend_violation=0.3, seed=505)


# -- Monte Carlo harness ---------------------------------------------------------


METHODS = ("sdidml", "twfe", "raw_did")


@dataclass(frozen=True)
class MonteCarloRecord:
    rep: int
    estimate: float
    truth: float
    ci_low: Optional[float]
    ci_high: Optional[float]
    covered: Optional[bool]


@dataclass(frozen=True)
class MonteCarloResult:
    method: str
    n_reps: int
    bias: float
    rmse: float
    coverage: Optional[float]
    records: tuple[MonteCarloRecord, ...]

    def to_json_dict(self) -> dict:
        return {"method": self.method, "n_reps": self.n_reps, "bias": self.bias,
                "rmse": self.rmse, "coverage": self.coverage,
                "records": [{"rep": r.rep, "estimate": r.estimate,
                             "truth": r.truth, "ci_low": r.ci_low,
                             "ci_high": r.ci_high, "covered": r.covered}
                            for r in self.records]}


def _estimate_once(panel: PanelDataset, pipeline: PipelineConfig, method: str):
    """One estimate (and CI when available) on one generated panel."""
    if method == "sdidml":
        artifacts = estimate_effects(panel, pipeline)
        att, _ = overall_att(artifacts.effects)
        if pipeline.bootstrap_reps >= 2:
            inference = bootstrap(pipeline, panel, pipeline.bootstrap_reps,
                                  pipeline.seed, pipeline.bootstrap_mode,
                                  y_tilde=artifacts.resid.y_tilde)
            return att, inference.overall.ci_low, inference.overall.ci_high
        return att, None, None
    if method == "twfe":
        res = twfe_baseline(panel)
        zq = float(norm.ppf(0.5 + pipeline.ci_level / 2.0))
        return res.tau, res.tau - zq * res.se, res.tau + zq * res.se
    if method == "raw_did":
        resid = ResidualPanel(panel=panel, y_tilde=panel.outcomes,
                              d_tilde=panel.treatments)
        effects = estimate_group_time(resid, pipeline.control_rule,
                                      pipeline.anticipation)
        att, _ = overall_att(effects)
        return att, None, None
    raise InvalidConfigError(f"unknown method {method!r}; expected one of {METHODS}")


def monte_carlo(config: DGPConfig, pipeline: PipelineConfig, reps: int,
                seed: int, method: str = "sdidml") -> MonteCarloResult:
    """Repeat generate-and-estimate with derived seeds and score the method.

    Replicate r generates from ``config`` reseeded to ``seed + r`` and runs
    the estimator with pipeline seed ``seed + r``. Reports mean bias, RMSE,
    and CI coverage against the per-replicate oracle overall ATT.
    """
    if reps < 1:
        raise InvalidConfigError("reps must be >= 1")
    if method not in METHODS:
        raise InvalidConfigError(f"unknown method {method!r}; expected one of {METHODS}")

    def one_rep(r: int) -> MonteCarloRecord:
        oracle = generate(replace(config, seed=seed + r))
        pipe = replace(pipeline, seed=seed + r)
        try:
            estimate, ci_low, ci_high = _estimate_once(oracle.panel, pipe, method)
        except Exception as exc:
            raise type(exc)(f"rep {r}: {exc}") from exc
        covered = None
        if ci_low is not None:
            covered = bool(ci_low <= oracle.true_overall_att <= ci_high)
        return MonteCarloRecord(rep=r, estimate=estimate,
                                truth=oracle.true_overall_att,
                                ci_low=ci_low, ci_high=ci_high, covered=covered)

    records = [one_rep(r) for r in range(reps)]
    errors = np.array([rec.estimate - rec.truth for rec in records])
    bias = float(errors.mean())
    rmse = float(np.sqrt((errors ** 2).mean()))
    flags = [rec.covered for rec in records if rec.covered is not None]
    coverage = float(np.mean(flags)) if flags else None
    return MonteCarloResult(method=method, n_reps=reps, bias=bias, rmse=rmse,
                            coverage=coverage, records=tuple(records))
