"""Aggregation of group-time effects, cluster-bootstrap inference, and the
robustness battery (pre-trend test, placebo intervention, overlap report).

Aggregation works on the (R, C) cell table of
:func:`sdidml.didcore.group_time_cells`, one row per estimate: R = 1 for
the point estimate, R = B for the bootstrap; both go through one
summary routine. Weights are proportional to each cell's treated count, so
they are non-negative by construction and sum to one within machine
precision; both properties are verified for every row. Uncertainty comes
from a unit-level (cluster) bootstrap: whole units are resampled with
replacement, and replicate r is the row of how many times each original
unit was drawn. ``fixed_nuisance`` mode (faster but approximate) reuses the
point-estimate residuals, so all B rows are one matrix product. ``full``
mode cross-fits the outcome model g again on each replicate's draw, with
fresh identities for the copies, and writes the residuals back onto the
original units, so each replicate is one weighted cell call over the
point estimate's cells.

Every refit here (a full-mode replicate, the placebo test, and the
fixed-nuisance bootstrap without point residuals) cross-fits g alone: the
contrast estimator reads only y_tilde = Y - g_hat, so the treatment model
m is fit once, for the point estimate, in :mod:`sdidml.pipeline`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.stats import chi2

from .crossfit import (
    FoldAssignment,
    NuisanceFits,
    ResidualPanel,
    assign_folds,
    crossfit_predictions,
)
from .didcore import GroupTimeEffects, estimate_group_time, group_time_cells
from .errors import (
    BootstrapFailureError,
    ConfigError,
    DataError,
    EmptyResultError,
    EstimationError,
    InsufficientPrePeriodsError,
    LearnerError,
    NoPreCellsError,
)
from .panel import PanelDataset, pivot_unit_time, subset_units, unit_rows

SCHEMES = ("overall", "event_time", "by_group")
BOOTSTRAP_MODES = ("full", "fixed_nuisance")

WEIGHT_SUM_TOL = 1e-12
WEAK_OVERLAP_CLIP_SHARE = 0.10


# -- point aggregation -----------------------------------------------------------


@dataclass(frozen=True)
class SummaryPoint:
    """One event-time or cohort summary; inference fields set by the bootstrap."""

    att: float
    se: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None


@dataclass(frozen=True)
class AggregatedResults:
    """Point summaries of tau(g, t); inference fields filled by the bootstrap."""

    overall_att: float
    weights_used: Mapping[tuple[int, int], float]
    ci_level: float
    schemes: tuple[str, ...]
    overall_se: Optional[float] = None
    overall_ci_low: Optional[float] = None
    overall_ci_high: Optional[float] = None
    event_curve: Mapping[int, SummaryPoint] = field(default_factory=dict)
    group_atts: Mapping[int, SummaryPoint] = field(default_factory=dict)


def _weighted_att(tau: np.ndarray, counts: np.ndarray, labels: np.ndarray,
                  context: str, failed: Optional[np.ndarray] = None):
    """Treated-count-weighted means of (R, C) cell arrays per row and label.

    ``labels`` maps each column to a summary (overall, event time or cohort;
    ``context`` formats the label into messages). A cell takes part in a row
    where its tau is not NaN; a (row, label) with no such cell gives NaN.
    Each (row, label)'s weights must be non-negative and sum to 1 within
    ``WEIGHT_SUM_TOL``: a failure raises :class:`EstimationError`, or marks
    the row in the boolean (R,) array ``failed`` when one is given.
    Returns ``{label: (R,) ATTs}`` and the (R, C) weights.
    """
    levels, code = np.unique(labels, return_inverse=True)
    member = (code[:, None] == np.arange(levels.size)).astype(np.float64)
    taking_part = ~np.isnan(tau)
    counts = np.where(taking_part, counts, 0.0)
    total = counts @ member
    weights = counts / np.where(total > 0, total, 1.0)[:, code]
    in_use = taking_part @ member > 0
    bad = in_use & (((weights < 0) @ member > 0)
                    | ~(np.abs(weights @ member - 1.0) <= WEIGHT_SUM_TOL))
    if failed is not None:
        failed |= bad.any(axis=1)
    elif bad.any():
        label = levels[np.argwhere(bad)[0][1]]
        raise EstimationError(f"aggregation weights in {context.format(label)} "
                              f"are negative or do not sum to 1")
    att = np.where(in_use, (weights * np.where(taking_part, tau, 0.0)) @ member, np.nan)
    return {int(v): att[:, j] for j, v in enumerate(levels)}, weights


def _cell_labels(keys) -> tuple[np.ndarray, np.ndarray]:
    """Cohort and period of each (g, t) key, as int arrays."""
    cells = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return cells[:, 0], cells[:, 1]


def _summaries(keys, tau: np.ndarray, counts: np.ndarray,
               failed: Optional[np.ndarray] = None):
    """Overall, per-event-time and per-cohort ATT rows of (R, C) cell arrays.

    Also returns the overall weights as ``{post (g, t): (R,) weights}``.
    A row that fails a weight check is marked in ``failed``, or raises
    :class:`EstimationError` when ``failed`` is None. The overall ATT is
    NaN in a row without a post-treatment cell.
    """
    g, t = _cell_labels(keys)
    post = t >= g
    overall, weights = _weighted_att(tau[:, post], counts[:, post], np.zeros(post.sum()),
                                     "overall aggregation", failed)
    event, _ = _weighted_att(tau, counts, t - g, "event-time {} aggregation", failed)
    group, _ = _weighted_att(tau[:, post], counts[:, post], g[post],
                             "cohort {} aggregation", failed)
    post_keys = [key for key, p in zip(keys, post) if p]
    return (overall.get(0, np.full(len(tau), np.nan)), dict(zip(post_keys, weights.T)),
            event, group)


def _point_summaries(effects: GroupTimeEffects):
    """:func:`_summaries` of the point estimate (R = 1), as floats."""
    overall, weights, event, group = _summaries(
        effects.keys, effects.tau[None], effects.n_treated[None])
    return (float(overall[0]), {k: float(w[0]) for k, w in weights.items()},
            {e: float(v[0]) for e, v in event.items()},
            {g: float(v[0]) for g, v in group.items()})


def overall_att(effects: GroupTimeEffects) -> tuple[float, dict]:
    """Treated-count-weighted mean of post-treatment cells, plus the weights."""
    att, weights, _, _ = _point_summaries(effects)
    if not weights:
        raise EmptyResultError("no post-treatment cell to aggregate")
    return att, weights


def aggregate_schemes(effects: GroupTimeEffects, schemes: Sequence[str],
                      ci_level: float = 0.95) -> AggregatedResults:
    """Aggregate tau(g, t) under each requested scheme.

    The overall ATT is always computed (it is the headline estimate the
    bootstrap pivots on); the event curve and per-cohort summaries are
    populated when their schemes are requested.
    """
    bad = [s for s in schemes if s not in SCHEMES]
    if bad:
        raise ConfigError(f"unknown aggregation scheme(s) {bad}")
    if not 0 < ci_level < 1:
        raise ConfigError("ci_level must lie in (0, 1)")
    att, weights, event, group = _point_summaries(effects)
    if not weights:
        raise EmptyResultError("no post-treatment cell to aggregate")
    return AggregatedResults(
        overall_att=att, weights_used=weights, ci_level=ci_level, schemes=tuple(schemes),
        event_curve={e: SummaryPoint(att=v) for e, v in event.items()
                     if "event_time" in schemes},
        group_atts={g: SummaryPoint(att=v) for g, v in group.items() if "by_group" in schemes})


def aggregate(effects: GroupTimeEffects, scheme: str = "overall",
              ci_level: float = 0.95) -> AggregatedResults:
    """Single-scheme entry point; see :func:`aggregate_schemes`."""
    return aggregate_schemes(effects, (scheme,), ci_level)


def write_event_curve_csv(results: AggregatedResults, path) -> None:
    """Plot-ready event curve: columns e, att, ci_low, ci_high."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["e", "att", "ci_low", "ci_high"])
        for e, point in sorted(results.event_curve.items()):
            writer.writerow([e, repr(point.att),
                             "" if point.ci_low is None else repr(point.ci_low),
                             "" if point.ci_high is None else repr(point.ci_high)])


# -- bootstrap inference -----------------------------------------------------------


@dataclass(frozen=True)
class InferencePoint:
    se: Optional[float]
    ci_low: float
    ci_high: float
    n_reps: int


@dataclass(frozen=True)
class BootstrapInference:
    """Cluster-bootstrap standard errors and percentile CIs."""

    overall: InferencePoint
    event: Mapping[int, InferencePoint]
    group: Mapping[int, InferencePoint]
    n_reps: int
    n_failed: int
    mode: str
    ci_level: float
    seed: int


def _summarize(values: np.ndarray, ci_level: float) -> InferencePoint:
    se = float(values.std(ddof=1)) if values.size >= 2 else None
    alpha = 1.0 - ci_level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return InferencePoint(se=se, ci_low=float(lo), ci_high=float(hi),
                          n_reps=int(values.size))


def _resample(seed: int, r: int, n_units: int) -> np.ndarray:
    """Codes of the units drawn with replacement by bootstrap replicate r."""
    return np.random.default_rng(seed + r).integers(0, n_units, size=n_units)


def _outcome_residuals(panel: PanelDataset, config, folds: FoldAssignment) -> ResidualPanel:
    """y_tilde from an outcome-only cross-fit; the treatment model is not fit."""
    g_hat = crossfit_predictions(panel, config.g_learner, panel.outcomes, folds)
    return ResidualPanel(panel=panel, y_tilde=panel.outcomes - g_hat)


def bootstrap(config, panel: PanelDataset, B: int, seed: int, mode: str = "full",
              y_tilde: Optional[np.ndarray] = None) -> BootstrapInference:
    """Unit-level bootstrap of the overall, event-time, and cohort summaries.

    Replicate r draws ``n_units`` units with replacement using seed
    ``seed + r``; its weight row counts how many times each original unit
    was drawn, and :func:`group_time_cells` turns that row and a residual
    vector on ``panel``'s observations into the replicate's cells.
    ``fixed_nuisance`` uses ``y_tilde``, the point estimate's residualized
    outcomes in ``panel``'s observation order, for every replicate (when
    None, they come from an outcome-only cross-fit on
    ``assign_folds(panel, K, config.seed)``), so one call computes all B
    rows. ``full`` mode gives the drawn units fresh identities and
    cross-fits the outcome model g on each replicate, with folds assigned
    over the original units by seed ``seed + r`` so that every copy of a
    unit lands in its unit's fold. Copies of a unit share a fold and a
    feature row, hence one prediction, so the replicate's residuals are
    written back onto the original rows of each drawn unit; undrawn units
    get 0 (their weight is 0), and a replicate whose refit fails gets NaN.
    Neither mode fits the treatment model. Replicates whose resample admits
    no estimable post-treatment cell are counted as failures; more than 20%
    failures aborts.
    """
    if B < 1:
        raise ConfigError("bootstrap B must be >= 1")
    if mode not in BOOTSTRAP_MODES:
        raise ConfigError(f"unknown bootstrap mode {mode!r}")
    n_units = panel.n_units
    draws = [_resample(seed, r, n_units) for r in range(B)]
    weights = np.array([np.bincount(idx, minlength=n_units) for idx in draws],
                       dtype=np.float64)

    def cells(y: np.ndarray, rows: np.ndarray):
        ymat, present = pivot_unit_time(panel, y)
        return group_time_cells(panel.cohort_times, ymat, present, panel.periods,
                                config.control_rule, config.anticipation, rows)

    def replicate_y_tilde(r: int) -> np.ndarray:
        idx = draws[r]
        fresh = [f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)]
        y = np.zeros(panel.n_obs)
        try:
            bpanel = subset_units(panel, idx, fresh)
            fold_of = assign_folds(panel, config.n_folds, seed + r).fold_of_unit
            folds = FoldAssignment(config.n_folds, {
                f: fold_of[panel.units[i]] for f, i in zip(fresh, idx)})
            y[unit_rows(panel, idx)] = _outcome_residuals(bpanel, config, folds).y_tilde
        except (DataError, EstimationError, LearnerError):
            y[:] = np.nan
        return y

    if mode == "fixed_nuisance":
        if y_tilde is None:
            folds = assign_folds(panel, config.n_folds, config.seed)
            y_tilde = _outcome_residuals(panel, config, folds).y_tilde
        keys, tau, counts, _, _ = cells(y_tilde, weights)
    else:
        rows = [cells(replicate_y_tilde(r), weights[r:r + 1]) for r in range(B)]
        keys = rows[0][0]
        tau, counts = (np.vstack([row[k] for row in rows]) for k in (1, 2))

    failed = np.zeros(B, dtype=bool)
    overall, _, event, group = _summaries(keys, tau, counts, failed)
    failed |= np.isnan(overall)
    n_failed = int(failed.sum())
    if n_failed > 0.2 * B:
        raise BootstrapFailureError(
            f"{n_failed} of {B} bootstrap replicates failed to estimate")
    ok = ~failed

    def summarize(rows: dict) -> dict:
        kept = {k: v[ok & ~np.isnan(v)] for k, v in rows.items()}
        return {k: _summarize(v, config.ci_level) for k, v in kept.items() if v.size}

    return BootstrapInference(overall=_summarize(overall[ok], config.ci_level),
                              event=summarize(event), group=summarize(group),
                              n_reps=B, n_failed=n_failed, mode=mode,
                              ci_level=config.ci_level, seed=seed)


def merge_inference(results: AggregatedResults,
                    inference: BootstrapInference) -> AggregatedResults:
    """Attach bootstrap SEs and percentile CIs to point summaries."""
    def attach(points, inferred):
        return {k: p if k not in inferred else replace(
                    p, se=inferred[k].se, ci_low=inferred[k].ci_low,
                    ci_high=inferred[k].ci_high)
                for k, p in points.items()}

    return replace(results, overall_se=inference.overall.se,
                   overall_ci_low=inference.overall.ci_low,
                   overall_ci_high=inference.overall.ci_high,
                   event_curve=attach(results.event_curve, inference.event),
                   group_atts=attach(results.group_atts, inference.group))


# -- robustness battery -------------------------------------------------------------


@dataclass(frozen=True)
class PretrendPoint:
    e: int
    att: float
    se: Optional[float]
    z: float


@dataclass(frozen=True)
class PretrendReport:
    """Joint test that the pre-treatment event-time contrasts are zero.

    The statistic is the sum of the squared per-event-time z-scores, each
    event time's ATT over its bootstrap SE. It ignores the covariance
    between event times (those of one cohort share a base period), so it
    is not a Wald test with the joint covariance. The chi-square reference
    also treats the bootstrap SEs as known, so the p-value is approximate.
    """

    statistic: float
    dof: int
    p_value: float
    per_e: tuple[PretrendPoint, ...]


def pretrend_test(effects: GroupTimeEffects,
                  inference: BootstrapInference) -> PretrendReport:
    """Sum of squared z-scores over pre-treatment event times, chi2 reference."""
    _, _, curve, _ = _point_summaries(effects)
    pre_es = [e for e in sorted(curve) if e < -effects.anticipation]
    if not pre_es:
        raise NoPreCellsError("no pre-treatment event times available")
    points = []
    for e in pre_es:
        att = curve[e]
        inf = inference.event.get(e)
        se = inf.se if inf is not None else None
        if se is None:
            raise EstimationError(
                "pre-trend test needs bootstrap SEs (B >= 2) for every pre event time")
        if se > 0.0:
            z = att / se
        else:
            z = 0.0 if att == 0.0 else math.inf
        points.append(PretrendPoint(e=e, att=att, se=se, z=z))
    statistic = math.fsum(p.z ** 2 for p in points)
    dof = len(points)
    p_value = float(chi2.sf(statistic, dof)) if math.isfinite(statistic) else 0.0
    return PretrendReport(statistic=statistic, dof=dof, p_value=p_value,
                          per_e=tuple(points))


@dataclass(frozen=True)
class PlaceboReport:
    """Pseudo-ATT from shifting every cohort's adoption into its pre-period."""

    shift: int
    pseudo_att: float
    ci_low: Optional[float]
    ci_high: Optional[float]
    ci_level: float


def placebo_test(panel: PanelDataset, config, shift: int) -> PlaceboReport:
    """Re-estimate on pre-treatment data with adoption moved back.

    Only observations strictly before each cohort's true adoption survive;
    cohort g is reassigned to g - shift. The outcome model is cross-fit
    again on this subsample (folds by ``config.seed``), the contrast cells
    are aggregated and bootstrapped as in a run, so the pseudo-ATT should be
    indistinguishable from zero under a valid design.
    """
    if shift < 1:
        raise ConfigError("placebo shift must be >= 1")
    adoption = panel.cohort_times
    cohorts = sorted({int(g) for g in adoption[np.isfinite(adoption)]})
    if not cohorts:
        raise InsufficientPrePeriodsError("panel has no treated cohort")
    for g in cohorts:
        n_pre = sum(1 for t in panel.periods if t < g)
        if n_pre < shift + 1:
            raise InsufficientPrePeriodsError(
                f"cohort {g} has {n_pre} pre-treatment period(s); "
                f"shift={shift} needs at least {shift + 1}")
    g_obs = adoption[panel.unit_codes]
    t_obs = np.asarray(panel.periods)[panel.time_codes]
    rows = np.flatnonzero(t_obs < g_obs)
    pseudo_panel = PanelDataset(np.asarray(panel.units)[panel.unit_codes[rows]],
                                t_obs[rows], panel.outcomes[rows],
                                t_obs[rows] >= g_obs[rows] - shift,
                                panel.covariates[rows], panel.covariate_names)

    resid = _outcome_residuals(pseudo_panel, config,
                               assign_folds(pseudo_panel, config.n_folds, config.seed))
    att, _ = overall_att(estimate_group_time(resid, config.control_rule,
                                             config.anticipation))
    ci_low = ci_high = None
    if config.bootstrap_reps >= 1:
        inference = bootstrap(config, pseudo_panel, config.bootstrap_reps,
                              config.seed, config.bootstrap_mode,
                              y_tilde=resid.y_tilde)
        ci_low, ci_high = inference.overall.ci_low, inference.overall.ci_high
    return PlaceboReport(shift=shift, pseudo_att=att, ci_low=ci_low,
                         ci_high=ci_high, ci_level=config.ci_level)


@dataclass(frozen=True)
class OverlapReport:
    """Distribution of the estimated treatment propensities m_hat."""

    histogram: tuple[int, ...]
    bin_edges: tuple[float, ...]
    minimum: float
    maximum: float
    n_clipped: int
    n_obs: int
    share_outside: float
    weak_overlap: bool


def overlap_report(fits: NuisanceFits) -> OverlapReport:
    """20-bin histogram of m_hat on [0, 1] with common-support diagnostics.

    ``share_outside`` is the fraction of propensities outside [0.05, 0.95];
    the weak-overlap flag trips when clipping moved more than 10% of them.
    """
    m = np.asarray(fits.m_hat, dtype=np.float64)
    counts, edges = np.histogram(m, bins=20, range=(0.0, 1.0))
    share_outside = float(np.mean((m < 0.05) | (m > 0.95)))
    weak = fits.n_clipped > WEAK_OVERLAP_CLIP_SHARE * m.size
    return OverlapReport(histogram=tuple(int(c) for c in counts),
                         bin_edges=tuple(float(x) for x in edges),
                         minimum=float(m.min()), maximum=float(m.max()),
                         n_clipped=fits.n_clipped, n_obs=int(m.size),
                         share_outside=share_outside, weak_overlap=bool(weak))


@dataclass(frozen=True)
class DiagnosticsReport:
    pretrend: Optional[PretrendReport]
    placebo: Optional[PlaceboReport]
    overlap: OverlapReport

    def to_json_dict(self) -> dict:
        out: dict = {"overlap": {
            "histogram": list(self.overlap.histogram),
            "bin_edges": list(self.overlap.bin_edges),
            "min": self.overlap.minimum,
            "max": self.overlap.maximum,
            "n_clipped": self.overlap.n_clipped,
            "n_obs": self.overlap.n_obs,
            "share_outside_05_95": self.overlap.share_outside,
            "weak_overlap": self.overlap.weak_overlap,
        }}
        if self.pretrend is not None:
            out["pretrend"] = {
                "statistic": self.pretrend.statistic,
                "dof": self.pretrend.dof,
                "p_value": self.pretrend.p_value,
                "approximate": True,
                "per_e": [{"e": p.e, "att": p.att, "se": p.se, "z": p.z}
                          for p in self.pretrend.per_e],
            }
        else:
            out["pretrend"] = None
        if self.placebo is not None:
            out["placebo"] = {
                "shift": self.placebo.shift,
                "pseudo_att": self.placebo.pseudo_att,
                "ci_low": self.placebo.ci_low,
                "ci_high": self.placebo.ci_high,
                "ci_level": self.placebo.ci_level,
            }
        else:
            out["placebo"] = None
        return out
