"""Aggregation of group-time effects, cluster-bootstrap inference, and the
robustness battery (pre-trend test, placebo intervention, overlap report).

Aggregation works on (R, C) arrays of cell effects and treated counts, one
row per estimate: R = 1 for the point estimate, R = B for the bootstrap.
Weights are proportional to each cell's treated count, so they are
non-negative by construction and sum to one within machine precision; both
properties are verified for every row. Uncertainty comes from a unit-level
(cluster) bootstrap: whole units are resampled with replacement. ``full``
mode gives the drawn units fresh identities and reruns the entire pipeline
on each replicate. ``fixed_nuisance`` mode (faster but approximate) reuses
the point-estimate nuisance predictions; with the contrast estimator a
replicate is a multiplicity-weight vector over the original units, so no
fresh identities are created and all B replicates are one matrix product.

This module does not import :mod:`sdidml.pipeline` at import time, so the
pipeline can import it. ``bootstrap`` and ``placebo_test`` refit nuisances
through ``pipeline.estimate_effects``, imported inside those two functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.stats import chi2

from ._util import parallel_map
from .crossfit import (
    FoldAssignment,
    NuisanceFits,
    ResidualPanel,
    assign_folds,
    residualize,
)
from .didcore import (
    GroupTimeEffects,
    estimate_interacted_regression,
    group_time_cells,
)
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


def _cell_rows(cell_maps: Sequence[Optional[Mapping]]):
    """Stack cell maps into (R, C) tau and treated-count arrays, one row each.

    Columns are the sorted union of the maps' (g, t) keys; a cell missing
    from a row has NaN tau and count 0 there. A None entry is a failed row.
    Returns ``(keys, tau, counts, failed)``.
    """
    keys = sorted({key for cells in cell_maps if cells is not None for key in cells})
    column = {key: j for j, key in enumerate(keys)}
    tau = np.full((len(cell_maps), len(keys)), np.nan)
    counts = np.zeros_like(tau)
    for r, cells in enumerate(cell_maps):
        for key, cell in (cells or {}).items():
            tau[r, column[key]] = cell.tau
            counts[r, column[key]] = cell.n_treated
    return keys, tau, counts, np.array([c is None for c in cell_maps], dtype=bool)


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


def _summaries(keys, tau: np.ndarray, counts: np.ndarray, failed: np.ndarray):
    """Overall, per-event-time and per-cohort ATT rows of (R, C) cell arrays.

    Rows that fail a weight check are marked in ``failed``. The overall ATT
    is NaN in a row without a post-treatment cell.
    """
    g, t = _cell_labels(keys)
    post = t >= g
    overall, _ = _weighted_att(tau[:, post], counts[:, post], np.zeros(post.sum()),
                               "overall aggregation", failed)
    event, _ = _weighted_att(tau, counts, t - g, "event-time {} aggregation", failed)
    group, _ = _weighted_att(tau[:, post], counts[:, post], g[post],
                             "cohort {} aggregation", failed)
    return overall.get(0, np.full(len(tau), np.nan)), event, group


def overall_att(effects: GroupTimeEffects) -> tuple[float, dict]:
    """Treated-count-weighted mean of post-treatment cells, plus the weights."""
    post = effects.post_cells()
    if not post:
        raise EmptyResultError("no post-treatment cell to aggregate")
    keys, tau, counts, _ = _cell_rows([post])
    att, weights = _weighted_att(tau, counts, np.zeros(len(keys)), "overall aggregation")
    return float(att[0][0]), dict(zip(keys, weights[0].tolist()))


def event_curve_att(effects: GroupTimeEffects) -> dict[int, float]:
    """Per-event-time weighted means; negative e are placebo contrasts."""
    keys, tau, counts, _ = _cell_rows([effects.cells])
    g, t = _cell_labels(keys)
    event, _ = _weighted_att(tau, counts, t - g, "event-time {} aggregation")
    return {e: float(v[0]) for e, v in event.items()}


def group_att(effects: GroupTimeEffects) -> dict[int, float]:
    """Per-cohort weighted means over post-treatment periods."""
    keys, tau, counts, _ = _cell_rows([effects.post_cells()])
    g, _ = _cell_labels(keys)
    group, _ = _weighted_att(tau, counts, g, "cohort {} aggregation")
    return {g: float(v[0]) for g, v in group.items()}


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
    att, weights = overall_att(effects)
    event: dict[int, SummaryPoint] = {}
    groups: dict[int, SummaryPoint] = {}
    if "event_time" in schemes:
        event = {e: SummaryPoint(att=v) for e, v in event_curve_att(effects).items()}
    if "by_group" in schemes:
        groups = {g: SummaryPoint(att=v) for g, v in group_att(effects).items()}
    return AggregatedResults(overall_att=att, weights_used=weights,
                             ci_level=ci_level, schemes=tuple(schemes),
                             event_curve=event, group_atts=groups)


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


def bootstrap(config, panel: PanelDataset, B: int, seed: int,
              mode: str = "full", fits: Optional[NuisanceFits] = None,
              threads: int = 1) -> BootstrapInference:
    """Unit-level bootstrap of the overall, event-time, and cohort summaries.

    Replicate r draws ``n_units`` units with replacement using seed
    ``seed + r``. ``full`` mode gives the drawn units fresh identities and
    reruns cross-fitting and estimation on each replicate, with folds
    assigned over the original units by seed ``seed + r`` so that every
    copy of a unit lands in its unit's fold. ``fixed_nuisance`` reuses the
    point-estimate residuals. With the contrast estimator it creates no
    fresh identities: replicate r weights each original unit by the number
    of times it was drawn, and one :func:`group_time_cells` call computes
    every replicate's cells at once. The interacted estimator still
    rebuilds each resampled panel. Replicates whose resample admits no
    estimable post-treatment cell are counted as failures; more than 20%
    failures aborts. ``threads`` only parallelizes replicates that rebuild
    a panel.
    """
    from .pipeline import estimate_effects

    if B < 1:
        raise ConfigError("bootstrap B must be >= 1")
    if mode not in ("full", "fixed_nuisance"):
        raise ConfigError(f"unknown bootstrap mode {mode!r}")
    n_units = panel.n_units

    if mode == "fixed_nuisance":
        if fits is None:
            fits = estimate_effects(panel, config).fits
        resid = residualize(panel, fits)

    if mode == "fixed_nuisance" and config.estimator == "contrast":
        ymat, present = pivot_unit_time(panel, resid.y_tilde)
        weights = np.array([np.bincount(_resample(seed, r, n_units), minlength=n_units)
                            for r in range(B)], dtype=np.float64)
        keys, tau, counts, _, _ = group_time_cells(
            panel.cohort_times, ymat, present, panel.periods,
            config.control_rule, config.anticipation, weights)
        failed = np.zeros(B, dtype=bool)
    else:
        def one_replicate(r: int):
            idx = _resample(seed, r, n_units)
            fresh = [f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)]
            try:
                bpanel = subset_units(panel, idx, fresh)
                if mode == "fixed_nuisance":
                    rows = unit_rows(panel, idx)
                    bresid = ResidualPanel(panel=bpanel,
                                           y_tilde=resid.y_tilde[rows],
                                           d_tilde=resid.d_tilde[rows])
                    return estimate_interacted_regression(
                        bresid, config.anticipation).cells
                fold_of = assign_folds(panel, config.n_folds, seed + r).fold_of_unit
                folds = FoldAssignment(config.n_folds, {
                    f: fold_of[panel.units[i]] for f, i in zip(fresh, idx)})
                return estimate_effects(bpanel, config, folds).effects.cells
            except (DataError, EstimationError, LearnerError):
                return None

        keys, tau, counts, failed = _cell_rows(
            parallel_map(one_replicate, list(range(B)), threads=threads))

    overall, event, group = _summaries(keys, tau, counts, failed)
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
    """Wald-type joint test that pre-treatment placebo contrasts are zero.

    The chi-square reference treats the bootstrap SEs as known, so the
    p-value is approximate.
    """

    statistic: float
    dof: int
    p_value: float
    per_e: tuple[PretrendPoint, ...]


def pretrend_test(effects: GroupTimeEffects,
                  inference: BootstrapInference) -> PretrendReport:
    """Sum of squared z-scores over pre-treatment event times, chi2 reference."""
    curve = event_curve_att(effects)
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


def placebo_test(panel: PanelDataset, config, shift: int,
                 threads: int = 1) -> PlaceboReport:
    """Rerun the full pipeline on pre-treatment data with adoption moved back.

    Only observations strictly before each cohort's true adoption survive;
    cohort g is reassigned to g - shift. The entire pipeline (including
    nuisance re-estimation on the pre-period subsample) is rerun, so the
    pseudo-ATT should be indistinguishable from zero under a valid design.
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

    from .pipeline import estimate_effects
    artifacts = estimate_effects(pseudo_panel, config)
    att, _ = overall_att(artifacts.effects)
    ci_low = ci_high = None
    if config.bootstrap_reps >= 1:
        inference = bootstrap(config, pseudo_panel, config.bootstrap_reps,
                              config.seed, config.bootstrap_mode,
                              fits=artifacts.fits, threads=threads)
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
