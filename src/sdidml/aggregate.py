"""Aggregation of group-time effects, cluster-bootstrap inference, and the
robustness battery (pre-trend test, placebo intervention, overlap report).

Aggregation works on the (R, C) cell table of
:func:`sdidml.didcore.group_time_cells`, one row per unit weighting: R = 1
for the point estimate, one row per subgroup label (the 0/1 row of the
units it labels) for the subgroup effects, R = B for the bootstrap. All
three go through one summary routine, which gives every row's overall,
event-time and per-cohort ATT at once (Callaway and Sant'Anna 2021), each
keyed ``("overall", 0)``, ``("e", event time)`` or ``("g", cohort)``; a
:class:`SummaryPoint` per key holds its ATT, SE and CI. The pre-trend test
reads the pre-treatment event times. Weights are proportional to each
cell's treated count, so they are non-negative by construction and sum to
one within machine precision; both properties are verified for every row.
Uncertainty comes from a unit-level (cluster) bootstrap: whole units are
resampled with replacement, and replicate r is the row of how many times
each original unit was drawn. ``fixed_nuisance`` mode (faster but
approximate) reuses the point-estimate residuals, so all B rows are one
matrix product. ``full`` mode calls
:func:`~sdidml.crossfit.outcome_residuals` again on each replicate's
distinct drawn units (:func:`~sdidml.panel.subset_units`), in folds dealt
afresh for the replicate, with the weight row as sample weights in place
of repeated copies, and writes the residuals back onto the original units;
the residual vectors go to the cell routine as stacks of a bounded number
of replicates, one cell call per chunk, each vector weighted by its own
row. A replicate's row depends on its own vector and weights alone, so the
chunks' cell rows, stacked, are those of one call over all B, and memory
stays bounded whatever B is. The bootstrap sets each point summary's SE
and percentile CI from the replicates' values under its key; values that
differ only by rounding give an SE of 0.

Every refit here (a full-mode replicate and the placebo test) is one
``outcome_residuals`` call, the point estimate's path, which fits g for
all of its folds in one held-out ``learners.fit`` call. The contrast
estimator reads only y_tilde = Y - g_hat, so the treatment model m is fit
only for the point estimate, in :mod:`sdidml.pipeline`, once per adoption
cohort on one row per unit. The overlap report reads those cohort propensities (Callaway
and Sant'Anna 2021), one row per cohort, and judges common support by the
share of units clipped (Crump, Hotz, Imbens and Mitnik 2009).

Results hold estimates, not copies of the settings that produced them;
:mod:`sdidml.cli` echoes those from its config and alone writes files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .config import BOOTSTRAP_MODES, PipelineConfig
from .crossfit import NuisanceFits, assign_folds, outcome_residuals
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
from .panel import PanelDataset, subset_units, unit_rows

WEIGHT_SUM_TOL = 1e-12
# Replicate values whose range is at most this share of their largest
# magnitude differ only by rounding: their SE is 0.
SE_ROUNDING_TOL = 1e-12
WEAK_OVERLAP_CLIP_SHARE = 0.10
# A full-mode cell call takes at most this many stacked residuals (about
# 8 MB), or one replicate's if it has more, so memory follows the panel, not B.
_STACK_ELEMENTS = 2 ** 20


# -- point aggregation -----------------------------------------------------------


OVERALL = ("overall", 0)


@dataclass(frozen=True)
class SummaryPoint:
    """One summary's ATT; the bootstrap sets its SE and percentile CI."""

    att: float
    se: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None


@dataclass(frozen=True)
class AggregatedResults:
    """Every summary of one cell weighting, keyed ``OVERALL``,
    ``("e", event time)`` or ``("g", cohort)``, and the overall weights.

    ``n_reps`` and ``n_failed`` count the bootstrap replicates behind the
    SEs and CIs; both are 0 without a bootstrap.
    """

    summaries: Mapping[tuple[str, int], SummaryPoint]
    weights_used: Mapping[tuple[int, int], float]
    n_reps: int = 0
    n_failed: int = 0

    @property
    def overall(self) -> SummaryPoint:
        return self.summaries[OVERALL]


def _weighted_att(tau: np.ndarray, counts: np.ndarray, labels: np.ndarray, kind: str,
                  context: str, failed: Optional[np.ndarray] = None):
    """Treated-count-weighted means of (R, C) cell arrays per row and label.

    ``labels`` maps each column to the summary keyed ``(kind, label)``;
    ``context`` formats the label into messages. A cell takes part in a row
    where its tau is not NaN; a (row, label) with no such cell gives NaN.
    Each (row, label)'s weights must be non-negative and sum to 1 within
    ``WEIGHT_SUM_TOL``: a failure raises :class:`EstimationError`, or marks
    the row in the boolean (R,) array ``failed`` when one is given.
    Returns ``{(kind, label): (R,) ATTs}`` and the (R, C) weights.
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
    return {(kind, int(v)): att[:, j] for j, v in enumerate(levels)}, weights


def _cell_labels(keys) -> tuple[np.ndarray, np.ndarray]:
    """The cohort and period of each (g, t) key, as int arrays."""
    cells = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return cells[:, 0], cells[:, 1]


def _summaries(keys, tau: np.ndarray, counts: np.ndarray,
               failed: Optional[np.ndarray] = None):
    """Every summary's ATTs of (R, C) cell arrays, ``{key: (R,) ATTs}``, and
    the overall weights, ``{post (g, t): (R,) weights}``.

    A row that fails a weight check is marked in ``failed``, or raises
    :class:`EstimationError` when ``failed`` is None. The overall ATT is
    NaN in a row without a post-treatment cell.
    """
    g, t = _cell_labels(keys)
    post = t >= g
    rows, weights = _weighted_att(tau[:, post], counts[:, post], np.zeros(post.sum()),
                                  "overall", "overall aggregation", failed)
    rows.setdefault(OVERALL, np.full(len(tau), np.nan))
    rows.update(_weighted_att(tau, counts, t - g, "e", "event-time {} aggregation",
                              failed)[0])
    rows.update(_weighted_att(tau[:, post], counts[:, post], g[post], "g",
                              "cohort {} aggregation", failed)[0])
    post_keys = [key for key, p in zip(keys, post) if p]
    return rows, dict(zip(post_keys, weights.T))


def _results(keys, tau: np.ndarray, counts: np.ndarray) -> list[AggregatedResults]:
    """:func:`_summaries` of (R, C) cell arrays, one point summary per row.

    A row keeps the cells and summaries it estimates: a cell absent from
    the row has weight 0 and is left out, as is a NaN summary.
    """
    rows, weights = _summaries(keys, tau, counts)
    return [AggregatedResults(
        summaries={k: SummaryPoint(att=float(v[r])) for k, v in rows.items()
                   if not np.isnan(v[r])},
        weights_used={k: float(w[r]) for k, w in weights.items() if w[r] > 0})
        for r in range(len(tau))]


def aggregate_schemes(effects: GroupTimeEffects) -> AggregatedResults:
    """Overall, event-time and per-cohort summaries of the point estimate.

    The event curve includes the pre-treatment event times that the
    pre-trend test reads; the overall ATT and the cohort summaries use
    post-treatment cells only.
    """
    results, = _results(effects.keys, effects.tau[None], effects.n_treated[None])
    if not results.weights_used:
        raise EmptyResultError("no post-treatment cell to aggregate")
    return results


@dataclass(frozen=True)
class SubgroupEffects:
    """Point summaries per subgroup label; unestimable labels under ``failures``."""

    effects: Mapping[object, AggregatedResults]
    failures: Mapping[object, str]


def subgroup_effects(panel: PanelDataset, y_tilde: np.ndarray,
                     subgroup_of_unit: Mapping[str, object],
                     config: PipelineConfig) -> SubgroupEffects:
    """Overall, event-time and per-cohort summaries within each subgroup.

    ``y_tilde`` holds the outcome residuals of ``panel``'s observations;
    every unit must carry a label, or :class:`DataError` is raised. Label l
    is the 0/1 weight row of the units it labels, so one
    :func:`group_time_cells` call gives every subgroup's cells, each as if
    the subgroup were estimated alone. A label without a post-treatment cell
    that has both a treated and a control unit is recorded under
    ``failures``.
    """
    unlabeled = [u for u in panel.units if u not in subgroup_of_unit]
    if unlabeled:
        raise DataError(f"{len(unlabeled)} unit(s) lack a subgroup label, "
                        f"e.g. {unlabeled[0]!r}")
    labels = sorted({subgroup_of_unit[u] for u in panel.units}, key=str)
    code = {label: j for j, label in enumerate(labels)}
    label_code = np.array([code[subgroup_of_unit[u]] for u in panel.units])
    member = (label_code == np.arange(len(labels))[:, None]).astype(np.float64)
    keys, tau, counts, _, _ = group_time_cells(panel, y_tilde, config, member)
    effects: dict = {}
    failures: dict = {}
    for label, results in zip(labels, _results(keys, tau, counts)):
        if OVERALL in results.summaries:
            effects[label] = results
        else:
            failures[label] = "no post-treatment cell with a treated and a control unit"
    return SubgroupEffects(effects=effects, failures=failures)


# -- bootstrap inference -----------------------------------------------------------


def _resample(seed: int, r: int, n_units: int) -> np.ndarray:
    """Codes of the units drawn with replacement by bootstrap replicate r."""
    return np.random.default_rng(seed + r).integers(0, n_units, size=n_units)


def bootstrap(config: PipelineConfig, panel: PanelDataset, mode: str,
              y_tilde: Optional[np.ndarray],
              results: AggregatedResults) -> AggregatedResults:
    """Unit-level bootstrap of the point summaries ``results`` of ``panel``.

    Returns ``results`` with each summary's SE and percentile CI set from
    the values its key takes in the replicates that did not fail, and with
    ``n_reps`` and ``n_failed``; a summary with fewer than two such values
    has no spread and keeps neither, and one whose values differ only by
    rounding (see ``SE_ROUNDING_TOL``) gets SE 0.

    B is ``config.bootstrap_reps``. Replicate r draws ``n_units`` units with
    replacement using seed ``config.seed + r``; its weight row counts how
    many times each original unit was drawn, and :func:`group_time_cells`
    turns the B rows and the residuals on ``panel``'s observations into
    every replicate's cells: one call in fixed mode, one call per chunk of
    at most ``_STACK_ELEMENTS`` stacked residuals (at least one replicate)
    in full mode.
    ``fixed_nuisance`` uses ``y_tilde``, the point estimate's outcome
    residuals in ``panel``'s observation order, for every replicate.
    ``full`` mode ignores ``y_tilde`` and gives each replicate its own
    residuals: :func:`outcome_residuals` of the replicate's distinct drawn
    units, with the folds that seed ``config.seed + r`` assigns to
    ``panel``'s units indexed by the drawn codes, and the weight row as
    sample weights: a unit drawn c times counts as c copies in the
    standardization and in every fit, and all of them sit in its fold. The
    replicate's residuals are written back onto the original rows of each
    drawn unit; undrawn units get 0 (their weight is 0), and a replicate
    whose refit fails gets NaN.
    Neither mode fits the treatment model. Replicates whose resample admits
    no estimable post-treatment cell are counted as failures; more than 20%
    failures aborts.
    """
    B, seed = config.bootstrap_reps, config.seed
    if B < 2:
        raise ConfigError("bootstrap B must be >= 2: one replicate gives no spread")
    if mode not in BOOTSTRAP_MODES:
        raise ConfigError(f"unknown bootstrap mode {mode!r}")
    n_units = panel.n_units
    weights = np.array([np.bincount(_resample(seed, r, n_units), minlength=n_units)
                        for r in range(B)], dtype=np.float64)

    def replicate_y_tilde(r: int, y: np.ndarray) -> None:
        c = weights[r]
        drawn = np.flatnonzero(c)
        y[:] = 0.0
        try:
            bpanel = subset_units(panel, drawn)
            folds = assign_folds(panel, config.n_folds, seed + r)[drawn]
            y[unit_rows(panel, drawn)] = outcome_residuals(bpanel, config, folds,
                                                           c[drawn][bpanel.unit_codes])
        except (DataError, EstimationError, LearnerError):
            y[:] = np.nan

    if mode == "fixed_nuisance":
        keys, tau, counts, _, _ = group_time_cells(panel, y_tilde, config, weights)
    else:  # one residual vector per replicate, a bounded chunk of them per cell call
        chunk = max(1, _STACK_ELEMENTS // panel.n_obs)
        parts = []
        for start in range(0, B, chunk):
            stack = np.empty((min(chunk, B - start), panel.n_obs))
            for i, y in enumerate(stack):
                replicate_y_tilde(start + i, y)
            keys, tau, counts, _, _ = group_time_cells(
                panel, stack, config, weights[start:start + len(stack)])
            parts.append((tau, counts))
        tau, counts = (np.vstack(rows) for rows in zip(*parts))

    failed = np.zeros(B, dtype=bool)
    rows, _ = _summaries(keys, tau, counts, failed)
    failed |= np.isnan(rows[OVERALL])
    n_failed = int(failed.sum())
    if n_failed > 0.2 * B:
        raise BootstrapFailureError(
            f"{n_failed} of {B} bootstrap replicates failed to estimate")
    ok = ~failed
    alpha = 1.0 - config.ci_level
    summaries = {}
    for key, point in results.summaries.items():
        values = rows[key][ok & ~np.isnan(rows[key])]
        inference = ()
        if values.size >= 2:
            lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
            rounding = np.ptp(values) <= SE_ROUNDING_TOL * np.abs(values).max()
            se = 0.0 if rounding else float(values.std(ddof=1))
            inference = (se, float(lo), float(hi))
        summaries[key] = SummaryPoint(point.att, *inference)
    return replace(results, summaries=summaries, n_reps=B, n_failed=n_failed)


# -- robustness battery -------------------------------------------------------------


@dataclass(frozen=True)
class PretrendPoint:
    e: int
    att: float
    se: float
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


def chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X ~ chi2 with integer ``dof`` >= 1 and finite ``x``.

    This is the regularized upper incomplete gamma function Q(dof/2, x/2),
    which at integer and half-integer order has a finite closed form: with
    y = x/2, Q(m, y) = e^-y sum_{j<m} y^j / j! and
    Q(m + 1/2, y) = erfc(sqrt y) + e^-y sum_{j<m} y^(j+1/2) / Gamma(j + 3/2).
    Every term is positive and is taken from its logarithm, so none
    overflows before the factor e^-y scales it down.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    half = 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(y)) if half else 0.0
    terms = (math.exp((j + half) * log_y - y - math.lgamma(j + half + 1.0))
             for j in range(dof // 2))
    return min(1.0, head + math.fsum(terms))


def pretrend_test(results: AggregatedResults, config: PipelineConfig) -> PretrendReport:
    """Sum of squared z-scores over the pre-treatment event times that have
    a bootstrap SE, chi2 reference.

    ``results`` comes from :func:`bootstrap`. Event times
    e >= -``config.anticipation`` are not tested, nor is one without an SE
    (fewer than two replicates estimated it); ``per_e`` and ``dof`` count
    the tested ones. :class:`NoPreCellsError` means none is left.
    """
    points = []
    for (kind, e), p in sorted(results.summaries.items()):
        if kind != "e" or e >= -config.anticipation or p.se is None:
            continue
        if p.se > 0.0:
            z = p.att / p.se
        else:
            z = 0.0 if p.att == 0.0 else math.inf
        points.append(PretrendPoint(e=e, att=p.att, se=p.se, z=z))
    if not points:
        raise NoPreCellsError("no pre-treatment event time has a bootstrap SE")
    statistic = math.fsum(p.z ** 2 for p in points)
    dof = len(points)
    p_value = chi2_sf(dof, statistic) if math.isfinite(statistic) else 0.0
    return PretrendReport(statistic=statistic, dof=dof, p_value=p_value,
                          per_e=tuple(points))


def placebo_test(panel: PanelDataset, config: PipelineConfig) -> SummaryPoint:
    """The overall summary of the pre-treatment data with adoption moved back.

    Only observations strictly before each cohort's true adoption survive;
    cohort g is reassigned to g - ``config.placebo_shift``, which must be
    set. The outcome model is cross-fit again on this subsample (folds by
    ``config.seed``), the contrast cells are aggregated and bootstrapped as
    in a run, so this pseudo-ATT should be indistinguishable from zero under
    a valid design.
    """
    shift = config.placebo_shift
    if shift is None:
        raise ConfigError("the placebo test needs a placebo_shift")
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

    y_tilde = outcome_residuals(pseudo_panel, config,
                                assign_folds(pseudo_panel, config.n_folds, config.seed))
    results = aggregate_schemes(estimate_group_time(pseudo_panel, y_tilde, config))
    if config.bootstrap_reps >= 2:
        results = bootstrap(config, pseudo_panel, config.bootstrap_mode, y_tilde, results)
    return results.overall


@dataclass(frozen=True)
class OverlapReport:
    """Distribution of one cohort's estimated propensities P(G = g | X at b)
    over the units of its fit sample."""

    g: int
    histogram: tuple[int, ...]
    min: float
    max: float
    n_units: int
    share_outside_05_95: float
    n_clipped: int
    weak_overlap: bool


def overlap_report(fits: NuisanceFits) -> tuple[OverlapReport, ...]:
    """One row per cohort propensity: a 20-bin histogram on [0, 1] and
    common-support diagnostics.

    ``share_outside_05_95`` is the fraction of the cohort's propensities
    outside [0.05, 0.95]; the weak-overlap flag trips when clipping moved
    more than 10% of them.
    """
    rows = []
    for cohort in fits.propensities:
        p = cohort.propensity
        counts, _ = np.histogram(p, bins=20, range=(0.0, 1.0))
        rows.append(OverlapReport(
            g=cohort.g, histogram=tuple(int(c) for c in counts),
            min=float(p.min()), max=float(p.max()), n_units=int(p.size),
            share_outside_05_95=float(np.mean((p < 0.05) | (p > 0.95))),
            n_clipped=cohort.n_clipped,
            weak_overlap=bool(cohort.n_clipped > WEAK_OVERLAP_CLIP_SHARE * p.size)))
    return tuple(rows)
