"""Structural group-time effect estimation on the residualized panel.

The contrast estimator computes, for every cohort g and period t, the 2x2
double difference of residualized outcomes against base period
b = g - 1 - anticipation, using never-treated units as the comparison
pool, or not-yet-treated units: those adopting after
max(t, g) + anticipation, so that no control is already anticipating its
own treatment (Callaway and Sant'Anna 2021). It reads only y_tilde. A raw
two-way fixed-effects regression, with its effects absorbed by alternating
projections, is included purely as the diagnostic comparator whose
staggered-adoption bias the pipeline is designed to avoid.

:func:`group_time_cells` is the one cell routine. It takes an (R, units)
matrix of unit multiplicities: the point estimate is one row of ones, and
each bootstrap replicate, in either mode, is the row of how many times each
original unit was drawn. :class:`GroupTimeEffects` holds the point
estimate's row of the table it returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .crossfit import ResidualPanel
from .errors import (
    DegenerateDesignError,
    EmptyControlPoolError,
    EmptyResultError,
    NonConvergenceError,
)
from .panel import PanelDataset, pivot_unit_time, subset_units, unit_rows

CONTROL_RULES = ("never_treated", "not_yet_treated")

DEMEAN_TOL = 1e-10
DEMEAN_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class OmittedCell:
    g: int
    t: Optional[int]
    reason: str


@dataclass(frozen=True)
class GroupTimeEffects:
    """Estimated tau(g, t) per cohort-period cell, plus omission records.

    ``keys`` lists the (g, t) cells in sorted order; ``tau``, ``n_treated``
    and ``n_control`` are the matching read-only 1-D arrays, row 0 of the
    :func:`group_time_cells` table. Pre-treatment cells (t < g) are placebo
    contrasts kept for pre-trend testing; post cells have t >= g.
    ``base_period_rule`` documents the comparison period convention.
    """

    keys: tuple[tuple[int, int], ...]
    tau: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray
    control_rule: str
    anticipation: int = 0
    omitted: tuple[OmittedCell, ...] = ()

    @property
    def base_period_rule(self) -> str:
        return f"g-1-{self.anticipation}"

    def to_rows(self) -> list[tuple]:
        return [(g, t, t - g, tau, int(n_tr), int(n_c)) for (g, t), tau, n_tr, n_c
                in zip(self.keys, self.tau.tolist(), self.n_treated, self.n_control)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["g", "t", "event_time", "tau", "n_treated", "n_control"])
            for g, t, e, tau, n_tr, n_c in self.to_rows():
                writer.writerow([g, t, e, repr(tau), n_tr, n_c])

    def to_json_dict(self) -> dict:
        return {
            "control_rule": self.control_rule,
            "anticipation": self.anticipation,
            "base_period_rule": self.base_period_rule,
            "cells": [{"g": g, "t": t, "event_time": e, "tau": tau,
                       "n_treated": n_tr, "n_control": n_c}
                      for g, t, e, tau, n_tr, n_c in self.to_rows()],
            "omitted": [{"g": o.g, "t": o.t, "reason": o.reason}
                        for o in self.omitted],
        }


def group_time_cells(cohort_times: np.ndarray, ymat: np.ndarray,
                     present: np.ndarray, periods, control_rule: str,
                     anticipation: int, weights: Optional[np.ndarray] = None):
    """Contrast tau(g, t) of every cell under one or more unit weightings.

    ``cohort_times`` is per-unit adoption time (np.inf when never treated),
    ``ymat``/``present`` are (units x periods) residualized outcomes and the
    observation mask. ``weights`` is an (R, units) matrix of non-negative
    unit multiplicities, one weighting per row; the default is one row of
    ones. A unit of weight k counts as k copies of itself, so row r of a
    cluster bootstrap is ``np.bincount`` of replicate r's drawn unit codes,
    and all rows come from one matrix product.

    Returns ``(keys, tau, n_treated, n_control, omitted)``. ``keys`` lists
    the (g, t) cells with a treated and a control unit observed at t and at
    the base period; ``omitted`` records every other cell with its reason.
    ``tau`` and the weighted counts are (R, len(keys)) arrays; a cell whose
    weighted treated or control count is 0 in a row is absent from that row,
    and its tau there is NaN.
    """
    if control_rule not in CONTROL_RULES:
        raise ValueError(f"control_rule must be one of {CONTROL_RULES}")
    if anticipation < 0:
        raise ValueError("anticipation must be >= 0")
    n_units = len(cohort_times)
    if weights is None:
        weights = np.ones((1, n_units))
    period_code = {t: i for i, t in enumerate(periods)}
    never = np.isinf(cohort_times)
    keys: list[tuple[int, int]] = []
    omitted: list[OmittedCell] = []
    columns: list[np.ndarray] = []  # per cell: treated, treated diffs, controls, control diffs
    for g in sorted({int(v) for v in cohort_times[~never]}):
        b = g - 1 - anticipation
        bi = period_code.get(b)
        if bi is None:
            omitted.append(OmittedCell(g, None, f"base period {b} not in panel"))
            continue
        in_cohort = cohort_times == g
        for t in periods:
            if t == b:
                continue
            ti = period_code[t]
            both = present[:, ti] & present[:, bi]
            treated = in_cohort & both
            if not treated.any():
                omitted.append(OmittedCell(g, t, "no treated unit observed at t and base"))
                continue
            if control_rule == "never_treated":
                pool = never
            else:
                pool = cohort_times > max(t, g) + anticipation
            controls = pool & both
            if not controls.any():
                omitted.append(OmittedCell(g, t, "no control pool"))
                continue
            diff = ymat[:, ti] - ymat[:, bi]
            keys.append((g, t))
            columns += [treated, np.where(treated, diff, 0.0),
                        controls, np.where(controls, diff, 0.0)]
    sums = weights @ (np.column_stack(columns) if columns else np.zeros((n_units, 0)))
    n_treated, y_treated, n_control, y_control = (sums[:, k::4] for k in range(4))
    with np.errstate(invalid="ignore"):  # 0/0: the cell is absent from that row
        tau = y_treated / n_treated - y_control / n_control
    return keys, tau, n_treated, n_control, tuple(omitted)


def estimate_group_time(resid: ResidualPanel, control_rule: str = "never_treated",
                        anticipation: int = 0) -> GroupTimeEffects:
    """Contrast-form ATT(g, t) on residualized outcomes (the default estimator)."""
    panel = resid.panel
    ymat, present = pivot_unit_time(panel, resid.y_tilde)
    keys, tau, n_treated, n_control, omitted = group_time_cells(
        panel.cohort_times, ymat, present, panel.periods, control_rule, anticipation)
    if not keys:
        raise EmptyResultError("no (g, t) cell was estimable")
    columns = (tau[0], n_treated[0], n_control[0])
    for column in columns:
        column.setflags(write=False)
    return GroupTimeEffects(tuple(keys), *columns, control_rule=control_rule,
                            anticipation=anticipation, omitted=omitted)


# -- alternating-projection demeaning -------------------------------------------


def demean_two_way(values: np.ndarray, codes_a: np.ndarray, n_a: int,
                   codes_b: np.ndarray, n_b: int, tol: float = DEMEAN_TOL,
                   max_sweeps: int = DEMEAN_MAX_SWEEPS):
    """Remove group means along two factors by alternating projections.

    Columns of ``values`` are processed simultaneously. Iterates until the
    largest group-mean adjustment in a sweep falls below ``tol``; raises
    :class:`NonConvergenceError` after ``max_sweeps``.

    Returns ``(demeaned, sweeps_used, final_adjustment)``.
    """
    M = np.array(values, dtype=np.float64)
    squeeze = M.ndim == 1
    if squeeze:
        M = M[:, None]
    counts_a = np.bincount(codes_a, minlength=n_a).astype(np.float64)
    counts_b = np.bincount(codes_b, minlength=n_b).astype(np.float64)
    counts_a[counts_a == 0] = 1.0
    counts_b[counts_b == 0] = 1.0
    last = math.inf
    for sweep in range(1, max_sweeps + 1):
        last = 0.0
        for codes, counts, size in ((codes_a, counts_a, n_a), (codes_b, counts_b, n_b)):
            sums = np.zeros((size, M.shape[1]))
            np.add.at(sums, codes, M)
            means = sums / counts[:, None]
            M -= means[codes]
            adj = float(np.abs(means).max()) if means.size else 0.0
            if adj > last:
                last = adj
        if last < tol:
            return (M[:, 0] if squeeze else M), sweep, last
    raise NonConvergenceError(
        f"two-way demeaning still adjusting by {last:.3e} after {max_sweeps} sweeps")


@dataclass(frozen=True)
class TwfeResult:
    tau: float
    se: float


def twfe_baseline(panel: PanelDataset) -> TwfeResult:
    """Static two-way fixed-effects OLS of raw Y on raw D (diagnostic only).

    Standard error is cluster-robust at the unit level with the usual
    small-sample correction. Under staggered adoption with heterogeneous
    dynamic effects this estimator is biased; it exists as the comparator
    the validation suite contrasts against the residualized pipeline.
    """
    stacked = np.column_stack([panel.outcomes, panel.treatments])
    demeaned, _, _ = demean_two_way(
        stacked, panel.unit_codes, panel.n_units, panel.time_codes, panel.n_periods)
    yd = demeaned[:, 0]
    dd = demeaned[:, 1]
    ssd = float(dd @ dd)
    n = panel.n_obs
    if ssd <= 1e-12 * max(1, n):
        raise DegenerateDesignError(
            "treatment variation is fully absorbed by the unit and time fixed effects")
    tau = float(dd @ yd) / ssd
    e = yd - tau * dd
    scores = np.bincount(panel.unit_codes, weights=dd * e, minlength=panel.n_units)
    meat = float(scores @ scores)
    n_clusters = panel.n_units
    k = panel.n_units + panel.n_periods  # absorbed effects + slope
    if n_clusters > 1 and n > k:
        correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k))
    else:
        correction = 1.0
    se = math.sqrt(correction * meat) / ssd
    return TwfeResult(tau=tau, se=se)


def residual_slope(resid: ResidualPanel) -> float:
    """OLS slope of y_tilde on d_tilde (with intercept).

    This is the degenerate no-fixed-effects second stage used by the
    orthogonality diagnostics: on a single-period cross-section with
    full-sample OLS nuisances it must reproduce the joint-OLS coefficient
    on D (Frisch-Waugh-Lovell).
    """
    d = resid.d_tilde
    y = resid.y_tilde
    dc = d - d.mean()
    var = float(dc @ dc)
    if var <= 0.0:
        raise DegenerateDesignError("treatment residual has no variation")
    return float(dc @ y) / var


@dataclass(frozen=True)
class SubgroupEffects:
    effects: dict
    failures: dict


def subgroup_effects(resid: ResidualPanel, subgroup_of_unit: Mapping[str, object],
                     control_rule: str = "never_treated",
                     anticipation: int = 0) -> SubgroupEffects:
    """Run the contrast estimator independently within each subgroup.

    Every unit must carry a label. Subgroups whose partition leaves no
    control pool or no estimable cell are recorded under ``failures``
    rather than aborting the whole call.
    """
    panel = resid.panel
    unlabeled = [u for u in panel.units if u not in subgroup_of_unit]
    if unlabeled:
        raise ValueError(f"{len(unlabeled)} unit(s) lack a subgroup label, "
                         f"e.g. {unlabeled[0]!r}")
    label_of_unit = [subgroup_of_unit[u] for u in panel.units]
    effects: dict = {}
    failures: dict = {}
    for label in sorted(set(label_of_unit), key=str):
        members = [k for k, v in enumerate(label_of_unit) if v == label]
        rows = unit_rows(panel, members)
        try:
            sub_panel = subset_units(panel, members)
        except EmptyControlPoolError as exc:
            failures[label] = f"empty result: {exc}"
            continue
        sub_resid = ResidualPanel(panel=sub_panel, y_tilde=resid.y_tilde[rows])
        try:
            effects[label] = estimate_group_time(sub_resid, control_rule, anticipation)
        except EmptyResultError as exc:
            failures[label] = f"empty result: {exc}"
    return SubgroupEffects(effects=effects, failures=failures)
