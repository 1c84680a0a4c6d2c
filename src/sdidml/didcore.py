"""Structural group-time effect estimation on the outcome residuals.

The contrast estimator computes, for every cohort g and period t, the 2x2
double difference of the outcome residuals y_tilde = Y - g_hat (one array
in observation order) against base period b = g - 1 - anticipation, using
never-treated units as the comparison pool, or not-yet-treated units:
those adopting after max(t, g) + anticipation, so that no control is
already anticipating its own treatment (Callaway and Sant'Anna 2021).
Cohorts come from ``panel.cohort_times``; no treatment residual is read.
A raw two-way fixed-effects regression, with its effects absorbed in
closed form (Frisch-Waugh-Lovell), is included purely as the diagnostic
comparator whose staggered-adoption bias the pipeline is designed to avoid.

:func:`group_time_cells` is the one cell routine. It reads the control
rule and the anticipation window from the run's
:class:`~sdidml.config.PipelineConfig` and takes an (R, units) matrix of
unit multiplicities: the point estimate is one row of ones, and each
bootstrap replicate, in either mode, is the row of how many times each
original unit was drawn, and each subgroup label is the 0/1 row of the
units it labels (:func:`sdidml.aggregate.subgroup_effects`). The residuals
are one vector in observation order shared by every row, or an (R, n_obs)
stack whose vector r goes with row r, as in a full-mode bootstrap, where
each replicate refits g. :class:`GroupTimeEffects` holds the point
estimate's row of the table it returns: estimates only, no copy of the
settings that produced them and no output format, which :mod:`sdidml.cli`
alone writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .errors import DegenerateDesignError, EmptyResultError
from .panel import PanelDataset, control_pool, pivot_unit_time


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
    """

    keys: tuple[tuple[int, int], ...]
    tau: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray
    omitted: tuple[OmittedCell, ...] = ()


def group_time_cells(panel: PanelDataset, y: np.ndarray, config: PipelineConfig,
                     weights: Optional[np.ndarray] = None):
    """Contrast tau(g, t) of every cell of ``panel`` under one or more unit
    weightings, with the control pool of ``config.control_rule`` and the
    base period g - 1 - ``config.anticipation``.

    ``weights`` is an (R, units) matrix of non-negative unit multiplicities,
    one weighting per row; the default is one row of ones. A unit of weight
    k counts as k copies of itself, so row r of a cluster bootstrap is
    ``np.bincount`` of replicate r's drawn unit codes. ``y`` holds the
    outcome residuals in observation order: one (n_obs,) vector that every
    row weights, whose rows all come from one matrix product, or an
    (R, n_obs) stack whose vector r only row r weights, in one batched
    product per cell; row r then equals a call with vector r and weight row
    r alone.

    Returns ``(keys, tau, n_treated, n_control, omitted)``. ``keys`` lists
    the (g, t) cells with a treated and a control unit observed at t and at
    the base period; ``omitted`` records every other cell with its reason.
    ``tau`` and the weighted counts are (R, len(keys)) arrays; a cell whose
    weighted treated or control count is 0 in a row is absent from that row,
    and its tau there is NaN.
    """
    control_rule, anticipation = config.control_rule, config.anticipation
    ymat, present = pivot_unit_time(panel, y)
    cohort_times, periods, n_units = panel.cohort_times, panel.periods, panel.n_units
    if weights is None:
        weights = np.ones((1, n_units))
    period_code = {t: i for i, t in enumerate(periods)}
    never = np.isinf(cohort_times)
    keys: list[tuple[int, int]] = []
    omitted: list[OmittedCell] = []
    # per cell: treated, treated diffs, controls, control diffs (their sums for a stack)
    columns: list[np.ndarray] = []
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
            controls = control_pool(cohort_times, g, t, control_rule, anticipation) & both
            if not controls.any():
                omitted.append(OmittedCell(g, t, "no control pool"))
                continue
            diff = ymat[..., ti] - ymat[..., bi]
            keys.append((g, t))
            cell = [treated, np.where(treated, diff, 0.0),
                    controls, np.where(controls, diff, 0.0)]
            if ymat.ndim == 2:
                columns += cell
            else:  # one cell's (R, units, 4) block at a time bounds the memory
                block = np.stack(np.broadcast_arrays(*cell), axis=-1)
                columns.append(np.matmul(weights[:, None, :], block)[:, 0])
    if ymat.ndim == 2:
        sums = weights @ (np.column_stack(columns) if columns else np.zeros((n_units, 0)))
    else:
        sums = np.hstack(columns) if columns else np.zeros((len(weights), 0))
    n_treated, y_treated, n_control, y_control = (sums[:, k::4] for k in range(4))
    with np.errstate(invalid="ignore"):  # 0/0: the cell is absent from that row
        tau = y_treated / n_treated - y_control / n_control
    return keys, tau, n_treated, n_control, tuple(omitted)


def estimate_group_time(panel: PanelDataset, y_tilde: np.ndarray,
                        config: PipelineConfig) -> GroupTimeEffects:
    """Contrast-form ATT(g, t) on ``y_tilde``, the outcome residuals of
    ``panel``'s observations (the default estimator)."""
    keys, tau, n_treated, n_control, omitted = group_time_cells(panel, y_tilde, config)
    if not keys:
        raise EmptyResultError("no (g, t) cell was estimable")
    columns = (tau[0], n_treated[0], n_control[0])
    for column in columns:
        column.setflags(write=False)
    return GroupTimeEffects(tuple(keys), *columns, omitted=omitted)


@dataclass(frozen=True)
class TwfeResult:
    tau: float
    se: float


def twfe_baseline(panel: PanelDataset) -> TwfeResult:
    """Static two-way fixed-effects OLS of raw Y on raw D (diagnostic only).

    Standard error is cluster-robust at the unit level with the usual
    small-sample correction. Under staggered adoption with heterogeneous
    dynamic effects this estimator is biased; it exists as the comparator
    the validation suite contrasts against the cross-fitted pipeline.

    Y and D are demeaned within units, then regressed on the within-unit
    demeaned period dummies (the first period omitted); by
    Frisch-Waugh-Lovell the residuals are those on unit and period dummies,
    exactly and also on an unbalanced panel.
    """
    stacked = np.column_stack([panel.outcomes, panel.treatments,
                               np.eye(panel.n_periods)[panel.time_codes, 1:]])
    starts = panel.unit_starts
    unit_means = np.add.reduceat(stacked, starts[:-1]) / np.diff(starts)[:, None]
    within = stacked - unit_means[panel.unit_codes]
    yd_dd, periods = within[:, :2], within[:, 2:]
    yd, dd = (yd_dd - periods @ np.linalg.lstsq(periods, yd_dd, rcond=None)[0]).T
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
