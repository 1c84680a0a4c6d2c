"""The fixed-nuisance contrast bootstrap as multiplicity weights.

A replicate is a multiplicity-weight vector over the original units, and
all replicates' cells come from one ``group_time_cells`` call. These tests
pin that a weight k counts as k copies of a unit, that a stack of residual
vectors gives what one call per vector gives, that the weighted bootstrap
reproduces a plain per-replicate resampling loop, and that it makes one
cell call and, in either mode, builds no panel through the constructor.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from panels import fresh_id_panel, panel_of
from sdidml import aggregate
from sdidml import panel as panel_module
from sdidml.aggregate import OVERALL, aggregate_schemes, bootstrap
from sdidml.config import CONTROL_RULES, PipelineConfig
from sdidml.didcore import group_time_cells
from sdidml.errors import EmptyControlPoolError, MissingFieldError
from sdidml.panel import PanelDataset, pivot_unit_time
from sdidml.pipeline import estimate_effects
from sdidml.simulate import generate, scenario


# -- weight k equals k copies ---------------------------------------------------------


@st.composite
def cell_inputs(draw):
    """An unbalanced panel without covariates, plus one multiplicity per unit."""
    n_units = draw(st.integers(1, 8))
    periods = tuple(range(1, draw(st.integers(2, 5)) + 1))
    adoption = draw(st.lists(st.sampled_from([math.inf, *periods]), min_size=n_units,
                             max_size=n_units))
    rows = [(i, t) for i in range(n_units) for t in periods if draw(st.booleans())]
    assume(rows)
    y = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=len(rows),
                      max_size=len(rows)))
    try:
        panel = PanelDataset([f"u{i}" for i, _ in rows], [t for _, t in rows], y,
                             [float(t >= adoption[i]) for i, t in rows],
                             np.zeros((len(rows), 0)), ())
    except EmptyControlPoolError:
        assume(False)
    multiplicity = np.array(draw(st.lists(st.integers(0, 3), min_size=panel.n_units,
                                          max_size=panel.n_units)))
    return panel, multiplicity


def present_cells(keys, tau, n_treated, n_control, row):
    return {key: (tau[row, j], n_treated[row, j], n_control[row, j])
            for j, key in enumerate(keys) if not np.isnan(tau[row, j])}


@settings(max_examples=200, deadline=None)
@given(inputs=cell_inputs(), control_rule=st.sampled_from(CONTROL_RULES),
       anticipation=st.sampled_from([0, 1]))
def test_weight_k_equals_k_copies(inputs, control_rule, anticipation):
    panel, multiplicity = inputs
    config = PipelineConfig(control_rule=control_rule, anticipation=anticipation)
    weights = np.vstack([multiplicity, np.ones_like(multiplicity)])
    keys, tau, n_tr, n_c, _ = group_time_cells(panel, panel.outcomes, config, weights)
    codes = np.arange(panel.n_units)
    for row, idx in enumerate([np.repeat(codes, multiplicity), codes]):
        try:
            copies = fresh_id_panel(panel, idx)
        except (MissingFieldError, EmptyControlPoolError):  # no copy, or none a control
            expected = {}
        else:
            expected = present_cells(*group_time_cells(copies, copies.outcomes,
                                                       config)[:4], 0)
        got = present_cells(keys, tau, n_tr, n_c, row)
        assert got.keys() == expected.keys()
        for key, (t_exp, n_tr_exp, n_c_exp) in expected.items():
            t_got, n_tr_got, n_c_got = got[key]
            assert (n_tr_got, n_c_got) == (n_tr_exp, n_c_exp)
            assert abs(t_got - t_exp) <= 1e-12


def assert_stack_matches_one_call_per_vector(panel, stack, config, weights):
    """Vector r of the stack with weight row r gives the cells of its own call:
    the same keys and omissions, NaN where it has NaN, ``==`` elsewhere."""
    keys, *arrays, omitted = group_time_cells(panel, stack, config, weights)
    for r in range(len(stack)):
        want_keys, *want, want_omitted = group_time_cells(panel, stack[r], config,
                                                          weights[r:r + 1])
        assert (keys, omitted) == (want_keys, want_omitted)
        for got_array, want_array in zip(arrays, want):
            assert_array_equal(got_array[r], want_array[0])


@settings(max_examples=200, deadline=None)
@given(inputs=cell_inputs(), data=st.data(), control_rule=st.sampled_from(CONTROL_RULES),
       anticipation=st.sampled_from([0, 1]))
def test_a_residual_stack_equals_one_call_per_matrix(inputs, data, control_rule,
                                                     anticipation):
    panel, multiplicity = inputs
    R = data.draw(st.integers(1, 4))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    stack = np.array(data.draw(st.lists(values, min_size=R * panel.n_obs,
                                        max_size=R * panel.n_obs))).reshape(R, panel.n_obs)
    stack[0] = panel.outcomes
    if data.draw(st.booleans()):  # a replicate whose refit failed
        stack[data.draw(st.integers(0, R - 1))] = np.nan
    weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=R * panel.n_units,
                                          max_size=R * panel.n_units)), dtype=np.float64)
    weights = weights.reshape(R, panel.n_units)
    weights[0] = multiplicity
    config = PipelineConfig(control_rule=control_rule, anticipation=anticipation)
    assert_stack_matches_one_call_per_vector(panel, stack, config, weights)


@pytest.mark.parametrize("control_rule", CONTROL_RULES)
def test_a_large_residual_stack_equals_one_call_per_matrix(control_rule):
    # Sizes where matrix products run through their blocked, vectorized kernels.
    rng = np.random.default_rng(5)
    n_units, n_periods, R = 301, 12, 9
    cohort_times = rng.choice([np.inf, 4.0, 6.0, 9.0], size=n_units)
    unit, time = np.nonzero(rng.random((n_units, n_periods)) < 0.95)
    time += 1
    panel = PanelDataset([f"u{i:03d}" for i in unit], time, np.zeros(unit.size),
                         time >= cohort_times[unit], np.zeros((unit.size, 0)), ())
    stack = rng.standard_normal((R, panel.n_obs))
    weights = rng.poisson(1.0, size=(R, panel.n_units)).astype(np.float64)
    config = PipelineConfig(control_rule=control_rule, anticipation=1)
    assert_stack_matches_one_call_per_vector(panel, stack, config, weights)


# -- the per-replicate loop as the reference ------------------------------------------


def masked_mean_cells(cohort_times, ymat, present, periods, control_rule, anticipation):
    """(g, t) -> (tau, n_treated): one masked mean per cell, on resampled rows."""
    code = {t: i for i, t in enumerate(periods)}
    never = np.isinf(cohort_times)
    cells = {}
    for g in sorted({int(v) for v in cohort_times[~never]}):
        bi = code.get(g - 1 - anticipation)
        if bi is None:
            continue
        for t in periods:
            ti = code[t]
            if ti == bi:
                continue
            both = present[:, ti] & present[:, bi]
            treated = (cohort_times == g) & both
            pool = (never if control_rule == "never_treated"
                    else cohort_times > max(t, g) + anticipation)
            controls = pool & both
            if treated.any() and controls.any():
                tau = ((ymat[treated, ti] - ymat[treated, bi]).mean()
                       - (ymat[controls, ti] - ymat[controls, bi]).mean())
                cells[(g, t)] = (float(tau), int(treated.sum()))
    return cells


def dict_att(cells):
    total = sum(n for _, n in cells.values())
    return math.fsum(n / total * tau for tau, n in cells.values())


def loop_bootstrap(config, panel, y_tilde, B, seed):
    """Resample units by index, compute each replicate's cells, aggregate with dicts."""
    ymat, present = pivot_unit_time(panel, y_tilde)
    overall, event, group, n_failed = [], {}, {}, 0
    for r in range(B):
        idx = np.random.default_rng(seed + r).integers(0, panel.n_units, size=panel.n_units)
        cells = masked_mean_cells(panel.cohort_times[idx], ymat[idx], present[idx],
                                  panel.periods, config.control_rule, config.anticipation)
        post = {k: c for k, c in cells.items() if k[1] >= k[0]}
        if not post:
            n_failed += 1
            continue
        overall.append(dict_att(post))
        by_e, by_g = {}, {}
        for (g, t), cell in cells.items():
            by_e.setdefault(t - g, {})[(g, t)] = cell
        for (g, t), cell in post.items():
            by_g.setdefault(g, {})[(g, t)] = cell
        for e, group_cells in by_e.items():
            event.setdefault(e, []).append(dict_att(group_cells))
        for g, group_cells in by_g.items():
            group.setdefault(g, []).append(dict_att(group_cells))
    return overall, event, group, n_failed


def assert_matches(point, values, ci_level):
    values = np.asarray(values)
    alpha = 1.0 - ci_level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    assert_allclose(point.se, values.std(ddof=1), rtol=1e-12, atol=0.0)
    assert abs(point.ci_low - lo) <= 1e-12
    assert abs(point.ci_high - hi) <= 1e-12


def small_null_panel(n_units=60, seed=11):
    return generate(replace(scenario("S4"), n_units=n_units, seed=seed)).panel


def two_control_panel():
    """Eight units, two never treated: about 10% of resamples draw no control."""
    rng = np.random.default_rng(17)
    rows = []
    for i in range(8):
        g = None if i < 2 else (3 if i < 5 else 4)
        for t in (1, 2, 3, 4, 5):
            d = int(g is not None and t >= g)
            rows.append((f"u{i}", t, rng.standard_normal() + d, d, rng.standard_normal()))
    return panel_of(rows)


@pytest.mark.parametrize("make_panel,control_rule,anticipation,expect_failures", [
    (small_null_panel, "never_treated", 0, False),
    (small_null_panel, "not_yet_treated", 1, False),
    (two_control_panel, "never_treated", 0, True),
], ids=["null_never_treated", "null_not_yet_treated_anticipation", "some_failures"])
def test_matches_per_replicate_loop(make_panel, control_rule, anticipation,
                                    expect_failures):
    panel = make_panel()
    config = PipelineConfig(n_folds=2, control_rule=control_rule,
                            anticipation=anticipation, bootstrap_reps=60,
                            bootstrap_mode="fixed_nuisance", seed=3)
    artifacts = estimate_effects(panel, config)
    y_tilde, point = artifacts.fits.y_tilde, aggregate_schemes(artifacts.effects)
    B, seed = 60, 9
    inference = bootstrap(replace(config, bootstrap_reps=B, seed=seed), panel,
                          "fixed_nuisance", y_tilde, point)
    overall, event, group, n_failed = loop_bootstrap(config, panel, y_tilde, B, seed)
    assert inference.n_failed == n_failed
    assert (0 < n_failed <= 0.2 * B) == expect_failures
    # A summary with fewer than two replicate values has no SE and no CI.
    expected = {OVERALL: overall, **{("e", e): v for e, v in event.items()},
                **{("g", g): v for g, v in group.items()}}
    expected = {k: v for k, v in expected.items() if len(v) >= 2}
    assert {k for k, p in inference.summaries.items() if p.se is not None} == expected.keys()
    for key, values in expected.items():
        assert_matches(inference.summaries[key], values, config.ci_level)


# -- regression guard ---------------------------------------------------------------------


def test_one_cell_call_and_no_panel_rebuild(monkeypatch):
    # Either mode makes one cell call for all B replicates. A full-mode
    # replicate refits on a subset sliced from the panel's validated
    # columns, not rebuilt through the constructor.
    panel = small_null_panel()
    config = PipelineConfig(bootstrap_reps=29, seed=5)
    artifacts = estimate_effects(panel, config)
    y_tilde, point = artifacts.fits.y_tilde, aggregate_schemes(artifacts.effects)
    calls = {}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(aggregate, "group_time_cells",
                        counting("group_time_cells", aggregate.group_time_cells))
    for module in (aggregate, panel_module):
        monkeypatch.setattr(module, "subset_units",
                            counting("subset_units", module.subset_units))
    monkeypatch.setattr(PanelDataset, "__init__",
                        counting("PanelDataset", PanelDataset.__init__))
    for mode, subsets in (("fixed_nuisance", 0), ("full", 29)):
        calls.update(group_time_cells=0, subset_units=0, PanelDataset=0)
        bootstrap(replace(config, bootstrap_reps=29, seed=4), panel, mode, y_tilde, point)
        assert calls == {"group_time_cells": 1, "subset_units": subsets, "PanelDataset": 0}
