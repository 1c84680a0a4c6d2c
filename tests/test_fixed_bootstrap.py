"""The fixed-nuisance contrast bootstrap as multiplicity weights.

A replicate is a multiplicity-weight vector over the original units, and
all replicates' cells come from one ``group_time_cells`` call. These tests
pin that a weight k counts as k copies of a unit, that the weighted
bootstrap reproduces a plain per-replicate resampling loop, and that it
makes one cell call and rebuilds no panel.
"""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sdidml.aggregate import bootstrap
from sdidml.didcore import CONTROL_RULES, group_time_cells
from sdidml.panel import PanelDataset, build_panel, pivot_unit_time
from sdidml.pipeline import PipelineConfig, estimate_effects
from sdidml.simulate import generate, scenario

# The package attribute ``sdidml.aggregate`` is the aggregate() function.
aggregate = importlib.import_module("sdidml.aggregate")
panel_module = importlib.import_module("sdidml.panel")


# -- weight k equals k copies ---------------------------------------------------------


@st.composite
def cell_inputs(draw):
    """Unbalanced (units x periods) arrays plus one multiplicity per unit."""
    n_units = draw(st.integers(1, 8))
    periods = tuple(range(1, draw(st.integers(2, 5)) + 1))
    adoption = st.sampled_from([math.inf, *periods])
    cohort_times = np.array(draw(st.lists(adoption, min_size=n_units, max_size=n_units)))
    present = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=len(periods), max_size=len(periods)),
        min_size=n_units, max_size=n_units)))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    ymat = np.array(draw(st.lists(
        st.lists(values, min_size=len(periods), max_size=len(periods)),
        min_size=n_units, max_size=n_units)))
    ymat[~present] = np.nan
    multiplicity = np.array(draw(st.lists(st.integers(0, 3), min_size=n_units,
                                          max_size=n_units)))
    return cohort_times, ymat, present, periods, multiplicity


def present_cells(keys, tau, n_treated, n_control, row):
    return {key: (tau[row, j], n_treated[row, j], n_control[row, j])
            for j, key in enumerate(keys) if not np.isnan(tau[row, j])}


@settings(max_examples=200, deadline=None)
@given(inputs=cell_inputs(), control_rule=st.sampled_from(CONTROL_RULES),
       anticipation=st.sampled_from([0, 1]))
def test_weight_k_equals_k_copies(inputs, control_rule, anticipation):
    cohort_times, ymat, present, periods, multiplicity = inputs
    weights = np.vstack([multiplicity, np.ones_like(multiplicity)])
    keys, tau, n_tr, n_c, _ = group_time_cells(cohort_times, ymat, present, periods,
                                               control_rule, anticipation, weights)
    copies = np.repeat(np.arange(len(multiplicity)), multiplicity)
    rows = [(cohort_times[copies], ymat[copies], present[copies]),
            (cohort_times, ymat, present)]
    for row, (cohorts, y, mask) in enumerate(rows):
        expected = present_cells(*group_time_cells(cohorts, y, mask, periods,
                                                   control_rule, anticipation)[:4], 0)
        got = present_cells(keys, tau, n_tr, n_c, row)
        assert got.keys() == expected.keys()
        for key, (t_exp, n_tr_exp, n_c_exp) in expected.items():
            t_got, n_tr_got, n_c_got = got[key]
            assert (n_tr_got, n_c_got) == (n_tr_exp, n_c_exp)
            assert abs(t_got - t_exp) <= 1e-12


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
    assert point.n_reps == values.size


def small_null_panel(n_units=60, seed=11):
    return generate(replace(scenario("S4"), n_units=n_units, seed=seed)).panel


def two_control_panel():
    """Eight units, two never treated: about 10% of resamples draw no control."""
    rng = np.random.default_rng(17)
    recs = []
    for i in range(8):
        g = None if i < 2 else (3 if i < 5 else 4)
        for t in (1, 2, 3, 4, 5):
            recs.append({"unit": f"u{i}", "time": t,
                         "outcome": float(rng.standard_normal() + (g is not None and t >= g)),
                         "treatment": int(g is not None and t >= g),
                         "x0": float(rng.standard_normal())})
    return build_panel(recs)


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
    y_tilde = estimate_effects(panel, config).resid.y_tilde
    B, seed = 60, 9
    inference = bootstrap(config, panel, B, seed, mode="fixed_nuisance", y_tilde=y_tilde)
    overall, event, group, n_failed = loop_bootstrap(config, panel, y_tilde, B, seed)
    assert inference.n_failed == n_failed
    assert (0 < n_failed <= 0.2 * B) == expect_failures
    assert_matches(inference.overall, overall, config.ci_level)
    assert inference.event.keys() == event.keys()
    assert inference.group.keys() == group.keys()
    for e, values in event.items():
        assert_matches(inference.event[e], values, config.ci_level)
    for g, values in group.items():
        assert_matches(inference.group[g], values, config.ci_level)


# -- regression guard ---------------------------------------------------------------------


def test_one_cell_call_and_no_panel_rebuild(monkeypatch):
    panel = small_null_panel()
    config = PipelineConfig(bootstrap_reps=29, bootstrap_mode="fixed_nuisance", seed=5)
    y_tilde = estimate_effects(panel, config).resid.y_tilde
    calls = {"group_time_cells": 0, "subset_units": 0, "PanelDataset": 0}

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
    bootstrap(config, panel, B=29, seed=4, mode="fixed_nuisance", y_tilde=y_tilde)
    assert calls == {"group_time_cells": 1, "subset_units": 0, "PanelDataset": 0}
