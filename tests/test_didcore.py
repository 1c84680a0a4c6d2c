import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from panels import panel_of
from sdidml.aggregate import aggregate_schemes, subgroup_effects
from sdidml.config import CONTROL_RULES, PipelineConfig
from sdidml.crossfit import nuisance_features
from sdidml.didcore import estimate_group_time, twfe_baseline
from sdidml.errors import (
    DataError,
    DegenerateDesignError,
    EmptyControlPoolError,
    EmptyResultError,
)
from sdidml.learners import LearnerSpec, fit, predict
from sdidml.panel import PanelDataset, subset_units, unit_rows
from sdidml.pipeline import estimate_effects

DEFAULTS = PipelineConfig()
NOT_YET_TREATED = PipelineConfig(control_rule="not_yet_treated")
from sdidml.simulate import EffectSpec, generate, scenario


def panel_from_layout(cohorts, periods, y_fn, p=1, x_fn=None):
    """cohorts: dict unit -> adoption period or None. y only matters when the
    test reads panel.outcomes; residual tests overwrite y_tilde anyway."""
    return panel_of([(unit, t, float(y_fn(unit, t)), int(g is not None and t >= g),
                      *(float(x_fn(unit, t, j)) if x_fn else 0.5 for j in range(p)))
                     for unit, g in cohorts.items() for t in periods])


def cell_table(effects):
    """{(g, t): (tau, n_treated, n_control)} of an effects table."""
    return {key: (tau, n_tr, n_c) for key, tau, n_tr, n_c
            in zip(effects.keys, effects.tau, effects.n_treated, effects.n_control)}


class TestGroupTimeContrast:
    def test_constructed_additive_effect(self):
        cohorts = {"t1": 3, "t2": 3, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        base_pattern = {1: 0.3, 2: -0.2, 3: 0.5, 4: 1.1}  # common to all units
        y = np.array([base_pattern[t] for t in panel.periods])[panel.time_codes]
        y += panel.treatments
        effects = estimate_group_time(panel, y, DEFAULTS)
        for (g, t), (tau, _, _) in cell_table(effects).items():
            expected = 1.0 if t >= g else 0.0
            assert_allclose(tau, expected, atol=1e-12)

    def test_two_by_two_hand_computed(self):
        # treated deltas: (1.7-0.3)=1.4 and (2.1-(-0.1))=2.2 -> mean 1.8
        # control deltas: (0.5-0.2)=0.3 and (0.1-0.0)=0.1 -> mean 0.2
        # ATT = 1.8 - 0.2 = 1.6
        cohorts = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        values = {("t1", 1): 0.3, ("t1", 2): 1.7, ("t2", 1): -0.1, ("t2", 2): 2.1,
                  ("c1", 1): 0.2, ("c1", 2): 0.5, ("c2", 1): 0.0, ("c2", 2): 0.1}
        y = np.array([values[(panel.units[u], panel.periods[t])]
                      for u, t in zip(panel.unit_codes, panel.time_codes)])
        cells = cell_table(estimate_group_time(panel, y, DEFAULTS))
        assert set(cells) == {(2, 2)}
        tau, n_treated, n_control = cells[(2, 2)]
        assert_allclose(tau, 1.6, rtol=1e-12)
        assert (n_treated, n_control) == (2, 2)

    def test_not_yet_treated_omission(self):
        # cohorts 2 and 3, nobody never-treated: cell (2,3) has no controls
        cohorts = {"a": 2, "b": 2, "c": 3, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: u == "a")
        effects = estimate_group_time(panel, panel.outcomes, NOT_YET_TREATED)
        cells = cell_table(effects)
        assert (2, 2) in cells
        assert cells[(2, 2)][2] == 2  # n_control: cohort-3 units not yet treated
        assert (2, 3) not in cells
        assert any(o.g == 2 and o.t == 3 and "control" in o.reason
                   for o in effects.omitted)

    def test_not_yet_treated_pool_excludes_anticipating_cohort(self):
        # with anticipation=1, cohort 4 is already anticipating at t=3, so the
        # pool for cell (3, 3) is units adopting after max(t, g) + 1 = 4
        cohorts = {"a": 3, "b": 3, "e": 4, "c": 5, "n": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4, 5),
                                  lambda u, t: float(u == "e" and t >= 3))
        effects = estimate_group_time(panel, panel.outcomes,
                                      replace(NOT_YET_TREATED, anticipation=1))
        tau, n_treated, n_control = cell_table(effects)[(3, 3)]
        assert (n_treated, n_control) == (2, 2)  # c and n, not e
        assert tau == 0.0

    def test_never_treated_rule_counts(self):
        cohorts = {"a": 2, "b": None, "c": None, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: 0.0)
        effects = estimate_group_time(panel, panel.outcomes, DEFAULTS)
        assert cell_table(effects)[(2, 2)][2] == 2  # n_control: only the two never-treated

    def test_anticipation_moves_base_period(self):
        cohorts = {"a": 3, "b": 3, "c": None, "d": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        treated = np.isfinite(panel.cohort_times)[panel.unit_codes]
        y = (np.asarray(panel.periods)[panel.time_codes] >= 2) * treated.astype(float)
        # anticipation=1: base period is g-2=1, so the "effect" visible from t=2 on
        cells = cell_table(estimate_group_time(panel, y, PipelineConfig(anticipation=1)))
        assert_allclose(cells[(3, 3)][0], 1.0, atol=1e-12)
        assert_allclose(cells[(3, 2)][0], 1.0, atol=1e-12)  # anticipation window
        assert (3, 1) not in cells  # base period itself

    def test_missing_base_period_omits_cohort(self):
        cohorts = {"a": 2, "b": None}
        panel = panel_from_layout(cohorts, (2, 3), lambda u, t: 0.0)
        with pytest.raises(EmptyResultError):
            estimate_group_time(panel, panel.outcomes, DEFAULTS)

    def test_location_invariance_at_fixed_residuals(self):
        cohorts = {"a": 2, "b": 2, "c": None, "d": None}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: 0.0)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(panel.n_obs)
        e1 = cell_table(estimate_group_time(panel, y, DEFAULTS))
        e2 = cell_table(estimate_group_time(panel, y + 123.456, DEFAULTS))
        for key in e1:
            assert abs(e1[key][0] - e2[key][0]) < 1e-12

    def test_permutation_null_centers_on_zero(self):
        rng = np.random.default_rng(21)
        n_units, periods = 30, (1, 2, 3)
        labels = [2] * 10 + [3] * 5 + [None] * 15
        y = rng.standard_normal(n_units * len(periods))
        atts = []
        for _ in range(200):
            perm = rng.permutation(n_units)
            cohorts = {f"u{i:02d}": labels[perm[i]] for i in range(n_units)}
            panel = panel_from_layout(cohorts, periods, lambda u, t: 0.0)
            effects = estimate_group_time(panel, y, DEFAULTS)
            atts.append(np.mean([c[0] for (g, t), c in cell_table(effects).items()
                                 if t >= g]))
        atts = np.array(atts)
        mc_se = atts.std(ddof=1) / np.sqrt(len(atts))
        assert abs(atts.mean()) < 3 * mc_se + 1e-12


@st.composite
def labelled_panels(draw):
    """Unbalanced panels with a random label per unit; some labels lack controls."""
    n_units = draw(st.integers(3, 12))
    periods = list(range(1, draw(st.integers(2, 5)) + 1))
    adoption = draw(st.lists(st.sampled_from([math.inf, math.inf, *periods]),
                             min_size=n_units, max_size=n_units))
    observed = st.sampled_from([True, True, True, False])
    rows = [(i, t) for i in range(n_units) for t in periods if draw(observed)]
    assume(rows)
    units = [f"u{i}" for i, _ in rows]
    times = [t for _, t in rows]
    treated = [float(t >= adoption[i]) for i, t in rows]
    y = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                      min_size=len(rows), max_size=len(rows)))
    try:
        panel = PanelDataset(units, times, y, treated, np.zeros((len(rows), 0)), ())
    except EmptyControlPoolError:
        assume(False)
    labels = {u: draw(st.sampled_from("ab")) for u in panel.units}
    return panel, labels


def dense_twfe(panel):
    """tau and SE of OLS of Y on D plus explicit unit and period dummies, or
    None when the dummies span D."""
    dummies = np.hstack([np.eye(panel.n_units)[panel.unit_codes],
                         np.eye(panel.n_periods)[panel.time_codes, 1:]])
    design = np.column_stack([panel.treatments, dummies])
    if np.linalg.matrix_rank(design) == np.linalg.matrix_rank(dummies):
        return None
    beta = np.linalg.lstsq(design, panel.outcomes, rcond=None)[0]
    e = panel.outcomes - design @ beta
    dd = panel.treatments - dummies @ np.linalg.lstsq(dummies, panel.treatments,
                                                      rcond=None)[0]
    scores = np.bincount(panel.unit_codes, weights=dd * e, minlength=panel.n_units)
    n, g, k = panel.n_obs, panel.n_units, panel.n_units + panel.n_periods
    correction = g / (g - 1) * (n - 1) / (n - k) if g > 1 and n > k else 1.0
    return beta[0], math.sqrt(correction * (scores @ scores)) / (dd @ dd)


class TestTwfe:
    def test_recovers_homogeneous_effect(self):
        rng = np.random.default_rng(10)
        rows = []
        for i in range(60):
            a_i = rng.standard_normal()
            g = 3 if i < 30 else None
            for t in (1, 2, 3, 4):
                d = 1 if (g is not None and t >= g) else 0
                y = a_i + 0.5 * t + 2.0 * d + 0.1 * rng.standard_normal()
                rows.append((f"u{i:02d}", t, y, d, 0.0))
        result = twfe_baseline(panel_of(rows))
        assert abs(result.tau - 2.0) < 0.1
        assert result.se > 0

    def test_single_unit_is_degenerate(self):
        panel = panel_of([("a", t, float(t), 0, 0.0) for t in (1, 2, 3)])
        with pytest.raises(DegenerateDesignError):
            twfe_baseline(panel)

    @settings(max_examples=300, deadline=None)
    @given(labelled_panels())
    def test_matches_dense_dummy_regression_on_unbalanced_panels(self, case):
        panel, _ = case
        expected = dense_twfe(panel)
        if expected is None:
            with pytest.raises(DegenerateDesignError):
                twfe_baseline(panel)
            return
        result = twfe_baseline(panel)
        assert abs(result.tau - expected[0]) <= 1e-10
        assert abs(result.se - expected[1]) <= 1e-10 * max(1.0, expected[1])


class TestResidualSlopeFwl:
    def test_matches_joint_ols_on_cross_section(self):
        rng = np.random.default_rng(99)
        n, p = 300, 10
        X = rng.standard_normal((n, p))
        d = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + X @ np.linspace(0.5, 1.5, p) + 0.8 * d + rng.standard_normal(n)
        panel = panel_of([(f"u{i:04d}", 1, y[i], d[i], *X[i]) for i in range(n)])
        # Y's and D's residuals on the same features, by the same OLS fit
        features = nuisance_features(panel)
        y_tilde = panel.outcomes - predict(fit(LearnerSpec.ridge(0.0), features,
                                               panel.outcomes), features)
        ols = fit(LearnerSpec.ridge(0.0), features, panel.treatments)
        d_tilde = panel.treatments - predict(ols, features)
        dc = d_tilde - d_tilde.mean()
        slope = (dc @ y_tilde) / (dc @ dc)
        joint = np.column_stack([np.ones(n), d, X])
        beta = np.linalg.lstsq(joint, y, rcond=None)[0]
        assert abs(slope - beta[1]) / abs(beta[1]) < 1e-8


def summary_atts(results):
    """Overall, event-time and per-cohort ATTs and the weights of a summary."""
    return {"summaries": {k: p.att for k, p in results.summaries.items()},
            "weights": dict(results.weights_used)}


def assert_summaries_close(got, expected, atol):
    got, expected = summary_atts(got), summary_atts(expected)
    for part in expected:
        assert got[part].keys() == expected[part].keys(), part
        for k in expected[part]:
            assert abs(got[part][k] - expected[part][k]) <= atol, (part, k)


def per_label_reference(panel, y_tilde, labels, config):
    """{label: summaries, or None when unestimable}, one sub-panel per label."""
    out = {}
    for label in sorted({labels[u] for u in panel.units}):
        members = [k for k, u in enumerate(panel.units) if labels[u] == label]
        try:
            sub_panel = subset_units(panel, members)
            effects = estimate_group_time(sub_panel, y_tilde[unit_rows(panel, members)],
                                          config)
            out[label] = aggregate_schemes(effects)
        except (EmptyControlPoolError, EmptyResultError):
            out[label] = None
    return out


def assert_label_rows_match_reference(panel, y_tilde, labels, config, atol):
    result = subgroup_effects(panel, y_tilde, labels, config)
    reference = per_label_reference(panel, y_tilde, labels, config)
    assert set(result.failures) == {k for k, v in reference.items() if v is None}
    assert result.effects.keys() == {k for k, v in reference.items() if v is not None}
    for label, results in result.effects.items():
        assert_summaries_close(results, reference[label], atol)


class TestSubgroups:
    def test_identical_halves_give_identical_effects(self):
        cohorts_half = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        rng = np.random.default_rng(14)
        vals = {(u, t): rng.standard_normal() for u in cohorts_half for t in (1, 2, 3)}
        panel = panel_of([(f"{label}.{u}", t, vals[(u, t)], int(bool(g) and t >= g), 0.0)
                          for label in ("A", "B") for u, g in cohorts_half.items()
                          for t in (1, 2, 3)])
        labels = {u: u.split(".")[0] for u in panel.units}
        result = subgroup_effects(panel, panel.outcomes, labels, DEFAULTS)
        assert not result.failures
        assert_summaries_close(result.effects["A"], result.effects["B"], atol=1e-12)

    def test_subgroup_without_controls_records_failure(self):
        cohorts = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        labels = {"t1": "treated_only", "t2": "treated_only",
                  "c1": "mixed", "c2": "mixed"}
        result = subgroup_effects(panel, panel.outcomes, labels, DEFAULTS)
        assert "treated_only" in result.failures
        # the mixed subgroup has no treated units at all -> also unestimable
        assert "mixed" in result.failures

    def test_unlabeled_unit_rejected(self):
        cohorts = {"t1": 2, "c1": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        with pytest.raises(DataError, match="1 unit"):
            subgroup_effects(panel, panel.outcomes, {"t1": "x"}, DEFAULTS)

    @settings(max_examples=150, deadline=None)
    @given(inputs=labelled_panels(), control_rule=st.sampled_from(CONTROL_RULES),
           anticipation=st.sampled_from([0, 1]))
    def test_label_rows_match_per_label_sub_panels(self, inputs, control_rule,
                                                   anticipation):
        panel, labels = inputs
        config = PipelineConfig(control_rule=control_rule, anticipation=anticipation)
        assert_label_rows_match_reference(panel, panel.outcomes, labels, config,
                                          atol=1e-12)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_subgroup_scenarios_match_per_label_sub_panels(self, name):
        cfg = replace(scenario(name), effect=EffectSpec.subgroup(0.5, 2.0), seed=21)
        oracle = generate(cfg)
        y_tilde = estimate_effects(oracle.panel,
                                   PipelineConfig(bootstrap_reps=0, seed=3)).fits.y_tilde
        for control_rule in CONTROL_RULES:
            assert_label_rows_match_reference(oracle.panel, y_tilde, oracle.subgroup_of_unit,
                                              PipelineConfig(control_rule=control_rule),
                                              atol=1e-12)
