import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdidml.crossfit import ResidualPanel, assign_folds, crossfit_nuisance, residualize
from sdidml.didcore import (
    demean_two_way,
    estimate_group_time,
    residual_slope,
    subgroup_effects,
    twfe_baseline,
)
from sdidml.errors import (
    DegenerateDesignError,
    EmptyResultError,
    NonConvergenceError,
)
from sdidml.learners import LearnerSpec
from sdidml.panel import build_panel, to_records


def panel_from_layout(cohorts, periods, y_fn, p=1, x_fn=None):
    """cohorts: dict unit -> adoption period or None. y only matters when the
    test reads panel.outcomes; residual tests overwrite y_tilde anyway."""
    recs = []
    for unit, g in cohorts.items():
        for t in periods:
            d = 1 if (g is not None and t >= g) else 0
            rec = {"unit": unit, "time": t, "outcome": float(y_fn(unit, t)),
                   "treatment": d}
            for j in range(p):
                rec[f"x{j}"] = float(x_fn(unit, t, j)) if x_fn else 0.5
            recs.append(rec)
    return build_panel(recs)


def resid_panel(panel, y_tilde):
    return ResidualPanel(panel=panel, y_tilde=np.asarray(y_tilde, dtype=np.float64))


def cell_table(effects):
    """{(g, t): (tau, n_treated, n_control)} of an effects table."""
    return {key: (tau, n_tr, n_c) for key, tau, n_tr, n_c
            in zip(effects.keys, effects.tau, effects.n_treated, effects.n_control)}


class TestGroupTimeContrast:
    def test_constructed_additive_effect(self):
        cohorts = {"t1": 3, "t2": 3, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        base_pattern = {1: 0.3, 2: -0.2, 3: 0.5, 4: 1.1}  # common to all units
        y = np.array([base_pattern[o["time"]] + (1.0 if o["treatment"] else 0.0)
                      for o in to_records(panel)])
        effects = estimate_group_time(resid_panel(panel, y))
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
        y = np.array([values[(o["unit"], o["time"])] for o in to_records(panel)])
        cells = cell_table(estimate_group_time(resid_panel(panel, y)))
        assert set(cells) == {(2, 2)}
        tau, n_treated, n_control = cells[(2, 2)]
        assert_allclose(tau, 1.6, rtol=1e-12)
        assert (n_treated, n_control) == (2, 2)

    def test_not_yet_treated_omission(self):
        # cohorts 2 and 3, nobody never-treated: cell (2,3) has no controls
        cohorts = {"a": 2, "b": 2, "c": 3, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: u == "a")
        effects = estimate_group_time(resid_panel(panel, panel.outcomes),
                                      control_rule="not_yet_treated")
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
        effects = estimate_group_time(resid_panel(panel, panel.outcomes),
                                      control_rule="not_yet_treated",
                                      anticipation=1)
        tau, n_treated, n_control = cell_table(effects)[(3, 3)]
        assert (n_treated, n_control) == (2, 2)  # c and n, not e
        assert tau == 0.0

    def test_never_treated_rule_counts(self):
        cohorts = {"a": 2, "b": None, "c": None, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: 0.0)
        effects = estimate_group_time(resid_panel(panel, panel.outcomes))
        assert cell_table(effects)[(2, 2)][2] == 2  # n_control: only the two never-treated

    def test_anticipation_moves_base_period(self):
        cohorts = {"a": 3, "b": 3, "c": None, "d": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        y = np.array([float(o["time"] >= 2 and o["treatment"] >= 0 and
                            panel.cohort[o["unit"]].ever_treated)
                      for o in to_records(panel)])
        # anticipation=1: base period is g-2=1, so the "effect" visible from t=2 on
        cells = cell_table(estimate_group_time(resid_panel(panel, y), anticipation=1))
        assert_allclose(cells[(3, 3)][0], 1.0, atol=1e-12)
        assert_allclose(cells[(3, 2)][0], 1.0, atol=1e-12)  # anticipation window
        assert (3, 1) not in cells  # base period itself

    def test_missing_base_period_omits_cohort(self):
        cohorts = {"a": 2, "b": None}
        panel = panel_from_layout(cohorts, (2, 3), lambda u, t: 0.0)
        with pytest.raises(EmptyResultError):
            estimate_group_time(resid_panel(panel, panel.outcomes))

    def test_location_invariance_at_fixed_residuals(self):
        cohorts = {"a": 2, "b": 2, "c": None, "d": None}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: 0.0)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(panel.n_obs)
        e1 = cell_table(estimate_group_time(resid_panel(panel, y)))
        e2 = cell_table(estimate_group_time(resid_panel(panel, y + 123.456)))
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
            effects = estimate_group_time(resid_panel(panel, y))
            atts.append(np.mean([c[0] for (g, t), c in cell_table(effects).items()
                                 if t >= g]))
        atts = np.array(atts)
        mc_se = atts.std(ddof=1) / np.sqrt(len(atts))
        assert abs(atts.mean()) < 3 * mc_se + 1e-12


class TestDemeaning:
    def test_two_way_means_removed(self):
        rng = np.random.default_rng(4)
        codes_a = rng.integers(0, 7, 200)
        codes_b = rng.integers(0, 5, 200)
        v = rng.standard_normal(200) + 3 * codes_a - 2 * codes_b
        out, sweeps, final = demean_two_way(v, codes_a, 7, codes_b, 5)
        for g in range(7):
            assert abs(out[codes_a == g].mean()) < 1e-9
        for g in range(5):
            assert abs(out[codes_b == g].mean()) < 1e-9
        assert final < 1e-10

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(4)
        codes_a = rng.integers(0, 7, 100)
        codes_b = rng.integers(0, 5, 100)
        v = rng.standard_normal(100) + codes_a.astype(float)
        with pytest.raises(NonConvergenceError):
            demean_two_way(v, codes_a, 7, codes_b, 5, max_sweeps=1)


class TestTwfe:
    def test_recovers_homogeneous_effect(self):
        rng = np.random.default_rng(10)
        recs = []
        for i in range(60):
            a_i = rng.standard_normal()
            g = 3 if i < 30 else None
            for t in (1, 2, 3, 4):
                d = 1 if (g is not None and t >= g) else 0
                y = a_i + 0.5 * t + 2.0 * d + 0.1 * rng.standard_normal()
                recs.append({"unit": f"u{i:02d}", "time": t, "outcome": float(y),
                             "treatment": d, "x0": 0.0})
        panel = build_panel(recs)
        result = twfe_baseline(panel)
        assert abs(result.tau - 2.0) < 0.1
        assert result.se > 0

    def test_single_unit_is_degenerate(self):
        panel = build_panel([{"unit": "a", "time": t, "outcome": float(t),
                              "treatment": 0, "x0": 0.0} for t in (1, 2, 3)])
        with pytest.raises(DegenerateDesignError):
            twfe_baseline(panel)


class TestResidualSlopeFwl:
    def test_matches_joint_ols_on_cross_section(self):
        rng = np.random.default_rng(99)
        n, p = 300, 10
        X = rng.standard_normal((n, p))
        d = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + X @ np.linspace(0.5, 1.5, p) + 0.8 * d + rng.standard_normal(n)
        recs = []
        for i in range(n):
            rec = {"unit": f"u{i:04d}", "time": 1, "outcome": float(y[i]),
                   "treatment": int(d[i])}
            rec.update({f"x{j:02d}": float(X[i, j]) for j in range(p)})
            recs.append(rec)
        panel = build_panel(recs)
        folds = assign_folds(panel, 1, seed=0)
        fits = crossfit_nuisance(panel, LearnerSpec.ridge(0.0),
                                 LearnerSpec.ridge(0.0), folds, clip_eps=0.0)
        assert fits.n_clipped == 0
        resid = residualize(panel, fits)
        slope = residual_slope(resid)
        joint = np.column_stack([np.ones(n), d, X])
        beta = np.linalg.lstsq(joint, y, rcond=None)[0]
        assert abs(slope - beta[1]) / abs(beta[1]) < 1e-8


class TestSubgroups:
    def test_identical_halves_give_identical_effects(self):
        cohorts_half = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        rng = np.random.default_rng(14)
        vals = {(u, t): rng.standard_normal() for u in cohorts_half for t in (1, 2, 3)}
        recs = []
        for label in ("A", "B"):
            for u, g in cohorts_half.items():
                for t in (1, 2, 3):
                    recs.append({"unit": f"{label}.{u}", "time": t,
                                 "outcome": vals[(u, t)],
                                 "treatment": 1 if (g and t >= g) else 0,
                                 "x0": 0.0})
        panel = build_panel(recs)
        labels = {u: u.split(".")[0] for u in panel.units}
        result = subgroup_effects(resid_panel(panel, panel.outcomes), labels)
        assert not result.failures
        cells_a = {k: v[0] for k, v in cell_table(result.effects["A"]).items()}
        cells_b = {k: v[0] for k, v in cell_table(result.effects["B"]).items()}
        assert cells_a.keys() == cells_b.keys()
        for k in cells_a:
            assert_allclose(cells_a[k], cells_b[k], rtol=1e-12)

    def test_subgroup_without_controls_records_failure(self):
        cohorts = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        labels = {"t1": "treated_only", "t2": "treated_only",
                  "c1": "mixed", "c2": "mixed"}
        result = subgroup_effects(resid_panel(panel, panel.outcomes), labels)
        assert "treated_only" in result.failures
        # the mixed subgroup has no treated units at all -> also unestimable
        assert "mixed" in result.failures

    def test_unlabeled_unit_rejected(self):
        cohorts = {"t1": 2, "c1": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        with pytest.raises(ValueError):
            subgroup_effects(resid_panel(panel, panel.outcomes), {"t1": "x"})
