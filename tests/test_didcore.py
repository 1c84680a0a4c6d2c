import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdidml.crossfit import ResidualPanel, assign_folds, crossfit_nuisance, residualize
from sdidml.didcore import (
    demean_two_way,
    estimate_group_time,
    estimate_interacted_regression,
    residual_slope,
    subgroup_effects,
    twfe_baseline,
)
from sdidml.errors import (
    CollinearCellWarning,
    DegenerateDesignError,
    EmptyResultError,
    NonConvergenceError,
)
from sdidml.learners import LearnerSpec
from sdidml.panel import build_panel


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


def resid_panel(panel, y_tilde, d_tilde=None):
    y = np.asarray(y_tilde, dtype=np.float64)
    d = (panel.treatments.astype(np.float64) if d_tilde is None
         else np.asarray(d_tilde, dtype=np.float64))
    return ResidualPanel(panel=panel, y_tilde=y, d_tilde=d)


class TestGroupTimeContrast:
    def test_constructed_additive_effect(self):
        cohorts = {"t1": 3, "t2": 3, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        base_pattern = {1: 0.3, 2: -0.2, 3: 0.5, 4: 1.1}  # common to all units
        y = np.array([base_pattern[o.time] + (1.0 if o.treatment else 0.0)
                      for o in panel.observations])
        effects = estimate_group_time(resid_panel(panel, y))
        for (g, t), cell in effects.cells.items():
            expected = 1.0 if t >= g else 0.0
            assert_allclose(cell.tau, expected, atol=1e-12)

    def test_two_by_two_hand_computed(self):
        # treated deltas: (1.7-0.3)=1.4 and (2.1-(-0.1))=2.2 -> mean 1.8
        # control deltas: (0.5-0.2)=0.3 and (0.1-0.0)=0.1 -> mean 0.2
        # ATT = 1.8 - 0.2 = 1.6
        cohorts = {"t1": 2, "t2": 2, "c1": None, "c2": None}
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        values = {("t1", 1): 0.3, ("t1", 2): 1.7, ("t2", 1): -0.1, ("t2", 2): 2.1,
                  ("c1", 1): 0.2, ("c1", 2): 0.5, ("c2", 1): 0.0, ("c2", 2): 0.1}
        y = np.array([values[(o.unit_id, o.time)] for o in panel.observations])
        effects = estimate_group_time(resid_panel(panel, y))
        assert set(effects.cells) == {(2, 2)}
        cell = effects.cells[(2, 2)]
        assert_allclose(cell.tau, 1.6, rtol=1e-12)
        assert (cell.n_treated, cell.n_control) == (2, 2)

    def test_not_yet_treated_omission(self):
        # cohorts 2 and 3, nobody never-treated: cell (2,3) has no controls
        cohorts = {"a": 2, "b": 2, "c": 3, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: u == "a")
        effects = estimate_group_time(resid_panel(panel, panel.outcomes),
                                      control_rule="not_yet_treated")
        assert (2, 2) in effects.cells
        assert effects.cells[(2, 2)].n_control == 2  # cohort-3 units not yet treated
        assert (2, 3) not in effects.cells
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
        cell = effects.cells[(3, 3)]
        assert (cell.n_treated, cell.n_control) == (2, 2)  # c and n, not e
        assert cell.tau == 0.0

    def test_never_treated_rule_counts(self):
        cohorts = {"a": 2, "b": None, "c": None, "d": 3}
        panel = panel_from_layout(cohorts, (1, 2, 3), lambda u, t: 0.0)
        effects = estimate_group_time(resid_panel(panel, panel.outcomes))
        assert effects.cells[(2, 2)].n_control == 2  # only the two never-treated

    def test_anticipation_moves_base_period(self):
        cohorts = {"a": 3, "b": 3, "c": None, "d": None}
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        y = np.array([float(o.time >= 2 and o.treatment >= 0 and
                            panel.cohort[o.unit_id].ever_treated)
                      for o in panel.observations])
        # anticipation=1: base period is g-2=1, so the "effect" visible from t=2 on
        eff = estimate_group_time(resid_panel(panel, y), anticipation=1)
        assert_allclose(eff.cells[(3, 3)].tau, 1.0, atol=1e-12)
        assert_allclose(eff.cells[(3, 2)].tau, 1.0, atol=1e-12)  # anticipation window
        assert (3, 1) not in eff.cells  # base period itself

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
        e1 = estimate_group_time(resid_panel(panel, y))
        e2 = estimate_group_time(resid_panel(panel, y + 123.456))
        for key in e1.cells:
            assert abs(e1.cells[key].tau - e2.cells[key].tau) < 1e-12

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
            atts.append(np.mean([c.tau for k, c in effects.post_cells().items()]))
        atts = np.array(atts)
        mc_se = atts.std(ddof=1) / np.sqrt(len(atts))
        assert abs(atts.mean()) < 3 * mc_se + 1e-12


class TestInteractedRegression:
    def minimal_panel(self, seed=0, n_each=3):
        cohorts = {f"t{i}": 2 for i in range(n_each)}
        cohorts.update({f"c{i}": None for i in range(n_each)})
        panel = panel_from_layout(cohorts, (1, 2), lambda u, t: 0.0)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(panel.n_obs)
        return panel, y

    def test_minimal_equivalence_with_dense_least_squares(self):
        panel, y = self.minimal_panel()
        rp = resid_panel(panel, y)  # d_tilde = D
        contrast = estimate_group_time(rp)
        regression = estimate_interacted_regression(rp)
        # dense LS oracle: y on [D-interaction, cohort dummy, period dummy, 1]
        treated = np.isfinite(panel.cohort_times[panel.unit_codes])
        post = np.array([o.time == 2 for o in panel.observations])
        design = np.column_stack([treated & post, treated, post,
                                  np.ones(panel.n_obs)]).astype(float)
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        assert_allclose(regression.cells[(2, 2)].tau, beta[0], atol=1e-8)
        assert_allclose(regression.cells[(2, 2)].tau,
                        contrast.cells[(2, 2)].tau, atol=1e-8)

    def test_zero_outcome_gives_zero_taus(self):
        panel, _ = self.minimal_panel()
        rp = resid_panel(panel, np.zeros(panel.n_obs))
        regression = estimate_interacted_regression(rp)
        for cell in regression.cells.values():
            assert abs(cell.tau) < 1e-12

    def test_constant_shift_absorbed_by_fixed_effects(self):
        panel, y = self.minimal_panel(seed=3)
        r1 = estimate_interacted_regression(resid_panel(panel, y))
        r2 = estimate_interacted_regression(resid_panel(panel, y + 7.5))
        for key in r1.cells:
            assert abs(r1.cells[key].tau - r2.cells[key].tau) < 1e-10

    def test_saturated_single_pre_period_agreement_with_noise(self):
        # one pre period (the base): the regression is saturated in
        # (group x time) cell means, so it reproduces the contrast exactly
        cohorts = {f"t{i}": 2 for i in range(4)}
        cohorts.update({f"c{i}": None for i in range(5)})
        panel = panel_from_layout(cohorts, (1, 2, 3, 4), lambda u, t: 0.0)
        rng = np.random.default_rng(17)
        y = rng.standard_normal(panel.n_obs)
        rp = resid_panel(panel, y)
        contrast = estimate_group_time(rp)
        regression = estimate_interacted_regression(rp)
        for key, cell in contrast.post_cells().items():
            assert_allclose(regression.cells[key].tau, cell.tau, atol=1e-6)

    def test_structured_residuals_recovered_exactly(self):
        # y_tilde = alpha_g + lambda_t + tau(g,t) * d_tilde with d_tilde = D:
        # regression fits with zero residual, contrast double-differences
        # the fixed effects away; both recover tau per post cell
        cohorts = {"t1": 3, "t2": 3, "t3": 3, "c1": None, "c2": None}
        periods = (1, 2, 3, 4, 5)
        panel = panel_from_layout(cohorts, periods, lambda u, t: 0.0)
        taus = {(3, 3): 0.7, (3, 4): -0.4, (3, 5): 1.9}
        alpha = {True: 2.0, False: -1.0}
        lam = {1: 0.1, 2: -0.6, 3: 0.25, 4: 1.4, 5: -0.9}
        y = []
        for o in panel.observations:
            ever = panel.cohort[o.unit_id].ever_treated
            v = alpha[ever] + lam[o.time]
            if o.treatment:
                v += taus[(3, o.time)]
            y.append(v)
        rp = resid_panel(panel, np.array(y))
        with pytest.warns(CollinearCellWarning):  # pre cells have all-zero columns
            regression = estimate_interacted_regression(rp)
        contrast = estimate_group_time(rp)
        for key, tau in taus.items():
            assert_allclose(regression.cells[key].tau, tau, atol=1e-8)
            assert_allclose(contrast.cells[key].tau, tau, atol=1e-8)
            assert abs(regression.cells[key].tau - contrast.cells[key].tau) < 1e-6
        dropped = {(o.g, o.t) for o in regression.omitted}
        assert (3, 1) in dropped  # pre-period columns are degenerate when d~=D


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
        cells_a = {k: v.tau for k, v in result.effects["A"].cells.items()}
        cells_b = {k: v.tau for k, v in result.effects["B"].cells.items()}
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
