import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdidml.aggregate import (
    aggregate,
    aggregate_schemes,
    bootstrap,
    merge_inference,
    overall_att,
    overlap_report,
    placebo_test,
    pretrend_test,
)
from sdidml.crossfit import FoldAssignment, NuisanceFits, assign_folds
from sdidml.didcore import GroupTimeEffects
from sdidml.errors import (
    BootstrapFailureError,
    ConfigError,
    EmptyResultError,
    InsufficientPrePeriodsError,
    NoPreCellsError,
)
from sdidml.learners import LearnerSpec
from sdidml.panel import build_panel
from sdidml.pipeline import PipelineConfig
from sdidml.simulate import EffectSpec, generate, scenario

# The package attribute ``sdidml.aggregate`` is the aggregate() function.
aggregate_module = importlib.import_module("sdidml.aggregate")


def effects_from(cells, anticipation=0):
    keys = sorted(cells)
    tau, n_treated, n_control = (np.array([cells[k][j] for k in keys], dtype=np.float64)
                                 for j in range(3))
    return GroupTimeEffects(tuple(keys), tau, n_treated, n_control,
                            control_rule="never_treated", anticipation=anticipation)


class TestAggregate:
    def test_constant_cells_aggregate_to_constant(self):
        eff = effects_from({(2, 2): (1.0, 5, 9), (2, 3): (1.0, 4, 9),
                            (3, 3): (1.0, 11, 9)})
        res = aggregate(eff, "overall")
        assert_allclose(res.overall_att, 1.0, rtol=1e-15)

    def test_count_weighted_mean_hand_computed(self):
        eff = effects_from({(2, 2): (1.0, 10, 3), (3, 3): (3.0, 30, 3)})
        res = aggregate(eff, "overall")
        assert_allclose(res.overall_att, 2.5, rtol=1e-15)
        assert_allclose(res.weights_used[(2, 2)], 0.25, rtol=1e-15)
        assert_allclose(res.weights_used[(3, 3)], 0.75, rtol=1e-15)

    def test_weights_nonnegative_and_sum_to_one(self):
        eff = effects_from({(2, t): (0.1 * t, t, 5) for t in range(2, 9)})
        res = aggregate_schemes(eff, ("overall", "event_time", "by_group"))
        ws = list(res.weights_used.values())
        assert all(w >= 0 for w in ws)
        assert abs(math.fsum(ws) - 1.0) <= 1e-12

    def test_overall_within_cell_range(self):
        eff = effects_from({(2, 2): (-1.0, 7, 5), (2, 3): (2.0, 13, 5)})
        res = aggregate(eff)
        assert -1.0 <= res.overall_att <= 2.0

    def test_event_curve_includes_pre_cells(self):
        eff = effects_from({(3, 1): (0.05, 5, 5), (3, 2): (0.0, 5, 5),
                            (3, 3): (1.0, 5, 5), (3, 4): (1.2, 5, 5),
                            (4, 2): (-0.05, 7, 5), (4, 4): (0.9, 7, 5)})
        res = aggregate(eff, "event_time")
        assert set(res.event_curve) == {-2, -1, 0, 1}
        # e=-2: cells (3,1) n=5 and (4,2) n=7 -> (5*.05 + 7*(-.05))/12
        assert_allclose(res.event_curve[-2].att, (5 * 0.05 - 7 * 0.05) / 12,
                        rtol=1e-12)
        assert_allclose(res.event_curve[0].att, (5 * 1.0 + 7 * 0.9) / 12, rtol=1e-12)

    def test_by_group(self):
        eff = effects_from({(2, 2): (1.0, 4, 5), (2, 3): (2.0, 4, 5),
                            (3, 3): (5.0, 6, 5)})
        res = aggregate(eff, "by_group")
        assert_allclose(res.group_atts[2].att, 1.5, rtol=1e-12)
        assert_allclose(res.group_atts[3].att, 5.0, rtol=1e-12)

    def test_no_post_cells_is_empty_result(self):
        eff = effects_from({(4, 2): (0.1, 5, 5)})
        with pytest.raises(EmptyResultError):
            aggregate(eff)


def small_null_panel(n_units=60, seed=11):
    cfg = replace(scenario("S4"), n_units=n_units, seed=seed)
    return generate(cfg).panel


class TestBootstrap:
    def pipe(self, **kw):
        defaults = dict(bootstrap_reps=29, bootstrap_mode="fixed_nuisance", seed=5)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_single_replicate_has_no_se(self):
        panel = small_null_panel()
        inf = bootstrap(self.pipe(), panel, B=1, seed=0, mode="fixed_nuisance")
        assert inf.overall.se is None
        assert inf.overall.ci_low == inf.overall.ci_high

    def test_deterministic_given_seed(self):
        panel = small_null_panel()
        a = bootstrap(self.pipe(), panel, B=29, seed=4, mode="fixed_nuisance")
        b = bootstrap(self.pipe(), panel, B=29, seed=4, mode="fixed_nuisance")
        assert (a.overall.se, a.overall.ci_low, a.overall.ci_high) == \
               (b.overall.se, b.overall.ci_low, b.overall.ci_high)
        assert a.event.keys() == b.event.keys()
        for e in a.event:
            assert a.event[e].ci_low == b.event[e].ci_low

    def test_zero_noise_dgp_has_zero_se(self):
        cfg = replace(scenario("S1"), n_units=60, noise_sd=0.0,
                      effect=EffectSpec.homogeneous(1.5), seed=31)
        panel = generate(cfg).panel
        pipe = PipelineConfig(g_learner=LearnerSpec.ridge(1e-8),
                              m_learner=LearnerSpec.ridge(1e-8),
                              n_folds=1, clip_eps=0.0, bootstrap_reps=19, seed=2)
        for mode in ("fixed_nuisance", "full"):
            inf = bootstrap(pipe, panel, B=19, seed=2, mode=mode)
            assert inf.overall.se < 1e-10

    def test_modes_agree_on_point_structure(self):
        panel = small_null_panel()
        full = bootstrap(self.pipe(bootstrap_mode="full"), panel, B=9, seed=7,
                         mode="full")
        fixed = bootstrap(self.pipe(), panel, B=9, seed=7, mode="fixed_nuisance")
        assert full.event.keys() == fixed.event.keys()

    def test_full_mode_keeps_all_copies_of_a_unit_in_one_fold(self, monkeypatch):
        # A copy in another fold would train the model that predicts its twin.
        calls = []
        crossfit_predictions = aggregate_module.crossfit_predictions

        def recording(panel, spec, target, folds):
            calls.append((panel, folds))
            return crossfit_predictions(panel, spec, target, folds)

        monkeypatch.setattr(aggregate_module, "crossfit_predictions", recording)
        bootstrap(self.pipe(bootstrap_mode="full"), small_null_panel(), B=4,
                  seed=3, mode="full")
        assert len(calls) == 4
        for bpanel, folds in calls:
            folds_of_origin = {}
            for copy in bpanel.units:  # fresh ids are "b<k>.<original id>"
                origin = copy.split(".", 1)[1]
                folds_of_origin.setdefault(origin, []).append(folds.fold_of_unit[copy])
            assert len(folds_of_origin) < bpanel.n_units  # some unit was drawn twice
            assert all(len(set(f)) == 1 for f in folds_of_origin.values())

    def test_failure_share_aborts(self):
        # one never-treated unit among 8: ~1/3 of resamples miss all controls
        recs = []
        for i in range(8):
            g = None if i == 0 else 3
            for t in (1, 2, 3, 4):
                recs.append({"unit": f"u{i}", "time": t,
                             "outcome": float(i + t),
                             "treatment": 1 if (g and t >= g) else 0,
                             "x0": float(i)})
        panel = build_panel(recs)
        with pytest.raises(BootstrapFailureError):
            bootstrap(self.pipe(), panel, B=60, seed=1, mode="fixed_nuisance")

    def test_invalid_b(self):
        panel = small_null_panel()
        with pytest.raises(ConfigError):
            bootstrap(self.pipe(), panel, B=0, seed=0, mode="fixed_nuisance")

    def test_merge_inference_fills_cis(self):
        panel = small_null_panel()
        pipe = self.pipe()
        from sdidml.pipeline import estimate_effects
        art = estimate_effects(panel, pipe)
        res = aggregate_schemes(art.effects, ("overall", "event_time", "by_group"))
        inf = bootstrap(pipe, panel, B=29, seed=5, mode="fixed_nuisance",
                        y_tilde=art.resid.y_tilde)
        merged = merge_inference(res, inf)
        assert merged.overall_att == res.overall_att  # point estimate unchanged
        assert merged.overall_se is not None
        assert merged.overall_ci_low <= merged.overall_ci_high
        assert all(p.se is not None for p in merged.event_curve.values())


class TestPretrend:
    def fake_inference(self, es, se=0.5, ci_level=0.95):
        from sdidml.aggregate import BootstrapInference, InferencePoint
        event = {e: InferencePoint(se=se, ci_low=-1, ci_high=1, n_reps=10)
                 for e in es}
        point = InferencePoint(se=se, ci_low=-1, ci_high=1, n_reps=10)
        return BootstrapInference(overall=point, event=event, group={},
                                  n_reps=10, n_failed=0, mode="fixed_nuisance",
                                  ci_level=ci_level, seed=0)

    def test_all_zero_pre_cells_give_p_one(self):
        eff = effects_from({(3, 1): (0.0, 5, 5), (3, 2): (0.0, 5, 5),
                            (3, 3): (1.0, 5, 5)})
        rep = pretrend_test(eff, self.fake_inference([-2, -1, 0]))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.dof == 2

    def test_statistic_matches_hand_sum(self):
        eff = effects_from({(3, 1): (0.2, 5, 5), (3, 2): (-0.1, 5, 5),
                            (3, 3): (1.0, 5, 5)})
        rep = pretrend_test(eff, self.fake_inference([-2, -1, 0], se=0.1))
        assert_allclose(rep.statistic, (0.2 / 0.1) ** 2 + (0.1 / 0.1) ** 2,
                        rtol=1e-12)

    def test_anticipation_excludes_window(self):
        eff = effects_from({(4, 1): (0.3, 5, 5), (4, 3): (0.4, 5, 5),
                            (4, 4): (1.0, 5, 5)}, anticipation=1)
        rep = pretrend_test(eff, self.fake_inference([-3, -1, 0]))
        # e = -1 lies inside the anticipation window; only e = -3 is tested
        assert rep.dof == 1
        assert [p.e for p in rep.per_e] == [-3]

    def test_no_pre_cells(self):
        eff = effects_from({(2, 2): (1.0, 5, 5)})
        with pytest.raises(NoPreCellsError):
            pretrend_test(eff, self.fake_inference([0]))

    def test_relabeling_cohorts_preserves_statistic(self):
        eff1 = effects_from({(3, 1): (0.2, 5, 5), (3, 2): (-0.1, 5, 5),
                             (3, 3): (1.0, 5, 5)})
        eff2 = effects_from({(7, 5): (0.2, 5, 5), (7, 6): (-0.1, 5, 5),
                             (7, 7): (1.0, 5, 5)})
        inf = self.fake_inference([-2, -1, 0], se=0.3)
        assert pretrend_test(eff1, inf).statistic == \
               pytest.approx(pretrend_test(eff2, inf).statistic, rel=1e-12)


class TestPlacebo:
    def test_null_panel_placebo_covers_zero(self):
        cfg = replace(scenario("S4"), n_units=80, seed=901)
        panel = generate(cfg).panel
        pipe = PipelineConfig(bootstrap_reps=49, bootstrap_mode="fixed_nuisance",
                              seed=3)
        rep = placebo_test(panel, pipe, shift=1)
        assert rep.ci_low <= 0.0 <= rep.ci_high
        assert abs(rep.pseudo_att) < 0.6

    def test_insufficient_pre_periods(self):
        panel = generate(replace(scenario("S4"), n_units=50, seed=2)).panel
        pipe = PipelineConfig(bootstrap_reps=0, seed=0)
        # earliest cohort adopts at t=4: three pre-periods, so shift <= 2
        with pytest.raises(InsufficientPrePeriodsError):
            placebo_test(panel, pipe, shift=3)

    def test_invalid_shift(self):
        panel = small_null_panel()
        with pytest.raises(ConfigError):
            placebo_test(panel, PipelineConfig(seed=0), shift=0)


def fits_with_m(m_hat, clip_eps=0.01, n_clipped=0):
    m = np.asarray(m_hat, dtype=np.float64)
    panel = build_panel([
        {"unit": "a", "time": 1, "outcome": 0.0, "treatment": 0, "x0": 0.0},
        {"unit": "b", "time": 1, "outcome": 0.0, "treatment": 1, "x0": 1.0},
    ])
    folds = FoldAssignment(1, {u: 0 for u in panel.units})
    return NuisanceFits(panel=panel, g_hat=np.zeros(m.size), m_hat=m,
                        folds=folds, g_spec=LearnerSpec.mean(),
                        m_spec=LearnerSpec.mean(), clip_eps=clip_eps,
                        n_clipped=n_clipped)


class TestOverlap:
    def test_degenerate_point_mass(self):
        rep = overlap_report(fits_with_m(np.full(100, 0.5)))
        assert sum(1 for c in rep.histogram if c > 0) == 1
        assert rep.share_outside == 0.0
        assert not rep.weak_overlap

    def test_uniform_tail_mass_matches_analytic_value(self):
        # uniform on [eps, 1-eps], eps=0.01: P(outside [.05,.95]) =
        # 2*(0.05-0.01)/0.98 = 0.081632...
        rng = np.random.default_rng(44)
        eps = 0.01
        m = rng.uniform(eps, 1 - eps, size=200_000)
        rep = overlap_report(fits_with_m(m, clip_eps=eps))
        expected = 2 * (0.05 - eps) / (1 - 2 * eps)
        mc_se = math.sqrt(expected * (1 - expected) / m.size)
        assert abs(rep.share_outside - expected) < 4 * mc_se

    def test_weak_overlap_flag(self):
        m = np.full(100, 0.5)
        assert overlap_report(fits_with_m(m, n_clipped=11)).weak_overlap
        assert not overlap_report(fits_with_m(m, n_clipped=10)).weak_overlap
