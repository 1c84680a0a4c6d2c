import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from panels import panel_of
from sdidml import aggregate as aggregate_module
from sdidml.aggregate import (
    SummaryPoint,
    aggregate_schemes,
    bootstrap,
    chi2_sf,
    overlap_report,
    placebo_test,
    pretrend_test,
)
from sdidml.config import PipelineConfig
from sdidml.crossfit import (
    CohortPropensity,
    NuisanceFits,
    assign_folds,
    outcome_residuals,
)
from sdidml.didcore import GroupTimeEffects, estimate_group_time
from sdidml.errors import (
    BootstrapFailureError,
    ConfigError,
    EmptyResultError,
    InsufficientPrePeriodsError,
    NoPreCellsError,
)
from sdidml.learners import LearnerSpec
from sdidml.pipeline import estimate_effects
from sdidml.simulate import EffectSpec, generate, scenario


def effects_from(cells):
    keys = sorted(cells)
    tau, n_treated, n_control = (np.array([cells[k][j] for k in keys], dtype=np.float64)
                                 for j in range(3))
    return GroupTimeEffects(tuple(keys), tau, n_treated, n_control)


class TestAggregate:
    def test_constant_cells_aggregate_to_constant(self):
        eff = effects_from({(2, 2): (1.0, 5, 9), (2, 3): (1.0, 4, 9),
                            (3, 3): (1.0, 11, 9)})
        res = aggregate_schemes(eff)
        assert_allclose(res.overall.att, 1.0, rtol=1e-15)

    def test_count_weighted_mean_hand_computed(self):
        eff = effects_from({(2, 2): (1.0, 10, 3), (3, 3): (3.0, 30, 3)})
        res = aggregate_schemes(eff)
        assert_allclose(res.overall.att, 2.5, rtol=1e-15)
        assert_allclose(res.weights_used[(2, 2)], 0.25, rtol=1e-15)
        assert_allclose(res.weights_used[(3, 3)], 0.75, rtol=1e-15)

    def test_weights_nonnegative_and_sum_to_one(self):
        eff = effects_from({(2, t): (0.1 * t, t, 5) for t in range(2, 9)})
        res = aggregate_schemes(eff)
        ws = list(res.weights_used.values())
        assert all(w >= 0 for w in ws)
        assert abs(math.fsum(ws) - 1.0) <= 1e-12

    def test_overall_within_cell_range(self):
        eff = effects_from({(2, 2): (-1.0, 7, 5), (2, 3): (2.0, 13, 5)})
        res = aggregate_schemes(eff)
        assert -1.0 <= res.overall.att <= 2.0

    def test_event_curve_includes_pre_cells(self):
        eff = effects_from({(3, 1): (0.05, 5, 5), (3, 2): (0.0, 5, 5),
                            (3, 3): (1.0, 5, 5), (3, 4): (1.2, 5, 5),
                            (4, 2): (-0.05, 7, 5), (4, 4): (0.9, 7, 5)})
        res = aggregate_schemes(eff)
        assert {e for kind, e in res.summaries if kind == "e"} == {-2, -1, 0, 1}
        # e=-2: cells (3,1) n=5 and (4,2) n=7 -> (5*.05 + 7*(-.05))/12
        assert_allclose(res.summaries[("e", -2)].att, (5 * 0.05 - 7 * 0.05) / 12,
                        rtol=1e-12)
        assert_allclose(res.summaries[("e", 0)].att, (5 * 1.0 + 7 * 0.9) / 12, rtol=1e-12)

    def test_by_group(self):
        eff = effects_from({(2, 2): (1.0, 4, 5), (2, 3): (2.0, 4, 5),
                            (3, 3): (5.0, 6, 5)})
        res = aggregate_schemes(eff)
        assert_allclose(res.summaries[("g", 2)].att, 1.5, rtol=1e-12)
        assert_allclose(res.summaries[("g", 3)].att, 5.0, rtol=1e-12)

    def test_no_post_cells_is_empty_result(self):
        eff = effects_from({(4, 2): (0.1, 5, 5)})
        with pytest.raises(EmptyResultError):
            aggregate_schemes(eff)


def small_null_panel(n_units=60, seed=11):
    cfg = replace(scenario("S4"), n_units=n_units, seed=seed)
    return generate(cfg).panel


def seed_residuals(panel, config):
    """y_tilde of an outcome-only cross-fit on the folds of ``config.seed``."""
    folds = assign_folds(panel, config.n_folds, config.seed)
    return outcome_residuals(panel, config, folds)


def point_results(panel, y_tilde):
    """The point summaries of the contrast cells of ``y_tilde``."""
    return aggregate_schemes(estimate_group_time(panel, y_tilde, PipelineConfig()))


class TestBootstrap:
    def pipe(self, **kw):
        defaults = dict(bootstrap_reps=29, bootstrap_mode="fixed_nuisance", seed=5)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def fixed(self, panel, B, seed):
        """Fixed-nuisance bootstrap, B replicates from ``seed``, of the
        point summaries of the outcome residuals on the folds of ``self.pipe()``."""
        y_tilde = seed_residuals(panel, self.pipe())
        return bootstrap(replace(self.pipe(), bootstrap_reps=B, seed=seed), panel,
                         "fixed_nuisance", y_tilde, point_results(panel, y_tilde))

    def test_single_replicate_is_rejected(self):
        # One replicate has no spread: its "CI" is a point that need not
        # contain the estimate. B is 0 (no inference) or at least 2.
        panel = small_null_panel()
        for B in (-1, 0, 1):
            with pytest.raises(ConfigError):
                self.fixed(panel, B=B, seed=0)
        for B in (-1, 1):
            with pytest.raises(ConfigError):
                self.pipe(bootstrap_reps=B)
        assert self.pipe(bootstrap_reps=0).bootstrap_reps == 0
        assert self.fixed(panel, B=2, seed=0).overall.se is not None

    def test_deterministic_given_seed(self):
        panel = small_null_panel()
        a = self.fixed(panel, B=29, seed=4)
        b = self.fixed(panel, B=29, seed=4)
        assert a == b

    def test_zero_noise_dgp_has_zero_se(self):
        # A mean outcome model is constant within a fold, and a unit's rows
        # share its fold, so g_hat cancels in every double difference.
        cfg = replace(scenario("S1"), n_units=60, noise_sd=0.0,
                      effect=EffectSpec.homogeneous(1.5), seed=31)
        panel = generate(cfg).panel
        pipe = PipelineConfig(g_learner=LearnerSpec.mean(), m_learner=LearnerSpec.mean(),
                              n_folds=2, clip_eps=0.0, bootstrap_reps=19, seed=2)
        y_tilde = seed_residuals(panel, pipe)
        for mode in ("fixed_nuisance", "full"):
            inf = bootstrap(pipe, panel, mode, y_tilde, point_results(panel, y_tilde))
            assert inf.overall.se < 1e-10

    def test_modes_agree_on_point_structure(self):
        panel = small_null_panel()
        point = point_results(panel, seed_residuals(panel, self.pipe()))
        full = bootstrap(self.pipe(bootstrap_mode="full", bootstrap_reps=9, seed=7), panel,
                         "full", None, point)
        fixed = self.fixed(panel, B=9, seed=7)
        assert {k for k, p in full.summaries.items() if p.se is not None} == \
               {k for k, p in fixed.summaries.items() if p.se is not None}

    def test_full_mode_refits_drawn_units_in_their_folds_with_their_counts(self, monkeypatch):
        # No observation is predicted by a model that saw its own unit: each
        # drawn unit is fitted once, weighted by its draw count, in its fold.
        calls = []

        def recording(panel, config, folds, sample_weight):
            calls.append((panel, folds, sample_weight))
            return outcome_residuals(panel, config, folds, sample_weight)

        monkeypatch.setattr(aggregate_module, "outcome_residuals", recording)
        panel = small_null_panel()
        config = self.pipe(bootstrap_mode="full")
        point = point_results(panel, seed_residuals(panel, config))
        bootstrap(replace(config, bootstrap_reps=4, seed=3), panel, "full", None, point)
        assert len(calls) == 4
        for r, (bpanel, folds, sample_weight) in enumerate(calls):
            draw = np.random.default_rng(3 + r).integers(0, panel.n_units, size=panel.n_units)
            counts = np.bincount(draw, minlength=panel.n_units)
            drawn = np.flatnonzero(counts)
            assert bpanel.units == tuple(panel.units[i] for i in drawn)
            assert np.array_equal(folds, assign_folds(panel, config.n_folds, 3 + r)[drawn])
            assert np.array_equal(sample_weight, counts[drawn][bpanel.unit_codes])
            assert sample_weight.max() > 1  # some unit was drawn twice

    def test_failure_share_aborts(self):
        # one never-treated unit among 8: ~1/3 of resamples miss all controls
        panel = panel_of([(f"u{i}", t, i + t, int(i > 0 and t >= 3), i)
                          for i in range(8) for t in (1, 2, 3, 4)])
        with pytest.raises(BootstrapFailureError):
            self.fixed(panel, B=60, seed=1)

    def test_invalid_b(self):
        panel = small_null_panel()
        with pytest.raises(ConfigError):
            self.fixed(panel, B=0, seed=0)

    def test_bootstrap_keeps_every_att_and_sets_every_se_and_ci(self):
        panel = small_null_panel()
        pipe = self.pipe()
        art = estimate_effects(panel, pipe)
        point = aggregate_schemes(art.effects)
        res = bootstrap(pipe, panel, "fixed_nuisance", art.fits.y_tilde, point)
        assert (res.n_reps, res.n_failed, res.weights_used) == (29, 0, point.weights_used)
        assert res.summaries.keys() == point.summaries.keys()
        for key, p in res.summaries.items():
            assert p.att == point.summaries[key].att  # point estimate unchanged
            assert p.se is not None and p.ci_low <= p.ci_high, key


def four_unit_layout(kind):
    """Cohorts 3, 4 and 5 and one never-treated unit over periods 1-5.

    ``"integer"``: integer outcomes and no covariate. ``"normal"``:
    standard-normal outcomes and one covariate constant within each unit.
    """
    rng = np.random.default_rng(0)
    rows = []
    for i, (unit, g) in enumerate([("a", 3), ("b", 4), ("c", 5), ("n", None)]):
        x = rng.standard_normal()
        for t in range(1, 6):
            d = int(g is not None and t >= g)
            if kind == "integer":
                rows.append((unit, t, i * t % 3 + 2 * d, d))
            else:
                rows.append((unit, t, rng.standard_normal(), d, x))
    return panel_of(rows)


@pytest.mark.parametrize("kind", ["integer", "normal"])
def test_replicate_values_that_differ_by_rounding_have_se_zero(kind):
    # Under not_yet_treated, event time -4 is cohort 5 against the never
    # treated unit alone, so every replicate that estimates it repeats the
    # point value, up to rounding in the "normal" layout, whose replicate
    # values have a sample SD of ~2e-16. Both layouts give SE 0, an
    # infinite z-score and the same statistic.
    panel = four_unit_layout(kind)
    config = PipelineConfig(control_rule="not_yet_treated", n_folds=2, bootstrap_reps=19,
                            bootstrap_mode="fixed_nuisance")
    art = estimate_effects(panel, config)
    res = bootstrap(config, panel, "fixed_nuisance", art.fits.y_tilde,
                    aggregate_schemes(art.effects))
    point = res.summaries[("e", -4)]
    assert point.att != 0.0 and point.se == 0.0
    report = pretrend_test(res, config)
    assert [p.z for p in report.per_e if p.e == -4] == [math.inf]
    assert (report.statistic, report.p_value) == (math.inf, 0.0)


class TestPretrend:
    def pretrend(self, eff, es, se=0.5, anticipation=0):
        """The test on ``eff``'s summaries with SE ``se`` at event times ``es``."""
        results = aggregate_schemes(eff)
        summaries = {key: replace(p, se=se, ci_low=-1.0, ci_high=1.0)
                     if key[0] == "e" and key[1] in es else p
                     for key, p in results.summaries.items()}
        return pretrend_test(replace(results, summaries=summaries),
                             PipelineConfig(anticipation=anticipation))

    def test_all_zero_pre_cells_give_p_one(self):
        eff = effects_from({(3, 1): (0.0, 5, 5), (3, 2): (0.0, 5, 5),
                            (3, 3): (1.0, 5, 5)})
        rep = self.pretrend(eff, [-2, -1, 0])
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.dof == 2

    def test_statistic_matches_hand_sum(self):
        eff = effects_from({(3, 1): (0.2, 5, 5), (3, 2): (-0.1, 5, 5),
                            (3, 3): (1.0, 5, 5)})
        rep = self.pretrend(eff, [-2, -1, 0], se=0.1)
        assert_allclose(rep.statistic, (0.2 / 0.1) ** 2 + (0.1 / 0.1) ** 2,
                        rtol=1e-12)

    def test_anticipation_excludes_window(self):
        eff = effects_from({(4, 1): (0.3, 5, 5), (4, 3): (0.4, 5, 5),
                            (4, 4): (1.0, 5, 5)})
        rep = self.pretrend(eff, [-3, -1, 0], anticipation=1)
        # e = -1 lies inside the anticipation window; only e = -3 is tested
        assert rep.dof == 1
        assert [p.e for p in rep.per_e] == [-3]

    def test_chi2_survival_matches_scipy_chdtrc(self):
        special = pytest.importorskip("scipy.special")
        xs = np.r_[0.0, np.geomspace(1e-8, 1e4, 300), np.linspace(0.25, 150.0, 600)]
        for dof in range(1, 61):
            got = np.array([chi2_sf(dof, x) for x in xs])
            ref = special.chdtrc(dof, xs)
            shown = ref >= 1e-300
            assert_allclose(got[shown], ref[shown], rtol=1e-12, atol=0, err_msg=f"dof={dof}")
            assert (got[~shown] < 1e-299).all()

    def test_no_pre_cells(self):
        eff = effects_from({(2, 2): (1.0, 5, 5)})
        with pytest.raises(NoPreCellsError):
            self.pretrend(eff, [0])

    def test_tests_only_event_times_with_an_se(self):
        eff = effects_from({(4, 1): (0.3, 5, 5), (4, 2): (0.2, 5, 5),
                            (4, 4): (1.0, 5, 5)})
        rep = self.pretrend(eff, [-2, 0], se=0.1)
        assert (rep.dof, [p.e for p in rep.per_e]) == (1, [-2])
        assert_allclose(rep.statistic, (0.2 / 0.1) ** 2, rtol=1e-12)
        with pytest.raises(NoPreCellsError):
            self.pretrend(eff, [0])

    def test_relabeling_cohorts_preserves_statistic(self):
        eff1 = effects_from({(3, 1): (0.2, 5, 5), (3, 2): (-0.1, 5, 5),
                             (3, 3): (1.0, 5, 5)})
        eff2 = effects_from({(7, 5): (0.2, 5, 5), (7, 6): (-0.1, 5, 5),
                             (7, 7): (1.0, 5, 5)})
        assert self.pretrend(eff1, [-2, -1, 0], se=0.3).statistic == \
               pytest.approx(self.pretrend(eff2, [-2, -1, 0], se=0.3).statistic, rel=1e-12)


class TestPlacebo:
    def test_null_panel_placebo_covers_zero(self):
        cfg = replace(scenario("S4"), n_units=80, seed=901)
        panel = generate(cfg).panel
        pipe = PipelineConfig(bootstrap_reps=49, bootstrap_mode="fixed_nuisance",
                              seed=3, placebo_shift=1)
        rep = placebo_test(panel, pipe)
        assert isinstance(rep, SummaryPoint)
        assert rep.ci_low <= 0.0 <= rep.ci_high
        assert abs(rep.att) < 0.6

    def test_insufficient_pre_periods(self):
        panel = generate(replace(scenario("S4"), n_units=50, seed=2)).panel
        pipe = PipelineConfig(bootstrap_reps=0, seed=0, placebo_shift=3)
        # earliest cohort adopts at t=4: three pre-periods, so shift <= 2
        with pytest.raises(InsufficientPrePeriodsError):
            placebo_test(panel, pipe)

    def test_invalid_shift(self):
        for shift in (0, -1):
            with pytest.raises(ConfigError, match="placebo_shift must be >= 1"):
                PipelineConfig(seed=0, placebo_shift=shift)
        # a config without a shift runs no placebo
        with pytest.raises(ConfigError, match="needs a placebo_shift"):
            placebo_test(small_null_panel(), PipelineConfig(seed=0))


def fits_with_propensities(*cohorts):
    """Fits carrying one cohort propensity per ``(g, propensity, n_clipped)``."""
    rows = tuple(CohortPropensity(g, np.arange(len(p)), np.asarray(p, dtype=np.float64),
                                  n_clipped) for g, p, n_clipped in cohorts)
    return NuisanceFits(y_tilde=np.zeros(1), propensities=rows,
                        folds=np.zeros(1, dtype=np.intp))


class TestOverlap:
    def test_degenerate_point_mass(self):
        rep, = overlap_report(fits_with_propensities((4, np.full(100, 0.5), 0)))
        assert (rep.g, rep.n_units, rep.min, rep.max) == (4, 100, 0.5, 0.5)
        assert sum(1 for c in rep.histogram if c > 0) == 1
        assert rep.share_outside_05_95 == 0.0
        assert not rep.weak_overlap

    def test_uniform_tail_mass_matches_analytic_value(self):
        # uniform on [eps, 1-eps], eps=0.01: P(outside [.05,.95]) =
        # 2*(0.05-0.01)/0.98 = 0.081632...
        rng = np.random.default_rng(44)
        eps = 0.01
        m = rng.uniform(eps, 1 - eps, size=200_000)
        rep, = overlap_report(fits_with_propensities((4, m, 0)))
        expected = 2 * (0.05 - eps) / (1 - 2 * eps)
        mc_se = math.sqrt(expected * (1 - expected) / m.size)
        assert abs(rep.share_outside_05_95 - expected) < 4 * mc_se

    def test_weak_overlap_flag(self):
        # One row per cohort, in cohort order; each flag reads its own cohort.
        m = np.full(100, 0.5)
        weak, fine = overlap_report(fits_with_propensities((3, m, 11), (5, m, 10)))
        assert (weak.g, weak.n_clipped, weak.weak_overlap) == (3, 11, True)
        assert (fine.g, fine.n_clipped, fine.weak_overlap) == (5, 10, False)
