import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdidml.aggregate import subgroup_effects
from sdidml.config import PipelineConfig
from sdidml.didcore import twfe_baseline
from sdidml.errors import InvalidConfigError
from sdidml.learners import LearnerSpec
from sdidml.panel import write_panel_csv
from sdidml.pipeline import estimate_effects
from sdidml.simulate import (
    DGPConfig,
    EFFECT_KINDS,
    EffectSpec,
    SCENARIO_NAMES,
    generate,
    monte_carlo,
    scenario,
)


def small_config(**overrides):
    base = dict(n_units=40, n_periods=5, n_covariates=3,
                cohort_shares=((3, 0.3), (4, 0.2)), never_share=0.5,
                selection_strength=0.5, confounding="linear",
                effect=EffectSpec.homogeneous(1.0), noise_sd=0.5,
                trend_violation=0.0, seed=7)
    base.update(overrides)
    return DGPConfig(**base)


class TestConfigValidation:
    def test_cohort_time_domain(self):
        with pytest.raises(InvalidConfigError):
            small_config(cohort_shares=((1, 0.5),), never_share=0.5)
        with pytest.raises(InvalidConfigError):
            small_config(cohort_shares=((6, 0.5),), never_share=0.5)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(InvalidConfigError):
            small_config(never_share=0.9)

    def test_sparse_nonlinear_needs_five_covariates(self):
        with pytest.raises(InvalidConfigError):
            small_config(confounding="sparse_nonlinear", n_covariates=4)

    def test_dict_round_trip(self):
        # Through JSON text, which has lists but no tuples: every scenario
        # and every effect kind.
        effects = (EffectSpec.null(), EffectSpec.homogeneous(2.0),
                   EffectSpec.dynamic((0.5, 1.0)), EffectSpec.subgroup(0.5, 2.0))
        assert {effect.kind for effect in effects} == set(EFFECT_KINDS)
        configs = [scenario(name) for name in SCENARIO_NAMES]
        configs += [small_config(effect=effect) for effect in effects]
        for cfg in configs:
            assert DGPConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestGenerate:
    def test_null_effect_oracle_is_zero(self):
        oracle = generate(small_config(effect=EffectSpec.null()))
        assert oracle.true_overall_att == 0.0
        assert all(v == 0.0 for v in oracle.true_att.values())
        assert all(v == 0.0 for v in oracle.true_event_curve.values())

    def test_homogeneous_effect_exact_construction(self):
        cfg = small_config(effect=EffectSpec.homogeneous(2.0), noise_sd=0.0)
        oracle = generate(cfg)
        assert oracle.true_overall_att == 2.0
        assert all(v == 2.0 for v in oracle.true_att.values())
        # counterfactual check: the same seed with a null effect shares every
        # draw, so observed outcomes differ by exactly 2.0 on treated cells
        panel, null = oracle.panel, generate(replace(cfg, effect=EffectSpec.null())).panel
        assert (panel.units, panel.periods) == (null.units, null.periods)
        assert np.array_equal(panel.unit_codes, null.unit_codes)
        assert np.array_equal(panel.time_codes, null.time_codes)
        assert np.array_equal(panel.outcomes - null.outcomes, 2.0 * panel.treatments)

    def test_dynamic_event_curve_by_construction(self):
        cfg = small_config(effect=EffectSpec.dynamic((0.5, 1.0, 1.5)),
                           cohort_shares=((3, 0.5),), never_share=0.5)
        oracle = generate(cfg)
        assert oracle.true_event_curve == {0: 0.5, 1: 1.0, 2: 1.5}

    def test_oracle_att_equals_cell_mean_of_effects(self):
        cfg = small_config(effect=EffectSpec.dynamic((0.3, 0.9)))
        oracle = generate(cfg)
        for (g, t), v in oracle.true_att.items():
            e = t - g
            assert v == pytest.approx(cfg.effect.value(e, "a"), rel=1e-15)

    def test_deterministic(self):
        cfg = small_config()
        assert generate(cfg).panel == generate(cfg).panel

    def test_csv_bytes_identical(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_panel_csv(generate(cfg).panel, p1)
        write_panel_csv(generate(cfg).panel, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_panel_never_leaks_counterfactuals(self):
        oracle = generate(small_config())
        assert oracle.panel.covariate_names == ("x0", "x1", "x2")

    def test_parallel_trends_by_construction(self):
        # under a null effect with no trend violation, the treated/never gap
        # in mean outcomes has no time slope beyond Monte Carlo noise
        cfg = replace(scenario("S1"), n_units=2000, effect=EffectSpec.null(),
                      seed=88)
        oracle = generate(cfg)
        panel = oracle.panel
        ever = np.isfinite(panel.cohort_times[panel.unit_codes])
        gaps = []
        for code, t in enumerate(panel.periods):
            m = panel.time_codes == code
            gaps.append(panel.outcomes[m & ever].mean()
                        - panel.outcomes[m & ~ever].mean())
        gaps = np.array(gaps)
        ts = np.arange(len(gaps), dtype=float)
        tc = ts - ts.mean()
        slope = float(tc @ gaps) / float(tc @ tc)
        resid = gaps - gaps.mean() - slope * tc
        se = math.sqrt(float(resid @ resid) / (len(gaps) - 2) / float(tc @ tc))
        assert abs(slope) < 3 * se + 1e-12

    def test_trend_violation_creates_differential_slope(self):
        cfg = replace(scenario("S5"), n_units=2000, seed=121)
        panel = generate(cfg).panel
        ever = np.isfinite(panel.cohort_times[panel.unit_codes])
        gaps = []
        for code in range(panel.n_periods):
            m = panel.time_codes == code
            gaps.append(panel.outcomes[m & ever].mean()
                        - panel.outcomes[m & ~ever].mean())
        slope = np.polyfit(np.arange(len(gaps)), gaps, 1)[0]
        assert slope > 0.2  # configured drift is 0.3 per period


class TestScenarios:
    def test_names_and_aliases(self):
        for name in SCENARIO_NAMES:
            cfg = scenario(name)
            assert cfg == scenario(name.split("_")[0])

    def test_unknown_name_lists_valid(self):
        with pytest.raises(InvalidConfigError, match="S1_homogeneous"):
            scenario("S9")

    def test_s4_is_null(self):
        assert scenario("S4").effect == EffectSpec.null()

    def test_s1_shape(self):
        cfg = scenario("S1")
        assert (cfg.n_units, cfg.n_periods, cfg.n_covariates) == (200, 8, 20)
        assert cfg.confounding == "linear"
        assert cfg.effect == EffectSpec.homogeneous(1.0)

    def test_s2_twfe_gap_regression_constant(self):
        # frozen at build time from the oracle: the static TWFE estimate on
        # the S2 panel undershoots the true overall ATT by ~0.74
        oracle = generate(scenario("S2"))
        gap = twfe_baseline(oracle.panel).tau - oracle.true_overall_att
        assert_allclose(gap, -0.736740878644, atol=1e-9)

    def test_s3_is_high_dimensional(self):
        cfg = scenario("S3")
        assert cfg.n_covariates == 200
        assert cfg.confounding == "sparse_nonlinear"
        assert cfg.n_time_varying == 5


class TestSubgroupDgp:
    def test_split_effects_recovered(self):
        cfg = replace(scenario("S1"), n_units=500,
                      effect=EffectSpec.subgroup(1.0, 3.0), seed=777)
        oracle = generate(cfg)
        config = PipelineConfig(bootstrap_reps=0, seed=5)
        art = estimate_effects(oracle.panel, config)
        result = subgroup_effects(oracle.panel, art.fits.y_tilde, oracle.subgroup_of_unit,
                                  config)
        assert not result.failures
        assert abs(result.effects["a"].overall.att - 1.0) < 0.35
        assert abs(result.effects["b"].overall.att - 3.0) < 0.35


class TestMonteCarlo:
    def test_single_rep_bias_is_single_error(self):
        pipe = PipelineConfig(bootstrap_reps=0, seed=0)
        res = monte_carlo(small_config(), pipe, reps=1, seed=50, method="sdidml")
        rec = res.records[0]
        assert res.bias == pytest.approx(rec.estimate - rec.truth, rel=1e-15)
        assert res.rmse == pytest.approx(abs(res.bias), rel=1e-12)
        assert res.coverage is None

    def test_noiseless_exact_recovery_single_rep(self):
        # A mean outcome model is constant within a fold, so it cancels in
        # the double difference.
        cfg = replace(scenario("S1"), noise_sd=0.0,
                      effect=EffectSpec.homogeneous(2.0))
        pipe = PipelineConfig(g_learner=LearnerSpec.mean(), m_learner=LearnerSpec.mean(),
                              n_folds=2, clip_eps=0.0, bootstrap_reps=0, seed=1)
        res = monte_carlo(cfg, pipe, reps=1, seed=60, method="sdidml")
        assert abs(res.bias) < 1e-6

    def test_deterministic(self):
        pipe = PipelineConfig(bootstrap_reps=5, bootstrap_mode="fixed_nuisance",
                              seed=0)
        a = monte_carlo(small_config(), pipe, reps=3, seed=9, method="sdidml")
        b = monte_carlo(small_config(), pipe, reps=3, seed=9, method="sdidml")
        assert a == b

    def test_rep_failure_annotated(self):
        # n=2 units cannot support 5 folds -> TooManyFolds, annotated with rep
        cfg = small_config(n_units=3, cohort_shares=((3, 0.4),), never_share=0.6,
                           seed=123)
        pipe = PipelineConfig(bootstrap_reps=0, seed=0)
        with pytest.raises(Exception, match="rep 0"):
            monte_carlo(cfg, pipe, reps=1, seed=777, method="sdidml")

    def test_twfe_interval_uses_the_normal_quantile(self):
        special = pytest.importorskip("scipy.special")
        se = twfe_baseline(generate(replace(small_config(), seed=50)).panel).se
        for ci_level in (0.5, 0.8, 0.9, 0.95, 0.99):
            pipe = PipelineConfig(bootstrap_reps=0, ci_level=ci_level, seed=0)
            rec = monte_carlo(small_config(), pipe, reps=1, seed=50, method="twfe").records[0]
            assert_allclose((rec.ci_high - rec.ci_low) / (2.0 * se),
                            special.ndtri(0.5 + ci_level / 2.0), rtol=1e-12)

    def test_invalid_reps(self):
        with pytest.raises(InvalidConfigError):
            monte_carlo(small_config(), PipelineConfig(seed=0), reps=0, seed=0)
