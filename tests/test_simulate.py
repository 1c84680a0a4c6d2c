import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdidml.aggregate import overall_att
from sdidml.didcore import subgroup_effects, twfe_baseline
from sdidml.errors import InvalidConfigError
from sdidml.learners import LearnerSpec
from sdidml.panel import to_records, write_panel_csv
from sdidml.pipeline import PipelineConfig, estimate_effects
from sdidml.simulate import (
    DGPConfig,
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
        cfg = small_config(effect=EffectSpec.dynamic((0.5, 1.0)))
        assert DGPConfig.from_dict(cfg.to_dict()) == cfg


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
        null = generate(replace(cfg, effect=EffectSpec.null()))
        for obs, obs0 in zip(to_records(oracle.panel), to_records(null.panel)):
            assert (obs["unit"], obs["time"]) == (obs0["unit"], obs0["time"])
            diff = obs["outcome"] - obs0["outcome"]
            assert diff == (2.0 if obs["treatment"] else 0.0)

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
        keys = set(to_records(oracle.panel)[0].keys())
        assert keys == {"unit", "time", "outcome", "treatment", "x0", "x1", "x2"}

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
        art = estimate_effects(oracle.panel, PipelineConfig(bootstrap_reps=0, seed=5))
        result = subgroup_effects(art.resid, oracle.subgroup_of_unit)
        assert not result.failures
        att_a, _ = overall_att(result.effects["a"])
        att_b, _ = overall_att(result.effects["b"])
        assert abs(att_a - 1.0) < 0.35
        assert abs(att_b - 3.0) < 0.35


class TestMonteCarlo:
    def test_single_rep_bias_is_single_error(self):
        pipe = PipelineConfig(bootstrap_reps=0, seed=0)
        res = monte_carlo(small_config(), pipe, reps=1, seed=50, method="sdidml")
        rec = res.records[0]
        assert res.bias == pytest.approx(rec.estimate - rec.truth, rel=1e-15)
        assert res.rmse == pytest.approx(abs(res.bias), rel=1e-12)
        assert res.coverage is None

    def test_noiseless_exact_recovery_single_rep(self):
        cfg = replace(scenario("S1"), noise_sd=0.0,
                      effect=EffectSpec.homogeneous(2.0))
        pipe = PipelineConfig(g_learner=LearnerSpec.ridge(1e-8),
                              m_learner=LearnerSpec.ridge(1e-8),
                              n_folds=1, clip_eps=0.0, bootstrap_reps=0, seed=1)
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

    def test_invalid_reps(self):
        with pytest.raises(InvalidConfigError):
            monte_carlo(small_config(), PipelineConfig(seed=0), reps=0, seed=0)
