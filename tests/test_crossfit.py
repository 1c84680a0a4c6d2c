import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sdidml.crossfit import (
    FoldAssignment,
    assign_folds,
    crossfit_nuisance,
    nuisance_features,
)
from sdidml.errors import (
    ConfigError,
    TooManyFoldsError,
)
from sdidml.learners import LearnerSpec
from sdidml.panel import build_panel, to_records
from sdidml.pipeline import PipelineConfig, estimate_effects


def toy_panel(n_units=10, n_periods=2, treated_units=(), treat_from=2, seed=0):
    """Small panel with deterministic outcomes and optional treated units."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n_units):
        unit = f"u{i}"
        for t in range(1, n_periods + 1):
            d = 1 if (i in treated_units and t >= treat_from) else 0
            recs.append({"unit": unit, "time": t,
                         "outcome": float(i + 10 * t + 0.1 * rng.standard_normal()),
                         "treatment": d, "x0": float(rng.standard_normal()),
                         "x1": float(rng.standard_normal())})
    return build_panel(recs)


class TestAssignFolds:
    def test_single_fold_diagnostic_mode(self):
        panel = toy_panel(treated_units=(0,))
        folds = assign_folds(panel, 1, seed=0)
        assert set(folds.fold_of_unit.values()) == {0}

    def test_balanced_split(self):
        panel = toy_panel(treated_units=(0, 1))
        folds = assign_folds(panel, 5, seed=1)
        sizes = np.bincount(list(folds.fold_of_unit.values()), minlength=5)
        assert sizes.tolist() == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        panel = toy_panel(treated_units=(0,))
        a = assign_folds(panel, 3, seed=9)
        b = assign_folds(panel, 3, seed=9)
        assert dict(a.fold_of_unit) == dict(b.fold_of_unit)
        c = assign_folds(panel, 3, seed=10)
        assert dict(a.fold_of_unit) != dict(c.fold_of_unit)

    def test_too_many_folds(self):
        panel = toy_panel(treated_units=(0,))
        with pytest.raises(TooManyFoldsError):
            assign_folds(panel, 11, seed=0)


def explicit_folds(panel, split=5):
    fold_of_unit = {u: (0 if i < split else 1)
                    for i, u in enumerate(panel.units)}
    return FoldAssignment(2, fold_of_unit)


class TestCrossfitNuisance:
    def test_mean_learner_uses_complement_fold(self):
        panel = toy_panel(treated_units=(0, 1, 2), treat_from=1, seed=4)
        folds = explicit_folds(panel)
        fits = crossfit_nuisance(panel, LearnerSpec.mean(), LearnerSpec.mean(),
                                 folds, clip_eps=0.01)
        fold_of_obs = np.array([folds.fold_of_unit[panel.units[c]]
                                for c in panel.unit_codes])
        y = panel.outcomes
        # fold-0 predictions equal the fold-1 outcome mean, and vice versa
        assert_allclose(fits.g_hat[fold_of_obs == 0], y[fold_of_obs == 1].mean(),
                        rtol=1e-12)
        assert_allclose(fits.g_hat[fold_of_obs == 1], y[fold_of_obs == 0].mean(),
                        rtol=1e-12)

    def test_treated_share_hand_computed(self):
        # units u0..u4 in fold 0 (u0,u1,u2 treated both periods: 6 treated obs),
        # u5..u9 in fold 1 (untreated): 6/20 = 30% treated overall.
        panel = toy_panel(treated_units=(0, 1, 2), treat_from=1, seed=4)
        folds = explicit_folds(panel)
        fits = crossfit_nuisance(panel, LearnerSpec.mean(), LearnerSpec.mean(),
                                 folds, clip_eps=0.01)
        fold_of_obs = np.array([folds.fold_of_unit[panel.units[c]]
                                for c in panel.unit_codes])
        # complement of fold 0 is fold 1: share 0/10 -> clipped to 0.01
        assert_allclose(fits.m_hat[fold_of_obs == 0], 0.01)
        # complement of fold 1 is fold 0: share 6/10, unclipped
        assert_allclose(fits.m_hat[fold_of_obs == 1], 0.6, rtol=1e-12)
        assert fits.n_clipped == 10

    def test_clipping_rule_and_monotonicity(self):
        panel = toy_panel(treated_units=(0,), treat_from=2, seed=2)
        folds = assign_folds(panel, 2, seed=0)
        n_clipped = []
        for eps in (0.2, 0.1, 0.05, 0.0):
            fits = crossfit_nuisance(panel, LearnerSpec.mean(), LearnerSpec.mean(),
                                     folds, clip_eps=eps)
            assert fits.m_hat.min() >= eps
            assert fits.m_hat.max() <= 1 - eps
            n_clipped.append(fits.n_clipped)
        assert n_clipped == sorted(n_clipped, reverse=True)
        assert n_clipped[-1] == 0  # eps=0 moves nothing here (shares within [0,1])

    def test_invalid_clip_eps(self):
        panel = toy_panel(treated_units=(0,))
        folds = assign_folds(panel, 2, seed=0)
        with pytest.raises(ConfigError):
            crossfit_nuisance(panel, LearnerSpec.mean(), LearnerSpec.mean(),
                              folds, clip_eps=0.5)

    def test_logistic_rejected_for_outcome(self):
        panel = toy_panel(treated_units=(0,))
        folds = assign_folds(panel, 2, seed=0)
        with pytest.raises(ConfigError):
            crossfit_nuisance(panel, LearnerSpec.logistic(1.0),
                              LearnerSpec.logistic(1.0), folds)

    def test_out_of_fold_purity_under_perturbation(self):
        panel = toy_panel(n_units=12, n_periods=3, treated_units=(0, 1),
                          treat_from=2, seed=6)
        folds = assign_folds(panel, 3, seed=2)
        spec = LearnerSpec.ridge(0.1)
        fits = crossfit_nuisance(panel, spec, LearnerSpec.mean(), folds)

        # perturb one observation's outcome and refit with the same folds
        records = to_records(panel)
        victim = records[0]
        perturbed = build_panel([dict(o, outcome=o["outcome"] + (100.0 if o is victim else 0.0))
                                 for o in records])
        fits2 = crossfit_nuisance(perturbed, spec, LearnerSpec.mean(), folds)

        fold_of_obs = np.array([folds.fold_of_unit[panel.units[c]]
                                for c in panel.unit_codes])
        own = folds.fold_of_unit[victim["unit"]]
        assert_array_equal(fits.g_hat[fold_of_obs == own],
                           fits2.g_hat[fold_of_obs == own])
        assert not np.array_equal(fits.g_hat[fold_of_obs != own],
                                  fits2.g_hat[fold_of_obs != own])


class TestResidualize:
    def test_arithmetic(self):
        # the pipeline's y_tilde is Y - g_hat, in observation order, read-only
        panel = toy_panel(n_units=2, treated_units=(0,), treat_from=2)
        config = PipelineConfig(g_learner=LearnerSpec.mean(), m_learner=LearnerSpec.mean(),
                                n_folds=1, clip_eps=0.0)
        art = estimate_effects(panel, config)
        assert_array_equal(art.y_tilde, panel.outcomes - art.fits.g_hat)
        assert not art.y_tilde.flags.writeable

    def test_perfect_fit_gives_zero_residual(self):
        # Y exactly linear in covariates, K=1 OLS -> y_tilde ~ 0
        recs = []
        rng = np.random.default_rng(3)
        for i in range(8):
            for t in (1, 2):
                x = rng.standard_normal()
                recs.append({"unit": f"u{i}", "time": t, "outcome": 2.0 * x + 1.0,
                             "treatment": 1 if (i == 0 and t == 2) else 0, "x0": x})
        panel = build_panel(recs)
        folds = assign_folds(panel, 1, seed=0)
        fits = crossfit_nuisance(panel, LearnerSpec.ridge(0.0), LearnerSpec.mean(),
                                 folds, clip_eps=0.0)
        assert np.max(np.abs(panel.outcomes - fits.g_hat)) < 1e-8


class TestOrthogonality:
    def make_cross_section(self, n=120, p=4, seed=13):
        rng = np.random.default_rng(seed)
        recs = []
        for i in range(n):
            x = rng.standard_normal(p)
            d = int(rng.random() < 0.5)
            y = 1.0 + x @ np.linspace(1, 2, p) + 0.7 * d + rng.standard_normal()
            rec = {"unit": f"u{i:04d}", "time": 1, "outcome": float(y),
                   "treatment": d}
            rec.update({f"x{j}": float(x[j]) for j in range(p)})
            recs.append(rec)
        return build_panel(recs)

    def test_k1_ols_residuals_orthogonal_to_features(self):
        panel = self.make_cross_section()
        folds = assign_folds(panel, 1, seed=0)
        fits = crossfit_nuisance(panel, LearnerSpec.ridge(0.0),
                                 LearnerSpec.ridge(0.0), folds, clip_eps=0.0)
        assert fits.n_clipped == 0
        y_tilde = panel.outcomes - fits.g_hat
        d_tilde = panel.treatments - fits.m_hat
        F, _ = nuisance_features(panel)
        n = panel.n_obs
        assert abs(y_tilde.mean()) < 1e-8
        assert abs(d_tilde.mean()) < 1e-8
        for j in range(F.shape[1]):
            assert abs(F[:, j] @ y_tilde) / n < 1e-8
            assert abs(F[:, j] @ d_tilde) / n < 1e-8

    def test_k1_mean_learner_zero_mean_treatment_residual(self):
        # 8 units x 2 periods, 4 treated observations: shares exactly representable
        recs = []
        for i in range(8):
            for t in (1, 2):
                d = 1 if (i < 2 and t >= 1) else 0
                recs.append({"unit": f"u{i}", "time": t, "outcome": float(i),
                             "treatment": d, "x0": float(t)})
        panel = build_panel(recs)
        folds = assign_folds(panel, 1, seed=0)
        fits = crossfit_nuisance(panel, LearnerSpec.mean(), LearnerSpec.mean(),
                                 folds, clip_eps=0.0)
        assert (panel.treatments - fits.m_hat).mean() == 0.0
