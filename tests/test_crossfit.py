import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from panels import panel_of
from sdidml.config import PipelineConfig
from sdidml.crossfit import (
    assign_folds,
    crossfit_nuisance,
    nuisance_features,
    outcome_residuals,
)
from sdidml.errors import (
    AlignmentMismatchError,
    ConfigError,
    TooManyFoldsError,
)
from sdidml.didcore import estimate_group_time
from sdidml.learners import LearnerSpec, fit, predict
from sdidml.panel import PanelDataset
from sdidml.pipeline import estimate_effects


def toy_panel(n_units=10, n_periods=2, treated_units=(), treat_from=2, seed=0):
    """Small panel with deterministic outcomes and optional treated units."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_units):
        for t in range(1, n_periods + 1):
            d = 1 if (i in treated_units and t >= treat_from) else 0
            rows.append((f"u{i}", t, i + 10 * t + 0.1 * rng.standard_normal(), d,
                         rng.standard_normal(), rng.standard_normal()))
    return panel_of(rows)


def with_columns(panel, **columns):
    """``panel`` rebuilt with some of its outcomes, treatments or covariates replaced."""
    get = {"outcomes": panel.outcomes, "treatments": panel.treatments,
           "covariates": panel.covariates, **columns}
    return PanelDataset(np.asarray(panel.units)[panel.unit_codes],
                        np.asarray(panel.periods)[panel.time_codes], get["outcomes"],
                        get["treatments"], get["covariates"], panel.covariate_names)


class TestAssignFolds:
    def test_fewer_than_two_folds_rejected(self):
        # one fold would train and predict on the same units
        panel = toy_panel(treated_units=(0,))
        for n_folds in (1, 0, -1):
            with pytest.raises(ConfigError):
                assign_folds(panel, n_folds, seed=0)
            with pytest.raises(ConfigError):
                PipelineConfig(n_folds=n_folds)

    def test_balanced_split(self):
        panel = toy_panel(treated_units=(0, 1))
        folds = assign_folds(panel, 5, seed=1)
        sizes = np.bincount(folds, minlength=5)
        assert sizes.tolist() == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        panel = toy_panel(treated_units=(0,))
        a = assign_folds(panel, 3, seed=9)
        b = assign_folds(panel, 3, seed=9)
        assert np.array_equal(a, b)
        c = assign_folds(panel, 3, seed=10)
        assert not np.array_equal(a, c)

    def test_too_many_folds(self):
        panel = toy_panel(treated_units=(0,))
        with pytest.raises(TooManyFoldsError):
            assign_folds(panel, 11, seed=0)

    @pytest.mark.parametrize("n_units, n_folds, seed", [
        (2, 2, 0), (7, 2, 3), (10, 3, 9), (12, 5, 1), (13, 13, 44)])
    def test_code_array_deals_the_shuffled_units_round_robin(self, n_units, n_folds, seed):
        # The assignment made as a {unit id: fold} map: the unit at
        # position i of the shuffled order gets fold i mod K.
        panel = toy_panel(n_units=n_units)
        units = panel.units
        order = np.random.default_rng(seed).permutation(len(units))
        by_id = {units[j]: i % n_folds for i, j in enumerate(order)}
        folds = assign_folds(panel, n_folds, seed)
        assert folds.dtype == np.intp and not folds.flags.writeable
        assert folds.tolist() == [by_id[u] for u in units]


class TestNuisanceFeatures:
    def test_standardized_column_hand_values(self):
        # population SD of (1, 2, 3) is sqrt(2/3)
        panel = panel_of([("A", 1, 0.0, 0, 1.0), ("A", 2, 0.0, 0, 2.0),
                          ("B", 1, 0.0, 0, 3.0)])
        assert_allclose(nuisance_features(panel)[:, 0],
                        [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)

    def test_constant_column_centered_with_unit_scale(self):
        # scaled by its zero SD, the centered column would be 0/0
        panel = panel_of([("A", 1, 0.0, 0, 7.0), ("B", 1, 0.0, 0, 7.0)])
        assert_array_equal(nuisance_features(panel)[:, 0], [0.0, 0.0])

    def test_weighted_standardization_hand_values(self):
        # weights (1, 3, 0) on (1, 2, 3): mean 7/4, population SD sqrt(3)/4
        panel = panel_of([("A", 1, 0.0, 0, 1.0), ("A", 2, 0.0, 0, 2.0),
                          ("B", 1, 0.0, 0, 3.0)])
        features = nuisance_features(panel, sample_weight=np.array([1.0, 3.0, 0.0]))
        assert_allclose(features[:, 0],
                        (np.array([1.0, 2.0, 3.0]) - 1.75) / (np.sqrt(3.0) / 4.0),
                        rtol=1e-15)


def explicit_folds(panel, split=5):
    return (np.arange(panel.n_units) >= split).astype(np.intp)


def learners_config(g_learner=LearnerSpec.mean(), m_learner=LearnerSpec.mean(), **settings):
    """A config with the given nuisance learners, both the mean learner by default."""
    return PipelineConfig(g_learner=g_learner, m_learner=m_learner, **settings)


class TestCrossfitNuisance:
    def test_mean_learner_uses_complement_fold(self):
        panel = toy_panel(treated_units=(0, 1, 2), treat_from=1, seed=4)
        folds = explicit_folds(panel)
        fits = crossfit_nuisance(panel, learners_config(n_folds=2, clip_eps=0.01), folds)
        fold_of_obs = folds[panel.unit_codes]
        y = panel.outcomes
        g_hat = y - fits.y_tilde
        # fold-0 predictions equal the fold-1 outcome mean, and vice versa
        assert_allclose(g_hat[fold_of_obs == 0], y[fold_of_obs == 1].mean(), rtol=1e-12)
        assert_allclose(g_hat[fold_of_obs == 1], y[fold_of_obs == 0].mean(), rtol=1e-12)

    def test_treated_share_hand_computed(self):
        # Cohort 2 is u0, u1, u2 (treated from t=2, base period 1); u3..u9 are
        # never treated, so cohort 2's fit sample is all ten units. Folds:
        # u0..u4 in fold 0, u5..u9 in fold 1.
        panel = toy_panel(treated_units=(0, 1, 2), treat_from=2, seed=4)
        folds = explicit_folds(panel)
        fits = crossfit_nuisance(panel, learners_config(n_folds=2, clip_eps=0.01), folds)
        cohort, = fits.propensities
        assert cohort.g == 2
        assert_array_equal(cohort.units, np.arange(10))
        # fold 0's units get the cohort's share among fold 1's units,
        # 0/5, clipped to 0.01
        assert_array_equal(cohort.propensity[:5], 0.01)
        # fold 1's units get its share among fold 0's units, 3/5, unclipped
        assert_allclose(cohort.propensity[5:], 0.6, rtol=1e-12)
        assert cohort.n_clipped == 5

    def test_clipping_rule_and_monotonicity(self):
        panel = toy_panel(treated_units=(0,), treat_from=2, seed=2)
        folds = assign_folds(panel, 2, seed=0)
        n_clipped = []
        for eps in (0.2, 0.1, 0.05, 0.0):
            fits = crossfit_nuisance(panel, learners_config(n_folds=2, clip_eps=eps), folds)
            cohort, = fits.propensities
            assert cohort.propensity.min() >= eps
            assert cohort.propensity.max() <= 1 - eps
            n_clipped.append(cohort.n_clipped)
        assert n_clipped == sorted(n_clipped, reverse=True)
        assert n_clipped[-1] == 0  # eps=0 moves nothing here (shares within [0,1])

    def test_invalid_clip_eps(self):
        # the config that crossfit_nuisance reads checks its clip once
        for eps in (0.5, -0.01):
            with pytest.raises(ConfigError):
                learners_config(clip_eps=eps)

    def test_logistic_rejected_for_outcome(self):
        with pytest.raises(ConfigError):
            learners_config(g_learner=LearnerSpec.logistic(1.0),
                            m_learner=LearnerSpec.logistic(1.0))

    # The ten units' folds under K = 2: one code short, one too many, and
    # one of the right length with a label K does not allow, whose units
    # would be left unpredicted.
    @pytest.mark.parametrize("folds", [
        pytest.param(np.arange(9) % 2, id="9"),
        pytest.param(np.arange(11) % 2, id="11"),
        pytest.param(np.arange(10) % 3, id="label_out_of_range")])
    def test_a_fold_array_of_another_length_is_rejected(self, folds):
        panel = toy_panel(treated_units=(0,))
        config = learners_config(n_folds=2)
        with pytest.raises(AlignmentMismatchError):
            outcome_residuals(panel, config, folds)
        with pytest.raises(AlignmentMismatchError):
            crossfit_nuisance(panel, config, folds)

    # Unit weights 1-3 over the observations, as a full-mode bootstrap
    # replicate passes its draw counts; unit 0 is drawn twice.
    @pytest.mark.parametrize("unit_weights", [
        pytest.param(None, id="unweighted"),
        pytest.param([2, 1, 3, 1, 2, 2, 1, 3, 1, 1, 2, 3], id="weighted")])
    def test_out_of_fold_purity_under_perturbation(self, unit_weights):
        panel = toy_panel(n_units=12, n_periods=3, treated_units=(0, 1),
                          treat_from=2, seed=6)
        weights = None if unit_weights is None else np.array(
            unit_weights, dtype=np.float64)[panel.unit_codes]
        folds = assign_folds(panel, 3, seed=2)
        config = learners_config(g_learner=LearnerSpec.ridge(0.1))
        y_tilde = outcome_residuals(panel, config, folds, weights)

        # perturb one observation's outcome and refit with the same folds
        outcomes = panel.outcomes.copy()
        outcomes[0] += 100.0
        y_tilde2 = outcome_residuals(with_columns(panel, outcomes=outcomes), config, folds,
                                     weights)

        # g_hat = Y - y_tilde: on the perturbed unit's fold only row 0's Y moved
        fold_of_obs = folds[panel.unit_codes]
        own = fold_of_obs == fold_of_obs[0]
        assert y_tilde2[0] - y_tilde[0] == pytest.approx(100.0, abs=1e-9)
        assert_array_equal(y_tilde[own][1:], y_tilde2[own][1:])
        assert not np.array_equal(y_tilde[~own], y_tilde2[~own])


class TestResidualize:
    def test_arithmetic(self):
        # the pipeline's y_tilde is Y - g_hat, in observation order, read-only:
        # with the mean learner and two one-unit folds, g_hat on one unit's
        # rows is the other unit's mean outcome
        panel = toy_panel(n_units=2, treated_units=(0,), treat_from=2)
        config = PipelineConfig(g_learner=LearnerSpec.mean(), m_learner=LearnerSpec.mean(),
                                n_folds=2, clip_eps=0.0)
        y_tilde = estimate_effects(panel, config).fits.y_tilde
        y = panel.outcomes.reshape(2, 2)
        assert_allclose(y_tilde, (y - y[::-1].mean(axis=1, keepdims=True)).ravel(),
                        rtol=1e-12)
        assert not y_tilde.flags.writeable

    def test_perfect_fit_gives_zero_residual(self):
        # Y exactly linear in covariates: an OLS fit on either fold predicts
        # the other exactly, so y_tilde ~ 0
        rows = []
        rng = np.random.default_rng(3)
        for i in range(8):
            for t in (1, 2):
                x = rng.standard_normal()
                rows.append((f"u{i}", t, 2.0 * x + 1.0, int(i == 0 and t == 2), x))
        panel = panel_of(rows)
        folds = assign_folds(panel, 2, seed=0)
        fits = crossfit_nuisance(panel, learners_config(g_learner=LearnerSpec.ridge(0.0),
                                                        clip_eps=0.0), folds)
        assert np.max(np.abs(fits.y_tilde)) < 1e-8


class TestOrthogonality:
    """In-sample fits of the learners the cross-fit calls, on the features it builds."""

    def make_two_period_panel(self, n=120, p=4, seed=13):
        """Half the units adopt at t=2 (cohort 2, base period 1)."""
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n):
            treated = rng.random() < 0.5
            for t in (1, 2):
                x = rng.standard_normal(p)
                d = int(treated and t == 2)
                y = 1.0 + x @ np.linspace(1, 2, p) + 0.5 * t + 0.7 * d + rng.standard_normal()
                rows.append((f"u{i:04d}", t, y, d, *x))
        return panel_of(rows)

    def test_ols_residuals_orthogonal_to_features(self):
        panel = self.make_two_period_panel()
        F = nuisance_features(panel)
        ols = fit(LearnerSpec.ridge(0.0), F, panel.outcomes)
        y_tilde = panel.outcomes - predict(ols, F)
        n = panel.n_obs
        assert abs(y_tilde.mean()) < 1e-8
        for j in range(F.shape[1]):
            assert abs(F[:, j] @ y_tilde) / n < 1e-8
        # The cohort indicator's residual on the covariates at the base
        # period is orthogonal to them, over every unit.
        X_base = panel.covariates[panel.time_codes == 0]
        in_cohort = (panel.cohort_times == 2.0).astype(np.float64)
        residual = in_cohort - predict(fit(LearnerSpec.ridge(0.0), X_base, in_cohort), X_base)
        assert abs(residual.mean()) < 1e-8
        for j in range(X_base.shape[1]):
            assert abs(X_base[:, j] @ residual) / panel.n_units < 1e-8

    def test_mean_learner_zero_mean_treatment_residual(self):
        # 8 units, 2 of them in cohort 2: the share is exactly representable
        X = np.arange(8.0)[:, None]
        in_cohort = (np.arange(8) < 2).astype(np.float64)
        propensity = predict(fit(LearnerSpec.mean(), X, in_cohort), X)
        assert_array_equal(propensity, 0.25)
        assert (in_cohort - propensity).mean() == 0.0


def cohort_panel(cohort_of, n_periods=6, p=3, seed=0):
    """One unit per entry of ``cohort_of`` (its adoption period, or None for
    never treated), with random outcomes and covariates."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, g in enumerate(cohort_of):
        for t in range(1, n_periods + 1):
            rows.append((f"u{i:02d}", t, rng.standard_normal(), int(g is not None and t >= g),
                         *rng.standard_normal(p)))
    return panel_of(rows)


def propensity_of_unit(fits, panel):
    """``{g: {unit id: propensity}}`` of every cohort's fit sample."""
    return {c.g: {panel.units[u]: p for u, p in zip(c.units, c.propensity)}
            for c in fits.propensities}


class TestCohortPropensity:
    def test_out_of_fold_under_perturbation(self):
        # The victim moves from cohort 3 to cohort 4, and its covariates
        # change: only the models trained on it, those of the other folds,
        # may change.
        cohort_of = [3] * 8 + [4] * 8 + [None] * 14
        panel = cohort_panel(cohort_of, seed=5)
        folds = assign_folds(panel, 3, seed=1)
        config = learners_config(g_learner=LearnerSpec.ridge(1.0),
                                 m_learner=LearnerSpec.logistic(1.0))
        before = propensity_of_unit(crossfit_nuisance(panel, config, folds), panel)

        victim = panel.units[0]
        own_rows = panel.unit_codes == 0
        times = np.asarray(panel.periods)[panel.time_codes]
        perturbed = with_columns(panel, treatments=np.where(own_rows, times >= 4, panel.treatments),
                                 covariates=panel.covariates + 5.0 * own_rows[:, None])
        assert perturbed.cohort_times[0] == 4.0
        after = propensity_of_unit(crossfit_nuisance(perturbed, config, folds), perturbed)

        assert before.keys() == after.keys() == {3, 4}
        fold_of_unit = dict(zip(panel.units, folds.tolist()))
        own = fold_of_unit[victim]
        changed = 0
        for g in (3, 4):
            others = (before[g].keys() & after[g].keys()) - {victim}
            assert others
            for unit in others:
                if fold_of_unit[unit] == own:
                    assert before[g][unit] == after[g][unit], (g, unit)
                else:
                    changed += before[g][unit] != after[g][unit]
        assert changed > 0

    @pytest.mark.parametrize("control_rule, anticipation, expected", [
        ("never_treated", 0, {3: {3, None}, 4: {4, None}, 5: {5, None}}),
        ("never_treated", 1, {3: {3, None}, 4: {4, None}, 5: {5, None}}),
        ("not_yet_treated", 0, {3: {3, 4, 5, None}, 4: {4, 5, None}, 5: {5, None}}),
        # a unit adopting at g + 1 is excluded, one adopting at g + 2 included
        ("not_yet_treated", 1, {3: {3, 5, None}, 4: {4, None}, 5: {5, None}}),
    ])
    def test_fit_sample_follows_control_rule_and_anticipation(self, control_rule,
                                                              anticipation, expected):
        cohort_of = [3, 3, 4, 4, 5, 5, None, None, None]
        panel = cohort_panel(cohort_of, n_periods=6)
        config = learners_config(control_rule=control_rule, anticipation=anticipation)
        fits = crossfit_nuisance(panel, config, assign_folds(panel, 3, seed=0))
        samples = {c.g: {cohort_of[u] for u in c.units} for c in fits.propensities}
        assert samples == expected
        # The sample's controls are the controls of the cohort's cell (g, g).
        effects = estimate_group_time(panel, fits.y_tilde, config)
        n_control = dict(zip(effects.keys, effects.n_control))
        for c in fits.propensities:
            controls = sum(cohort_of[u] != c.g for u in c.units)
            assert n_control[(c.g, c.g)] == controls
