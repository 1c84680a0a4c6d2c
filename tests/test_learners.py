import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sdidml.errors import (
    ConfigError,
    ConvergenceWarning,
    DimensionMismatchError,
    NonFiniteInputError,
    SingularSystemError,
)
from sdidml.learners import _PROB_EPS, LearnerSpec, fit, predict


def linear_data(n=50, p=5, seed=3, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.array([1.5, -2.0, 0.0, 0.5, 0.0][:p])
    y = 0.7 + X @ beta + noise * rng.standard_normal(n)
    return X, y


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            LearnerSpec("forest")

    def test_negative_penalty(self):
        with pytest.raises(ConfigError):
            LearnerSpec.ridge(-1.0)

    def test_gbt_domains(self):
        with pytest.raises(ConfigError):
            LearnerSpec.gbt(n_trees=0)
        with pytest.raises(ConfigError):
            LearnerSpec.gbt(learning_rate=0.0)

    def test_dict_round_trip(self):
        for spec in (LearnerSpec.mean(), LearnerSpec.ridge(2.0),
                     LearnerSpec.lasso(0.1), LearnerSpec.gbt(7, 2, 0.3, 4),
                     LearnerSpec.logistic(0.5)):
            assert LearnerSpec.from_dict(spec.to_dict()) == spec

    def test_alias_kind(self):
        assert LearnerSpec.from_dict(
            {"kind": "gradient_boosted_trees", "n_trees": 3}).kind == "gbt"


class TestMean:
    def test_predicts_sample_mean(self):
        X = np.zeros((3, 2))
        model = fit(LearnerSpec.mean(), X, np.array([1.0, 2.0, 3.0]))
        assert_array_equal(predict(model, X), [2.0, 2.0, 2.0])


class TestRidge:
    def test_ols_recovers_exact_linear_law(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        y = 2.0 * X[:, 0] + 1.0
        model = fit(LearnerSpec.ridge(0.0), X, y)
        assert_allclose(model.coef, [2.0, 0.0, 0.0], atol=1e-8)
        assert_allclose(model.intercept, 1.0, atol=1e-8)
        assert_allclose(predict(model, X), y, atol=1e-8)

    def test_rank_deficient_at_zero_penalty(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 2))
        X = np.column_stack([X, X[:, 0]])  # duplicated column
        with pytest.raises(SingularSystemError):
            fit(LearnerSpec.ridge(0.0), X, rng.standard_normal(20))
        fit(LearnerSpec.ridge(1e-6), X, rng.standard_normal(20))  # penalized is fine

    def test_path_continuity(self):
        X, y = linear_data(noise=0.3)
        lam = 0.7
        m1 = fit(LearnerSpec.ridge(lam), X, y)
        m2 = fit(LearnerSpec.ridge(lam * (1 + 1e-9)), X, y)
        assert np.max(np.abs(predict(m1, X) - predict(m2, X))) < 1e-6


class TestLasso:
    def test_full_shrinkage_at_large_lambda(self):
        X, y = linear_data(noise=0.5)
        model = fit(LearnerSpec.lasso(1e6), X, y)
        assert_array_equal(model.coef, np.zeros(X.shape[1]))
        assert_allclose(model.intercept, y.mean(), rtol=1e-12)

    def test_kkt_conditions_on_fixed_instance(self):
        # subgradient optimality of (1/2n)||yc - Xc b||^2 + lam*||b||_1
        X, y = linear_data(n=50, p=5, seed=11, noise=0.4)
        lam = 0.1
        model = fit(LearnerSpec.lasso(lam, max_iter=50_000, tol=1e-12), X, y)
        n = len(y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        grad = -Xc.T @ (yc - Xc @ model.coef) / n
        for j, b in enumerate(model.coef):
            if b > 0:
                assert abs(grad[j] + lam) < 1e-6
            elif b < 0:
                assert abs(grad[j] - lam) < 1e-6
            else:
                assert abs(grad[j]) <= lam + 1e-6
        assert np.count_nonzero(model.coef) > 0

    def test_matches_ols_at_zero_penalty(self):
        X, y = linear_data(n=80, p=4, seed=7, noise=0.3)
        ols = fit(LearnerSpec.ridge(0.0), X, y)
        lasso = fit(LearnerSpec.lasso(0.0, max_iter=100_000, tol=1e-13), X, y)
        assert np.max(np.abs(ols.coef - lasso.coef)) < 1e-5
        assert abs(ols.intercept - lasso.intercept) < 1e-5

    def test_non_convergence_warns_and_flags(self):
        X, y = linear_data(n=60, p=5, seed=9, noise=0.2)
        X[:, 1] = X[:, 0] + 0.01 * X[:, 1]  # highly correlated columns
        with pytest.warns(ConvergenceWarning):
            model = fit(LearnerSpec.lasso(1e-4, max_iter=1, tol=1e-14), X, y)
        assert not model.diagnostics.converged


class TestGradientBoostedTrees:
    def test_single_stump_hand_computed(self):
        # base 2.5; residuals (-1.5,-1.5,.5,2.5); split at 0.5 -> means -1.5, 1.5
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 1.0, 3.0, 5.0])
        model = fit(LearnerSpec.gbt(n_trees=1, max_depth=1, learning_rate=0.3), X, y)
        assert_allclose(predict(model, X), [2.05, 2.05, 2.95, 2.95], rtol=1e-12)

    def test_exactly_n_trees(self):
        X, y = linear_data(n=40, p=3, seed=5, noise=0.5)
        model = fit(LearnerSpec.gbt(n_trees=13, max_depth=2), X, y)
        assert len(model.trees) == 13

    def test_training_loss_non_increasing(self):
        X, y = linear_data(n=60, p=4, seed=6, noise=1.0)
        model = fit(LearnerSpec.gbt(n_trees=40, max_depth=2, learning_rate=0.2), X, y)
        losses = np.array(model.diagnostics.stage_losses)
        assert (np.diff(losses) <= 1e-12).all()

    def test_min_leaf_respected(self):
        X, y = linear_data(n=30, p=2, seed=8, noise=0.5)
        model = fit(LearnerSpec.gbt(n_trees=5, max_depth=3, min_leaf=10), X, y)

        def leaf_counts(node, X):
            if node.is_leaf:
                return [X.shape[0]]
            mask = X[:, node.feature] <= node.threshold
            return leaf_counts(node.left, X[mask]) + leaf_counts(node.right, X[~mask])

        for tree in model.trees:
            assert min(leaf_counts(tree, X)) >= 10


class TestLogistic:
    def test_separable_direction_saturates(self):
        X = np.linspace(-1, 1, 20).reshape(-1, 1)
        y = (X[:, 0] > 0).astype(float)
        with pytest.warns(ConvergenceWarning):
            model = fit(LearnerSpec.logistic(0.0, max_iter=60), X, y)
        probs = predict(model, np.array([[5.0], [-5.0]]))
        assert probs[0] > 0.99
        assert probs[1] < 0.01
        assert 0.0 < probs.min() and probs.max() < 1.0

    def test_intercept_absorbs_feature_shift(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 3))
        logits = 0.8 * X[:, 0] - 0.5 * X[:, 1]
        y = (rng.random(200) < 1 / (1 + np.exp(-logits))).astype(float)
        m1 = fit(LearnerSpec.logistic(0.0, max_iter=500, tol=1e-12), X, y)
        X_shift = X.copy()
        X_shift[:, 2] += 10.0
        m2 = fit(LearnerSpec.logistic(0.0, max_iter=500, tol=1e-12), X_shift, y)
        assert np.max(np.abs(predict(m1, X) - predict(m2, X_shift))) < 1e-8

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_constant_target_returns_at_once(self, label):
        X = np.random.default_rng(3).standard_normal((30, 2))
        model = fit(LearnerSpec.logistic(1.0), X, np.full(30, label))  # no ConvergenceWarning
        assert model.diagnostics.iterations == 0 and model.diagnostics.converged
        assert_array_equal(model.coef, 0.0)
        assert_array_equal(predict(model, X), _PROB_EPS if label == 0.0 else 1.0 - _PROB_EPS)

    def test_requires_binary_targets(self):
        X = np.zeros((4, 1))
        with pytest.raises(DimensionMismatchError):
            fit(LearnerSpec.logistic(1.0), X, np.array([0.0, 1.0, 2.0, 0.0]))


class TestContracts:
    @pytest.mark.parametrize("spec", [
        LearnerSpec.mean(), LearnerSpec.ridge(0.5), LearnerSpec.lasso(0.05),
        LearnerSpec.gbt(10, 2, 0.2, 2), LearnerSpec.logistic(0.5),
    ], ids=lambda s: s.kind)
    def test_determinism_bit_identical(self, spec):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((60, 4))
        y = ((X[:, 0] > 0).astype(float) if spec.kind == "logistic"
             else X[:, 0] - X[:, 1] + 0.1 * rng.standard_normal(60))
        m1 = fit(spec, X, y)
        m2 = fit(spec, X, y)
        assert_array_equal(predict(m1, X), predict(m2, X))
        if spec.kind == "gbt":
            flat1 = [(t.feature, t.threshold) for t in m1.trees]
            flat2 = [(t.feature, t.threshold) for t in m2.trees]
            assert flat1 == flat2
        else:
            assert_array_equal(m1.coef, m2.coef)
            assert m1.intercept == m2.intercept

    def test_dimension_mismatch(self):
        X, y = linear_data(n=20, p=3)
        model = fit(LearnerSpec.ridge(1.0), X, y)
        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros((5, 4)))
        with pytest.raises(DimensionMismatchError):
            fit(LearnerSpec.ridge(1.0), X, y[:-1])

    def test_non_finite_input(self):
        X, y = linear_data(n=20, p=3)
        X[0, 0] = np.nan
        with pytest.raises(NonFiniteInputError):
            fit(LearnerSpec.ridge(1.0), X, y)
