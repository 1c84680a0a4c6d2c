import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from sdidml.errors import (
    ConfigError,
    ConvergenceWarning,
    DimensionMismatchError,
    LearnerError,
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

    def test_split_ties_go_to_the_lowest_feature(self):
        # x and -x cut every node into the same two row sets, so their best
        # scores are equal up to rounding; feature 0 must win on every seed.
        for seed in range(400):
            rng = np.random.default_rng(seed)
            x, y = rng.standard_normal(7), rng.standard_normal(7)
            model = fit(LearnerSpec.gbt(1, 1, 1.0, 1), np.column_stack([x, -x]), y)
            assert model.trees[0].feature == 0, seed


def reference_logistic(X, y, lam, max_iter, tol):
    """Damped Newton with the Hessian as a general product and an LU solve."""
    n, p = X.shape
    Xa = np.column_stack([np.ones(n), X])
    pen = np.r_[0.0, np.full(p, lam)]
    beta = np.zeros(p + 1)

    def objective(b):
        z = Xa @ b
        return float(np.logaddexp(0.0, z).sum() - y @ z + 0.5 * (pen * b * b).sum())

    obj = objective(beta)
    for iterations in range(1, max_iter + 1):
        prob = expit(Xa @ beta)
        grad = Xa.T @ (prob - y) + pen * beta
        hess = (Xa * (prob * (1.0 - prob))[:, None]).T @ Xa + np.diag(pen)
        step = np.linalg.solve(hess, grad)
        scale, new_beta = 1.0, beta - step
        new_obj = objective(new_beta)
        for _ in range(30):
            if new_obj <= obj:
                break
            scale *= 0.5
            new_beta = beta - scale * step
            new_obj = objective(new_beta)
        delta = float(np.max(np.abs(new_beta - beta)))
        beta, obj = new_beta, new_obj
        if delta < tol:
            return beta, iterations, True
    return beta, max_iter, False


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

    @pytest.mark.parametrize("n, p", [(1280, 27), (1440, 205)], ids=["S1_fold", "S3_fold"])
    def test_newton_steps_match_the_general_solve(self, n, p):
        # The fit builds the Hessian as one symmetric product and solves it by
        # Cholesky; the reference takes the same damped Newton steps with a
        # general product and LU solve. Their iterates agree to rounding, so
        # the stop comes at the same step unless the last step's size lies
        # within rounding of tol (2 of seeds 0-9 for the S3-shaped design).
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, p))
        y = (rng.random(n) < expit(X @ rng.normal(0.0, 0.3, p))).astype(float)
        model = fit(LearnerSpec.logistic(1.0), X, y)
        beta, iterations, converged = reference_logistic(X, y, lam=1.0, max_iter=200, tol=1e-8)
        assert (model.diagnostics.iterations, model.diagnostics.converged) == (iterations,
                                                                               converged)
        assert_allclose(np.r_[model.intercept, model.coef], beta, rtol=0, atol=1e-9)


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


# One spec per regression kind; the trees use min_leaf > 1 so that a leaf's
# size is its weight.
WEIGHTED_SPECS = [LearnerSpec.mean(), LearnerSpec.ridge(0.5),
                  LearnerSpec.lasso(0.05, tol=1e-12), LearnerSpec.gbt(10, 3, 0.3, 3)]


def continuous_data(seed, n=30, p=4):
    """Features and targets with no repeated value."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    return X, X[:, 0] - X[:, p - 1] ** 2 + 0.3 * rng.standard_normal(n)


def assert_same_model(a, b):
    assert a.intercept == b.intercept
    assert a.diagnostics == b.diagnostics
    assert a.trees == b.trees
    assert (a.coef is None) == (b.coef is None)
    if a.coef is not None:
        assert_array_equal(a.coef, b.coef)


class TestSampleWeights:
    @pytest.mark.parametrize("spec", WEIGHTED_SPECS, ids=lambda s: s.kind)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.lists(st.integers(0, 3), min_size=30, max_size=30).filter(any))
    def test_integer_weights_equal_repeated_rows(self, spec, seed, counts):
        # Two features can cut a small node into the same two row sets; their
        # scores round differently for weights and for copies, and both must
        # still split on the lower feature.
        X, y = continuous_data(seed)
        weighted = fit(spec, X, y, sample_weight=np.array(counts))
        repeated = fit(spec, np.repeat(X, counts, axis=0), np.repeat(y, counts))
        assert_allclose(predict(weighted, X), predict(repeated, X), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("spec", WEIGHTED_SPECS, ids=lambda s: s.kind)
    def test_no_weights_is_the_unweighted_fit(self, spec):
        X, y = continuous_data(7)
        plain = fit(spec, X, y)
        none = fit(spec, X, y, sample_weight=None)
        assert_same_model(none, plain)
        assert_array_equal(predict(none, X), predict(plain, X))
        unit = fit(spec, X, y, sample_weight=np.ones(len(y)))
        assert_allclose(predict(unit, X), predict(plain, X), rtol=0, atol=1e-12)

    def test_ridge_without_weights_solves_the_centered_gram(self):
        X, y = continuous_data(7)
        Xc = X - X.mean(axis=0)
        beta = np.linalg.solve(Xc.T @ Xc + 0.5 * np.eye(X.shape[1]), Xc.T @ (y - y.mean()))
        assert_array_equal(fit(LearnerSpec.ridge(0.5), X, y).coef, beta)

    @pytest.mark.parametrize("spec", WEIGHTED_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("weights", [
        np.r_[-1.0, np.ones(29)], np.r_[np.nan, np.ones(29)], np.r_[np.inf, np.ones(29)],
        np.ones(29), np.zeros(30)], ids=["negative", "nan", "inf", "short", "zero_sum"])
    def test_invalid_weights_raise(self, spec, weights):
        X, y = continuous_data(1)
        with pytest.raises(LearnerError):
            fit(spec, X, y, sample_weight=weights)

    def test_logistic_takes_no_weights(self):
        X, y = continuous_data(2)
        with pytest.raises(ConfigError):
            fit(LearnerSpec.logistic(1.0), X, (y > 0).astype(float), sample_weight=np.ones(30))
