"""In-house supervised learners for the nuisance functions E[Y|X] and E[D|X].

Five learner kinds are available: a constant-mean baseline, ridge and lasso
linear models, greedy gradient-boosted regression trees, and L2-penalized
logistic regression for binary treatment models. All fits are deterministic
functions of (spec, data). The regression kinds also take per-row sample
weights: a row of integer weight c counts as c copies of that row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.special import expit

from .errors import (
    ConfigError,
    ConvergenceWarning,
    DimensionMismatchError,
    LearnerError,
    NonFiniteInputError,
    SingularSystemError,
    json_number,
)

KINDS = ("mean", "ridge", "lasso", "gbt", "logistic")
_KIND_ALIASES = {
    "mean": "mean",
    "ridge": "ridge",
    "lasso": "lasso",
    "gbt": "gbt",
    "gradient_boosted_trees": "gbt",
    "logistic": "logistic",
}
# JSON learner parameter -> field type, checked by errors.json_number.
_PARAM_TYPES = {"lambda": float, "tol": float, "learning_rate": float,
                "max_iter": int, "n_trees": int, "max_depth": int, "min_leaf": int}


@dataclass(frozen=True)
class LearnerSpec:
    """Hyperparameter bundle selecting and configuring one learner kind."""

    kind: str
    lam: float = 0.0              # ridge / lasso / logistic penalty
    max_iter: int = 1000          # lasso sweeps / logistic Newton iterations
    tol: float = 1e-8
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 1

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown learner kind {self.kind!r}; "
                              f"expected one of {KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.lam < 0:
            raise ConfigError("penalty lambda must be >= 0")
        if kind in ("lasso", "logistic") and (self.max_iter < 1 or self.tol <= 0):
            raise ConfigError("max_iter must be >= 1 and tol > 0")
        if kind == "gbt":
            if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
                raise ConfigError("n_trees, max_depth and min_leaf must be >= 1")
            if not 0 < self.learning_rate <= 1:
                raise ConfigError("learning_rate must be in (0, 1]")

    # convenience constructors
    @classmethod
    def mean(cls) -> "LearnerSpec":
        return cls("mean")

    @classmethod
    def ridge(cls, lam: float) -> "LearnerSpec":
        return cls("ridge", lam=lam)

    @classmethod
    def lasso(cls, lam: float, max_iter: int = 10_000, tol: float = 1e-8) -> "LearnerSpec":
        return cls("lasso", lam=lam, max_iter=max_iter, tol=tol)

    @classmethod
    def gbt(cls, n_trees: int = 100, max_depth: int = 3,
            learning_rate: float = 0.1, min_leaf: int = 1) -> "LearnerSpec":
        return cls("gbt", n_trees=n_trees, max_depth=max_depth,
                   learning_rate=learning_rate, min_leaf=min_leaf)

    @classmethod
    def logistic(cls, lam: float = 1.0, max_iter: int = 200, tol: float = 1e-8) -> "LearnerSpec":
        return cls("logistic", lam=lam, max_iter=max_iter, tol=tol)

    def to_dict(self) -> dict:
        if self.kind == "mean":
            return {"kind": "mean"}
        if self.kind in ("ridge", "lasso", "logistic"):
            d = {"kind": self.kind, "lambda": self.lam}
            if self.kind != "ridge":
                d.update(max_iter=self.max_iter, tol=self.tol)
            return d
        return {"kind": "gbt", "n_trees": self.n_trees, "max_depth": self.max_depth,
                "learning_rate": self.learning_rate, "min_leaf": self.min_leaf}

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError(f"learner spec must be an object with a 'kind': {d!r}")
        kw = dict(d)
        kind = kw.pop("kind")
        for key, value in kw.items():
            if key in _PARAM_TYPES:  # an unknown parameter fails in the constructor
                kw[key] = json_number(value, _PARAM_TYPES[key],
                                      f"learner parameter {key!r}")
        if "lambda" in kw:
            kw["lam"] = kw.pop("lambda")
        try:
            return cls(kind, **kw)
        except TypeError as exc:
            raise ConfigError(f"bad learner parameters for {kind!r}: {exc}") from None


@dataclass(frozen=True)
class TrainingDiagnostics:
    iterations: int
    objective: float
    converged: bool
    stage_losses: tuple[float, ...] = ()


@dataclass(frozen=True)
class _TreeNode:
    """Binary regression-tree node; leaves carry the mean residual."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class FittedModel:
    """Deterministic fitted learner; predict() is a pure function of this."""

    spec: LearnerSpec
    n_features: int
    intercept: float
    coef: Optional[np.ndarray] = None
    trees: tuple[_TreeNode, ...] = ()
    diagnostics: TrainingDiagnostics = field(
        default_factory=lambda: TrainingDiagnostics(0, 0.0, True))


def _check_training_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("features must be a 2-d matrix")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"targets of length {y.shape} do not match {X.shape[0]} feature rows")
    if X.shape[0] < 1:
        raise DimensionMismatchError("need at least one training row")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise NonFiniteInputError("training data contains NaN or infinity")
    return X, y


def check_sample_weight(sample_weight, n: int) -> Optional[np.ndarray]:
    """Per-row weights for ``n`` rows as floats: finite, non-negative, positive sum."""
    if sample_weight is None:
        return None
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatchError(
            f"sample weights of shape {w.shape} do not match {n} rows")
    total = w.sum()  # NaN or infinite if any weight is
    if not (np.isfinite(total) and total > 0 and w.min() >= 0):
        raise LearnerError("sample weights must be finite and non-negative "
                           "with a positive sum")
    return w


# -- linear fits ---------------------------------------------------------------


def _centered(X: np.ndarray, y: np.ndarray, w: Optional[np.ndarray]):
    """Means of X and y and the centered data.

    With weights the means are weighted and the centered rows are scaled by
    sqrt(w), so that plain sums of squares and products of the returned
    rows are the weighted ones.
    """
    if w is None:
        xm = X.mean(axis=0)
        ym = float(y.mean())
        return xm, ym, X - xm, y - ym
    total = w.sum()
    xm = w @ X / total
    ym = float(w @ y / total)
    sw = np.sqrt(w)
    Xc = X - xm
    Xc *= sw[:, None]
    return xm, ym, Xc, (y - ym) * sw


def _fit_mean(X: np.ndarray, y: np.ndarray, w: Optional[np.ndarray]):
    _, mu, _, yc = _centered(X[:, :0], y, w)
    sse = float((yc ** 2).sum())
    return mu, np.zeros(X.shape[1]), TrainingDiagnostics(0, 0.5 * sse, True)


def _fit_ridge(X: np.ndarray, y: np.ndarray, lam: float, w: Optional[np.ndarray]):
    p = X.shape[1]
    xm, ym, Xc, yc = _centered(X, y, w)
    if p == 0:
        return ym, np.zeros(0), TrainingDiagnostics(0, 0.5 * float(yc @ yc), True)
    if lam == 0.0 and np.linalg.matrix_rank(Xc) < p:
        raise SingularSystemError(
            "ridge with lambda=0 on a rank-deficient design has no unique solution")
    gram = Xc.T @ Xc + lam * np.eye(p)
    try:
        beta = np.linalg.solve(gram, Xc.T @ yc)
    except np.linalg.LinAlgError:
        raise SingularSystemError("normal equations are singular") from None
    resid = yc - Xc @ beta
    obj = 0.5 * float(resid @ resid) + 0.5 * lam * float(beta @ beta)
    intercept = ym - float(xm @ beta)
    return intercept, beta, TrainingDiagnostics(0, obj, True)


def _soft_threshold(rho: float, lam: float) -> float:
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


def _fit_lasso(X: np.ndarray, y: np.ndarray, lam: float, max_iter: int, tol: float,
               w: Optional[np.ndarray]):
    """Cyclic coordinate descent on (1/2n)||y - b0 - Xb||^2 + lam*||b||_1.

    With weights, n is their sum and the squared residuals are weighted.
    """
    n = X.shape[0] if w is None else w.sum()
    p = X.shape[1]
    xm, ym, Xc, yc = _centered(X, y, w)
    col_ms = (Xc ** 2).sum(axis=0) / n
    beta = np.zeros(p)
    r = yc.copy()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            if col_ms[j] == 0.0:
                continue
            bj = beta[j]
            rho = float(Xc[:, j] @ r) / n + col_ms[j] * bj
            bnew = _soft_threshold(rho, lam) / col_ms[j]
            if bnew != bj:
                r -= Xc[:, j] * (bnew - bj)
                beta[j] = bnew
                delta = abs(bnew - bj)
                if delta > max_delta:
                    max_delta = delta
        if max_delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"lasso stopped after max_iter={max_iter} sweeps "
                      f"before reaching tol={tol}", ConvergenceWarning)
    obj = 0.5 * float(r @ r) / n + lam * float(np.abs(beta).sum())
    intercept = ym - float(xm @ beta)
    return intercept, beta, TrainingDiagnostics(sweeps, obj, converged)


def _fit_logistic(X: np.ndarray, y: np.ndarray, lam: float, max_iter: int, tol: float):
    """Damped Newton on sum[log(1+e^z) - y z] + (lam/2)||b||^2, intercept unpenalized.

    Each step solves H s = g by Cholesky, with the Hessian H = Xs'Xs + diag(pen)
    built as one symmetric product from the design rows scaled by
    sqrt(p(1-p)); a Hessian that is not positive definite falls back to
    least squares. The step is halved until the objective does not rise, and
    the accepted point's linear predictor z = Xb is kept for the next step.
    A constant target has its infimum at an infinite intercept with zero
    slopes, which is returned at once, with no Newton step.
    """
    uniq = np.unique(y)
    if not np.isin(uniq, (0.0, 1.0)).all():
        raise DimensionMismatchError("logistic targets must be binary 0/1")
    n, p = X.shape
    if uniq.size == 1:
        intercept = math.inf if uniq[0] == 1.0 else -math.inf
        return intercept, np.zeros(p), TrainingDiagnostics(0, 0.0, True)
    Xa = np.column_stack([np.ones(n), X])
    pen = np.zeros(p + 1)
    pen[1:] = lam
    beta = np.zeros(p + 1)

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        z = Xa @ b
        return float(np.logaddexp(0.0, z).sum() - y @ z + 0.5 * (pen * b * b).sum()), z

    obj, z = objective(beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        prob = expit(z)
        grad = Xa.T @ (prob - y) + pen * beta
        Xs = Xa * np.sqrt(prob * (1.0 - prob))[:, None]
        hess = Xs.T @ Xs
        hess.flat[::p + 2] += pen
        _, step, info = dposv(hess, grad)  # LAPACK Cholesky factor and solve
        if info:  # not positive definite
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        new_beta = beta - step
        new_obj, new_z = objective(new_beta)
        halvings = 0
        while new_obj > obj and halvings < 30:
            scale *= 0.5
            halvings += 1
            new_beta = beta - scale * step
            new_obj, new_z = objective(new_beta)
        delta = float(np.max(np.abs(new_beta - beta)))
        beta, obj, z = new_beta, new_obj, new_z
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"logistic regression stopped after max_iter={max_iter} "
                      f"Newton steps before reaching tol={tol}", ConvergenceWarning)
    return float(beta[0]), beta[1:].copy(), TrainingDiagnostics(iterations, obj, converged)


# -- gradient-boosted trees ----------------------------------------------------


def _best_split(X: np.ndarray, r: np.ndarray, wr: np.ndarray, w: Optional[np.ndarray],
                sorted_idx: np.ndarray, min_leaf: int):
    """Greedy variance-reduction split over all features and thresholds.

    ``sorted_idx`` holds, per feature column, the node's row indices in
    ascending feature order (presorted once per fit and partitioned down
    the tree). Thresholds are midpoints between consecutive distinct
    values, scored by the post-split sum of squared leaf means. The split
    is the lowest threshold of the first feature whose best score is within
    the gain guard of the maximum: two features that cut a node into the
    same rows score equal only up to rounding, and the lower index must win
    whatever the summation order. With weights ``w`` (``wr`` is ``w * r``)
    a side's size is its weight, for ``min_leaf`` too.
    """
    m, p = sorted_idx.shape
    rows = sorted_idx[:, 0]
    size = m if w is None else float(w[rows].sum())
    if m < 2 or size < 2 * min_leaf:
        return None
    xs = X[sorted_idx, np.arange(p)]
    csum = np.cumsum(wr[sorted_idx], axis=0)
    total = float(csum[-1, 0])
    csum = csum[:-1]
    if w is None:
        n_left = np.arange(1, m, dtype=np.float64)[:, None]
    else:
        n_left = np.cumsum(w[sorted_idx], axis=0)[:-1]
    score = csum ** 2 / n_left + (total - csum) ** 2 / (size - n_left)
    valid = xs[1:] > xs[:-1]
    if min_leaf > 1:
        valid &= (n_left >= min_leaf) & (size - n_left >= min_leaf)
    score = np.where(valid, score, -np.inf)
    best_pos = np.argmax(score, axis=0)
    best_scores = score[best_pos, np.arange(p)]
    base = total * total / size
    sse = float(wr[rows] @ r[rows]) - base
    guard = 1e-12 * (sse + 1.0)
    j = int(np.argmax(best_scores >= best_scores.max() - guard))
    gain = float(best_scores[j]) - base
    if not math.isfinite(gain) or gain <= guard:
        return None
    k = int(best_pos[j])
    threshold = 0.5 * (xs[k, j] + xs[k + 1, j])
    return j, float(threshold), gain


def _partition_sorted(X: np.ndarray, sorted_idx: np.ndarray,
                      feature: int, threshold: float):
    """Split each column's sorted index list into left/right, keeping order."""
    go_left = X[:, feature] <= threshold
    in_left = go_left[sorted_idx]
    n_left = int(in_left[:, 0].sum())
    p = sorted_idx.shape[1]
    left = sorted_idx.T[in_left.T].reshape(p, n_left).T
    right = sorted_idx.T[~in_left.T].reshape(p, sorted_idx.shape[0] - n_left).T
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


def _grow_tree(X: np.ndarray, r: np.ndarray, wr: np.ndarray, w: Optional[np.ndarray],
               sorted_idx: np.ndarray, depth: int, max_depth: int,
               min_leaf: int) -> _TreeNode:
    rows = sorted_idx[:, 0]
    value = float(r[rows].mean() if w is None else wr[rows].sum() / w[rows].sum())
    if depth >= max_depth:
        return _TreeNode(value=value)
    split = _best_split(X, r, wr, w, sorted_idx, min_leaf)
    if split is None:
        return _TreeNode(value=value)
    feature, threshold, _ = split
    left_idx, right_idx = _partition_sorted(X, sorted_idx, feature, threshold)
    left = _grow_tree(X, r, wr, w, left_idx, depth + 1, max_depth, min_leaf)
    right = _grow_tree(X, r, wr, w, right_idx, depth + 1, max_depth, min_leaf)
    return _TreeNode(value=value, feature=feature,
                     threshold=threshold, left=left, right=right)


def _tree_predict(node: _TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray):
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _tree_predict(node.left, X, idx[mask], out)
    _tree_predict(node.right, X, idx[~mask], out)


def _ensemble_predict(trees, base: float, learning_rate: float, X: np.ndarray) -> np.ndarray:
    out = np.full(X.shape[0], base)
    stage = np.empty(X.shape[0])
    all_idx = np.arange(X.shape[0], dtype=np.intp)
    for tree in trees:
        _tree_predict(tree, X, all_idx, stage)
        out += learning_rate * stage
    return out


def _fit_gbt(X: np.ndarray, y: np.ndarray, spec: LearnerSpec, w: Optional[np.ndarray]):
    n = X.shape[0]
    base = float(np.average(y, weights=w))
    pred = np.full(n, base)
    trees: list[_TreeNode] = []
    stage_losses: list[float] = []
    sorted_root = np.argsort(X, axis=0, kind="stable")
    all_idx = np.arange(n, dtype=np.intp)
    stage = np.empty(n)
    for _ in range(spec.n_trees):
        resid = y - pred
        tree = _grow_tree(X, resid, resid if w is None else w * resid, w,
                          sorted_root, 0, spec.max_depth, spec.min_leaf)
        _tree_predict(tree, X, all_idx, stage)
        pred = pred + spec.learning_rate * stage
        trees.append(tree)
        stage_losses.append(float(np.average((y - pred) ** 2, weights=w)))
    diag = TrainingDiagnostics(spec.n_trees, stage_losses[-1], True,
                               tuple(stage_losses))
    return base, tuple(trees), diag


# -- public API ----------------------------------------------------------------


def fit(spec: LearnerSpec, features: np.ndarray, targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None) -> FittedModel:
    """Train the learner selected by ``spec`` on the given data.

    The fit is deterministic given (spec, data). Iterative learners
    that exhaust ``max_iter`` emit a :class:`ConvergenceWarning` and return
    a model whose diagnostics carry ``converged=False``.

    ``sample_weight`` (one finite, non-negative weight per row, with a
    positive sum; see :func:`check_sample_weight`) weights each row's term
    of the training objective, so integer weights c give the fit on the
    rows repeated c times; rows of weight 0 are dropped. The regression
    kinds (mean, ridge, lasso, gbt) take weights, logistic does not.
    Without weights every kind runs its unweighted arithmetic.
    """
    X, y = _check_training_input(features, targets)
    w = check_sample_weight(sample_weight, X.shape[0])
    if w is not None:
        if spec.kind == "logistic":
            raise ConfigError("logistic regression takes no sample weights")
        if not w.all():
            X, y, w = X[w > 0], y[w > 0], w[w > 0]
    p = X.shape[1]
    if spec.kind == "mean":
        intercept, coef, diag = _fit_mean(X, y, w)
    elif spec.kind == "ridge":
        intercept, coef, diag = _fit_ridge(X, y, spec.lam, w)
    elif spec.kind == "lasso":
        intercept, coef, diag = _fit_lasso(X, y, spec.lam, spec.max_iter, spec.tol, w)
    elif spec.kind == "logistic":
        intercept, coef, diag = _fit_logistic(X, y, spec.lam, spec.max_iter, spec.tol)
    elif spec.kind == "gbt":
        intercept, trees, diag = _fit_gbt(X, y, spec, w)
        return FittedModel(spec=spec, n_features=p, intercept=intercept,
                           trees=trees, diagnostics=diag)
    else:  # pragma: no cover - guarded by LearnerSpec validation
        raise ConfigError(f"unknown learner kind {spec.kind!r}")
    coef = np.asarray(coef, dtype=np.float64)
    coef.setflags(write=False)
    return FittedModel(spec=spec, n_features=p, intercept=intercept,
                       coef=coef, diagnostics=diag)


_PROB_EPS = 1e-12  # keeps logistic outputs strictly inside (0, 1)


def predict(model: FittedModel, features: np.ndarray) -> np.ndarray:
    """Evaluate a fitted model on new rows; logistic returns probabilities."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("features must be a 2-d matrix")
    if X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model was trained on {model.n_features} features, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise NonFiniteInputError("prediction input contains NaN or infinity")
    if model.spec.kind == "gbt":
        return _ensemble_predict(model.trees, model.intercept,
                                 model.spec.learning_rate, X)
    z = model.intercept + X @ model.coef
    if model.spec.kind == "logistic":
        return np.clip(expit(z), _PROB_EPS, 1.0 - _PROB_EPS)
    return z
