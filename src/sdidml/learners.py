"""In-house supervised learners for the nuisance functions E[Y|X] and E[D|X].

Five learner kinds are available: a constant-mean baseline, ridge and lasso
linear models, greedy gradient-boosted regression trees, and L2-penalized
logistic regression for binary treatment models. All fits are deterministic
functions of (spec, data). The regression kinds also take per-row sample
weights: a row of integer weight c counts as c copies of that row.

:func:`fit` with per-row fold labels returns held-out fits, one per fold
label present, each trained on the rows of the other folds; :func:`predict`
with the same labels evaluates each row by its own fold's fit. This is the
whole cross-fit of a learner. Ridge with lambda > 0 builds all of them from
one pass of per-fold moments and one batched solve, sharing the step from
centered moments to (intercept, coefficients, objective) with the single
ridge fit; every other kind fits each complement's rows in turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceWarning,
    DimensionMismatchError,
    LearnerError,
    NonFiniteInputError,
    SingularSystemError,
    json_kind_fields,
    json_object,
)

# JSON learner parameter -> (LearnerSpec field, type, null allowed).
_PARAM_KEYS = {"lambda": ("lam", float, False), "max_iter": ("max_iter", int, False),
               "tol": ("tol", float, False), "n_trees": ("n_trees", int, False),
               "max_depth": ("max_depth", int, False),
               "learning_rate": ("learning_rate", float, False),
               "min_leaf": ("min_leaf", int, False)}
# Learner kind -> the LearnerSpec fields it reads, each with its default.
_DEFAULTS = {"mean": {}, "ridge": {"lam": 0.0},
             "lasso": {"lam": 0.0, "max_iter": 10_000, "tol": 1e-8},
             "gbt": {"n_trees": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1},
             "logistic": {"lam": 1.0, "max_iter": 200, "tol": 1e-8}}
# Learner kind -> the rows of _PARAM_KEYS it reads; a learner object has no other key.
_KIND_KEYS = {kind: {key: row for key, row in _PARAM_KEYS.items() if row[0] in defaults}
              for kind, defaults in _DEFAULTS.items()}
KINDS = tuple(_KIND_KEYS)


@dataclass(frozen=True)
class LearnerSpec:
    """Hyperparameter bundle for one learner kind; unset fields take ``_DEFAULTS[kind]``."""

    kind: str
    lam: Optional[float] = None       # ridge / lasso / logistic penalty
    max_iter: Optional[int] = None    # lasso sweeps / logistic Newton iterations
    tol: Optional[float] = None
    n_trees: Optional[int] = None
    max_depth: Optional[int] = None
    learning_rate: Optional[float] = None
    min_leaf: Optional[int] = None

    def __post_init__(self):
        kind = self.kind
        if kind not in KINDS:
            raise ConfigError(f"unknown learner kind {kind!r}; expected one of {KINDS}")
        for name, default in _DEFAULTS[kind].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.lam is not None and self.lam < 0:
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
    def ridge(cls, lam: Optional[float] = None) -> "LearnerSpec":
        return cls("ridge", lam=lam)

    @classmethod
    def lasso(cls, lam: Optional[float] = None, max_iter: Optional[int] = None,
              tol: Optional[float] = None) -> "LearnerSpec":
        return cls("lasso", lam=lam, max_iter=max_iter, tol=tol)

    @classmethod
    def gbt(cls, n_trees: Optional[int] = None, max_depth: Optional[int] = None,
            learning_rate: Optional[float] = None,
            min_leaf: Optional[int] = None) -> "LearnerSpec":
        return cls("gbt", n_trees=n_trees, max_depth=max_depth,
                   learning_rate=learning_rate, min_leaf=min_leaf)

    @classmethod
    def logistic(cls, lam: Optional[float] = None, max_iter: Optional[int] = None,
                 tol: Optional[float] = None) -> "LearnerSpec":
        return cls("logistic", lam=lam, max_iter=max_iter, tol=tol)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **json_object(self, _KIND_KEYS[self.kind])}

    @classmethod
    def from_dict(cls, d) -> "LearnerSpec":
        """A JSON learner object's spec; absent keys take the kind's defaults."""
        kind, fields = json_kind_fields(d, _KIND_KEYS, "learner")
        return cls(kind, **fields)


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


def _moments(Xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """The Gram of the centered rows [Xc, yc] (from :func:`_centered`)."""
    p = Xc.shape[1]
    gram = np.empty((p + 1, p + 1))
    gram[:p, :p] = Xc.T @ Xc
    gram[:p, p] = gram[p, :p] = Xc.T @ yc
    gram[p, p] = yc @ yc
    return gram


def _ridge_solution(mean: np.ndarray, gram: np.ndarray, lam: float):
    """Intercept, coefficients and objective of the ridge fit whose data have
    weighted mean ``mean`` of [X, y] and Gram ``gram`` of the centered
    [X, y] rows; leading axes index independent fits.

    The objective (1/2)||y_c - X_c b||^2 + (lam/2)||b||^2 at the solution of
    (X_c'X_c + lam I) b = X_c'y_c is (1/2)(y_c'y_c - b'X_c'y_c).
    """
    p = gram.shape[-1] - 1
    rhs = gram[..., :p, p]
    try:
        beta = np.linalg.solve(gram[..., :p, :p] + lam * np.eye(p), rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularSystemError("normal equations are singular") from None
    intercept = mean[..., p] - (mean[..., :p] * beta).sum(axis=-1)
    objective = 0.5 * (gram[..., p, p] - (rhs * beta).sum(axis=-1))
    return intercept, beta, objective


def _fit_ridge(X: np.ndarray, y: np.ndarray, lam: float, w: Optional[np.ndarray]):
    xm, ym, Xc, yc = _centered(X, y, w)
    if lam == 0.0 and np.linalg.matrix_rank(Xc) < X.shape[1]:
        raise SingularSystemError(
            "ridge with lambda=0 on a rank-deficient design has no unique solution")
    intercept, beta, obj = _ridge_solution(np.append(xm, ym), _moments(Xc, yc), lam)
    return float(intercept), beta, TrainingDiagnostics(0, float(obj), True)


def _ridge_held_out(spec: LearnerSpec, X: np.ndarray, y: np.ndarray,
                    w: Optional[np.ndarray], folds: np.ndarray,
                    labels: np.ndarray) -> dict[int, FittedModel]:
    """Ridge (lambda > 0) fits on the complement of each fold in ``labels``,
    from one pass over the rows.

    Each fold j contributes its weight total W_j, the weighted mean m_j of
    [X, y] and the Gram C_j of its rows centered at m_j, computed from a
    copy of its rows alone. Fold k's training moments pool the other folds
    (Chan, Golub and LeVeque 1983): the mean m of the m_j weighted by W_j,
    and sum_j C_j + W_j (m_j - m)(m_j - m)'. The sums over j != k are
    products with a 0/1 matrix, so fold k's own moments enter as exact
    zeros and no rounding lets a held-out row move its own fold's fit. One
    batched solve gives every fold's coefficients; with lambda > 0 each
    system is positive definite.
    """
    K, p = labels.size, X.shape[1]
    totals, means, grams = np.zeros(K), np.zeros((K, p + 1)), np.zeros((K, p + 1, p + 1))
    for j, k in enumerate(labels):
        rows = np.flatnonzero(folds == k)
        wj = None if w is None else w[rows]
        totals[j] = rows.size if wj is None else wj.sum()
        if totals[j] > 0:  # a fold of zero weight adds nothing to any fit
            xm, ym, Xc, yc = _centered(X[rows], y[rows], wj)
            means[j, :p], means[j, p] = xm, ym
            grams[j] = _moments(Xc, yc)
    others = 1.0 - np.eye(K)
    train_totals = others @ totals
    if not train_totals.all():
        raise LearnerError(f"fold {labels[train_totals == 0][0]}: sample weights must be "
                           "finite and non-negative with a positive sum")
    train_means = (others @ (totals[:, None] * means)) / train_totals[:, None]
    spread = means[None, :, :] - train_means[:, None, :]  # (fold k, fold j, column)
    # The training Grams take the place of the folds' own, so that no more
    # than two (K, p + 1, p + 1) stacks are alive at once.
    grams = (others @ grams.reshape(K, -1)).reshape(grams.shape)
    grams += (spread * (others * totals)[:, :, None]).transpose(0, 2, 1) @ spread
    intercepts, betas, objectives = _ridge_solution(train_means, grams, spec.lam)
    betas.setflags(write=False)
    return {int(k): FittedModel(spec=spec, n_features=p, intercept=float(intercepts[j]),
                                coef=betas[j],
                                diagnostics=TrainingDiagnostics(0, float(objectives[j]), True))
            for j, k in enumerate(labels)}


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic link 1 / (1 + e^-z), written so that no z overflows."""
    return np.exp(-np.logaddexp(0.0, -z))


def _fit_logistic(X: np.ndarray, y: np.ndarray, lam: float, max_iter: int, tol: float):
    """Damped Newton on sum[log(1+e^z) - y z] + (lam/2)||b||^2, intercept unpenalized.

    Each step solves H s = g by one LU solve, with the Hessian
    H = Xs'Xs + diag(pen) built as one symmetric product from the design rows
    scaled by sqrt(p(1-p)); an exactly singular Hessian (such as an all-zero
    feature at lam=0) falls back to the least-squares step, which leaves that
    direction unchanged. The step is halved until the objective does not rise, and
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
        prob = _sigmoid(z)
        grad = Xa.T @ (prob - y) + pen * beta
        Xs = Xa * np.sqrt(prob * (1.0 - prob))[:, None]
        hess = Xs.T @ Xs
        hess.flat[::p + 2] += pen
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
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


@dataclass(frozen=True)
class HeldOutModels:
    """Held-out fits of one learner, from :func:`fit` with ``folds``:
    ``models[k]`` was trained on every row outside fold k, for each fold
    label k that holds a row."""

    models: dict[int, FittedModel]

    @property
    def diagnostics(self) -> TrainingDiagnostics:
        """The folds' diagnostics pooled: iterations and objectives summed,
        converged when every fold's fit converged."""
        folds = [model.diagnostics for model in self.models.values()]
        return TrainingDiagnostics(sum(d.iterations for d in folds),
                                   sum(d.objective for d in folds),
                                   all(d.converged for d in folds))


def _fold_labels(folds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold labels for ``n`` rows, checked to be non-negative integers, and
    the labels present in ascending order."""
    folds = np.asarray(folds)
    if folds.shape != (n,) or folds.dtype.kind not in "iu" or (n and folds.min() < 0):
        raise DimensionMismatchError(f"fold labels of shape {folds.shape} and type "
                                     f"{folds.dtype} are not {n} non-negative integers")
    return folds, np.flatnonzero(np.bincount(folds))


def _fit(spec: LearnerSpec, X: np.ndarray, y: np.ndarray,
         sample_weight: Optional[np.ndarray]) -> FittedModel:
    """``fit`` on rows that :func:`_check_training_input` has checked."""
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


def fit(spec: LearnerSpec, features: np.ndarray, targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        folds: Optional[np.ndarray] = None) -> FittedModel | HeldOutModels:
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

    ``folds``, one non-negative integer label per row, asks for held-out
    fits: a :class:`HeldOutModels` with, for each label k present, the fit
    on the rows of the other labels. An error in fold k's fit, such as a
    complement with no row or weights summing to 0, names the fold. Ridge
    with lambda > 0 fits every fold from per-fold moments
    (:func:`_ridge_held_out`), equal to the per-fold fits up to rounding;
    every other kind fits each complement with the arithmetic of a call
    per fold.
    """
    X, y = _check_training_input(features, targets)
    if folds is None:
        return _fit(spec, X, y, sample_weight)
    w = check_sample_weight(sample_weight, X.shape[0])
    folds, labels = _fold_labels(folds, X.shape[0])
    if labels.size == 1:  # the one fold's complement is empty
        raise DimensionMismatchError(f"fold {labels[0]}: need at least one training row")
    if spec.kind == "ridge" and spec.lam > 0:
        return HeldOutModels(_ridge_held_out(spec, X, y, w, folds, labels))
    models = {}
    for k in labels:
        train = folds != k
        try:
            models[int(k)] = _fit(spec, X[train], y[train], None if w is None else w[train])
        except LearnerError as exc:
            raise type(exc)(f"fold {k}: {exc}") from exc
    return HeldOutModels(models)


_PROB_EPS = 1e-12  # keeps logistic outputs strictly inside (0, 1)


def _evaluate(model: FittedModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model was trained on {model.n_features} features, got {X.shape[1]}")
    if model.spec.kind == "gbt":
        return _ensemble_predict(model.trees, model.intercept,
                                 model.spec.learning_rate, X)
    z = model.intercept + X @ model.coef
    if model.spec.kind == "logistic":
        return np.clip(_sigmoid(z), _PROB_EPS, 1.0 - _PROB_EPS)
    return z


def predict(model: FittedModel | HeldOutModels, features: np.ndarray,
            folds: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate a fitted model on new rows; logistic returns probabilities.

    With ``folds``, one label per row, ``model`` holds held-out fits
    (:func:`fit` with ``folds``) and each row is evaluated by the fit of its
    own fold, one fold at a time. Held-out fits without labels, or labels
    with a single fit, raise :class:`LearnerError`.
    """
    if isinstance(model, HeldOutModels) != (folds is not None):
        raise LearnerError("held-out fits are evaluated with fold labels, and a single "
                           "fit without them")
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("features must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise NonFiniteInputError("prediction input contains NaN or infinity")
    if folds is None:
        return _evaluate(model, X)
    folds, labels = _fold_labels(folds, X.shape[0])
    out = np.empty(X.shape[0])
    for k in labels:
        fitted = model.models.get(int(k))
        if fitted is None:
            raise LearnerError(f"fold {k}: no held-out fit")
        rows = folds == k
        out[rows] = _evaluate(fitted, X[rows])
    return out
