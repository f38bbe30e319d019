"""Linear models on tangent vectors.

The classifiers used on tangent-space features: an L2-regularized linear
SVM solved by a deterministic most-violating-pair dual ascent and
regularization grid search with stratified inner cross-validation.

The SVM minimizes ``0.5 ||w||^2 + reg * mean_i hinge(1 - y_i (w.x_i + b))``
with an unpenalized intercept. Averaging the loss (rather than summing it)
makes the optimum invariant to duplicating the dataset.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .evalstats import roc_auc, stratified_folds
from .rules import _check_count, _check_labels, _check_magnitude, _real_array

DEFAULT_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
SVM_MAX_UPDATES = 10**5  # pair updates before an SVM fit gives up and warns
SVM_TOL = 1e-6  # KKT gap at which every SVM fit of the library stops


@dataclass(frozen=True)
class LinearModel:
    """Affine decision function ``score(x) = weights . x + intercept``."""

    weights: np.ndarray
    intercept: float
    reg: float


@dataclass
class SvmFitInfo:
    """Solver diagnostics: the pair updates made and the last KKT gap measured."""

    iterations: int
    kkt_gap: float


def _check_dataset(x, y):
    x = _real_array(x, "feature matrix")
    if x.ndim != 2:
        raise InvalidInput("feature matrix must be 2-D (samples x features)")
    y = _check_labels(y)
    if y.shape != (x.shape[0],):
        raise InvalidInput("label count must match sample count")
    y = y.astype(float)
    npos = int(np.sum(y > 0))
    return x, y, npos, y.size - npos


def svm_objective(weights, intercept, x, y, reg):
    """Primal objective: ``0.5 ||w||^2 + reg * mean(hinge)``."""
    margins = 1.0 - y * (x @ weights + intercept)
    hinge = np.maximum(0.0, margins)
    return 0.5 * float(weights @ weights) + reg * float(hinge.mean())


def fit_linear_svm(x, y, reg):
    """Fit the L2-regularized hinge-loss SVM.

    The solver has two exits: the maximal KKT violation (most-violating-pair
    gap) is at most ``SVM_TOL``, or ``SVM_MAX_UPDATES`` pair updates are
    used up with the gap still above it, which issues a ``RuntimeWarning``
    (the gap reported is the last one measured, before the final update).
    With balanced labels it first checks the all-at-cap point
    ``beta = y reg / T`` with one Gram product, and returns it, after 0
    updates, when its gap is at most ``SVM_TOL``: below a breakpoint in
    ``reg`` every fit ends there, about T/2 pair updates from 0.

    Parameters
    ----------
    x : ndarray, shape (T, d)
        Feature vectors (tangent vectors or filtered features).
    y : ndarray, shape (T,)
        Labels in {-1, +1}; each class needs at least 2 samples.
    reg : float
        Positive finite hinge-loss weight (larger = less regularization).

    Returns
    -------
    LinearModel

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape, label value (named) or ``reg``, or on features
        that are not finite or so large that the solver overflows; on
        single-class labels, as every fit of the library does.
    """
    _check_magnitude(reg, "reg")
    x, y, npos, nneg = _check_dataset(x, y)
    _check_count(min(npos, nneg), "samples per class", low=2)
    weights, intercept, _ = _solve_svm_dual(x, y, reg, _gram(x, reg))
    return LinearModel(weights=weights, intercept=intercept, reg=float(reg))


def _all_at_cap(x, y, reg, gram):
    # the all-at-cap point beta = y reg/T, every sample on or inside the
    # margin, where the pair updates of _solve_svm_dual end after about T/2
    # updates from 0 for every reg up to a breakpoint (the start of the
    # regularization path, Hastie, Rosset, Tibshirani & Zhu, JMLR 5:1391,
    # 2004). It is feasible when the labels balance, and the solution when
    # its KKT gap is at most SVM_TOL: there "up" is the negatives and "low"
    # the positives. None when it is not
    if y.sum() != 0:
        return None
    beta = y * (reg / x.shape[0])
    cand = y - gram @ beta
    m_val, big_m_val = float(cand[y < 0].max()), float(cand[y > 0].min())
    if m_val - big_m_val > SVM_TOL:
        return None
    return x.T @ beta, 0.5 * (m_val + big_m_val), SvmFitInfo(0, m_val - big_m_val)


def _solve_svm_dual(x, y, reg, gram):
    at_cap = _all_at_cap(x, y, reg, gram)
    if at_cap is not None:
        return at_cap
    # the dual in beta = y * alpha: each beta_i lies in its own box
    # [lo_i, hi_i], [0, cap] for y_i = +1 and [-cap, 0] for y_i = -1, and a
    # pair update moves beta_i by +step and beta_j by -step, so sum(beta)
    # stays 0. The loop reads its scalars from Python lists and updates the
    # "up" (beta < hi) and "low" (beta > lo) index sets only where beta
    # changed; f = gram @ beta, so the b candidates are y - f.
    tol, max_iter = SVM_TOL, SVM_MAX_UPDATES
    t = x.shape[0]
    cap = reg / t
    diag = gram.diagonal().tolist()
    cols = np.ascontiguousarray(gram.T)  # row i is gram[:, i]
    pos = y > 0
    lo, hi = np.where(pos, 0.0, -cap), np.where(pos, cap, 0.0)
    up, low = hi > 0.0, lo < 0.0  # the index sets at beta = 0
    lo, hi = lo.tolist(), hi.tolist()
    beta = [0.0] * t
    f = np.zeros(t)
    it = 0
    m_val = np.inf
    big_m_val = -np.inf
    while it < max_iter:
        # KKT requires max over "up" <= min over "low" of the b candidates
        cand = y - f
        up_vals = np.where(up, cand, -np.inf)
        low_vals = np.where(low, cand, np.inf)
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        m_val = float(up_vals[i])
        big_m_val = float(low_vals[j])
        gap = m_val - big_m_val
        if gap <= tol:
            break
        curvature = max(diag[i] + diag[j] - 2.0 * float(gram[i, j]), 1e-12)
        step = max(gap / curvature, lo[i] - beta[i], beta[j] - hi[j])
        step = min(step, hi[i] - beta[i], beta[j] - lo[j])
        beta[i] += step
        beta[j] -= step
        for k in (i, j):
            up[k], low[k] = beta[k] < hi[k], beta[k] > lo[k]
        f += step * (cols[i] - cols[j])
        it += 1
    if it == max_iter:
        # its last gap, measured before the final update, was above tol
        warnings.warn(
            f"SVM (reg={reg:g}) stopped after SVM_MAX_UPDATES={max_iter} updates with "
            f"KKT gap {m_val - big_m_val:.3e} > SVM_TOL {tol:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    info = SvmFitInfo(iterations=it, kkt_gap=m_val - big_m_val)
    # both index sets stay non-empty (an empty "up" puts every beta at hi,
    # so sum(beta) = n_pos * cap, not 0), so the midpoint is finite
    return x.T @ np.asarray(beta), 0.5 * (m_val + big_m_val), info


def _gram(x, reg):
    # x x^T for solves at any reg up to `reg`. With g = max|gram|, a
    # curvature is at most 4 g and an entry of f at most reg g, so all stay
    # finite when 4 max(1, reg) g is (a Python float overflows to inf
    # without a warning); a NaN or inf feature makes g NaN or inf
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
    if not np.isfinite(4.0 * max(1.0, reg) * float(np.abs(gram).max())):
        raise InvalidInput("SVM features are not finite, or so large that the solver overflows")
    return gram


def grid_search_cv(x, y, grid=None, folds=5, seed=0):
    """Pick the SVM regularization by stratified inner cross-validation.

    Each grid value is scored by its mean ROC-AUC over ``folds``
    stratified splits (seeded, so the search is deterministic); ties go
    to the smallest value. The returned model is refit on all data, and
    its ``reg`` is the chosen value.

    Returns
    -------
    LinearModel
    """
    x, y, npos, nneg = _check_dataset(x, y)
    grid = DEFAULT_GRID if grid is None else tuple(grid)
    ClassifierConfig(grid=grid, folds=folds).validate()  # stratified_folds checks the seed
    if folds > min(npos, nneg):
        raise InvalidInput(
            f"{folds} folds exceed the smaller class size {min(npos, nneg)}"
        )
    splits = []
    for test_idx in stratified_folds(y, folds, seed):
        xt = np.delete(x, test_idx, axis=0)
        splits.append((xt, np.delete(y, test_idx), _gram(xt, max(grid)), x[test_idx], y[test_idx]))
    best_reg, best_auc = None, -np.inf
    for reg in grid:
        aucs = []
        for xt, yt, gram, xs, ys in splits:
            w, b, _ = _solve_svm_dual(xt, yt, reg, gram=gram)
            aucs.append(roc_auc(xs @ w + b, ys))
        mean_auc = float(np.mean(aucs))
        if mean_auc > best_auc or (mean_auc == best_auc and reg < best_reg):
            best_reg, best_auc = reg, mean_auc
    return fit_linear_svm(x, y, best_reg)


@dataclass(frozen=True)
class ClassifierConfig:
    """How to fit a linear model on a feature matrix.

    The classifier is the linear SVM, with a fixed ``reg`` or the ``grid``
    value chosen by stratified inner CV, not both; with neither, the
    default grid {0.01, 0.1, 1, 10, 100} is searched.
    """

    reg: float = None
    grid: tuple = None
    folds: int = 5
    seed: int = 0

    def validate(self):
        if self.reg is not None and self.grid is not None:
            raise InvalidInput("give a fixed reg or a grid to search, not both")
        if self.reg is not None:
            _check_magnitude(self.reg, "reg")
        if self.grid is not None and not self.grid:
            raise InvalidInput("grid must be non-empty")
        for value in self.grid or ():
            _check_magnitude(value, "grid values")
        _check_count(self.folds, "folds", low=2)
        _check_count(self.seed, "seed", low=0)
        return self


def fit_from_config(x, y, cfg=None):
    """Fit a LinearModel according to a ClassifierConfig."""
    cfg = (cfg or ClassifierConfig()).validate()
    if cfg.reg is not None:
        return fit_linear_svm(x, y, cfg.reg)
    return grid_search_cv(x, y, grid=cfg.grid, folds=cfg.folds, seed=cfg.seed)
