"""Spatial filter extraction from tangent-space linear models.

Any linear decision function on tangent vectors is a bank of spatial
filters (:func:`tangent_filters`). With its weight vector reshaped into
``W = V diag(lam) V^T`` (whitened at the reference ``m``), the filters are
``m^{-1/2} V``, the generalized eigenvectors of ``(m^{1/2} expm(W) m^{1/2},
m)``, and ``lam`` their log-eigenvalues: coefficients that score filtered
log-power features directly ("one-step") without a second classifier.

Tangent vectors here are whitened: ``vec(logm(m^{-1/2} C m^{-1/2}))`` at
reference mean ``m``. With that convention the dot product of two tangent
vectors is the manifold inner product at ``m``, which is what makes the
full-rank one-step scores reproduce the fitted model's decision values
exactly (see ``exact_decision_value``).

Every TSSF variant and the plain tangent-space classifier fitted on one
training set share one Frechet mean and one tangent-space linear model.
:func:`fit_tangent_model` computes that pair and remembers the last fit
only, so consecutive fits on one training set (the pipelines of one
cross-validation fold, see :func:`tssf.evalstats.cross_validate`)
compute it once; the arrays it returns are read-only.

The per-trial functions (:func:`apply_filters`, :func:`compute_features`,
:func:`predict_one_step`) work on one filtered trial at a time and are the
reference that the pipelines' scores are tested against; a bank's
coefficients score both kinds of features, "logvar" and "diaglogcov". Whole
pipelines (TSSF_LogCov_2_step's tangent vectors too), their one compiled
scoring route and their model file live in :mod:`tssf.pipelines`.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataio import _check_training_set
from .errors import (
    DegenerateModel,
    DimMismatch,
    InvalidInput,
    NotPositiveDefinite,
    UnsupportedFeatureKind,
)
from .linmodel import ClassifierConfig, fit_from_config
from .manifold import (
    SPD_TOL,
    _check_finite,
    _check_same_dim,
    _check_symmetric,
    _congruence,
    _diag_logm,
    _first_failure,
    _frechet_mean_and_logs,
    _half_powers,
    _logm,
    _vec,
    ensure_spd,
    sym_eig,
    unvec,
)
from .manifold import frechet_mean  # noqa: F401  (re-exported)
from .rules import _check_count, _check_magnitude, _real_array

LOGVAR = "logvar"
DIAGLOGCOV = "diaglogcov"
FEATURE_KINDS = (LOGVAR, DIAGLOGCOV)


def tangent_vectors(ref, covs):
    """Whitened tangent vectors of SPD matrices at reference ``ref``.

    Returns the (T, C(C+1)/2) matrix with rows
    ``vec(logm(ref^{-1/2} covs[t] ref^{-1/2}))``. The whitening is the
    Frechet mean's own congruence, so at the mean of
    :func:`fit_tangent_model` the rows are its training features bit for
    bit.
    """
    _, inv_half = _half_powers(_check_symmetric(ref, "ref", stack=False))
    return _vec(_logm(_congruence(inv_half, _check_symmetric(covs, "covariance")), "covariance"))


# the last fit_tangent_model call as (digest of its inputs, result); a
# miss replaces the pair in one assignment, so a reader never sees one
# call's key with another call's result
_last_fit = (None, None)


def _fit_key(covs, labels, model_cfg):
    digest = hashlib.blake2b(digest_size=32)
    for a in (covs, labels):
        digest.update(repr((a.shape, a.dtype.str)).encode())
        digest.update(np.ascontiguousarray(a).data)
    digest.update(repr(model_cfg).encode())
    return digest.digest()


def _check_above_rounding(logs, what, whose):
    # the degeneracy rule of every filter source: covariances that are one
    # matrix to rounding leave whitened logs of rounding size, which would
    # fit weights of rounding size, and every trial would score the same
    if not np.abs(logs).max() > SPD_TOL:
        raise DegenerateModel(
            f"no {what} exceeds {SPD_TOL:g} in magnitude: "
            f"the {whose} covariances are equal to rounding"
        )


def fit_tangent_model(covs, labels, model_cfg=None):
    """Frechet mean of SPD matrices and a linear model on their tangent vectors.

    Parameters
    ----------
    covs : array-like, shape (T, C, C)
        Per-trial SPD covariance matrices.
    labels : array-like, shape (T,)
        Trial labels in {-1, +1}; both classes must be present.
    model_cfg : ClassifierConfig, optional
        Tangent-space classifier (default: SVM with inner-CV grid search).

    Returns
    -------
    (mean, LinearModel)
        The reference mean and the model fitted on the whitened tangent
        vectors at it (its final sweep's logs); both arrays are read-only.

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape or label value; on single-class labels, or when
        every whitened training log is at most ``SPD_TOL`` in magnitude
        (covariances equal to rounding).

    Notes
    -----
    A call with the same covariances, labels (values, shape and dtype)
    and classifier configuration as the previous call in this process
    returns that call's result: the same objects, so the same bits.
    """
    global _last_fit
    covs, labels = _check_training_set(covs, labels)
    model_cfg = model_cfg or ClassifierConfig()
    key = _fit_key(covs, labels, model_cfg)
    last_key, last_result = _last_fit
    if key == last_key:
        return last_result
    mean, logs = _frechet_mean_and_logs(covs)
    _check_above_rounding(logs, "whitened training log", "training")
    model = fit_from_config(_vec(logs), labels, model_cfg)
    mean.setflags(write=False)
    model.weights.setflags(write=False)
    result = (mean, model)
    _last_fit = (key, result)
    return result


@dataclass(frozen=True)
class TssfModel:
    """A ranked bank of spatial filters plus the ingredients of one-step scoring.

    ``full_filters`` are all C filters in ranked order (``filters`` is their
    K-column prefix), ``full_beta`` the matching log-eigenvalues (``beta``
    is their K-prefix, the one-step coefficients of either feature kind) and
    ``reference_mean`` the point whose tangent space the weights live in.
    All five arrays are read-only, and the mean is the bank's own copy.
    """

    filters: np.ndarray
    beta: np.ndarray
    intercept: float
    reference_mean: np.ndarray
    full_filters: np.ndarray
    full_beta: np.ndarray

    @property
    def k(self):
        return self.filters.shape[1]


def tangent_filters(ref, weights, k, intercept=0.0):
    """The ranked filter bank of a linear function on the tangent space at ``ref``.

    ``weights`` is the symmetric whitened weight matrix ``W = unvec(w)`` of a
    model ``w . tangent_vectors(ref, covs) + intercept``. With
    ``W = V diag(lam) V^T`` the filters are ``ref^{-1/2} V`` and ``lam``
    their coefficients, ranked by descending ``|lam|`` (ties by descending
    ``lam``, then position); ``filters`` keeps the first ``k``,
    ``1 <= k <= C``. At ``k = C`` the one-step "diaglogcov" score of a
    covariance is the model's decision value on its tangent vector.

    Returns a :class:`TssfModel`. Raises InvalidInput on a bad
    shape, ``k`` or ``intercept``, NotPositiveDefinite on a ``ref`` that is
    not SPD and DegenerateModel on an all-zero ``weights``.
    """
    ref = _check_symmetric(ref, "ref", stack=False)
    weights = _check_symmetric(weights, "weights", stack=False)
    _check_same_dim(ref, weights)
    _check_count(k, "k", high=ref.shape[0])
    _check_magnitude(intercept, "intercept", None)
    if not np.any(weights):
        raise DegenerateModel("tangent-space model has an all-zero weight vector")
    return _ranked_bank(ref, _half_powers(ref)[1], weights, k, intercept)


def _ranked_bank(ref, inv_half, weights, k, intercept=0.0):
    # tangent_filters past its checks, for a caller that holds ref^{-1/2}
    lam, v = sym_eig(weights)
    order = np.lexsort((np.arange(lam.size), -lam, -np.abs(lam)))
    full_filters = (inv_half @ v)[:, order]
    full_beta = lam[order]
    ref = ref.copy()  # the bank's own: a later write to the caller's ref moves nothing
    for array in (full_filters, full_beta, ref):  # prefixes too: filters and beta
        array.setflags(write=False)
    return TssfModel(
        filters=full_filters[:, :k],
        beta=full_beta[:k],
        intercept=float(intercept),
        reference_mean=ref,
        full_filters=full_filters,
        full_beta=full_beta,
    )


def extract_tssf(covs, labels, k, model_cfg=None):
    """Extract spatial filters from a tangent-space linear model.

    Parameters
    ----------
    covs : array-like, shape (T, C, C)
        Per-trial SPD covariance matrices.
    labels : array-like, shape (T,)
        Trial labels in {-1, +1}; both classes must be present.
    k : int
        Number of filter components to keep, ``1 <= k <= C``.
    model_cfg : ClassifierConfig, optional
        Tangent-space classifier (default: SVM with inner-CV grid search).

    Returns
    -------
    TssfModel

    Notes
    -----
    :func:`fit_tangent_model` (so the previous fit is reused when its
    inputs were the same), then :func:`tangent_filters` of its weights at
    its Frechet mean.

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape, label value or ``k``; on single-class labels,
        covariances equal to rounding (see :func:`fit_tangent_model`) or an
        all-zero fitted weight vector.
    """
    covs, labels = _check_training_set(covs, labels)
    _check_count(k, "k", high=covs.shape[1])
    mean, model = fit_tangent_model(covs, labels, model_cfg)
    return tangent_filters(mean, unvec(model.weights), k, model.intercept)


def apply_filters(model, trial):
    """Filter one C x N trial with a filter bank: ``filters.T @ trial`` (K x N)."""
    trial = _real_array(trial, "trial")
    c = model.filters.shape[0]
    if trial.ndim != 2 or trial.shape[0] != c:
        raise DimMismatch(
            f"trial has {trial.shape[0] if trial.ndim == 2 else '?'} channels, "
            f"model expects {c}"
        )
    return model.filters.T @ trial


def compute_features(model, filtered_cov, kind):
    """Features of a K x K filtered covariance matrix.

    ``kind`` is ``logvar``: log of the diagonal (length K), or
    ``diaglogcov``: diagonal of the matrix logarithm (length K); the bank's
    ``beta`` scores either. No other kind: its tangent vector at a point
    ``ref`` is ``vec(log_map_at(ref, filtered_cov))``. A ``(..., K, K)``
    stack gives one feature row per matrix.
    """
    if kind not in FEATURE_KINDS:
        raise UnsupportedFeatureKind(
            f"a filter bank has no {kind!r} features, only {LOGVAR!r} and {DIAGLOGCOV!r}; the "
            "tangent vector of a filtered covariance at a point ref is vec(log_map_at(ref, cov))"
        )
    cov = ensure_spd(filtered_cov, name="filtered covariance")
    k = model.filters.shape[1]
    if cov.shape[-1] != k:
        raise DimMismatch(f"filtered covariance must be {k} x {k}")
    return _filtered_features(cov, kind)


def _filtered_features(covs, kind):
    """Features of a stack of filtered covariances, without validation.

    The one feature map behind :func:`compute_features` and the pipelines'
    diagonal training features (pipelines score without building
    log-matrix features, see ``pipelines``). Non-SPD input raises
    :class:`~tssf.errors.NotPositiveDefinite` naming the first failing
    matrix; "logvar" checks only that every variance is positive and finite.
    """
    if kind == LOGVAR:
        return _log_variances(covs.diagonal(0, -2, -1))
    return _diag_logm(covs, "filtered covariance")


def _log_variances(var, var_floor=0.0):
    # log of a (..., K) array of variances; raises NotPositiveDefinite
    # naming the first row with a variance not above var_floor or not
    # finite (a huge sample overflows to inf, whose log would turn the
    # score into NaN against mixed-sign coefficients)
    if not (var.min(initial=np.inf) > var_floor and var.max(initial=0.0) < np.inf):
        ok = (var > var_floor) & (var < np.inf)  # NaN fails both
        i = _first_failure(ok.all(axis=-1))
        c = int(np.argmin(ok[i]))
        v = var[i][c]
        why = f"is not above {var_floor:.3e}" if v <= var_floor else "is not finite"
        fault = f"is not positive definite: variance {v:.3e} in component {c} {why}"
        raise NotPositiveDefinite("filtered covariance", fault, i)
    return np.log(var)


def predict_one_step(model, features):
    """Score features directly with the sorted coefficients ``beta``.

    ``score = beta . features + intercept`` for either feature kind; the
    label is the sign of the score with sign(0) = +1.

    Returns
    -------
    (score, label)

    Raises
    ------
    InvalidInput
        On features of the wrong shape, or a score that is not finite.
    """
    features = _real_array(features, "features")
    if features.shape != (model.k,):
        raise InvalidInput(f"expected {model.k} features, got shape {features.shape}")
    score = float(model.beta @ features + model.intercept)
    if not np.isfinite(score):  # NaN has no sign to label
        raise InvalidInput(f"the features give the non-finite score {score}")
    return score, _sign(score)


def _sign(score):
    return 1 if score >= 0 else -1


def exact_decision_value(weight_cov, ref, trial_cov, ged_result):
    """Tangent decision value through the full-rank filter route.

    Evaluates ``Tr(logm(D) logm(F.T @ trial_cov @ F))`` for the
    generalized eigendecomposition ``F, D`` of ``(weight_cov, ref)``. For
    full-rank F this equals the manifold inner product at ``ref`` between
    the tangent images of ``weight_cov`` and ``trial_cov``, i.e. the
    decision value of the underlying tangent-space linear model (without
    its intercept). ``ged_result`` must whiten ``ref`` and diagonalize
    ``weight_cov``, or :class:`~tssf.errors.InvalidInput` is raised. First
    each matrix passes the symmetric-matrix rule and both ``ged_result``
    arrays must be finite: a non-finite entry is named, as ``InvalidInput``.
    """
    weight_cov = _check_symmetric(weight_cov, "weight_cov", stack=False)
    ref = _check_symmetric(ref, "ref", stack=False)
    trial_cov = _check_symmetric(trial_cov, "trial_cov", stack=False)
    f = _check_finite(ged_result.eigenvectors, "ged_result.eigenvectors")
    d = _check_finite(ged_result.eigenvalues, "ged_result.eigenvalues")
    if f.shape[0] != f.shape[1]:
        raise InvalidInput("filters must be square (full rank) for the exact value")
    if np.linalg.matrix_rank(f) < f.shape[0]:
        raise InvalidInput("filters are rank deficient")
    # not _congruence: this reference route checks the unsymmetrized products
    if not np.allclose(f.T @ ref @ f, np.eye(f.shape[0]), atol=1e-6):
        raise InvalidInput("ged_result does not whiten ref; was it solved on (weight_cov, ref)?")
    if not np.allclose(f.T @ weight_cov @ f, np.diag(d), rtol=0.0, atol=1e-6 * np.abs(d).max()):
        raise InvalidInput("ged_result does not diagonalize weight_cov")
    if np.any(d <= 0):
        raise InvalidInput("weight covariance eigenvalues must be positive")
    filtered = f.T @ trial_cov @ f
    return float(np.log(d) @ _diag_logm(filtered, "filtered trial covariance"))
