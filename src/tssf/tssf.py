"""Spatial filter extraction from tangent-space linear models.

A linear decision function fitted on tangent vectors is a bank of spatial
filters. With its weight vector reshaped into ``W = V diag(lam) V^T``
(whitened at the reference mean ``m``), the filters are ``m^{-1/2} V``,
the generalized eigenvectors of ``(m^{1/2} expm(W) m^{1/2}, m)``, and
``lam`` their log-eigenvalues. These coefficients score filtered log-power
features directly ("one-step") without fitting a second classifier.

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
reference that the pipelines' scores are tested against. Whole pipelines,
their one compiled scoring route and their ``pipeline/2`` model file live
in :mod:`tssf.pipelines`; this module keeps no file format of its own.
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
    _check_symmetric,
    _component_order,
    _congruence,
    _first_failure,
    _frechet_mean_and_logs,
    _half_powers,
    _log_inner,
    _spd_eigh,
    _vec,
    _whitened_log,
    ensure_spd,
    frechet_mean,
    sym_eig,
    unvec,
)

LOGVAR = "logvar"
DIAGLOGCOV = "diaglogcov"
LOGCOV = "logcov"
FEATURE_KINDS = (LOGVAR, DIAGLOGCOV, LOGCOV)
ONE_STEP_KINDS = (LOGVAR, DIAGLOGCOV)


def _check_kind(kind):
    if kind not in FEATURE_KINDS:
        raise UnsupportedFeatureKind(f"unknown feature kind {kind!r}")
    return kind


def tangent_vectors(ref, covs):
    """Whitened tangent vectors of SPD matrices at reference ``ref``.

    Returns the (T, C(C+1)/2) matrix with rows
    ``vec(logm(ref^{-1/2} covs[t] ref^{-1/2}))``.
    """
    _, inv_half = _half_powers(_check_symmetric(ref, "ref", stack=False))
    return _vec(_whitened_log(inv_half, _check_symmetric(covs, "covariance"), "covariance"))


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
        On a bad shape or label value; on single-class labels.

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
    model = fit_from_config(_vec(logs), labels, model_cfg)
    mean.setflags(write=False)
    model.weights.setflags(write=False)
    result = (mean, model)
    _last_fit = (key, result)
    return result


@dataclass(frozen=True)
class TssfModel:
    """Spatial filters plus the ingredients of one-step scoring.

    ``full_filters`` are all C filters in sorted order (``filters`` is their
    K-column prefix), ``full_beta`` the matching sorted log-eigenvalues
    (``beta`` is their K-prefix, the one-step coefficients), and
    ``filtered_mean`` the Frechet mean of the K x K filtered training
    covariances (the reference of "logcov" features; None for models of
    any other kind).
    """

    filters: np.ndarray
    beta: np.ndarray
    intercept: float
    reference_mean: np.ndarray
    full_filters: np.ndarray
    full_beta: np.ndarray
    filtered_mean: np.ndarray | None
    feature_kind: str = LOGVAR

    @property
    def k(self):
        return self.filters.shape[1]


def extract_tssf(covs, labels, k, model_cfg=None, feature_kind=LOGVAR):
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
    feature_kind : str
        Feature type this model is meant to produce. Only a "logcov" model
        gets a ``filtered_mean``, the reference of its features.

    Returns
    -------
    TssfModel

    Notes
    -----
    Steps: Frechet mean of the covariances, whitened tangent vectors and
    linear model fit (:func:`fit_tangent_model`, so the previous fit is
    reused when its inputs were the same); weight vector reshaped to a
    symmetric matrix ``W = V diag(lam) V^T``, giving filters ``mean^{-1/2} V``
    and log-eigenvalues ``lam`` with no matrix exponential to overflow;
    components sorted by ``|lam|``, descending (ties by descending ``lam``,
    then original position); truncation to ``k`` columns.

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape, label value or ``k``; on single-class labels or an
        all-zero fitted weight vector.
    """
    covs, labels = _check_training_set(covs, labels)
    c = covs.shape[1]
    if not 1 <= k <= c:
        raise InvalidInput(f"k must be in [1, {c}], got {k}")
    _check_kind(feature_kind)

    mean, model = fit_tangent_model(covs, labels, model_cfg)
    if not np.any(model.weights):
        raise DegenerateModel("tangent-space model has an all-zero weight vector")

    lam, v = sym_eig(unvec(model.weights))
    _, inv_half = _half_powers(mean)
    order = _component_order(lam)
    full_filters = (inv_half @ v)[:, order]
    full_beta = lam[order]
    filters = full_filters[:, :k]
    logcov = feature_kind == LOGCOV
    return TssfModel(
        filters=filters,
        beta=full_beta[:k],
        intercept=float(model.intercept),
        reference_mean=mean,
        full_filters=full_filters,
        full_beta=full_beta,
        filtered_mean=frechet_mean(_congruence(filters, covs)) if logcov else None,
        feature_kind=feature_kind,
    )


def apply_filters(model, trial):
    """Filter one C x N trial with a TSSF or CSP model: ``filters.T @ trial`` (K x N)."""
    trial = np.asarray(trial, dtype=float)
    c = model.filters.shape[0]
    if trial.ndim != 2 or trial.shape[0] != c:
        raise DimMismatch(
            f"trial has {trial.shape[0] if trial.ndim == 2 else '?'} channels, "
            f"model expects {c}"
        )
    return model.filters.T @ trial


def compute_features(model, filtered_cov, kind=None):
    """Features of a K x K filtered covariance matrix.

    ``logvar``: log of the diagonal (length K). ``diaglogcov``: diagonal
    of the matrix logarithm (length K). ``logcov``: tangent vector of the
    covariance at the filtered-space Frechet mean (length K(K+1)/2). A
    ``(..., K, K)`` stack gives one feature row per matrix. A CSP model
    has no feature kind of its own, so it needs ``kind``.
    """
    if kind is None and not isinstance(model, TssfModel):
        raise InvalidInput(f"a {type(model).__name__} has no feature kind: pass kind")
    kind = _check_kind(kind or model.feature_kind)
    cov = ensure_spd(filtered_cov, name="filtered covariance")
    k = model.filters.shape[1]
    if cov.shape[-1] != k:
        raise DimMismatch(f"filtered covariance must be {k} x {k}")
    return _filtered_features(model, cov, kind)


def _filtered_features(model, covs, kind):
    """Features of a stack of filtered covariances, without validation.

    The one feature map behind :func:`compute_features` and the pipelines'
    training features (pipelines score without building log-matrix
    features, see ``pipelines``). Non-SPD input raises
    :class:`~tssf.errors.NotPositiveDefinite` naming the first failing
    matrix; "logvar" checks only that every variance is positive.
    """
    if kind == LOGVAR:
        return _log_variances(covs)
    if kind == DIAGLOGCOV:
        w, v = _spd_eigh(covs, name="filtered covariance")
        return ((v * v) @ np.log(w)[..., None])[..., 0]  # diagonal of V log(w) V^T
    if model.filtered_mean is None:
        kind = model.feature_kind
        raise UnsupportedFeatureKind(f"'logcov' features of a model extracted for {kind!r}")
    half, inv_half = _half_powers(model.filtered_mean)
    return _vec(half @ _whitened_log(inv_half, covs, "filtered covariance") @ half)


def _log_variances(covs, var_floor=0.0):
    # log of the diagonal of every matrix of a stack; raises
    # NotPositiveDefinite naming the first matrix with a variance not above
    # var_floor. The method form skips np.diagonal's dispatch, which on a
    # single trial costs more than the check.
    var = covs.diagonal(0, -2, -1)
    if not var.min(initial=np.inf) > var_floor:  # one reduction; NaN fails too
        above = var > var_floor
        i, where = _first_failure(above.all(axis=-1))
        c = int(np.argmin(above[i]))
        raise NotPositiveDefinite(
            f"filtered covariance{where} is not positive definite: "
            f"variance {var[i][c]:.3e} in component {c} is not above {var_floor:.3e}"
        )
    return np.log(var)


def predict_one_step(model, features, kind=None):
    """Score features directly with the sorted coefficients ``beta``.

    ``score = beta . features + intercept``; the label is the sign of the
    score with sign(0) = +1. Only "logvar" and "diaglogcov" features are
    one-step scorable, and only by a TssfModel.

    Returns
    -------
    (score, label)
    """
    if not isinstance(model, TssfModel):
        raise InvalidInput(f"one-step scoring needs a TssfModel, not a {type(model).__name__}")
    kind = kind or model.feature_kind
    if kind not in ONE_STEP_KINDS:
        raise UnsupportedFeatureKind(
            f"one-step scoring needs diagonal features, not {kind!r}"
        )
    features = np.asarray(features, dtype=float)
    if features.shape != (model.k,):
        raise InvalidInput(f"expected {model.k} features, got shape {features.shape}")
    score = float(model.beta @ features + model.intercept)
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
    ``weight_cov``, or :class:`~tssf.errors.InvalidInput` is raised.
    """
    f = np.asarray(ged_result.eigenvectors, dtype=float)
    d = np.asarray(ged_result.eigenvalues, dtype=float)
    if f.shape[0] != f.shape[1]:
        raise InvalidInput("filters must be square (full rank) for the exact value")
    if np.linalg.matrix_rank(f) < f.shape[0]:
        raise InvalidInput("filters are rank deficient")
    if not np.allclose(f.T @ ref @ f, np.eye(f.shape[0]), atol=1e-6):
        raise InvalidInput("ged_result does not whiten ref; was it solved on (weight_cov, ref)?")
    if not np.allclose(f.T @ weight_cov @ f, np.diag(d), rtol=0.0, atol=1e-6 * np.abs(d).max()):
        raise InvalidInput("ged_result does not diagonalize weight_cov")
    if np.any(d <= 0):
        raise InvalidInput("weight covariance eigenvalues must be positive")
    filtered = f.T @ np.asarray(trial_cov, dtype=float) @ f
    return float(_log_inner(filtered, np.diag(np.log(d)), "filtered trial covariance"))
