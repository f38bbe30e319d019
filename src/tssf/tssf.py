"""Spatial filter extraction from tangent-space linear models.

A linear decision function fitted on tangent vectors is turned into a
bank of spatial filters: the fitted weight vector is reshaped back into a
symmetric matrix, re-projected onto the manifold through the exponential
map at the reference mean, and jointly diagonalized with that mean by a
generalized eigendecomposition. The log-eigenvalues double as regression
coefficients, so filtered log-power features can be scored directly
("one-step") without fitting a second classifier.

Tangent vectors here are whitened: ``vec(logm(m^{-1/2} C m^{-1/2}))`` at
reference mean ``m``. With that convention the dot product of two tangent
vectors is the manifold inner product at ``m``, which is what makes the
full-rank one-step scores reproduce the fitted model's decision values
exactly (see ``exact_decision_value``).

Every TSSF variant and the plain tangent-space classifier fitted on one
training set share one Frechet mean and one tangent-space linear model.
:func:`fit_tangent_model` computes that pair and keeps the most recent
results, so identical fits within a process are computed once; the
arrays it returns are read-only.

The per-trial functions (:func:`apply_filters`, :func:`compute_features`,
:func:`predict_one_step`) work on one filtered trial at a time and are the
reference that the pipelines' scores are tested against. Whole pipelines,
their one compiled scoring route and their ``pipeline/1`` model file live
in :mod:`tssf.pipelines`; this module keeps no file format of its own.
"""

import collections
import hashlib
import threading
from dataclasses import dataclass

import numpy as np

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
    _frechet_mean_and_logs,
    _half_powers,
    _spd_eigh,
    _vec,
    _whitened_log,
    ensure_spd,
    expm,
    frechet_mean,
    ged,
    logm,
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


def _check_training_set(covs, labels):
    covs = np.asarray(covs, dtype=float)
    labels = np.asarray(labels)
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise InvalidInput("covs must have shape (T, C, C)")
    if labels.shape != (covs.shape[0],):
        raise InvalidInput("need one label per covariance")
    if np.unique(labels).size < 2:
        raise DegenerateModel("labels are constant; need both classes")
    return covs, labels


# most recent fit_tangent_model results, keyed by a digest of the inputs;
# an entry is about 50 KB at C=64, and 32 cover one cross-validated eval
# over up to 32 distinct training sets
_FIT_STORE_SIZE = 32
_fit_store = collections.OrderedDict()
_fit_store_lock = threading.Lock()


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
    DegenerateModel
        On single-class labels.

    Notes
    -----
    A call with the same covariances, labels (values, shape and dtype)
    and classifier configuration as one of the last 32 distinct calls in
    this process returns that call's result: the same objects, so the same
    bits.
    """
    covs, labels = _check_training_set(covs, labels)
    model_cfg = model_cfg or ClassifierConfig()
    key = _fit_key(covs, labels, model_cfg)
    with _fit_store_lock:
        if key in _fit_store:
            _fit_store.move_to_end(key)
            return _fit_store[key]
    mean, logs = _frechet_mean_and_logs(covs)
    model = fit_from_config(_vec(logs), labels, model_cfg)
    mean.setflags(write=False)
    model.weights.setflags(write=False)
    result = (mean, model)
    with _fit_store_lock:
        _fit_store[key] = result
        if len(_fit_store) > _FIT_STORE_SIZE:
            _fit_store.popitem(last=False)
    return result


def _clear_fit_store():
    # forget every stored fit_tangent_model result
    with _fit_store_lock:
        _fit_store.clear()


@dataclass(frozen=True)
class TssfModel:
    """Spatial filters plus the ingredients of one-step scoring.

    ``full_filters`` are all C generalized eigenvectors in sorted order
    (``filters`` is their K-column prefix), ``full_beta`` the matching
    sorted log-eigenvalues (``beta`` is their K-prefix, the one-step
    coefficients), ``sort_index`` the permutation from
    descending-eigenvalue order to sorted order, and ``filtered_mean``
    the Frechet mean of the K x K filtered training covariances (the
    reference of "logcov" features; None for models of any other kind).
    """

    filters: np.ndarray
    beta: np.ndarray
    intercept: float
    reference_mean: np.ndarray
    full_filters: np.ndarray
    full_beta: np.ndarray
    sort_index: np.ndarray
    filtered_mean: np.ndarray | None
    feature_kind: str = LOGVAR

    @property
    def k(self):
        return self.filters.shape[1]

    @property
    def n_channels(self):
        return self.filters.shape[0]


def _filtered_stack(filters, covs):
    # F^T C F for every covariance C of a stack: the covariance of the
    # filtered trial F^T x, by congruence, made exactly symmetric
    filtered = filters.T @ covs @ filters
    return 0.5 * (filtered + filtered.swapaxes(-1, -2))


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
    linear model fit (:func:`fit_tangent_model`, so a fit on the same
    inputs is reused); weight vector reshaped to a symmetric matrix and
    re-projected onto the manifold at the mean; generalized
    eigendecomposition of (weight covariance, mean); components sorted by
    absolute log-eigenvalue, descending (ties by descending eigenvalue,
    then original position); truncation to ``k`` columns.

    Raises
    ------
    DegenerateModel
        On single-class labels or an all-zero fitted weight vector.
    """
    covs, labels = _check_training_set(covs, labels)
    c = covs.shape[1]
    if not 1 <= k <= c:
        raise InvalidInput(f"k must be in [1, {c}], got {k}")
    _check_kind(feature_kind)

    mean, model = fit_tangent_model(covs, labels, model_cfg)
    if not np.any(model.weights):
        raise DegenerateModel("tangent-space model has an all-zero weight vector")

    half, _ = _half_powers(mean)
    weight_cov = half @ expm(unvec(model.weights)) @ half
    solution = ged(weight_cov, mean)
    order = _component_order(solution.eigenvalues)
    full_filters = solution.eigenvectors[:, order]
    full_beta = np.log(solution.eigenvalues)[order]
    filters = full_filters[:, :k]
    logcov = feature_kind == LOGCOV
    return TssfModel(
        filters=filters,
        beta=full_beta[:k],
        intercept=float(model.intercept),
        reference_mean=mean,
        full_filters=full_filters,
        full_beta=full_beta,
        sort_index=order,
        filtered_mean=frechet_mean(_filtered_stack(filters, covs)) if logcov else None,
        feature_kind=feature_kind,
    )


def apply_filters(model, trial):
    """Filter one C x N trial: ``filters.T @ trial`` (K x N)."""
    trial = np.asarray(trial, dtype=float)
    if trial.ndim != 2 or trial.shape[0] != model.n_channels:
        raise DimMismatch(
            f"trial has {trial.shape[0] if trial.ndim == 2 else '?'} channels, "
            f"model expects {model.n_channels}"
        )
    return model.filters.T @ trial


def compute_features(model, filtered_cov, kind=None):
    """Features of a K x K filtered covariance matrix.

    ``logvar``: log of the diagonal (length K). ``diaglogcov``: diagonal
    of the matrix logarithm (length K). ``logcov``: tangent vector of the
    covariance at the filtered-space Frechet mean (length K(K+1)/2). A
    ``(..., K, K)`` stack gives one feature row per matrix.
    """
    kind = _check_kind(kind or model.feature_kind)
    cov = ensure_spd(filtered_cov, name="filtered covariance")
    if cov.shape[-1] != model.k:
        raise DimMismatch(f"filtered covariance must be {model.k} x {model.k}")
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
        i = tuple(np.argwhere(~(var > var_floor))[0])
        where = "" if len(i) == 1 else f" {i[0]}" if len(i) == 2 else f" {i[:-1]}"
        raise NotPositiveDefinite(
            f"filtered covariance{where} is not positive definite: "
            f"variance {var[i]:.3e} in component {i[-1]} is not above {var_floor:.3e}"
        )
    return np.log(var)


def predict_one_step(model, features, kind=None):
    """Score features directly with the sorted log-eigenvalues.

    ``score = beta . features + intercept``; the label is the sign of the
    score with sign(0) = +1. Only "logvar" and "diaglogcov" features are
    one-step scorable.

    Returns
    -------
    (score, label)
    """
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
    its intercept).
    """
    f = np.asarray(ged_result.eigenvectors, dtype=float)
    d = np.asarray(ged_result.eigenvalues, dtype=float)
    if f.shape[0] != f.shape[1]:
        raise InvalidInput("filters must be square (full rank) for the exact value")
    if np.linalg.matrix_rank(f) < f.shape[0]:
        raise InvalidInput("filters are rank deficient")
    ref = np.asarray(ref, dtype=float)
    if not np.allclose(f.T @ ref @ f, np.eye(f.shape[0]), atol=1e-6):
        raise InvalidInput("ged_result does not whiten ref; was it solved on (weight_cov, ref)?")
    if np.any(d <= 0):
        raise InvalidInput("weight covariance eigenvalues must be positive")
    filtered = f.T @ np.asarray(trial_cov, dtype=float) @ f
    log_filtered = logm(0.5 * (filtered + filtered.T))
    return float(np.log(d) @ np.diag(log_filtered))
