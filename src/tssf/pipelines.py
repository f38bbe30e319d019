"""End-to-end classification pipelines over raw trial tensors.

Seven named pipelines cover the baseline and the tangent-space family:

=================== ====================================================
CSP                 CSP filters, log-variance features, linear SVM
TSSF_Var_1_step     tangent-space filters, log-variance, one-step scores
TSSF_Var_2_step     same features, second SVM
TSSF_Cov_1_step     diagonal of the log filtered covariance, one-step
TSSF_Cov_2_step     same features, second SVM
TSSF_LogCov_2_step  full tangent vector of the filtered covariance, SVM
TS_AIRM             full tangent-space vectors at the Frechet mean, SVM
=================== ====================================================

Every pipeline object exposes ``fit(trials, labels)`` and
``decision_scores(trials)`` on C x N x T tensors. Test-trial covariances
are always recomputed from the filtered data, never by congruence of a
stored full covariance, mirroring online use.

Pipelines on log-matrix features score in eigen-coordinates: any linear
function of ``logm(W)`` is ``<B, logm(W)> = sum_i log(lam_i) (V^T B V)_ii``
for the eigenpairs of ``W``. Fitting compiles the model once into a
projection, a symmetric B and an intercept, so prediction filters the
trial, takes its covariance and evaluates that sum; it builds no log
matrix and no tangent vector. Training features are computed as before.
"""

from dataclasses import dataclass, field

import numpy as np

from .csp import fit_csp
from .dataio import _covariance_stack, _spd_covariances
from .errors import DegenerateModel, InvalidInput
from .linmodel import ClassifierConfig, fit_from_config
from .manifold import SPD_TOL, _half_powers, _log_inner, unvec
from .manifold import frechet_mean  # noqa: F401  (re-exported)
from .tssf import DIAGLOGCOV, LOGCOV, LOGVAR, _filtered_features, extract_tssf, fit_tangent_model

PIPELINE_NAMES = (
    "CSP",
    "TSSF_Var_1_step",
    "TSSF_Var_2_step",
    "TSSF_Cov_1_step",
    "TSSF_Cov_2_step",
    "TSSF_LogCov_2_step",
    "TS_AIRM",
)

_TSSF_VARIANTS = {
    "TSSF_Var_1_step": (LOGVAR, True),
    "TSSF_Var_2_step": (LOGVAR, False),
    "TSSF_Cov_1_step": (DIAGLOGCOV, True),
    "TSSF_Cov_2_step": (DIAGLOGCOV, False),
    "TSSF_LogCov_2_step": (LOGCOV, False),
}


@dataclass(frozen=True)
class PipelineSpec:
    """A pipeline name plus its filter count and classifier settings."""

    name: str
    k: int = 6
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def validate(self):
        if self.name not in PIPELINE_NAMES:
            raise InvalidInput(
                f"unknown pipeline {self.name!r}; choose from {', '.join(PIPELINE_NAMES)}"
            )
        if self.k < 1:
            raise InvalidInput("k must be >= 1")
        self.classifier.validate()
        return self


def make_pipeline(spec):
    """Build a fresh, unfitted pipeline object from a spec."""
    spec.validate()
    if spec.name == "CSP":
        return CspPipeline(spec.k, spec.classifier)
    if spec.name == "TS_AIRM":
        return TangentSpacePipeline(spec.classifier)
    kind, one_step = _TSSF_VARIANTS[spec.name]
    return TssfPipeline(spec.name, spec.k, kind, one_step, spec.classifier)


def _check_fit_inputs(trials, labels):
    trials = np.ascontiguousarray(trials, dtype=float)
    labels = np.asarray(labels)
    if trials.ndim != 3:
        raise InvalidInput("trials must be a C x N x T tensor")
    if labels.shape != (trials.shape[2],):
        raise InvalidInput("need one label per trial")
    if np.unique(labels).size < 2:
        raise DegenerateModel("training data contains a single class")
    return trials, labels


def _filtered_covariances(projection, trials):
    # covariance of each trial after projection onto the columns of
    # `projection`; (C, N, T) is C-contiguous, so channel-space filtering
    # maps onto one large matmul over the flattened (N, T) axes
    c, n, t = trials.shape
    flat = projection.T @ trials.reshape(c, n * t)
    return _covariance_stack(flat.reshape(projection.shape[1], n, t))


def _trial_features(model, kind, trials, var_floor=0.0):
    # features of each trial's covariance, recomputed from the filtered data
    return _filtered_features(model, _filtered_covariances(model.filters, trials), kind, var_floor)


def _variance_floor(filters, covs):
    # SPD_TOL times the smallest filtered training variance f_i^T C_t f_i.
    # Held-out log-variances must exceed it: a constant trial's variances
    # are rounding noise (about 1e-33 at unit scale), not exactly 0, and a
    # floor that scales with the training data rejects them in any units.
    return SPD_TOL * float(((covs @ filters) * filters).sum(axis=-2).min())


class CspPipeline:
    name = "CSP"
    feature_kind = LOGVAR

    def __init__(self, k, classifier=None, class_mean="arithmetic"):
        self.k = k
        self.classifier_cfg = classifier or ClassifierConfig()
        self.class_mean = class_mean
        self.model = None
        self.clf = None

    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        covs = _spd_covariances(trials)
        self.model = fit_csp(covs, labels, self.k, class_mean=self.class_mean)
        self._var_floor = _variance_floor(self.model.filters, covs)
        feats = _trial_features(self.model, LOGVAR, trials)
        self.clf = fit_from_config(feats, labels, self.classifier_cfg)
        return self

    def decision_scores(self, trials):
        trials = np.ascontiguousarray(trials, dtype=float)
        feats = _trial_features(self.model, LOGVAR, trials, self._var_floor)
        return feats @ self.clf.weights + self.clf.intercept


class TssfPipeline:
    def __init__(self, name, k, kind, one_step, classifier=None):
        self.name = name
        self.k = k
        self.feature_kind = kind
        self.one_step = one_step
        self.classifier_cfg = classifier or ClassifierConfig()
        self.model = None
        self.second = None

    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        covs = _spd_covariances(trials)
        self.model = extract_tssf(
            covs,
            labels,
            self.k,
            model_cfg=self.classifier_cfg,
            feature_kind=self.feature_kind,
        )
        if self.one_step:
            weights, self._intercept = self.model.beta, self.model.intercept
        else:
            feats = _trial_features(self.model, self.feature_kind, trials)
            self.second = fit_from_config(feats, labels, self.classifier_cfg)
            weights, self._intercept = self.second.weights, self.second.intercept
        filters = self.model.filters
        if self.feature_kind == LOGVAR:
            self._var_floor = _variance_floor(filters, covs)
            self._projection, self._coef = filters, weights
        elif self.feature_kind == DIAGLOGCOV:
            self._projection, self._coef = filters, np.diag(weights)
        else:
            # the features are vec(h L h) with L = logm(h^-1 F^T S F h^-1)
            # and h = filtered_mean^{1/2}, so w . vec(h L h) = <h unvec(w) h, L>,
            # and L is the log of the covariance filtered by F h^-1
            half, inv_half = self.model._filtered_mean_powers
            self._projection, self._coef = filters @ inv_half, half @ unvec(weights) @ half
        return self

    def decision_scores(self, trials):
        covs = _filtered_covariances(self._projection, np.ascontiguousarray(trials, dtype=float))
        if self.feature_kind == LOGVAR:
            feats = _filtered_features(self.model, covs, LOGVAR, self._var_floor)
            return feats @ self._coef + self._intercept
        return _log_inner(covs, self._coef, "filtered covariance") + self._intercept


class TangentSpacePipeline:
    name = "TS_AIRM"
    feature_kind = "tangent"
    k = 0  # no spatial filtering; feature dim is C(C+1)/2

    def __init__(self, classifier=None):
        self.classifier_cfg = classifier or ClassifierConfig()
        self.reference_mean = None
        self._inv_half = None
        self.clf = None

    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        self.reference_mean, self.clf = fit_tangent_model(
            _spd_covariances(trials), labels, self.classifier_cfg
        )
        _, self._inv_half = _half_powers(self.reference_mean)
        self._coef = unvec(self.clf.weights)
        return self

    def decision_scores(self, trials):
        # whitening the covariance by congruence takes two C x C products;
        # projecting the C x N trial by inv_half instead would take more
        # whenever N > 2C
        covs = _covariance_stack(np.ascontiguousarray(trials, dtype=float))
        whitened = self._inv_half @ covs @ self._inv_half
        return _log_inner(whitened, self._coef, "covariance") + self.clf.intercept
