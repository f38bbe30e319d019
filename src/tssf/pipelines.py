"""End-to-end classification pipelines over raw trial tensors.

Seven named pipelines cover the baseline and the tangent-space family.
:data:`PIPELINES` is the one table that maps each name to its class, its
feature kind and whether it scores in one step:

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
are always recomputed from the trial data, never taken from a stored
covariance, mirroring online use.

Every ``fit`` ends in the same compiled form: a projection P,
coefficients (a vector w on log-variances, or a symmetric B on a log
matrix), an intercept and a variance floor. One scoring function serves
all pipelines. It forms W = P^T S P from each trial's covariance S and
returns ``w . log(diag W)`` or ``<B, logm W>``, plus the intercept. The
log-matrix score is read off the eigenpairs of W,
``sum_i log(lam_i) (V^T B V)_ii``, so no log matrix and no tangent vector
is built. A C x K projection with K < C filters the C x N trial before
the covariance is taken; a square one (TS_AIRM's P = mean^{-1/2}, or TSSF
with K = C) is applied to the C x C covariance by congruence, which costs
less whenever N > 2C. A ``fit`` reads the trials only for their
covariances C: a filtered trial F^T x has covariance F^T C F, the stack
that training features and the variance floor are taken from.

:func:`save_pipeline` writes the compiled form, plus the spatial filters
of CSP and TSSF for ``patterns``, as one ``pipeline/1`` document, and
:func:`load_pipeline` reads it back into a pipeline that scores bitwise
like the fitted one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _textdoc
from .csp import fit_csp
from .dataio import _covariance_stack, _spd_covariances
from .errors import DegenerateModel, FormatError, InvalidInput
from .linmodel import ClassifierConfig, fit_from_config
from .manifold import SPD_TOL, _half_powers, _log_inner, unvec
from .manifold import frechet_mean  # noqa: F401  (re-exported)
from .tssf import (
    DIAGLOGCOV,
    LOGCOV,
    LOGVAR,
    _filtered_features,
    _filtered_stack,
    _log_variances,
    extract_tssf,
    fit_tangent_model,
)

TANGENT = "tangent"


def _check_fit_inputs(trials, labels):
    trials = np.asarray(trials, dtype=float)
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


def _compiled_scores(self, trials):
    """Decision scores of a C x N x T tensor, one per trial."""
    trials = np.ascontiguousarray(trials, dtype=float)
    p = self._projection
    if p.shape[0] == p.shape[1]:
        # congruence of the C x C covariance takes two C x C products;
        # projecting the C x N trial would take more whenever N > 2C
        covs, name = p.T @ _covariance_stack(trials) @ p, "covariance"
    else:
        covs, name = _filtered_covariances(p, trials), "filtered covariance"
    if self._coef.ndim == 1:
        return _log_variances(covs, self._var_floor) @ self._coef + self._intercept
    return _log_inner(covs, self._coef, name) + self._intercept


class _Pipeline:
    """The spec and compiled form shared by the pipeline classes.

    Each subclass binds ``fit`` and ``decision_scores`` in its own body.
    ``filters`` holds the spatial filters of CSP and TSSF pipelines (for
    spatial patterns) and stays None for TS_AIRM.
    """

    def __init__(self, name, k, feature_kind, one_step, classifier=None):
        self.name = name
        self.k = k
        self.feature_kind = feature_kind
        self.one_step = one_step
        self.classifier_cfg = classifier or ClassifierConfig()
        self.filters = None
        self.model = None
        self.clf = None
        self._projection = None

    def _compile(self, projection, coef, intercept, var_floor=0.0):
        # every fitted or loaded pipeline holds C-contiguous arrays, so BLAS
        # sees one layout and a loaded pipeline scores the same bits
        self._projection = np.ascontiguousarray(projection, dtype=float)
        self._coef = np.ascontiguousarray(coef, dtype=float)
        self._intercept = float(intercept)
        self._var_floor = float(var_floor)
        return self


class CspPipeline(_Pipeline):
    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        covs = _spd_covariances(trials)
        self.model = fit_csp(covs, labels, self.k)
        self.filters = self.model.filters
        filtered = _filtered_stack(self.filters, covs)
        self.clf = fit_from_config(_log_variances(filtered), labels, self.classifier_cfg)
        floor = SPD_TOL * filtered.diagonal(0, -2, -1).min()
        return self._compile(self.filters, self.clf.weights, self.clf.intercept, floor)

    decision_scores = _compiled_scores


class TssfPipeline(_Pipeline):
    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        covs = _spd_covariances(trials)
        self.model = extract_tssf(
            covs, labels, self.k, model_cfg=self.classifier_cfg, feature_kind=self.feature_kind
        )
        self.filters = filters = self.model.filters
        filtered = _filtered_stack(filters, covs)
        if self.one_step:
            weights, intercept = self.model.beta, self.model.intercept
        else:
            feats = _filtered_features(self.model, filtered, self.feature_kind)
            self.clf = fit_from_config(feats, labels, self.classifier_cfg)
            weights, intercept = self.clf.weights, self.clf.intercept
        if self.feature_kind == LOGVAR:
            # a constant held-out trial's variances are rounding noise, not 0
            floor = SPD_TOL * filtered.diagonal(0, -2, -1).min()
            return self._compile(filters, weights, intercept, floor)
        if self.feature_kind == DIAGLOGCOV:
            return self._compile(filters, np.diag(weights), intercept)
        # the features are vec(h L h) with L = logm(h^-1 F^T S F h^-1)
        # and h = filtered_mean^{1/2}, so w . vec(h L h) = <h unvec(w) h, L>,
        # and L is the log of the covariance filtered by F h^-1
        half, inv_half = _half_powers(self.model.filtered_mean)
        return self._compile(filters @ inv_half, half @ unvec(weights) @ half, intercept)

    decision_scores = _compiled_scores


class TangentSpacePipeline(_Pipeline):
    def __init__(self, name, k, feature_kind, one_step, classifier=None):
        # no spatial filtering: k is 0 and the feature dim is C(C+1)/2
        super().__init__(name, 0, feature_kind, one_step, classifier)
        self.reference_mean = None

    def fit(self, trials, labels):
        trials, labels = _check_fit_inputs(trials, labels)
        self.reference_mean, self.clf = fit_tangent_model(
            _spd_covariances(trials), labels, self.classifier_cfg
        )
        # P = mean^{-1/2} whitens each covariance at the reference mean
        _, inv_half = _half_powers(self.reference_mean)
        return self._compile(inv_half, unvec(self.clf.weights), self.clf.intercept)

    decision_scores = _compiled_scores


# name -> (class, feature kind, one-step)
PIPELINES = {
    "CSP": (CspPipeline, LOGVAR, False),
    "TSSF_Var_1_step": (TssfPipeline, LOGVAR, True),
    "TSSF_Var_2_step": (TssfPipeline, LOGVAR, False),
    "TSSF_Cov_1_step": (TssfPipeline, DIAGLOGCOV, True),
    "TSSF_Cov_2_step": (TssfPipeline, DIAGLOGCOV, False),
    "TSSF_LogCov_2_step": (TssfPipeline, LOGCOV, False),
    "TS_AIRM": (TangentSpacePipeline, TANGENT, False),
}
PIPELINE_NAMES = tuple(PIPELINES)


@dataclass(frozen=True)
class PipelineSpec:
    """A pipeline name plus its filter count and classifier settings."""

    name: str
    k: int = 6
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def validate(self):
        if self.name not in PIPELINES:
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
    cls, kind, one_step = PIPELINES[spec.name]
    return cls(spec.name, spec.k, kind, one_step, spec.classifier)


def save_pipeline(pipe, path):
    """Write a fitted pipeline as a "pipeline/1" structured-text document.

    Fields: name, k, feature_kind, intercept, var_floor, projection (a
    matrix), coef (a vector for "logvar" pipelines, else a symmetric
    matrix) and, for CSP and TSSF pipelines, filters.
    """
    if pipe._projection is None:
        raise InvalidInput(f"{pipe.name} pipeline is not fitted")
    entries = [
        ("format", "pipeline/1"),
        ("name", pipe.name),
        ("k", pipe.k),
        ("feature_kind", pipe.feature_kind),
        ("intercept", pipe._intercept),
        ("var_floor", pipe._var_floor),
        ("projection", pipe._projection),
        ("coef", pipe._coef),
    ]
    if pipe.filters is not None:
        entries.append(("filters", pipe.filters))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_textdoc.dump(entries))


def load_pipeline(path):
    """Read a "pipeline/1" document into a pipeline ready to score.

    The pipeline holds the compiled form and the filters only; its
    ``decision_scores`` are bitwise those of the pipeline that was saved.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = _textdoc.parse(fh.read())
    if doc.get("format") != "pipeline/1":
        raise FormatError("not a pipeline/1 model file")
    name = _textdoc.get_str(doc, "name")
    if name not in PIPELINES:
        raise FormatError(f"unknown pipeline {name!r}")
    cls, kind, one_step = PIPELINES[name]
    if _textdoc.get_str(doc, "feature_kind") != kind:
        raise FormatError(f"{name} must have feature kind {kind!r}")
    pipe = cls(name, _textdoc.get_int(doc, "k"), kind, one_step)
    get_coef = _textdoc.get_vector if kind == LOGVAR else _textdoc.get_matrix
    pipe._compile(
        _textdoc.get_matrix(doc, "projection"),
        get_coef(doc, "coef"),
        _textdoc.get_float(doc, "intercept"),
        _textdoc.get_float(doc, "var_floor"),
    )
    if "filters" in doc:
        pipe.filters = _textdoc.get_matrix(doc, "filters")
    width = pipe.k or pipe._projection.shape[0]  # TS_AIRM keeps all C dimensions
    if pipe._projection.shape[1] != width or pipe._coef.shape != (width,) * pipe._coef.ndim:
        raise FormatError(f"projection and coef do not match k={pipe.k}")
    return pipe
