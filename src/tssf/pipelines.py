"""End-to-end classification pipelines over raw trial tensors.

Seven named pipelines cover the baseline and the tangent-space family.
:data:`PIPELINES` is the one table that maps each name to its class, its
feature kind and whether it scores in one step:

=================== ====================================================
CSP                 TSSF_Var_2_step's fit with fit_csp's filters
TSSF_Var_1_step     tangent-space filters, log-variance, one-step scores
TSSF_Var_2_step     same features, second SVM
TSSF_Cov_1_step     diagonal of the log filtered covariance, one-step
TSSF_Cov_2_step     same features, second SVM
TSSF_LogCov_2_step  full tangent vector of the filtered covariance, SVM
TS_AIRM             TSSF_Cov_1_step with all C filters, whatever the k
=================== ====================================================

Every filter source, ``_extract``, hands back one ranked bank: all C
filters, their coefficients ``full_beta`` and the K-prefix ``filters``.
TS_AIRM, the tangent-space SVM at the Frechet mean, keeps all C, whose
one-step scores are the SVM's decision values; CSP's source is
:func:`~tssf.csp.fit_csp`. The classes differ in nothing else: a pipeline
reads its feature kind and one-step flag from its row, and every k passes
one rule, ``dataio._check_count`` (an integer >= 1; TS_AIRM then ignores it).

Every pipeline object exposes ``fit(trials, labels)`` and
``decision_scores(trials)`` on C x N x T tensors, and ``fit_covs(covs,
labels)`` on the (T, C, C) covariance stack of the training trials:
``fit`` is ``_spd_covariances`` then ``fit_covs``, bit for bit, so a
caller that fits several pipelines on one training set (``tssf eval``,
``tssf bench``) estimates its covariances once. Test-trial covariances
are always recomputed from the trial data, never taken from a stored
covariance, mirroring online use. A tensor is scored through
``dataio._blockwise``, so scoring holds a few MiB of temporaries however
long the batch.

Every ``fit`` ends in the same compiled form: the filters P, one weight
per column of P, an intercept and a floor. One scoring function serves
all pipelines: for a trial x with covariance S and W = P^T S P it returns
``w . log diag W`` (CSP, TSSF_Var_*) or ``w . diag logm W`` (the others),
plus the intercept. TSSF_LogCov_2_step's second SVM, on the "logcov"
features ``vec(log_map_at(m_f, F^T S F))`` that only this module knows,
is a linear function on the tangent space at m_f, the Frechet mean of the
filtered training covariances: :func:`~tssf.tssf.tangent_filters` makes it
K filters G, so P = F G and w is G's ``full_beta``. diag W is taken as the
variances of the rows of P^T x, and diag logm W from the eigenpairs of
W, so no log matrix or tangent vector is built. For the log-matrix kinds,
a square P (TS_AIRM, or TSSF with K = C) is applied to the C x C
covariance by congruence, cheaper than filtering the C x N trial whenever
N > 2C. A fit reads the trials only for their covariances C: a
filtered trial F^T x has covariance F^T C F, the stack that training
features and the floor are taken from.

:func:`save_pipeline` writes the compiled form, and nothing else, as one
:data:`MODEL_FORMAT` JSON file; :func:`load_pipeline` reads it back into a
pipeline that scores bitwise like the fitted one. ``tssf patterns`` exports
the patterns of P, so pattern j belongs to column j and weight j.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .csp import fit_csp
from .dataio import _check_count, _check_training_set, _covariance_stack, _spd_covariances
from .dataio import _blockwise
from .errors import DimMismatch, FormatError, InvalidInput
from .linmodel import ClassifierConfig, fit_from_config
from .manifold import SPD_TOL, _congruence, _diag_logm, _half_powers, _log_map, _vec
from .manifold import frechet_mean, unvec
from .tssf import DIAGLOGCOV, LOGVAR, _filtered_features, _log_variances, _ranked_bank, extract_tssf

LOGCOV = "logcov"  # a pipeline's kind only: no bank computes these features
MODEL_FORMAT = "pipeline/4"  # the one model file layout save_pipeline writes
_MODEL_FIELDS = ("format", "name", "intercept", "var_floor", "filters", "coef")


def _filtered_covariances(projection, trials):
    # covariance of each trial after projection onto the columns of
    # `projection`; channel-space filtering is one large matmul over the
    # flattened (N, T) axes, and the reshape copies a strided block once
    c, n, t = trials.shape
    flat = projection.T @ trials.reshape(c, n * t)
    return _covariance_stack(flat.reshape(projection.shape[1], n, t))


def _filtered_variances(projection, trials):
    # variance of each trial after projection, shape (T, K): the diagonal
    # of _filtered_covariances without its K x K products. Both sums over
    # the samples are BLAS products with a ones vector; numpy's strided
    # y.sum(axis=1) is slower than the whole covariance stack
    c, n, t = trials.shape
    y = (projection.T @ trials.reshape(c, n * t)).reshape(projection.shape[1], n, t)
    ones = np.ones(n)
    y -= (ones @ y)[:, None, :] / n
    y *= y
    return ((ones @ y) / n).T


def _compiled_scores(self, trials):
    """Decision scores of a C x N x T tensor, one per trial.

    Scored by ``dataio._blockwise``, so a strided tensor is not copied whole.
    """
    trials = np.asarray(trials, dtype=float)
    p = self.filters
    if trials.ndim != 3 or trials.shape[0] != p.shape[0] or trials.shape[1] == 0:
        raise DimMismatch(
            f"trials of shape {trials.shape} do not fit filters of shape "
            f"{p.shape}: expected ({p.shape[0]}, N, T) with N >= 1"
        )
    # the rows x N x T floats a route allocates from a view of the trials: K
    # filtered rows, twice that for a covariance; a square P copies the trials
    k = p.shape[1]
    rows = k if self.feature_kind == LOGVAR else 2 * k if k < p.shape[0] else None
    return _blockwise(partial(_block_scores, self), trials, rows)


def _block_scores(self, trials):
    # the scores of a checked C x N x T tensor; each route from the trials
    # starts with a copy of its own, so a strided block costs no extra one
    p = self.filters
    if self.feature_kind == LOGVAR:
        feats = _log_variances(_filtered_variances(p, trials), self._var_floor)
    elif p.shape[0] == p.shape[1]:
        # congruence of the C x C covariance takes two C x C products;
        # projecting the C x N trial would take more whenever N > 2C
        # (not _congruence: eigh reads one triangle, so symmetrizing is waste)
        feats = _diag_logm(p.T @ _covariance_stack(trials) @ p, "covariance", self._var_floor)
    else:
        feats = _diag_logm(_filtered_covariances(p, trials), "filtered covariance", self._var_floor)
    return feats @ self._coef + self._intercept


class TssfPipeline:
    """One pipeline: a filter source, training features and a classifier.

    Its :data:`PIPELINES` row gives the feature kind and one-step flag.
    ``fit_covs`` takes its filters from ``_extract`` (a tangent-space model
    here; CSP in :class:`CspPipeline`, all C in :class:`TangentSpacePipeline`)
    and compiles them into ``filters``, the filters that score, one ``_coef`` each.
    """

    def __init__(self, name, k, classifier=None):
        self.classifier_cfg = classifier or ClassifierConfig()
        PipelineSpec(name, k, self.classifier_cfg).validate()  # also without make_pipeline
        self.name = name
        self._k = k
        _, self.feature_kind, self.one_step = PIPELINES[name]
        self.filters = None
        self.model = None
        self.clf = None

    @property
    def k(self):
        """The number of filters: the spec's k until a fit, then the fitted one."""
        return self._k if self.filters is None else self.filters.shape[1]

    def _extract(self, covs, labels, k):
        # no bank has "logcov" features: that pipeline's second SVM weighs them
        kind = LOGVAR if self.feature_kind == LOGCOV else self.feature_kind
        return extract_tssf(covs, labels, k, model_cfg=self.classifier_cfg, feature_kind=kind)

    def fit(self, trials, labels):
        trials, labels = _check_training_set(trials, labels, trial_axis=2)
        return self.fit_covs(_spd_covariances(trials), labels)

    def fit_covs(self, covs, labels):
        """``fit`` on the training trials' (T, C, C) covariance stack."""
        covs, labels = _check_training_set(covs, labels)
        self.model = self._extract(covs, labels, self._k)
        projection = self.model.filters
        if self.one_step:
            weights, intercept = self.model.beta, self.model.intercept
        else:
            stack = _congruence(projection, covs)
            if self.feature_kind == LOGCOV:
                ref = frechet_mean(stack)
                half, inv_half = _half_powers(ref)
                feats = _vec(_log_map(half, inv_half, stack))
            else:
                feats = _filtered_features(stack, self.feature_kind)
            self.clf = fit_from_config(feats, labels, self.classifier_cfg)
            weights, intercept = self.clf.weights, self.clf.intercept
            if self.feature_kind == LOGCOV:
                # w weighs the whitened log logm(m_f^-1/2 S m_f^-1/2) of a filtered
                # S by B = m_f^1/2 unvec(w) m_f^1/2, so B's bank at m_f scores it
                bank = _ranked_bank(ref, inv_half, _congruence(half, unvec(weights)), len(ref))
                projection, weights = projection @ bank.full_filters, bank.full_beta
        # C-contiguous arrays, as load_pipeline reads them, so BLAS sees one
        # layout and a loaded pipeline scores the same bits
        self.filters = np.ascontiguousarray(projection, dtype=float)
        self._coef = np.ascontiguousarray(weights, dtype=float)
        self._intercept = float(intercept)
        # a constant trial, or one far below the training data's scale, has
        # variances and eigenvalues of rounding size, not 0: scoring rejects
        # any not above SPD_TOL times the smallest training variance through P
        var = _congruence(projection, covs).diagonal(0, -2, -1)
        self._var_floor = float(SPD_TOL * var.min())
        return self

    decision_scores = _compiled_scores


class CspPipeline(TssfPipeline):
    # TSSF_Var_2_step with CSP filters; its own bindings keep its name on
    # the methods that tracing tools patch per class
    def _extract(self, covs, labels, k):
        return fit_csp(covs, labels, k)

    fit = TssfPipeline.fit
    decision_scores = _compiled_scores


class TangentSpacePipeline(TssfPipeline):
    # TS_AIRM: one-step TSSF that keeps all C filters at every fit; its own
    # bindings keep its name on the methods that tracing tools patch per class
    def _extract(self, covs, labels, k):
        return super()._extract(covs, labels, covs.shape[1])

    fit = TssfPipeline.fit
    decision_scores = _compiled_scores


# name -> (class, whose _extract is the filter source; feature kind; one-step)
PIPELINES = {
    "CSP": (CspPipeline, LOGVAR, False),
    "TSSF_Var_1_step": (TssfPipeline, LOGVAR, True),
    "TSSF_Var_2_step": (TssfPipeline, LOGVAR, False),
    "TSSF_Cov_1_step": (TssfPipeline, DIAGLOGCOV, True),
    "TSSF_Cov_2_step": (TssfPipeline, DIAGLOGCOV, False),
    "TSSF_LogCov_2_step": (TssfPipeline, LOGCOV, False),
    "TS_AIRM": (TangentSpacePipeline, DIAGLOGCOV, True),
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
        _check_count(self.k, "k")
        self.classifier.validate()
        return self


def make_pipeline(spec):
    """Build a fresh, unfitted pipeline object from a spec."""
    spec.validate()
    return PIPELINES[spec.name][0](spec.name, spec.k, spec.classifier)


def save_pipeline(pipe, path):
    """Write a fitted pipeline as one :data:`MODEL_FORMAT` JSON object.

    Fields: format, name, intercept, var_floor, filters (the C x K matrix
    that scores) and coef (one weight per filter): what scoring reads,
    nothing more. ``json`` writes floats with ``repr`` and reads them with
    ``float``, so every value round-trips bit-exactly; ``indent=1`` puts
    each value on its own line, so model files diff cleanly.
    """
    if pipe.filters is None:
        raise InvalidInput(f"{pipe.name} pipeline is not fitted")
    doc = {
        "format": MODEL_FORMAT,
        "name": pipe.name,
        "intercept": pipe._intercept,
        "var_floor": pipe._var_floor,
        "filters": pipe.filters.tolist(),
        "coef": pipe._coef.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _floats(doc, key, ndim):
    """Field ``key`` as a finite float array with ``ndim`` dimensions."""
    # an object array keeps each leaf as json parsed it: numpy alone would
    # read "1.5" as 1.5, true as 1.0 and null as nan, and a ragged matrix
    # comes out with fewer dimensions
    value = np.array(doc[key], dtype=object)
    if value.ndim != ndim or any(type(v) is not float for v in value.flat):
        what = ("a float", "a vector of floats", "a matrix of floats with rows of one length")
        raise FormatError(f"field {key!r} is not {what[ndim]}")
    value = value.astype(float)
    if not np.isfinite(value).all():
        raise FormatError(f"field {key!r} holds a non-finite number")
    return value


def load_pipeline(path):
    """Read a :data:`MODEL_FORMAT` file into a pipeline ready to score.

    The pipeline holds the compiled form only; its ``decision_scores`` are
    bitwise those of the pipeline that was saved. Its k is the number of
    filters, and its feature kind is the :data:`PIPELINES` row of its name.
    Any other content (an unknown field too) raises :class:`~tssf.errors.FormatError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"model file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"not a {MODEL_FORMAT} model file")
    missing = [key for key in _MODEL_FIELDS if key not in doc]
    unknown = sorted(doc.keys() - set(_MODEL_FIELDS))
    if missing or unknown:
        what = f"missing field {missing[0]!r}" if missing else f"unknown field {unknown[0]!r}"
        raise FormatError(what)
    name = doc["name"]
    if name not in PIPELINE_NAMES:
        raise FormatError(f"unknown pipeline {name!r}")
    cls = PIPELINES[name][0]
    filters, coef = _floats(doc, "filters", 2), _floats(doc, "coef", 1)
    channels, k = filters.shape
    if k < 1 or coef.shape != (k,):
        raise FormatError(f"coef of length {coef.size} does not weigh {k} filters (k >= 1)")
    if cls is TangentSpacePipeline and k != channels:
        raise FormatError(f"{name} keeps all C filters: square, not {channels} x {k}")
    pipe = cls(name, k)
    pipe.filters, pipe._coef = filters, coef
    pipe._intercept = float(_floats(doc, "intercept", 0))
    pipe._var_floor = float(_floats(doc, "var_floor", 0))
    if pipe._var_floor <= 0.0:  # a floor of 0 would pass a constant trial
        raise FormatError(f"var_floor must be > 0, got {pipe._var_floor!r}")
    return pipe
