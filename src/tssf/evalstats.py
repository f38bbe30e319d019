"""Cross-validation, scoring, paired statistics, and prediction benchmarks.

Pipelines are evaluated with stratified k-fold cross-validation run
independently within each session, and the per-fold ROC-AUC scores are
pooled; folds are the outer loop and pipelines the inner one. Pipeline
comparisons use the standardized mean difference of the paired per-fold
scores and a one-sided Wilcoxon signed-rank p-value.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatistic, DimMismatch, InvalidInput, TssfError


def stratified_folds(labels, folds, seed):
    """Deterministic stratified partition into ``folds`` test-index arrays.

    Indices of each class are shuffled with a generator seeded by ``seed``
    and dealt round-robin, so fold sizes differ by at most one per class
    and the same seed always yields the same partition.
    """
    labels = np.asarray(labels)
    if folds < 2:
        raise InvalidInput("folds must be >= 2")
    if folds > labels.size:
        raise InvalidInput("more folds than samples")
    rng = np.random.default_rng(seed)
    assignments = [[] for _ in range(folds)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for f in range(folds):
            assignments[f].extend(idx[f::folds])
    return [np.sort(np.asarray(a, dtype=int)) for a in assignments]


def roc_auc(scores, labels):
    """Area under the ROC curve, Mann-Whitney formulation.

    Equals the probability that a positive-class score exceeds a
    negative-class score, with tied pairs counting one half. Non-finite
    scores raise :class:`~tssf.errors.DegenerateStatistic`.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InvalidInput("scores and labels must be matching 1-D arrays")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DegenerateStatistic(
            f"{bad.size} non-finite score(s), first at index {bad[0]}: {scores[bad[0]]}"
        )
    pos = labels == 1
    neg = labels == -1
    if not (np.all(pos | neg) and pos.any() and neg.any()):
        raise InvalidInput("labels must be -1/+1 with both classes present")
    ranks = _average_ranks(scores)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(x):
    # ranks 1..n of a NaN-free 1-D array, tied values sharing the mean of
    # their ranks: the values of scipy.stats.rankdata(x), without loading
    # scipy.stats
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def smd(scores_a, scores_b):
    """Paired standardized mean difference: mean(a - b) / sample std(a - b)."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInput("paired scores must be matching 1-D arrays")
    if a.size < 2:
        raise InvalidInput("need at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateStatistic("zero variance of paired differences")
    return float(d.mean()) / sd


def wilcoxon_one_sided(scores_a, scores_b):
    """One-sided Wilcoxon signed-rank p-value.

    Null hypothesis: the median of ``a`` is not larger than the median of
    ``b``; small p favors ``a > b``. Zero differences are dropped. The
    null distribution is enumerated exactly for up to 25 nonzero
    differences (ties handled through average ranks); beyond that a
    normal approximation with tie and continuity corrections is used.
    A NaN difference ``a - b`` raises
    :class:`~tssf.errors.DegenerateStatistic`.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInput("paired scores must be matching 1-D arrays")
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN checked next
        d = a - b
    if np.isnan(d).any():
        raise DegenerateStatistic("a paired difference is NaN")
    d = d[d != 0]
    n = d.size
    if n == 0:
        raise DegenerateStatistic("all paired differences are zero")
    if n < 5:
        warnings.warn(
            f"only {n} nonzero differences; exact small-n p-value has coarse resolution",
            stacklevel=2,
        )
    ranks = _average_ranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    if n <= 25:
        p = _exact_signed_rank_sf(ranks, w_pos)
    else:
        mu = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        ties = counts[counts > 1].astype(float)
        var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(ties**3 - ties)) / 48.0
        z = (w_pos - mu - 0.5) / np.sqrt(var)
        p = 0.5 * math.erfc(z / math.sqrt(2.0))  # the standard normal tail
    return min(max(p, np.finfo(float).tiny), 1.0)


def _exact_signed_rank_sf(ranks, w_obs):
    # doubled ranks are integers even with average-rank ties; count sign
    # patterns whose rank sum reaches w_obs by polynomial convolution
    doubled = np.rint(2.0 * np.asarray(ranks)).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    threshold = int(np.rint(2.0 * w_obs))
    return float(counts[threshold:].sum() / 2.0 ** len(doubled))


@dataclass
class PairedComparison:
    """Per-unit score pairs of two pipelines with their test statistics."""

    name_a: str
    name_b: str
    scores_a: np.ndarray
    scores_b: np.ndarray
    smd: float
    p_value: float

    @property
    def n(self):
        return len(self.scores_a)


def compare_paired(name_a, scores_a, name_b, scores_b):
    """Build a PairedComparison (SMD + one-sided signed-rank p) for A vs B."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape:
        raise DimMismatch("paired comparison needs the same unit count on both sides")
    return PairedComparison(
        name_a=name_a,
        name_b=name_b,
        scores_a=a,
        scores_b=b,
        smd=smd(a, b),
        p_value=wilcoxon_one_sided(a, b),
    )


@dataclass
class EvalReport:
    """Per-fold cross-validation scores and wall times for one pipeline."""

    pipeline: str
    k: int
    feature_kind: str
    sessions: np.ndarray
    folds: np.ndarray
    aucs: np.ndarray
    fit_seconds: np.ndarray
    predict_seconds: np.ndarray

    @property
    def mean_auc(self):
        return float(self.aucs.mean())

    @property
    def std_auc(self):
        return float(self.aucs.std(ddof=1)) if self.aucs.size > 1 else 0.0

    def summary(self):
        return (
            f"{self.pipeline}: AUC {self.mean_auc:.4f} +/- {self.std_auc:.4f} "
            f"over {self.aucs.size} folds "
            f"(fit {self.fit_seconds.mean():.4f}s, predict {self.predict_seconds.mean():.4f}s)"
        )


def cross_validate(trialset, factories, folds=5, seed=0):
    """Session-wise stratified k-fold cross-validation of several pipelines.

    Each session's trials are split into ``folds`` stratified folds
    (seeded per session, deterministic). Each fold fits a fresh pipeline
    from every factory on its training trials only, back to back, so they
    share one tangent-space fit (:func:`tssf.tssf.fit_tangent_model`,
    timed as part of the first), then scores its held-out trials with
    each by ROC-AUC. Returns one report per factory, pooling all sessions.
    Each factory returns a fresh object with ``fit``, ``decision_scores``
    and the ``name``, ``k`` and ``feature_kind`` that label its report.
    """
    if trialset.n_trials == 0:  # no fold, so no pipeline to label the reports
        raise InvalidInput("the trial set is empty")
    sess_col, fold_col = [], []
    auc_cols, fit_cols, pred_cols = ([[] for _ in factories] for _ in range(3))
    for session in np.unique(trialset.session_ids):
        sess_idx = np.flatnonzero(trialset.session_ids == session)
        test_folds = stratified_folds(trialset.labels[sess_idx], folds, (seed, int(session)))
        for f, test_rel in enumerate(test_folds):
            test_idx = sess_idx[test_rel]
            train_idx = np.setdiff1d(sess_idx, test_idx)
            train_labels, test_labels = trialset.labels[train_idx], trialset.labels[test_idx]
            if np.unique(train_labels).size < 2 or np.unique(test_labels).size < 2:
                raise InvalidInput(f"session {session} fold {f}: a class is absent from a split")
            pipes = [factory() for factory in factories]
            # each fold slice lives for one call, so one is in memory at a time
            _timed("fit", pipes, fit_cols, trialset.data[:, :, train_idx], train_labels)
            scores = _timed("decision_scores", pipes, pred_cols, trialset.data[:, :, test_idx])
            for auc_col, pipe_scores in zip(auc_cols, scores):
                auc_col.append(roc_auc(pipe_scores, test_labels))
            sess_col.append(int(session))
            fold_col.append(f)
    return [
        EvalReport(
            pipeline=pipe.name,
            k=pipe.k,
            feature_kind=pipe.feature_kind,
            sessions=np.asarray(sess_col),
            folds=np.asarray(fold_col),
            aucs=np.asarray(aucs),
            fit_seconds=np.asarray(fits),
            predict_seconds=np.asarray(preds),
        )
        for pipe, aucs, fits, preds in zip(pipes, auc_cols, fit_cols, pred_cols)
    ]


def _timed(method, pipes, seconds, *args):
    # each pipeline's method(*args), its wall time appended to its list in seconds
    results = []
    for pipe, col in zip(pipes, seconds):
        tic = time.perf_counter()
        results.append(getattr(pipe, method)(*args))
        col.append(time.perf_counter() - tic)
    return results


def kfold_cv(trialset, pipeline_factory, folds=5, seed=0):
    """The :func:`cross_validate` report of one pipeline."""
    return cross_validate(trialset, [pipeline_factory], folds, seed)[0]


@dataclass
class BenchRow:
    """Per-trial prediction latency of one fitted pipeline."""

    pipeline: str
    n_trials: int
    repetitions: int
    median_per_trial_s: float
    iqr_per_trial_s: float


def bench_predict(fitted, trials, repetitions=10):
    """Measure per-trial prediction wall time for fitted pipelines.

    Parameters
    ----------
    fitted : dict
        Maps pipeline name to a fitted object with ``decision_scores``.
    trials : ndarray, shape (C, N, T)
        Trials to predict (timed as one sweep; per-trial time is
        sweep time / T).
    repetitions : int
        Timed sweeps per pipeline after one untimed warm-up sweep; at
        least 10 repetitions are recommended for a stable median.

    Returns
    -------
    list of BenchRow

    Notes
    -----
    Prediction outputs are verified identical across repetitions; timing
    excludes I/O and model fitting. Run single-threaded (e.g. with the
    ``TSSF_THREADS=1`` environment variable) for meaningful numbers.
    """
    trials = np.asarray(trials, dtype=float)
    if trials.ndim != 3:
        raise InvalidInput("trials must be a C x N x T tensor")
    if repetitions < 1:
        raise InvalidInput("repetitions must be >= 1")
    if repetitions < 10:
        warnings.warn("fewer than 10 repetitions; timing medians may be noisy", stacklevel=2)
    n_trials = trials.shape[2]
    rows = []
    for name, pipe in fitted.items():
        reference = np.asarray(pipe.decision_scores(trials))  # warm-up
        per_trial = np.empty(repetitions)
        for rep in range(repetitions):
            tic = time.perf_counter()
            scores = np.asarray(pipe.decision_scores(trials))
            per_trial[rep] = (time.perf_counter() - tic) / n_trials
            if not np.array_equal(scores, reference):
                raise TssfError(f"pipeline {name} produced nondeterministic predictions")
        q25, q50, q75 = np.percentile(per_trial, [25, 50, 75])
        rows.append(
            BenchRow(
                pipeline=name,
                n_trials=n_trials,
                repetitions=repetitions,
                median_per_trial_s=float(q50),
                iqr_per_trial_s=float(q75 - q25),
            )
        )
    return rows


# --- stable CSV schemas ------------------------------------------------
#
# fold reports:  pipeline,k,feature_kind,session,fold,auc
# comparisons:   pipeline_a,pipeline_b,n,smd,p_value
# benchmarks:    pipeline,n_trials,repetitions,median_per_trial_s,iqr_per_trial_s
#
# Wall times are deliberately absent from the fold-report CSV so reruns
# with the same seed produce byte-identical files.


def reports_to_csv(reports):
    lines = ["pipeline,k,feature_kind,session,fold,auc"]
    for rep in reports:
        for s, f, auc in zip(rep.sessions, rep.folds, rep.aucs):
            lines.append(f"{rep.pipeline},{rep.k},{rep.feature_kind},{s},{f},{float(auc)!r}")
    return "\n".join(lines) + "\n"


def comparisons_to_csv(comparisons):
    lines = ["pipeline_a,pipeline_b,n,smd,p_value"]
    for cmp in comparisons:
        smd_txt = repr(cmp.smd) if np.isfinite(cmp.smd) else "nan"
        lines.append(f"{cmp.name_a},{cmp.name_b},{cmp.n},{smd_txt},{float(cmp.p_value)!r}")
    return "\n".join(lines) + "\n"


def bench_to_csv(rows):
    lines = ["pipeline,n_trials,repetitions,median_per_trial_s,iqr_per_trial_s"]
    for row in rows:
        lines.append(
            f"{row.pipeline},{row.n_trials},{row.repetitions},"
            f"{row.median_per_trial_s!r},{row.iqr_per_trial_s!r}"
        )
    return "\n".join(lines) + "\n"
