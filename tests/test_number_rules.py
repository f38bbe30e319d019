"""Every number and array a caller passes goes through one rule for its kind.

A count (k, folds, seeds, repetitions, sizes) is an integer that is not a
bool, within its range; a magnitude (reg, grid values, variances, noise,
nonstationarity, an intercept) is a finite real that is not a bool, above
its lower bound where it has one. Each public entry checks its numbers
before any work: a bad value raises ``InvalidInput`` naming the parameter.

An array of real numbers, a label array and a session-id array each have
one rule too, applied before any cast: a complex, object or string array
is named, never cast to its real part or parsed; a label is exactly -1 or
+1 by value, and a session id an integer in ``[0, 2**32)``, never wrapped
or truncated by the int8 or uint32 cast.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import tssf
from tssf import dataio, evalstats, linmodel, manifold, patterns, pipelines, rules
from tssf.errors import InvalidInput


class _NoWork:
    """A fitted pipeline stand-in that fails if it is asked to score."""

    def decision_scores(self, trials):
        raise AssertionError("bench_predict scored before checking its repetitions")

    def fit_covs(self, covs, labels):
        raise AssertionError("cross_validate fitted before checking its numbers")


def _data():
    rng = np.random.default_rng(5)
    ts = tssf.synth_generate(tssf.SynthConfig(channels=3, samples=40, trials_per_class=4, seed=2))
    x = np.vstack([rng.standard_normal((4, 2)) + 2.0, rng.standard_normal((4, 2)) - 2.0])
    return SimpleNamespace(
        ts=ts,
        covs=dataio._covariance_stack(ts.data),
        labels=ts.labels,
        x=x,
        y=np.r_[np.ones(4), -np.ones(4)],
        ref=np.eye(3),
        weights=np.diag([1.0, -2.0, 3.0]),
    )


def _synth(name, wrap=None):
    # SynthConfig.validate with field `name` set to the value, or to wrap(value)
    return lambda d, v: tssf.SynthConfig(**{name: wrap(v) if wrap else v}).validate()


DATA = _data()


# (entry, parameter named in the message, rule, an out-of-range value or
# None, the call that passes the value)
ENTRIES = [
    ("PipelineSpec", "k", "count", 0, lambda d, v: pipelines.PipelineSpec("CSP", k=v).validate()),
    ("extract_tssf", "k", "count", 4, lambda d, v: tssf.extract_tssf(d.covs, d.labels, v)),
    ("tangent_filters", "k", "count", 4, lambda d, v: tssf.tangent_filters(d.ref, d.weights, v)),
    ("fit_csp", "k", "count", 0, lambda d, v: tssf.fit_csp(d.covs, d.labels, v)),
    ("ClassifierConfig", "reg", "positive", 0.0,
     lambda d, v: linmodel.ClassifierConfig(reg=v).validate()),
    ("ClassifierConfig", "grid values", "positive", -1.0,
     lambda d, v: linmodel.ClassifierConfig(grid=(1.0, v)).validate()),
    ("ClassifierConfig", "folds", "count", 1,
     lambda d, v: linmodel.ClassifierConfig(folds=v).validate()),
    ("ClassifierConfig", "seed", "count", -1,
     lambda d, v: linmodel.ClassifierConfig(seed=v).validate()),
    ("fit_linear_svm", "reg", "positive", -1.0, lambda d, v: linmodel.fit_linear_svm(d.x, d.y, v)),
    ("stratified_folds", "folds", "count", 1,
     lambda d, v: evalstats.stratified_folds(d.labels, v, 0)),
    ("stratified_folds", "seed", "count", -1,
     lambda d, v: evalstats.stratified_folds(d.labels, 2, v)),
    ("stratified_folds tuple", "seed", "count", -1,
     lambda d, v: evalstats.stratified_folds(d.labels, 2, (0, v))),
    ("grid_search_cv", "folds", "count", 1,
     lambda d, v: linmodel.grid_search_cv(d.x, d.y, folds=v)),
    ("grid_search_cv", "seed", "count", -1,
     lambda d, v: linmodel.grid_search_cv(d.x, d.y, folds=2, seed=v)),
    ("cross_validate", "folds", "count", 1,
     lambda d, v: evalstats.cross_validate(d.ts, [_NoWork], folds=v)),
    ("cross_validate", "seed", "count", -1,
     lambda d, v: evalstats.cross_validate(d.ts, [_NoWork], folds=2, seed=v)),
    ("bench_predict", "repetitions", "count", 0,
     lambda d, v: evalstats.bench_predict({"p": _NoWork()}, d.ts.data, repetitions=v)),
    *[
        ("SynthConfig", name, "count", 0, _synth(name))
        for name in ("channels", "samples", "trials_per_class", "sessions")
    ],
    ("SynthConfig", "n_discriminative", "count", 9, _synth("n_discriminative")),
    ("SynthConfig", "seed", "count", -1, _synth("seed")),
    ("SynthConfig", "var_pos", "positive", 0.0, _synth("var_pos", lambda v: (v, 1.0))),
    ("SynthConfig", "var_neg", "positive", -4.0, _synth("var_neg", lambda v: (1.0, v))),
    ("SynthConfig", "background_variance", "positive", 0.0, _synth("background_variance")),
    ("SynthConfig", "noise_sigma", ">= 0", -0.5, _synth("noise_sigma")),
    ("SynthConfig", "nonstationarity", ">= 0", -0.1, _synth("nonstationarity")),
    ("tangent_filters", "intercept", "finite", None,
     lambda d, v: tssf.tangent_filters(d.ref, d.weights, 2, intercept=v)),
]


HUGE = 10**400  # an int beyond the float range: float() of it overflows


def _cases():
    for entry, name, rule, out_of_range, call in ENTRIES:
        values = [True, math.nan, math.inf, -math.inf]
        if rule == "count":
            values = [2.5, 2.0] + values
        else:
            values.append(HUGE)
        if out_of_range is not None:
            values.append(out_of_range)
        for value in values:
            label = "10**400" if value is HUGE else repr(value)
            yield pytest.param(name, call, value, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("name, call, value", list(_cases()))
def test_bad_number_raises_naming_its_parameter_before_any_work(name, call, value, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("covariances were built before the numbers were checked")

    monkeypatch.setattr(dataio, "_covariance_stack", fail)
    with pytest.raises(InvalidInput, match=f"^{name} must be "):
        call(DATA, value)


def test_numpy_scalars_pass_both_rules():
    rules._check_count(np.int64(3), "k", high=3)
    rules._check_count(np.uint32(0), "seed", low=0)
    rules._check_magnitude(np.float32(0.5), "reg")
    rules._check_magnitude(np.finfo(np.float32).max, "reg")  # no overflow warning
    rules._check_magnitude(0, "noise_sigma", ">= 0")
    rules._check_magnitude(-2.5, "intercept", None)
    with pytest.raises(InvalidInput, match="^k must be an integer, got "):
        rules._check_count(np.bool_(True), "k")


def _arrays():
    rng = np.random.default_rng(7)
    ts = DATA.ts
    pipe = pipelines.make_pipeline(
        pipelines.PipelineSpec("TSSF_Var_1_step", k=2, classifier=REG)
    ).fit(ts.data, ts.labels)
    model = tssf.extract_tssf(DATA.covs, DATA.labels, 2, REG)
    weight_cov = manifold.exp_map_at(DATA.ref, np.diag([0.3, -0.2, 0.1]))
    return SimpleNamespace(
        pipe=pipe,
        model=model,
        scores=rng.standard_normal(8),
        weight_cov=weight_cov,
        ged=manifold.ged(weight_cov, DATA.ref),
        filters=np.eye(3)[:, :2],
    )


REG = linmodel.ClassifierConfig(reg=1.0)  # 4 trials per class: no 5-fold grid
ARRAYS = _arrays()


def _complex(v):
    # v with an imaginary part: antisymmetric in the last two axes, so a
    # symmetric matrix becomes Hermitian
    v = np.asarray(v, dtype=float)
    if v.ndim < 2:
        return v + 0.5j
    n, m = v.shape[-2:]
    return v + 0.5j * (np.tri(n, m) - np.tri(m, n).T)


def _ged(**fields):
    g = ARRAYS.ged
    return manifold.GedResult(**{"eigenvalues": g.eigenvalues, "eigenvectors": g.eigenvectors, **fields})


# (entry, the argument as its message names it, the call that passes
# bad(argument) in place of a valid one)
ARRAY_ENTRIES = [
    ("TrialSet", "data",
     lambda d, a, bad: tssf.TrialSet(bad(d.ts.data), d.ts.labels, d.ts.session_ids, d.ts.channel_names)),
    ("TrialSet", "labels",
     lambda d, a, bad: tssf.TrialSet(d.ts.data, bad(d.ts.labels), d.ts.session_ids, d.ts.channel_names)),
    ("TrialSet", "session ids",
     lambda d, a, bad: tssf.TrialSet(d.ts.data, d.ts.labels, bad(d.ts.session_ids), d.ts.channel_names)),
    ("extract_tssf", "training data", lambda d, a, bad: tssf.extract_tssf(bad(d.covs), d.labels, 2, REG)),
    ("extract_tssf", "labels", lambda d, a, bad: tssf.extract_tssf(d.covs, bad(d.labels), 2, REG)),
    ("fit_csp", "training data", lambda d, a, bad: tssf.fit_csp(bad(d.covs), d.labels, 2)),
    ("pipeline fit", "training data",
     lambda d, a, bad: pipelines.make_pipeline(pipelines.PipelineSpec("CSP", k=2, classifier=REG)).fit(
         bad(d.ts.data), d.ts.labels)),
    ("decision_scores", "trials", lambda d, a, bad: a.pipe.decision_scores(bad(d.ts.data))),
    ("bench_predict", "trials", lambda d, a, bad: evalstats.bench_predict({"p": a.pipe}, bad(d.ts.data))),
    ("ensure_spd", "matrix", lambda d, a, bad: tssf.ensure_spd(bad(d.ref))),
    ("logm", "matrix", lambda d, a, bad: tssf.logm(bad(d.ref))),
    ("frechet_mean", "points", lambda d, a, bad: tssf.frechet_mean(bad(d.covs))),
    ("unvec", "tangent vector", lambda d, a, bad: tssf.unvec(bad(np.ones(6)))),
    ("subspace_angle_by_cluster", "f1",
     lambda d, a, bad: manifold.subspace_angle_by_cluster(bad(np.eye(3)), np.eye(3), np.ones(3))),
    ("subspace_angle_by_cluster", "f2",
     lambda d, a, bad: manifold.subspace_angle_by_cluster(np.eye(3), bad(np.eye(3)), np.ones(3))),
    ("subspace_angle_by_cluster", "eigenvalues",
     lambda d, a, bad: manifold.subspace_angle_by_cluster(np.eye(3), np.eye(3), bad(np.ones(3)))),
    ("fit_linear_svm", "feature matrix", lambda d, a, bad: linmodel.fit_linear_svm(bad(d.x), d.y, 1.0)),
    ("fit_linear_svm", "labels", lambda d, a, bad: linmodel.fit_linear_svm(d.x, bad(d.y), 1.0)),
    ("roc_auc", "scores", lambda d, a, bad: evalstats.roc_auc(bad(a.scores), d.labels)),
    ("roc_auc", "labels", lambda d, a, bad: evalstats.roc_auc(a.scores, bad(d.labels))),
    ("smd", "scores_a", lambda d, a, bad: evalstats.smd(bad(a.scores), a.scores - 1.0)),
    ("wilcoxon_one_sided", "scores_b",
     lambda d, a, bad: evalstats.wilcoxon_one_sided(a.scores, bad(a.scores - 1.0))),
    ("compare_paired", "scores_a",
     lambda d, a, bad: evalstats.compare_paired("A", bad(a.scores), "B", a.scores - 1.0)),
    ("compare_paired", "scores_b",
     lambda d, a, bad: evalstats.compare_paired("A", a.scores, "B", bad(a.scores - 1.0))),
    ("empirical_covariance", "trial", lambda d, a, bad: tssf.empirical_covariance(bad(d.ts.trial(0)))),
    ("apply_filters", "trial", lambda d, a, bad: tssf.apply_filters(a.model, bad(d.ts.trial(0)))),
    ("predict_one_step", "features", lambda d, a, bad: tssf.predict_one_step(a.model, bad(np.ones(2)))),
    *[
        ("exact_decision_value", name,
         lambda d, a, bad, i=i: tssf.exact_decision_value(
             *[bad(v) if j == i else v for j, v in enumerate((a.weight_cov, d.ref, d.covs[0]))], a.ged))
        for i, name in enumerate(("weight_cov", "ref", "trial_cov"))
    ],
    ("exact_decision_value", "ged_result.eigenvectors",
     lambda d, a, bad: tssf.exact_decision_value(
         a.weight_cov, d.ref, d.covs[0], _ged(eigenvectors=bad(a.ged.eigenvectors)))),
    ("exact_decision_value", "ged_result.eigenvalues",
     lambda d, a, bad: tssf.exact_decision_value(
         a.weight_cov, d.ref, d.covs[0], _ged(eigenvalues=bad(a.ged.eigenvalues)))),
    ("compute_patterns", "filters", lambda d, a, bad: patterns.compute_patterns(bad(a.filters), d.ref)),
    ("compute_patterns", "data covariance",
     lambda d, a, bad: patterns.compute_patterns(a.filters, bad(d.ref))),
]


def _with_string(v):
    # v as an object array with one entry a string: numpy would parse it
    v = np.array(v, dtype=object)
    v.flat[0] = str(v.flat[0])
    return v


def _array_cases():
    for entry, name, call in ARRAY_ENTRIES:
        yield pytest.param(name, call, _complex, id=f"{entry}-{name}-complex")
    yield pytest.param("data", ARRAY_ENTRIES[0][2], _with_string, id="TrialSet-data-object")


@pytest.mark.parametrize("name, call, bad", list(_array_cases()))
def test_non_real_array_raises_naming_its_argument(name, call, bad):
    call(DATA, ARRAYS, lambda v: v)  # the call runs on the valid array
    with pytest.raises(InvalidInput, match=f"^{name} must be an array of real numbers, got dtype "):
        call(DATA, ARRAYS, bad)


def _trial_set(labels=(1, -1), session_ids=(0, 1)):
    return tssf.TrialSet(np.ones((1, 2, 2)) * [[[1.0], [2.0]]], labels, session_ids, ["c"])


@pytest.mark.parametrize(
    "labels, named",
    [([1.5, -1], "1.5"), (np.array([1, 255], np.uint8), "255"), (np.array([257, -1]), "257")],
    ids=["1.5", "uint8-255", "int64-257"],
)
def test_trial_set_names_a_bad_label(labels, named):
    # each used to become +1 or -1 in the int8 cast
    with pytest.raises(InvalidInput, match=f"^labels must be -1 or \\+1, got {named}$"):
        _trial_set(labels=labels)


@pytest.mark.parametrize(
    "session_ids",
    [[0.7, 0], [-1, 0], [np.int64(-1), 0], [2**32, 0]],
    ids=["0.7", "-1", "int64--1", "2**32"],
)
def test_trial_set_rejects_a_bad_session_id(session_ids):
    # 0.7 was truncated to 0 and np.int64(-1) wrapped to 4294967295 in the
    # uint32 cast; -1 and 2**32 raised a bare OverflowError
    ts = _trial_set(labels=np.array([1.0, -1.0]), session_ids=np.array([2**32 - 1, 0.0]))
    assert ts.labels.dtype == np.int8 and ts.labels.tolist() == [1, -1]
    assert ts.session_ids.dtype == np.uint32 and ts.session_ids.tolist() == [2**32 - 1, 0]
    with pytest.raises(InvalidInput, match="^session id must be "):
        _trial_set(session_ids=session_ids)


def test_one_bad_label_one_message():
    # a fit, roc_auc and TrialSet name the same bad label the same way
    labels = np.r_[DATA.labels[:-1], 2]
    calls = [
        lambda: tssf.extract_tssf(DATA.covs, labels, 2, REG),
        lambda: evalstats.roc_auc(ARRAYS.scores, labels),
        lambda: tssf.TrialSet(DATA.ts.data, labels, DATA.ts.session_ids, DATA.ts.channel_names),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InvalidInput) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {"labels must be -1 or +1, got 2"}
