"""Every count and magnitude a caller passes goes through one of two rules.

A count (k, folds, seeds, repetitions, sizes) is an integer that is not a
bool, within its range; a magnitude (reg, grid values, variances, noise,
nonstationarity, an intercept) is a finite real that is not a bool, above
its lower bound where it has one. Each public entry checks its numbers
before any work: a bad value raises ``InvalidInput`` naming the parameter.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import tssf
from tssf import dataio, evalstats, linmodel, pipelines
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
    dataio._check_count(np.int64(3), "k", high=3)
    dataio._check_count(np.uint32(0), "seed", low=0)
    dataio._check_magnitude(np.float32(0.5), "reg")
    dataio._check_magnitude(np.finfo(np.float32).max, "reg")  # no overflow warning
    dataio._check_magnitude(0, "noise_sigma", ">= 0")
    dataio._check_magnitude(-2.5, "intercept", None)
    with pytest.raises(InvalidInput, match="^k must be an integer, got "):
        dataio._check_count(np.bool_(True), "k")
