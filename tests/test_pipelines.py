import numpy as np
import pytest

import tssf
from tssf import dataio, evalstats, manifold, pipelines
from tssf import tssf as tssf_module
from tssf.errors import DegenerateModel, FormatError, InvalidInput, NotPositiveDefinite


def synth_set(seed=0, channels=4, trials=40, sigma=0.4):
    cfg = tssf.SynthConfig(
        channels=channels,
        samples=300,
        trials_per_class=trials // 2,
        seed=seed,
        n_discriminative=2,
        var_pos=(4.0, 1.0),
        var_neg=(1.0, 4.0),
        noise_sigma=sigma,
    )
    return tssf.synth_generate(cfg)


FIXED = tssf.ClassifierConfig(reg=1.0)


class TestSpec:
    def test_unknown_name(self):
        with pytest.raises(InvalidInput):
            pipelines.PipelineSpec(name="TSSF_LogCov_1_step").validate()

    def test_bad_k(self):
        with pytest.raises(InvalidInput):
            pipelines.PipelineSpec(name="CSP", k=0).validate()

    def test_all_names_buildable(self):
        for name in pipelines.PIPELINE_NAMES:
            pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2))
            cls, kind, one_step = pipelines.PIPELINES[name]
            assert (type(pipe), pipe.name, pipe.feature_kind, pipe.one_step) == (
                cls, name, kind, one_step
            )
            assert pipe.k == (0 if name == "TS_AIRM" else 2)

    def test_every_class_binds_the_one_scorer(self):
        # perfbench/tracer.py wraps fit and decision_scores in each class's
        # own __dict__
        for cls in {row[0] for row in pipelines.PIPELINES.values()}:
            assert cls.__dict__["decision_scores"] is pipelines._compiled_scores
            assert "fit" in cls.__dict__


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
class TestAllPipelines:
    def test_fit_predict_separates(self, name):
        ts = synth_set(seed=3)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        )
        pipe.fit(ts.data, ts.labels)
        scores = pipe.decision_scores(ts.data)
        assert evalstats.roc_auc(scores, ts.labels) > 0.9

    def test_deterministic_scores(self, name):
        ts = synth_set(seed=4, trials=20)
        spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        p1 = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
        tssf_module._clear_fit_store()  # refit, rather than reuse the stored tangent model
        p2 = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
        np.testing.assert_array_equal(
            p1.decision_scores(ts.data), p2.decision_scores(ts.data)
        )

    def test_single_class_rejected(self, name):
        ts = synth_set(seed=5, trials=10)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        )
        keep = ts.labels == 1
        with pytest.raises(DegenerateModel):
            pipe.fit(ts.data[:, :, keep], ts.labels[keep])


def covariances_of(data):
    c, _, t = data.shape
    trialset = tssf.TrialSet(data, np.ones(t), np.zeros(t), [f"ch{i}" for i in range(c)])
    return tssf.covariances(trialset)


def library_scores(pipe, trials):
    """Scores of a fitted pipeline through the public library functions."""
    if pipe.name == "TS_AIRM":
        vectors = tssf.tangent_vectors(pipe.reference_mean, covariances_of(trials))
        return [tssf.decision_value(pipe.clf, v) for v in vectors]
    filtered = np.stack(
        [tssf.apply_filters(pipe.model, trials[:, :, t]) for t in range(trials.shape[2])], axis=2
    )
    covs = covariances_of(filtered)
    feats = [tssf.compute_features(pipe.model, cov, pipe.feature_kind) for cov in covs]
    if pipe.one_step:
        return [tssf.predict_one_step(pipe.model, f)[0] for f in feats]
    return [tssf.decision_value(pipe.clf, f) for f in feats]


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_scores_equal_library_route_and_single_trial_calls(name):
    ts = synth_set(seed=10, channels=5, trials=40)
    train, test = ts.data[:, :, :30], ts.data[:, :, 30:]
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    pipe.fit(train, ts.labels[:30])
    for trials in (train, test):
        scores = pipe.decision_scores(trials)
        expected = np.asarray(library_scores(pipe, trials))
        atol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=atol)
        single = [pipe.decision_scores(trials[:, :, t : t + 1])[0] for t in range(trials.shape[2])]
        np.testing.assert_allclose(single, scores, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_saved_pipeline_scores_bitwise_like_fitted_one(name, tmp_path):
    ts = synth_set(seed=15, channels=5, trials=40)
    train, test = ts.data[:, :, :30], ts.data[:, :, 30:]
    spec = pipelines.PipelineSpec(name=name, k=2, classifier=tssf.ClassifierConfig(grid=(0.1, 1.0)))
    pipe = pipelines.make_pipeline(spec).fit(train, ts.labels[:30])
    path = tmp_path / "model.txt"
    tssf.save_pipeline(pipe, path)
    loaded = tssf.load_pipeline(path)
    assert (type(loaded), loaded.name, loaded.k, loaded.feature_kind, loaded.one_step) == (
        type(pipe), pipe.name, pipe.k, pipe.feature_kind, pipe.one_step
    )
    for trials in (train, test):
        np.testing.assert_array_equal(loaded.decision_scores(trials), pipe.decision_scores(trials))
    for t in range(test.shape[2]):
        single = test[:, :, t : t + 1]
        np.testing.assert_array_equal(loaded.decision_scores(single), pipe.decision_scores(single))
    if name == "TS_AIRM":
        assert pipe.filters is None and loaded.filters is None
    else:
        np.testing.assert_array_equal(loaded.filters, pipe.model.filters)
    text = path.read_text()
    assert text.startswith("format: pipeline/1\nname: " + name + "\n")
    assert ("filters:" in text) == (name != "TS_AIRM")


def test_square_projection_scores_by_congruence():
    # TSSF with k = C has a square projection and takes the covariance
    # route of TS_AIRM; its scores still equal the per-trial library route
    ts = synth_set(seed=16, channels=4, trials=30)
    pipe = pipelines.make_pipeline(
        pipelines.PipelineSpec(name="TSSF_Cov_2_step", k=4, classifier=FIXED)
    ).fit(ts.data, ts.labels)
    expected = np.asarray(library_scores(pipe, ts.data))
    np.testing.assert_allclose(pipe.decision_scores(ts.data), expected, rtol=1e-12, atol=1e-12)


class TestLoadPipeline:
    def saved(self, tmp_path, name="TSSF_Var_1_step"):
        ts = synth_set(seed=17, trials=20)
        spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        path = tmp_path / "model.txt"
        tssf.save_pipeline(pipelines.make_pipeline(spec).fit(ts.data, ts.labels), path)
        return path

    @pytest.mark.parametrize(
        "old, new",
        [
            ("format: pipeline/1", "format: tssf/1"),
            ("name: TSSF_Var_1_step", "name: TSSF_Var_3_step"),
            ("feature_kind: logvar", "feature_kind: logcov"),
            ("k: 2", "k: 3"),
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, old, new):
        path = self.saved(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(FormatError):
            tssf.load_pipeline(path)

    def test_unfitted_pipeline_not_saved(self, tmp_path):
        pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name="CSP", k=2))
        with pytest.raises(InvalidInput):
            tssf.save_pipeline(pipe, tmp_path / "model.txt")


def test_flat_channel_in_test_trial_raises():
    ts = synth_set(seed=11, trials=20)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name="TS_AIRM", classifier=FIXED))
    pipe.fit(ts.data, ts.labels)
    trials = ts.data[:, :, :3].copy()
    trials[1, :, 2] = 0.5  # a flat channel makes trial 2's covariance singular
    with pytest.raises(NotPositiveDefinite, match="covariance 2 "):
        pipe.decision_scores(trials)


@pytest.mark.parametrize("name", ["TSSF_Var_1_step", "CSP"])
def test_zero_test_trial_raises_on_logvar(name):
    ts = synth_set(seed=11, trials=20)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    pipe.fit(ts.data, ts.labels)
    trials = ts.data[:, :, :3].copy()
    # an all-zero trial has filtered variances of exactly 0; a constant one
    # has variances of rounding size, below the floor set by the training data
    for value in (0.0, 0.5):
        trials[:, :, 1] = value
        with pytest.raises(NotPositiveDefinite, match="filtered covariance 1 "):
            pipe.decision_scores(trials)
        with pytest.raises(NotPositiveDefinite, match="filtered covariance 0 "):
            pipe.decision_scores(trials[:, :, 1:2])


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_no_log_matrix_or_tangent_vector_at_prediction(name, monkeypatch):
    ts = synth_set(seed=13, channels=5, trials=30)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    pipe.fit(ts.data, ts.labels)
    calls = []

    def counting(fn, original):
        def counted(*args, **kwargs):
            calls.append(fn)
            return original(*args, **kwargs)

        return counted

    for module in (manifold, tssf_module, pipelines, dataio):
        for fn in ("_from_eig", "_logm", "_vec"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counting(fn, getattr(module, fn)))
    pipe.decision_scores(ts.data)
    pipe.decision_scores(ts.data[:, :, :1])
    assert calls == []
    tssf.tangent_vectors(np.eye(2), np.eye(2)[None])  # the counters do count
    assert set(calls) == {"_from_eig", "_logm", "_vec"}


@pytest.mark.parametrize("classifier", [FIXED, tssf.ClassifierConfig()], ids=["fixed", "grid"])
@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_scores_do_not_depend_on_data_units(name, classifier):
    ts = synth_set(seed=14, channels=5, trials=30)
    spec = pipelines.PipelineSpec(name=name, k=2, classifier=classifier)
    expected = pipelines.make_pipeline(spec).fit(ts.data, ts.labels).decision_scores(ts.data)
    atol = 1e-10 * np.abs(expected).max()
    for scale in (1e-12, 1e-6, 1e6):
        data = scale * ts.data
        scores = pipelines.make_pipeline(spec).fit(data, ts.labels).decision_scores(data)
        np.testing.assert_allclose(scores, expected, rtol=1e-10, atol=atol)


def test_tangent_model_fitted_once_for_shared_training_set(monkeypatch):
    ts = synth_set(seed=12, channels=5, trials=30)
    calls = []

    def counting(fn):
        def counted(points, cfg=None):
            calls.append(np.shape(points)[-1])
            return fn(points, cfg)

        return counted

    tssf_module._clear_fit_store()
    # the tangent fit takes its mean (and logs) from _frechet_mean_and_logs,
    # the "logcov" reference is a frechet_mean
    for fn in ("frechet_mean", "_frechet_mean_and_logs"):
        monkeypatch.setattr(tssf_module, fn, counting(getattr(tssf_module, fn)))
    try:
        for name in ("TSSF_Var_1_step", "TSSF_LogCov_2_step", "TS_AIRM"):
            spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
            pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    finally:
        tssf_module._clear_fit_store()
    # one mean of the 5 x 5 training covariances; only TSSF_LogCov_2_step
    # adds the mean of its 2 x 2 filtered covariances
    assert calls.count(5) == 1
    assert calls.count(2) == 1


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_fit_reads_trials_only_for_their_covariances(name, monkeypatch):
    ts = synth_set(seed=19, channels=5, trials=30)
    spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
    expected = pipelines.make_pipeline(spec).fit(ts.data, ts.labels).decision_scores(ts.data)

    def fail(*args, **kwargs):
        raise AssertionError("fit filtered the trial data")

    # the scorer's two routes from trial data to covariances
    monkeypatch.setattr(pipelines, "_filtered_covariances", fail)
    monkeypatch.setattr(pipelines, "_covariance_stack", fail)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    monkeypatch.undo()
    np.testing.assert_array_equal(pipe.decision_scores(ts.data), expected)


@pytest.mark.parametrize(
    "name", ["CSP", "TSSF_Var_1_step", "TSSF_Var_2_step", "TSSF_Cov_2_step", "TSSF_LogCov_2_step"]
)
def test_training_features_by_congruence_equal_filtered_trials(name, monkeypatch):
    # the covariance of a filtered trial F^T x is F^T C F, so the features
    # and variance floor a fit takes from its filtered covariance stack are
    # those of the filtered trials
    ts = synth_set(seed=20, channels=6, trials=30)
    seen = []

    def recording(x, y, cfg):
        seen.append(x)
        return fit_from_config(x, y, cfg)

    fit_from_config = pipelines.fit_from_config
    monkeypatch.setattr(pipelines, "fit_from_config", recording)
    spec = pipelines.PipelineSpec(name=name, k=4, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    filtered = covariances_of(np.tensordot(pipe.filters, ts.data, axes=(0, 0)))
    if not pipe.one_step:
        expected = np.array(
            [tssf.compute_features(pipe.model, cov, pipe.feature_kind) for cov in filtered]
        )
        (features,) = seen
        np.testing.assert_allclose(
            features, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
        )
    if pipe.feature_kind == tssf.LOGVAR:
        floor = manifold.SPD_TOL * filtered.diagonal(0, -2, -1).min()
        assert pipe._var_floor == pytest.approx(floor, rel=1e-12)


class TestPipelineValidation:
    def test_csp_odd_k(self):
        ts = synth_set(seed=6, trials=16)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(name="CSP", k=3, classifier=FIXED)
        )
        with pytest.raises(InvalidInput):
            pipe.fit(ts.data, ts.labels)

    def test_k_exceeds_channels(self):
        ts = synth_set(seed=7, trials=16)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(name="TSSF_Var_1_step", k=9, classifier=FIXED)
        )
        with pytest.raises(InvalidInput):
            pipe.fit(ts.data, ts.labels)


class TestKfoldIntegration:
    def test_tssf_pipeline_cv(self):
        ts = synth_set(seed=8, trials=40)
        report = evalstats.kfold_cv(
            ts,
            lambda: pipelines.make_pipeline(
                pipelines.PipelineSpec(name="TSSF_Var_1_step", k=2, classifier=FIXED)
            ),
            folds=4,
            seed=0,
        )
        assert report.pipeline == "TSSF_Var_1_step"
        assert report.k == 2
        assert report.mean_auc > 0.9

    def test_grid_search_classifier_runs(self):
        ts = synth_set(seed=9, trials=30)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(
                name="TSSF_Cov_2_step",
                k=2,
                classifier=tssf.ClassifierConfig(grid=(0.1, 1.0), folds=3),
            )
        )
        pipe.fit(ts.data, ts.labels)
        scores = pipe.decision_scores(ts.data)
        assert evalstats.roc_auc(scores, ts.labels) > 0.9
