import functools
import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tssf
from tssf import dataio, evalstats, manifold, pipelines
from tssf import tssf as tssf_module
from tssf.errors import (
    DegenerateModel,
    DimMismatch,
    FormatError,
    InvalidInput,
    NotPositiveDefinite,
)

from test_tracer_names import load_tracer
from test_work_counts import load_workloads

TRACED_CLASSES = load_tracer().PIPELINE_CLASSES  # the classes whose methods perfbench wraps


def synth_set(seed=0, channels=4, trials=40, sigma=0.4, sessions=1):
    cfg = tssf.SynthConfig(
        channels=channels,
        samples=300,
        trials_per_class=trials // 2,
        seed=seed,
        n_discriminative=2,
        var_pos=(4.0, 1.0),
        var_neg=(1.0, 4.0),
        noise_sigma=sigma,
        sessions=sessions,
    )
    return tssf.synth_generate(cfg)


FIXED = tssf.ClassifierConfig(reg=1.0)


class TestSpec:
    def test_unknown_name(self):
        with pytest.raises(InvalidInput):
            pipelines.PipelineSpec(name="TSSF_LogCov_1_step").validate()

    def test_bad_k(self):
        # one k rule: every name gets the same message, TS_AIRM and CSP too
        for name in pipelines.PIPELINE_NAMES:
            for k, message in [(0, "k must be >= 1, got 0"), (-1, "k must be >= 1, got -1"),
                               (2.5, "k must be an integer, got 2.5")]:
                with pytest.raises(InvalidInput, match=f"^{message}$"):
                    pipelines.PipelineSpec(name=name, k=k).validate()

    @pytest.mark.parametrize(
        "cls", [pipelines.TssfPipeline, pipelines.CspPipeline, pipelines.TangentSpacePipeline]
    )
    def test_direct_construction_checks_name_and_k(self, cls):
        # a pipeline built without a spec takes k by the same rule, before any data
        for k, message in [(0, "k must be >= 1, got 0"), (2.0, "k must be an integer, got 2.0"),
                           (1.5, "k must be an integer, got 1.5")]:
            for name in pipelines.PIPELINE_NAMES:
                with pytest.raises(InvalidInput, match=f"^{message}$"):
                    cls(name, k)
        with pytest.raises(InvalidInput, match="^unknown pipeline 'TSSF_LogCov_1_step'; choose "):
            cls("TSSF_LogCov_1_step", 2)
        # and its classifier's numbers, which it used to take unchecked until a fit
        with pytest.raises(InvalidInput, match="^reg must be positive and finite$"):
            cls("TSSF_Var_1_step", 2, tssf.ClassifierConfig(reg=float("nan")))

    def test_classifier_config_checked_before_fit(self):
        with pytest.raises(InvalidInput, match="grid must be non-empty"):
            pipelines.make_pipeline(
                pipelines.PipelineSpec("TS_AIRM", classifier=tssf.ClassifierConfig(grid=()))
            )

    def test_all_names_buildable(self):
        for name in pipelines.PIPELINE_NAMES:
            pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2))
            _, kind, one_step = pipelines.PIPELINES[name]
            # every name builds the one class, which reads its row; unfitted,
            # every pipeline reports the spec's k, TS_AIRM's too
            assert (type(pipe), pipe.name, pipe.feature_kind, pipe.one_step, pipe.k) == (
                pipelines.TssfPipeline, name, kind, one_step, 2
            )

    def test_every_class_binds_the_one_fit_body(self):
        # perfbench/tracer.py wraps fit in each of its classes' own __dict__;
        # the two subclasses hold those two bindings and nothing else
        for cls in (getattr(pipelines, name) for name in TRACED_CLASSES):
            assert cls.__dict__["fit"] is pipelines.TssfPipeline.__dict__["fit"]
            if cls is not pipelines.TssfPipeline:
                own = {key for key in vars(cls) if not key.startswith("__")}
                assert own == {"fit", "decision_scores"}

    def test_every_class_binds_the_one_scorer(self):
        # and decision_scores, in the same three namespaces
        for cls in (getattr(pipelines, name) for name in TRACED_CLASSES):
            assert cls.__dict__["decision_scores"] is pipelines._compiled_scores


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

    def test_deterministic_scores(self, name, monkeypatch):
        ts = synth_set(seed=4, trials=20)
        spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        p1 = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
        # refit, rather than reuse the remembered tangent model
        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
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


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_label_values_checked_before_any_covariance(name, monkeypatch):
    ts = synth_set(seed=5, trials=10)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))

    def fail(*args, **kwargs):
        raise AssertionError("fit computed covariances before checking its labels")

    monkeypatch.setattr(pipelines, "_spd_covariances", fail)
    with pytest.raises(InvalidInput, match=r"-1 or \+1, got 0$"):
        pipe.fit(ts.data, (ts.labels > 0).astype(int))


def covariances_of(data):
    c, _, t = data.shape
    trialset = tssf.TrialSet(data, np.ones(t), np.zeros(t), [f"ch{i}" for i in range(c)])
    return tssf.covariances(trialset)


def library_scores(pipe, trials, train):
    """Scores of a fitted pipeline through the public library functions.

    ``train`` holds the training trials: the reference point of "logcov"
    features is the Frechet mean of their filtered covariances.
    """

    def filtered_covariances(data):
        filtered = [tssf.apply_filters(pipe.model, data[:, :, t]) for t in range(data.shape[2])]
        return covariances_of(np.stack(filtered, axis=2))

    covs = filtered_covariances(trials)
    if pipe.feature_kind == tssf.LOGCOV:
        ref = tssf.frechet_mean(filtered_covariances(train))
        feats = [tssf.vec(tssf.log_map_at(ref, cov)) for cov in covs]
    else:
        feats = [tssf.compute_features(pipe.model, cov, pipe.feature_kind) for cov in covs]
    if pipe.one_step:
        return [tssf.predict_one_step(pipe.model, f)[0] for f in feats]
    return np.array(feats) @ pipe.clf.weights + pipe.clf.intercept


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_scores_equal_library_route_and_single_trial_calls(name):
    ts = synth_set(seed=10, channels=5, trials=40)
    train, test = ts.data[:, :, :30], ts.data[:, :, 30:]
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    pipe.fit(train, ts.labels[:30])
    for trials in (train, test):
        scores = pipe.decision_scores(trials)
        expected = np.asarray(library_scores(pipe, trials, train))
        atol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=atol)
        if name == "TS_AIRM":
            # all C filters score the tangent-space model's decision values
            mean, tangent_model = tssf.fit_tangent_model(covariances_of(train), ts.labels[:30], FIXED)
            vectors = tssf.tangent_vectors(mean, covariances_of(trials))
            tangent = vectors @ tangent_model.weights + tangent_model.intercept
            np.testing.assert_allclose(scores, tangent, rtol=1e-12, atol=atol)
        single = [pipe.decision_scores(trials[:, :, t : t + 1])[0] for t in range(trials.shape[2])]
        np.testing.assert_allclose(single, scores, rtol=1e-12, atol=atol)
        assert pipe.decision_scores(trials[:, :, :0]).shape == (0,)


@pytest.mark.parametrize("k", [2, 6], ids=["k<C", "k=C"])
@pytest.mark.parametrize("name", ["CSP", "TSSF_Var_1_step", "TSSF_Var_2_step"])
def test_logvar_scores_from_filtered_variances_alone(name, k, monkeypatch):
    # w . log diag(F^T S F) + b, with no covariance stack of the trials,
    # for a square projection too
    ts = synth_set(seed=23, channels=6, trials=200)
    spec = pipelines.PipelineSpec(name=name, k=k, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data[:, :, :40], ts.labels[:40])
    if pipe.one_step:
        weights, intercept = pipe.model.beta, pipe.model.intercept
    else:
        weights, intercept = pipe.clf.weights, pipe.clf.intercept
    covs = covariances_of(ts.data)

    def fail(*args, **kwargs):
        raise AssertionError("the scorer built a covariance stack")

    monkeypatch.setattr(pipelines, "_filtered_covariances", fail)
    monkeypatch.setattr(pipelines, "_covariance_stack", fail)
    for t in (1, 10, 200):
        trials = ts.data[:, :, :t]
        var = (pipe.filters.T @ covs[:t] @ pipe.filters).diagonal(0, -2, -1)
        expected = np.log(var) @ weights + intercept
        scores = pipe.decision_scores(trials)
        atol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=atol)
        single = [pipe.decision_scores(trials[:, :, i : i + 1])[0] for i in range(t)]
        np.testing.assert_allclose(single, scores, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_saved_pipeline_scores_bitwise_like_fitted_one(name, tmp_path):
    ts = synth_set(seed=15, channels=5, trials=40)
    train, test = ts.data[:, :, :30], ts.data[:, :, 30:]
    spec = pipelines.PipelineSpec(name=name, k=2, classifier=tssf.ClassifierConfig(grid=(0.1, 1.0)))
    pipe = pipelines.make_pipeline(spec).fit(train, ts.labels[:30])
    path = tmp_path / "model.json"
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
    np.testing.assert_array_equal(loaded.filters, pipe.filters)
    assert loaded.k == (5 if name == "TS_AIRM" else 2)
    text = path.read_text()
    # what scoring reads and nothing else: k is the filters' width, and the
    # feature kind is the PIPELINES row of the name
    keys = ["format", "name", "intercept", "var_floor", "filters", "coef"]
    assert list(json.loads(text)) == keys
    assert text.startswith('{\n "format": "pipeline/4",\n "name": "' + name + '",\n')
    # every pipeline compiles to filters with one weight per filter
    assert pipe._coef.ndim == 1 and pipe._coef.shape == pipe.filters.shape[1:]
    # one value per line: each row of a matrix spans one line per entry
    assert ' [\n  [\n   ' in text and "," not in text.replace(",\n", "")


@pytest.mark.parametrize("cls_name", TRACED_CLASSES)
@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_a_pipeline_of_any_class_is_its_row(name, cls_name, tmp_path):
    # the row alone tells one pipeline from another: built directly by any
    # class, a pipeline fits and scores bitwise as make_pipeline's, and its
    # file loads and scores so too
    ts = synth_set(seed=15, channels=5, trials=40)
    train, labels, test = ts.data[:, :, :30], ts.labels[:30], ts.data[:, :, 30:]
    made = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=2, classifier=FIXED))
    made.fit(train, labels)
    direct = getattr(pipelines, cls_name)(name, 2, FIXED).fit(train, labels)
    np.testing.assert_array_equal(direct.filters, made.filters)
    np.testing.assert_array_equal(direct.decision_scores(test), made.decision_scores(test))
    tssf.save_pipeline(direct, tmp_path / "model.json")
    loaded = tssf.load_pipeline(tmp_path / "model.json")
    np.testing.assert_array_equal(loaded.decision_scores(test), made.decision_scores(test))


def test_extreme_floats_round_trip_bitwise(tmp_path):
    ts = synth_set(seed=15, channels=4, trials=20)
    spec = pipelines.PipelineSpec(name="CSP", k=2, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    extremes = [5e-324, -0.0, np.finfo(float).max, -np.finfo(float).tiny, 0.1, 1 / 3]
    filters = np.array(extremes[:4] + extremes[4:] * 2).reshape(4, 2)
    pipe._compile(filters, pipe._coef, pipe._intercept, pipe._var_floor)
    tssf.save_pipeline(pipe, tmp_path / "model.json")
    loaded = tssf.load_pipeline(tmp_path / "model.json")
    assert loaded.filters.tobytes() == pipe.filters.tobytes()


@pytest.mark.parametrize("route", ["fit", "fit_covs", "load"])
@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_compiled_arrays_are_read_only(name, route, tmp_path):
    # fit, fit_covs and load_pipeline all end in _compile: k is then the
    # number of filters, and the arrays that score cannot be changed in place
    ts = synth_set(seed=19, channels=4, trials=20)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    if route == "fit_covs":
        pipe.fit_covs(dataio._spd_covariances(ts.data), ts.labels)
    else:
        pipe.fit(ts.data, ts.labels)
    if route == "load":
        tssf.save_pipeline(pipe, tmp_path / "model.json")
        pipe = tssf.load_pipeline(tmp_path / "model.json")
    assert pipe.k == pipe.filters.shape[1] == (4 if name == "TS_AIRM" else 2)
    for array in (pipe.filters, pipe._coef):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_square_projection_scores_by_congruence():
    # TSSF with k = C, as TS_AIRM, has a square projection and takes the
    # covariance route; its scores still equal the per-trial library route
    ts = synth_set(seed=16, channels=4, trials=30)
    pipe = pipelines.make_pipeline(
        pipelines.PipelineSpec(name="TSSF_Cov_2_step", k=4, classifier=FIXED)
    ).fit(ts.data, ts.labels)
    expected = np.asarray(library_scores(pipe, ts.data, ts.data))
    np.testing.assert_allclose(pipe.decision_scores(ts.data), expected, rtol=1e-12, atol=1e-12)


def edit_model(path, edit):
    """Apply ``edit`` to a saved model file's JSON object and write it back."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=1))


class TestLoadPipeline:
    def saved(self, tmp_path, name="TSSF_Var_1_step", k=2):
        ts = synth_set(seed=17, trials=20)
        spec = pipelines.PipelineSpec(name=name, k=k, classifier=FIXED)
        path = tmp_path / "model.json"
        tssf.save_pipeline(pipelines.make_pipeline(spec).fit(ts.data, ts.labels), path)
        return path

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("format", "pipeline/3", "not a pipeline/4 model file"),
            ("name", "TSSF_Var_3_step", "unknown pipeline"),
            ("name", ["CSP"], "unknown pipeline"),
            ("intercept", "0.5", "'intercept' is not a float"),
            ("intercept", True, "'intercept' is not a float"),
            ("var_floor", None, "'var_floor' is not a float"),
            ("coef", [0.5, None], "'coef' is not a vector of floats"),
            ("coef", [[0.5, 0.5]] * 2, "'coef' is not a vector of floats"),
            ("filters", [[0.5, 0.5]] * 3 + [[0.5]], "'filters' is not a matrix of floats"),
            ("filters", [0.5] * 8, "'filters' is not a matrix of floats"),
        ],
        ids=["format", "name", "name-list", "intercept-str", "intercept-bool", "var_floor-null",
             "coef-null", "coef-matrix", "filters-ragged", "filters-vector"],
    )
    def test_malformed_field_rejected(self, tmp_path, field, value, match):
        path = self.saved(tmp_path)
        edit_model(path, lambda doc: doc.update({field: value}))
        with pytest.raises(FormatError, match=match):
            tssf.load_pipeline(path)

    def test_non_numeric_matrix_entry_rejected(self, tmp_path):
        def put_text(doc):
            doc["filters"][0][0] = "zz"

        path = self.saved(tmp_path)
        edit_model(path, put_text)
        with pytest.raises(FormatError, match="field 'filters' is not a matrix of floats"):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize(
        "field", ["name", "intercept", "var_floor", "filters", "coef"]
    )
    def test_missing_field_rejected(self, tmp_path, field):
        path = self.saved(tmp_path)
        edit_model(path, lambda doc: doc.pop(field))
        with pytest.raises(FormatError, match=f"missing field '{field}'"):
            tssf.load_pipeline(path)

    def test_unknown_fields_rejected(self, tmp_path):
        # a half-converted file: pipeline/4 plus fields of older layouts,
        # which a reader that ignored them would load as a k = 2 logvar model
        def add_old_fields(doc):
            doc.update(k=3, feature_kind="logcov", projection=[[1.0]])

        path = self.saved(tmp_path)
        edit_model(path, add_old_fields)
        with pytest.raises(FormatError, match="^unknown field 'feature_kind'$"):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize(
        "text",
        ["format: pipeline/1\nname: TSSF_Var_1_step\n", "", "[1.0]", '{"format": "pipeline/2"',
         b"\xff\xfe{}"],
    )
    def test_file_that_is_not_a_model_object_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("filters", "nan"),
            ("coef", "inf"),
            ("intercept", "nan"),
            ("filters", "-inf"),
            ("filters", "1e999"),
            ("var_floor", "-1.0"),
            ("var_floor", "0.0"),
            ("var_floor", "inf"),
        ],
    )
    def test_non_finite_or_negative_number_rejected(self, tmp_path, field, value):
        # replace the field's first number with a literal that json reads
        # as a float: NaN, Infinity and 1e999 all parse
        literal = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(value, value)
        path = self.saved(tmp_path)
        lines = path.read_text().split("\n")
        i = next(j for j, line in enumerate(lines) if line.startswith(f' "{field}":'))
        while not lines[i].rstrip(",")[-1].isdigit():
            i += 1  # the first number of a vector or matrix
        head, sep, _ = lines[i].rpartition(" ")
        lines[i] = head + sep + literal + ("," if lines[i].endswith(",") else "")
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match=field):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize("name", ["CSP", "TSSF_Var_1_step", "TSSF_LogCov_2_step", "TS_AIRM"])
    @pytest.mark.parametrize("shape", [(6, 5), (4, 3), (4, 1)])
    def test_filters_not_channels_by_k_rejected(self, tmp_path, name, shape):
        # k is the number of filters, and coef holds one weight per filter:
        # the saved pipelines have k=2 (TS_AIRM k=4), so no shape here fits
        path = self.saved(tmp_path, name)
        edit_model(path, lambda doc: doc.update(filters=np.ones(shape).tolist()))
        k = 4 if name == "TS_AIRM" else 2
        with pytest.raises(FormatError, match=f"coef of length {k} does not weigh {shape[1]} "):
            tssf.load_pipeline(path)

    def test_file_with_zero_filters_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        edit_model(path, lambda doc: doc.update(filters=[[]] * 4, coef=[]))
        with pytest.raises(FormatError, match=r"does not weigh 0 filters \(k >= 1\)"):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ts_airm_file_with_k_not_c_rejected(self, tmp_path, k):
        # a consistent file of k < C filters scores like TSSF_Cov_1_step,
        # not like the tangent-space classifier
        def keep_k(doc):
            doc.update(coef=doc["coef"][:k], filters=[row[:k] for row in doc["filters"]])

        path = self.saved(tmp_path, "TS_AIRM")
        edit_model(path, keep_k)
        with pytest.raises(FormatError, match=f"TS_AIRM keeps all C filters: square, not 4 x {k}$"):
            tssf.load_pipeline(path)

    @pytest.mark.parametrize("name", ["TSSF_Var_1_step", "TSSF_Cov_1_step"])
    def test_file_with_more_filters_than_channels_rejected(self, tmp_path, name):
        # no fit keeps more filters than channels: such a logvar file would
        # score silently, and a diaglogcov one fail only at scoring
        def widen(doc):
            doc.update(filters=[row * 3 for row in doc["filters"]], coef=doc["coef"] * 3)

        path = self.saved(tmp_path, name)
        edit_model(path, widen)
        with pytest.raises(FormatError, match=f"^{name} has 6 filters for 4 channels: k must be <= C$"):
            tssf.load_pipeline(path)

    def test_ts_airm_file_without_filters_rejected(self, tmp_path):
        # the layout TS_AIRM files had before TS_AIRM kept its filters:
        # pipeline/3, feature kind "tangent", k 0 and no 'filters' field;
        # such a file is refitted, not read
        def old_layout(doc):
            doc.update(format="pipeline/3", feature_kind="tangent", k=0, projection=doc["filters"])
            doc.pop("filters")

        path = self.saved(tmp_path, "TS_AIRM")
        edit_model(path, old_layout)
        with pytest.raises(FormatError, match="not a pipeline/4 model file"):
            tssf.load_pipeline(path)

    def test_unfitted_pipeline_not_saved(self, tmp_path):
        pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name="CSP", k=2))
        with pytest.raises(InvalidInput):
            tssf.save_pipeline(pipe, tmp_path / "model.json")


@pytest.mark.parametrize(
    "name, loaded",
    [("TSSF_Var_1_step", False), ("TSSF_LogCov_2_step", False), ("TS_AIRM", False),
     ("TSSF_Var_1_step", True)],
)
def test_trials_of_the_wrong_shape_raise_dim_mismatch(name, loaded, tmp_path):
    ts = synth_set(seed=18, channels=8, trials=20)
    spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    if loaded:
        tssf.save_pipeline(pipe, tmp_path / "model.json")
        pipe = tssf.load_pipeline(tmp_path / "model.json")
    filters = str(pipe.filters.shape)
    for trials in (np.ones((7, 256, 3)), ts.data[:, :, 0], ts.data[None]):
        with pytest.raises(DimMismatch) as exc:
            pipe.decision_scores(trials)
        assert str(trials.shape) in str(exc.value) and filters in str(exc.value)


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
def test_no_channels_or_no_samples_raise_invalid_input(name):
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=2, classifier=FIXED))
    for empty in (np.ones((0, 6, 4)), np.ones((4, 0, 4))):
        with pytest.raises(InvalidInput, match="no channels or no samples"):
            pipe.fit(empty, [1, -1, 1, -1])
    ts = synth_set(seed=19, trials=20)
    pipe.fit(ts.data, ts.labels)
    with pytest.raises(InvalidInput, match="with N >= 1"):
        pipe.decision_scores(ts.data[:, :0, :3])


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_non_finite_test_sample_raises_naming_the_trial(name):
    # LAPACK's eigh may not converge on a NaN or inf entry; the log-matrix
    # pipelines name the trial all the same
    ts = synth_set(seed=20, channels=8, trials=20)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=4, classifier=FIXED))
    pipe.fit(ts.data, ts.labels)
    trials = ts.data[:, :, :5].copy()
    trials[2, 7, 3] = np.nan
    with pytest.raises(NotPositiveDefinite, match="covariance 3 "):
        pipe.decision_scores(trials)
    trials[2, 7, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite, match="covariance 3 "):
        pipe.decision_scores(trials)  # inf - inf in the centring warns


@pytest.mark.parametrize("name", ["CSP", "TSSF_Var_1_step", "TSSF_Var_2_step"])
def test_overflowing_test_sample_raises_on_logvar(name):
    # a finite but huge sample overflows the trial's variances to inf,
    # whose log would make the score NaN against mixed-sign coefficients
    ts = synth_set(seed=3, channels=8, trials=20)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name=name, k=4, classifier=FIXED))
    pipe.fit(ts.data, ts.labels)
    trials = ts.data[:, :, :5].copy()
    trials[2, 7, 3] = 1e200
    message = r"^filtered covariance {} is not positive definite: variance inf in component \d+ "
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotPositiveDefinite, match=message.format(3) + "is not finite$"):
            pipe.decision_scores(trials)
        with pytest.raises(NotPositiveDefinite, match=message.format(0) + "is not finite$"):
            pipe.decision_scores(trials[:, :, 3:4])


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
        def counted(points):
            calls.append(np.shape(points)[-1])
            return fn(points)

        return counted

    monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
    # the tangent fit and the "logcov" pipeline's second stage both take
    # their mean and its logs from _frechet_mean_and_logs
    fn = "_frechet_mean_and_logs"
    for module in (tssf_module, pipelines):
        monkeypatch.setattr(module, fn, counting(getattr(module, fn)))
    for name in ("TSSF_Var_1_step", "TSSF_LogCov_2_step", "TS_AIRM"):
        spec = pipelines.PipelineSpec(name=name, k=2, classifier=FIXED)
        pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
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

    # the scorer's three routes from trial data to covariances or variances
    monkeypatch.setattr(pipelines, "_filtered_covariances", fail)
    monkeypatch.setattr(pipelines, "_covariance_stack", fail)
    monkeypatch.setattr(pipelines, "_filtered_variances", fail)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    monkeypatch.undo()
    np.testing.assert_array_equal(pipe.decision_scores(ts.data), expected)


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_fit_covs_of_the_covariances_is_fit_bitwise(name, monkeypatch):
    ts = synth_set(seed=24, channels=5, trials=30)
    spec = pipelines.PipelineSpec(name, k=2, classifier=tssf.ClassifierConfig(grid=(0.1, 1.0)))
    monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
    fitted = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    covs = dataio._spd_covariances(ts.data)
    # the pipelines of a cross-validation fold share one stack: no fit writes to it
    covs.setflags(write=False)
    monkeypatch.setattr(tssf_module, "_last_fit", (None, None))  # a fit of its own
    from_covs = pipelines.make_pipeline(spec).fit_covs(covs, ts.labels)
    for attr in ("filters", "_coef", "_intercept", "_var_floor"):
        ours, theirs = np.asarray(getattr(from_covs, attr)), np.asarray(getattr(fitted, attr))
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), attr


@pytest.mark.parametrize(
    "name", ["CSP", "TSSF_Var_1_step", "TSSF_Var_2_step", "TSSF_Cov_2_step", "TSSF_LogCov_2_step"]
)
def test_training_features_by_congruence_equal_filtered_trials(name, monkeypatch):
    # the covariance of a filtered trial F^T x is F^T C F, so the features
    # a fit takes from its filtered covariance stack are those of the
    # filtered trials
    ts = synth_set(seed=20, channels=6, trials=30)
    seen = []

    def recording(x, y, cfg):
        seen.append(x)
        return fit_from_config(x, y, cfg)

    fit_from_config = pipelines.fit_from_config
    monkeypatch.setattr(pipelines, "fit_from_config", recording)
    spec = pipelines.PipelineSpec(name=name, k=4, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    filtered = covariances_of(np.tensordot(pipe.model.filters, ts.data, axes=(0, 0)))
    if pipe.feature_kind == tssf.LOGCOV:
        expected = tssf.vec(tssf.log_map_at(tssf.frechet_mean(filtered), filtered))
        (features,) = seen
        np.testing.assert_allclose(
            features, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
        )
    elif not pipe.one_step:
        expected = np.array(
            [tssf.compute_features(pipe.model, cov, pipe.feature_kind) for cov in filtered]
        )
        (features,) = seen
        np.testing.assert_allclose(
            features, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
        )


def test_logcov_scores_through_the_tangent_filters_of_its_second_svm():
    # the second SVM, on vec(log_map_at(m_f, F^T S F)) at the Frechet mean
    # m_f of the filtered training covariances, weighs the whitened log at
    # m_f by B = m_f^1/2 unvec(w) m_f^1/2: the filters of that linear
    # function, after F, are the compiled filters, each with its coefficient
    ts = synth_set(seed=29, channels=6, trials=60)
    train, labels, test = ts.data[:, :, :40], ts.labels[:40], ts.data[:, :, 40:]
    spec = pipelines.PipelineSpec("TSSF_LogCov_2_step", k=3, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(train, labels)
    f = pipe.model.filters
    ref = tssf.frechet_mean(manifold._congruence(f, dataio._spd_covariances(train)))
    half, _ = manifold._half_powers(ref)
    bank = tssf.tangent_filters(ref, manifold._congruence(half, tssf.unvec(pipe.clf.weights)), 3)
    np.testing.assert_array_equal(pipe.filters, f @ bank.full_filters)
    np.testing.assert_array_equal(pipe._coef, bank.full_beta)
    assert pipe._intercept == pipe.clf.intercept
    # ranked like every bank: by descending |coefficient|
    assert np.all(np.diff(np.abs(pipe._coef)) <= 0)
    # and the scores are the second SVM's decision values
    for trials in (train, test):
        filtered = covariances_of(np.tensordot(f, trials, axes=(0, 0)))
        expected = tssf.vec(tssf.log_map_at(ref, filtered)) @ pipe.clf.weights + pipe.clf.intercept
        np.testing.assert_allclose(
            pipe.decision_scores(trials), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
        )


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_floor_is_spd_tol_times_smallest_projected_training_variance(name):
    ts = synth_set(seed=20, channels=6, trials=30)
    spec = pipelines.PipelineSpec(name=name, k=4, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    projected = covariances_of(np.tensordot(pipe.filters, ts.data, axes=(0, 0)))
    floor = manifold.SPD_TOL * projected.diagonal(0, -2, -1).min()
    assert pipe._var_floor == pytest.approx(floor, rel=1e-12)


@pytest.mark.parametrize(
    "name, k", [(name, 2) for name in pipelines.PIPELINE_NAMES] + [("TSSF_LogCov_2_step", 1)]
)
def test_degenerate_test_trial_raises_in_every_pipeline(name, k):
    # a trial scaled far below the training data, or constant on every
    # channel, has filtered variances and eigenvalues of rounding size that
    # can still pass as positive definite; every pipeline rejects them at
    # the floor its training data set
    cfg = tssf.SynthConfig(channels=4, samples=128, trials_per_class=20, seed=11, noise_sigma=1.0)
    ts = tssf.synth_generate(cfg)
    spec = pipelines.PipelineSpec(name=name, k=k, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    for degenerate in (1e-20 * ts.data[:, :, 0], np.full((4, 128), 0.5)):
        trials = ts.data[:, :, :3].copy()
        trials[:, :, 1] = degenerate
        with pytest.raises(NotPositiveDefinite, match="covariance 1 is not positive definite"):
            pipe.decision_scores(trials)


@pytest.mark.parametrize("c", [4, 8, 16])
def test_ts_airm_scores_as_full_rank_one_step_tssf(c):
    # the paper's identity: a linear model on tangent vectors is C spatial
    # filters with one weight each, so TS_AIRM is TSSF_Cov_1_step with all
    # C filters, weighted by its sorted coefficients
    ts = synth_set(seed=24, channels=c, trials=60)
    train, labels, test = ts.data[:, :, :40], ts.labels[:40], ts.data[:, :, 40:]
    airm = pipelines.make_pipeline(pipelines.PipelineSpec("TS_AIRM", classifier=FIXED))
    airm.fit(train, labels)
    full = pipelines.make_pipeline(pipelines.PipelineSpec("TSSF_Cov_1_step", k=c, classifier=FIXED))
    full.fit(train, labels)
    np.testing.assert_array_equal(airm.decision_scores(test), full.decision_scores(test))
    np.testing.assert_array_equal(airm.filters, full.filters)
    np.testing.assert_array_equal(airm._coef, full.model.full_beta)
    assert airm.k == c


def test_ts_airm_model_file_does_not_depend_on_the_spec_k(tmp_path):
    # the spec's k reaches TS_AIRM's filter source, which keeps all C = 4
    # filters: unfitted, the pipeline reports the spec's k; fitted, C
    ts = synth_set(seed=28, channels=4, trials=20)
    files = []
    for k in (1, 2, 6):
        pipe = pipelines.make_pipeline(pipelines.PipelineSpec("TS_AIRM", k=k, classifier=FIXED))
        assert pipe.k == k
        assert pipe.fit(ts.data, ts.labels).k == 4
        pipelines.save_pipeline(pipe, tmp_path / f"airm{k}.json")
        files.append((tmp_path / f"airm{k}.json").read_bytes())
    assert files[1] == files[0] and files[2] == files[0]
    assert np.shape(json.loads(files[0])["filters"]) == (4, 4)


def test_ts_airm_refit_keeps_all_filters_of_the_new_data():
    # k = C is taken from the data at every fit, not from the last fit
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec("TS_AIRM", classifier=FIXED))
    for c in (4, 6, 5):
        ts = synth_set(seed=26, channels=c, trials=20)
        assert pipe.fit(ts.data, ts.labels).k == c
        assert pipe.filters.shape == (c, c)


@pytest.mark.parametrize("name", ["TS_AIRM", "TSSF_Cov_1_step"])
def test_identical_training_trials_raise_degenerate_model(name):
    # orthogonal +-1 rows of zero mean: every trial's covariance is exactly
    # the identity, so is their mean, and every tangent vector is 0; a model
    # that would score one constant is refused
    trial = np.tile(scipy.linalg.hadamard(8)[1:5], 32).astype(float)
    trials = np.repeat(trial[:, :, None], 10, axis=2)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=4, classifier=FIXED))
    with pytest.raises(DegenerateModel, match="equal to rounding"):
        pipe.fit(trials, np.tile([1, -1], 5))


@pytest.mark.parametrize("name", ["TS_AIRM", "TSSF_Var_2_step"])
def test_all_zero_tangent_weights_raise_degenerate_model(name):
    # two distinct trials, each once per class: the tangent vectors differ,
    # but every SVM multiplier pair cancels, so the weights are exactly 0
    two = synth_set(seed=27).data[:, :, :2]
    trials = np.repeat(two, 2, axis=2)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=2, classifier=FIXED))
    with pytest.raises(DegenerateModel, match="all-zero weight vector"):
        pipe.fit(trials, np.tile([1, -1], 2))


def one_trial_ten_times():
    # ten copies of one random trial: the covariances are one matrix to
    # rounding, not exactly, so whitening at their mean leaves logs of ~1e-15
    trial = synth_set(seed=25).data[:, :, :1]
    return np.repeat(trial, 10, axis=2), np.tile([1, -1], 5)


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_training_covariances_equal_to_rounding_raise_degenerate_model(name, monkeypatch):
    monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
    trials, labels = one_trial_ten_times()
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=2, classifier=FIXED))
    with pytest.raises(DegenerateModel, match="equal to rounding"):
        pipe.fit(trials, labels)
    assert tssf_module._last_fit == (None, None)  # a refused fit is not remembered


class TestPipelineValidation:
    def test_csp_odd_k(self):
        # CSP takes any k the rule allows: its filters are the k-prefix of
        # the one ranked bank, so k = 3 keeps 3 of the k = 4 bank's columns
        ts = synth_set(seed=7, trials=20)
        fitted = {}
        for k in (3, 4):
            spec = pipelines.PipelineSpec(name="CSP", k=k, classifier=FIXED)
            fitted[k] = pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
        np.testing.assert_array_equal(fitted[3].filters, fitted[4].model.full_filters[:, :3])
        assert fitted[3].k == 3 and fitted[3]._coef.shape == (3,)

    @pytest.mark.parametrize(
        "name, k",
        [("TSSF_Var_1_step", 2.0), ("TSSF_Var_1_step", 2.5), ("TSSF_Var_1_step", np.float64(3)),
         ("CSP", 2.0), ("TS_AIRM", 1.5)],
    )
    def test_non_integer_k_rejected_before_any_covariance(self, name, k, monkeypatch):
        ts = synth_set(seed=7, trials=20)

        def fail(*args, **kwargs):
            raise AssertionError("fit computed covariances before checking k")

        monkeypatch.setattr(pipelines, "_spd_covariances", fail)
        spec = pipelines.PipelineSpec(name=name, k=k, classifier=FIXED)
        with pytest.raises(InvalidInput, match="^k must be an integer, got "):
            pipelines.make_pipeline(spec).fit(ts.data, ts.labels)

    def test_k_exceeds_channels(self):
        ts = synth_set(seed=7, trials=16)
        pipe = pipelines.make_pipeline(
            pipelines.PipelineSpec(name="TSSF_Var_1_step", k=9, classifier=FIXED)
        )
        with pytest.raises(InvalidInput):
            pipe.fit(ts.data, ts.labels)


CV_PIPELINES = ("CSP", "TSSF_Var_1_step", "TSSF_LogCov_2_step", "TS_AIRM")


def cv_factories(names):
    return [
        lambda n=name: pipelines.make_pipeline(pipelines.PipelineSpec(n, k=2, classifier=FIXED))
        for name in names
    ]


class TestKfoldIntegration:
    def test_cross_validate_fits_one_tangent_model_per_fold(self, monkeypatch):
        ts = synth_set(seed=21, channels=5, trials=48, sessions=2)
        sizes = []
        mean_and_logs = tssf_module._frechet_mean_and_logs

        def counted(covs, *args, **kwargs):
            sizes.append(np.shape(covs)[-1])
            return mean_and_logs(covs, *args, **kwargs)

        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
        monkeypatch.setattr(tssf_module, "_frechet_mean_and_logs", counted)
        reports = evalstats.cross_validate(ts, cv_factories(CV_PIPELINES), folds=4, seed=0)
        assert [report.pipeline for report in reports] == list(CV_PIPELINES)
        assert all(report.aucs.shape == (8,) for report in reports)
        assert sizes == [5] * 8  # one 5 x 5 mean per (session, fold)

    def test_cross_validate_equals_kfold_cv_per_pipeline(self):
        ts = synth_set(seed=22, channels=5, trials=48, sigma=3.0, sessions=2)
        reports = evalstats.cross_validate(ts, cv_factories(CV_PIPELINES), folds=4, seed=3)
        for name, report in zip(CV_PIPELINES, reports):
            (factory,) = cv_factories([name])
            alone = evalstats.kfold_cv(ts, factory, folds=4, seed=3)
            assert (report.pipeline, report.k, report.feature_kind) == (
                alone.pipeline,
                alone.k,
                alone.feature_kind,
            )
            for field in ("aucs", "sessions", "folds"):
                ours, theirs = getattr(report, field), getattr(alone, field)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

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


@functools.cache
def workload_split(name):
    """Seed-1 data of a benchmark workload's generator: 2/3 train, 1/3 test."""
    synth = load_workloads().WORKLOADS[name].synth
    ts = tssf.synth_generate(tssf.SynthConfig(seed=1, **synth))
    n_train = 2 * ts.data.shape[2] // 3
    return ts.data[:, :, :n_train], ts.labels[:n_train], ts.data[:, :, n_train:]


def dropped(pipe, j):
    """A copy of a fitted pipeline without component j: its column and weight.

    A TS_AIRM without one of its C filters is a TSSF_Cov_1_step with C - 1:
    the same feature kind, scored in one step.
    """
    name = "TSSF_Cov_1_step" if pipe.name == "TS_AIRM" else pipe.name
    keep = np.arange(pipe.k) != j
    return pipelines.make_pipeline(pipelines.PipelineSpec(name))._compile(
        pipe.filters[:, keep], pipe._coef[keep], pipe._intercept, pipe._var_floor
    )


@pytest.mark.parametrize("workload", ["eval-c8-grid", "eval-c64-fixed"])
@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_dropping_a_component_removes_its_source_from_the_scores(workload, name, tmp_path):
    # the paper's artifact-removal claim: a source that enters the data along
    # component j's pattern a_j, from the filters `tssf patterns` exports,
    # moves no score once filter j and weight j are dropped, because the
    # remaining filters are orthogonal to a_j
    train, labels, test = workload_split(workload)
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=4, classifier=FIXED))
    pipe.fit(train, labels)
    reduced = dropped(pipe, 0)
    mean_cov = dataio._covariance_stack(train).mean(axis=0)
    a0 = tssf.compute_patterns(pipe.filters, mean_cov)[:, 0]
    rng = np.random.default_rng(0)
    source = rng.standard_normal(test.shape[1:])
    scale = 1e3 * np.sqrt(np.mean(train**2)) / np.sqrt(np.mean(np.outer(a0, source) ** 2))
    noisy = test + scale * a0[:, None, None] * source[None]

    def moved(p):
        before = p.decision_scores(test)
        return np.abs(p.decision_scores(noisy) - before).max() / np.abs(before).max()

    assert moved(reduced) <= 1e-12
    assert moved(pipe) > 0.1
    if pipe.feature_kind == tssf.LOGVAR:
        # the reduced scores are the full ones minus component 0's contribution
        var0 = pipelines._filtered_variances(pipe.filters[:, :1], test)[:, 0]
        full = pipe.decision_scores(test)
        np.testing.assert_allclose(
            reduced.decision_scores(test),
            full - pipe._coef[0] * np.log(var0),
            rtol=0,
            atol=1e-12 * np.abs(full).max(),
        )
    tssf.save_pipeline(reduced, tmp_path / "reduced.json")
    loaded = tssf.load_pipeline(tmp_path / "reduced.json")
    assert loaded.name == reduced.name and loaded.k == reduced.k == pipe.k - 1
    for a, b in [
        (loaded.filters, reduced.filters),
        (loaded._coef, reduced._coef),
        (loaded.decision_scores(noisy), reduced.decision_scores(noisy)),
    ]:
        assert a.tobytes() == b.tobytes()


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the allocations made by fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_batch_scored_in_blocks_equals_single_trial_calls(name):
    train, labels, test = workload_split("eval-c64-fixed")
    c, n, _ = train.shape
    block = dataio._trials_per_block(c, n)  # 32 trials of 64 x 256
    # two whole blocks and a ragged last one of 5 trials
    trials = np.concatenate([test, train], axis=2)[:, :, : 2 * block + 5]
    assert block > 5 and trials.nbytes > 2 * dataio._BLOCK_BYTES
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=4, classifier=FIXED))
    pipe.fit(train, labels)
    scores = pipe.decision_scores(trials)
    single = [pipe.decision_scores(trials[:, :, t : t + 1])[0] for t in range(trials.shape[2])]
    np.testing.assert_allclose(scores, single, rtol=1e-12, atol=1e-12 * np.abs(single).max())
    # a bad trial of the second block is named by its index in the batch
    trials[:, :, block + 3] = 0.0
    with pytest.raises(NotPositiveDefinite, match=f"covariance {block + 3} is not positive"):
        pipe.decision_scores(trials)


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_scoring_takes_its_blocks_from_dataio(name, monkeypatch):
    # a patched block bound reaches scoring: the whole-or-blocked choice and
    # the walk over blocks are dataio's, not a copy of its bound
    train, labels, test = workload_split("eval-c8-grid")
    c, n, t = test.shape  # 100 trials of 8 x 256
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=4, classifier=FIXED))
    pipe.fit(train, labels)
    whole = pipe.decision_scores(test)
    seen = []

    def spy(self, trials):
        seen.append(trials.shape[2])
        return block_scores(self, trials)

    block_scores = pipelines._block_scores
    monkeypatch.setattr(pipelines, "_block_scores", spy)
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 3 * 8 * c * n)  # blocks of 3 trials
    scores = pipe.decision_scores(test)
    assert seen == [3] * (t // 3) + [t % 3]
    np.testing.assert_allclose(scores, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())
    # a bad trial of a later block is named by its index in the batch
    test = test.copy()
    test[:, :, 3 * 5 + 1] = 0.0
    with pytest.raises(NotPositiveDefinite, match="covariance 16 is not positive"):
        pipe.decision_scores(test)


def test_ts_airm_scores_a_long_batch_in_bounded_memory():
    # 200 trials of 64 x 256 (26 MiB), the length of perfbench's online
    # stream; scored in one piece they held 31 MiB of temporaries
    train, labels, test = workload_split("eval-c64-fixed")
    batch = np.concatenate([train, test, train], axis=2)[:, :, :200]
    spec = pipelines.PipelineSpec("TS_AIRM", k=6, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(train, labels)
    assert traced_peak(pipe.decision_scores, batch) <= 12 << 20


@pytest.mark.parametrize(
    "name, contiguous",
    [
        ("TS_AIRM", False),
        ("TSSF_Var_1_step", False),
        ("TSSF_LogCov_2_step", False),
        ("TSSF_LogCov_2_step", True),
    ],
)
def test_a_failing_batch_peaks_as_a_clean_one(name, contiguous):
    # a zero trial of a 200-trial batch (26 MiB) is named by its index in
    # the batch from its own block, each block scored once: the peak is the
    # clean batch's. Scoring the trials through its block again peaked at
    # 27.0 MiB for trial 150 in TS_AIRM and 21.9 MiB in the strided others
    train, labels, test = workload_split("eval-c64-fixed")

    def batch(bad=None):
        data = np.concatenate([train, test, train, test], axis=2)
        if bad is not None:
            data[:, :, bad] = 0.0
        strided = data[:, :, :200]
        assert not strided.flags.c_contiguous
        return np.ascontiguousarray(strided) if contiguous else strided

    spec = pipelines.PipelineSpec(name, k=6, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(train, labels)
    clean_peak = traced_peak(pipe.decision_scores, batch())
    for bad in (3, 150):
        trials = batch(bad)
        tracemalloc.start()
        try:
            with pytest.raises(NotPositiveDefinite, match=f" {bad} is not positive"):
                pipe.decision_scores(trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= clean_peak + (1 << 19), (bad, peak, clean_peak)


@pytest.mark.parametrize("name", ["TSSF_Var_1_step", "TSSF_Cov_2_step", "TSSF_LogCov_2_step"])
def test_a_contiguous_batch_is_filtered_whole_without_a_copy(name, monkeypatch):
    # 120 trials of 64 x 256 (15 MiB), C-contiguous: filtered through a
    # view of the whole tensor, not a copy of each strided trial block, which
    # peaked at 4.4 MiB; the 6 filtered rows of all 120 trials fit the block
    train, labels, test = workload_split("eval-c64-fixed")
    batch = np.ascontiguousarray(np.concatenate([test, train], axis=2)[:, :, :120])
    assert batch.nbytes > 3 * dataio._BLOCK_BYTES
    spec = pipelines.PipelineSpec(name, k=6, classifier=FIXED)
    pipe = pipelines.make_pipeline(spec).fit(train, labels)
    blocked = pipe.decision_scores(batch[:, :, ::-1])[::-1]  # strided: trial blocks
    seen = []

    def spy(self, trials):
        seen.append(trials.shape[2])
        return block_scores(self, trials)

    block_scores = pipelines._block_scores
    monkeypatch.setattr(pipelines, "_block_scores", spy)
    assert traced_peak(pipe.decision_scores, batch) <= dataio._BLOCK_BYTES
    assert seen == [120]
    scores = pipe.decision_scores(batch)
    np.testing.assert_allclose(scores, blocked, rtol=1e-12, atol=1e-12 * np.abs(blocked).max())


def test_a_strided_batch_is_not_copied_whole():
    # a basic slice along the trial axis is scored block by block like a
    # contiguous batch: copying it whole first peaked at 30 MiB, against 5
    train, labels, test = workload_split("eval-c64-fixed")
    data = np.concatenate([train, test, train, test], axis=2)
    strided = data[:, :, data.shape[2] - 200 :]
    assert not strided.flags.c_contiguous
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec("TS_AIRM", classifier=FIXED))
    pipe.fit(train, labels)
    contiguous = np.ascontiguousarray(strided)
    assert traced_peak(pipe.decision_scores, strided) <= 1.5 * traced_peak(
        pipe.decision_scores, contiguous
    )
    assert pipe.decision_scores(strided).tobytes() == pipe.decision_scores(contiguous).tobytes()


@pytest.mark.parametrize("name", pipelines.PIPELINE_NAMES)
def test_scoring_runs_no_input_check(name, monkeypatch):
    # the symmetry and SPD input checks belong to fitting and the public
    # matrix functions; scoring, which the online and batch benchmarks
    # time, names a bad trial from its own eigenvalues or variances
    train, labels, test = workload_split("eval-c64-fixed")
    pipe = pipelines.make_pipeline(pipelines.PipelineSpec(name, k=4, classifier=FIXED))
    pipe.fit(train, labels)
    data = np.concatenate([test, train], axis=2)
    batches = [np.ascontiguousarray(data[:, :, :t]) for t in (1, 10, 40)]
    batches.append(data[:, :, ::-1][:, :, :40])
    assert batches[2].nbytes > dataio._BLOCK_BYTES and not batches[3].flags.c_contiguous
    expected = [pipe.decision_scores(b) for b in batches]

    def refuse(*args, **kwargs):
        raise AssertionError("an input check ran while scoring")

    checks = (manifold._check_symmetric, manifold.ensure_spd)
    for module_name, module in list(sys.modules.items()):
        if module_name == "tssf" or module_name.startswith("tssf."):
            for attribute, value in list(vars(module).items()):
                if any(value is check for check in checks):
                    monkeypatch.setattr(module, attribute, refuse)
    with pytest.raises(AssertionError, match="input check"):
        pipe.fit(train, labels)  # the patch reaches the checks fitting runs
    for batch, want in zip(batches, expected):
        assert pipe.decision_scores(batch).tobytes() == want.tobytes()


def test_cold_cross_validate_holds_one_covariance_stack(monkeypatch):
    # covariances once per eval, each fold fitting on a slice of them: one
    # fold's copied C x N x T training trials alone were 12 MiB, and the
    # whole call peaked at 27.4 MiB when each pipeline rebuilt them
    workload = load_workloads().WORKLOADS["eval-c64-fixed"]
    ts = tssf.synth_generate(tssf.SynthConfig(seed=1, **workload.synth))
    ts = ts.subset(range(workload.eval_trials))
    args = dict(zip(workload.eval_args[::2], workload.eval_args[1::2]))
    classifier = tssf.ClassifierConfig(reg=float(args["--reg"]))
    factories = [
        lambda n=name: pipelines.make_pipeline(
            pipelines.PipelineSpec(n, k=int(args["--k"]), classifier=classifier)
        )
        for name in workload.eval_pipelines
    ]
    monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
    folds, seed = int(args["--folds"]), int(args["--seed"])
    assert traced_peak(evalstats.cross_validate, ts, factories, folds, seed) <= 24 << 20
