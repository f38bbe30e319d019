"""The benchmark's tracer wraps tssf functions by name; keep those names alive."""

import importlib
import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    # loaded by path and only read: it imports the standard library alone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_tracer()


def test_every_traced_function_resolves(tracer):
    missing = [
        f"{module_name}.{attribute}"
        for _, module_name, attribute in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(module_name), attribute, None))
    ]
    assert missing == []


def test_every_traced_pipeline_class_binds_its_methods(tracer):
    from tssf import pipelines

    for cls_name in tracer.PIPELINE_CLASSES:
        cls = getattr(pipelines, cls_name)
        for method in tracer.PIPELINE_METHODS:
            assert method in cls.__dict__, f"{cls_name}.{method}"


@pytest.mark.parametrize(
    "module_name", ["tssf.manifold", "tssf.pipelines", "tssf.tssf", "tssf.csp"]
)
def test_frechet_mean_stays_bound(module_name):
    # the benchmark self-test checks that the tracer wraps frechet_mean in
    # each of these modules, so each must keep the name bound
    from tssf.manifold import frechet_mean

    module = importlib.import_module(module_name)
    assert getattr(module, "frechet_mean", None) is frechet_mean


def test_install_wraps_every_binding_and_uninstall_restores_it(tracer):
    # perfbench's own self-test checks this too, but outside the test suite
    import tssf
    from tssf import pipelines
    from tssf.manifold import frechet_mean

    def bindings():
        owners = [m for n, m in list(sys.modules.items()) if n == "tssf" or n.startswith("tssf.")]
        owners += [getattr(pipelines, name) for name in tracer.PIPELINE_CLASSES]
        return {(owner, name): value for owner in owners for name, value in vars(owner).items()}

    ts = tssf.synth_generate(tssf.SynthConfig(channels=5, samples=64, trials_per_class=10, seed=2))
    before = bindings()
    traced = tracer.Tracer()
    with traced:
        wrapped = {
            key: value
            for key, value in bindings().items()
            if hasattr(value, "__perfbench_original__")
        }
        for name in ("TSSF_LogCov_2_step", "TS_AIRM", "CSP"):
            spec = pipelines.PipelineSpec(name, k=2, classifier=tssf.ClassifierConfig(reg=1.0))
            pipelines.make_pipeline(spec).fit(ts.data, ts.labels)
    after = bindings()
    binders = [key for key, value in before.items() if value is frechet_mean]
    assert len(binders) >= 4 and all(key in wrapped for key in binders)
    # every filter source is seen: the two tangent banks and CSP's
    expected = {"pipelines.fit": 3, "tssf.extract_tssf": 2, "csp.fit_csp": 1}
    stats = traced.stats()
    assert {name: stats[name]["calls"] for name in expected} == expected
    assert tracer.leftover_wrappers() == []
    assert all(
        after[key] is before[key] is value.__perfbench_original__ for key, value in wrapped.items()
    )
