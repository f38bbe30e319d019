"""The benchmark's tracer wraps tssf functions by name; keep those names alive."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    # loaded by path and only read: it imports the standard library alone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
