"""Span tracing of tssf's public layer functions, from outside the program.

``Tracer.install()`` replaces each listed function with a timing wrapper in
every loaded ``tssf`` module that binds it (``pipelines``, ``tssf`` and
``csp`` import ``frechet_mean``, ``ged`` and friends by name, so patching
only the defining module would miss most calls), and on the pipeline
classes for ``fit`` / ``decision_scores``.  ``uninstall()`` puts every
original back.  Spans stay in memory as ``(name, start_ns, end_ns,
parent)`` until ``write``.
"""

import functools
import importlib
import json
import sys
import time

# (metric module name, importable module, attribute)
FUNCTIONS = (
    ("dataio", "tssf.dataio", "empirical_covariance"),
    ("dataio", "tssf.dataio", "read_trials"),
    ("manifold", "tssf.manifold", "frechet_mean"),
    ("manifold", "tssf.manifold", "logm"),
    ("manifold", "tssf.manifold", "ged"),
    ("linmodel", "tssf.linmodel", "grid_search_cv"),
    ("linmodel", "tssf.linmodel", "fit_linear_svm"),
    ("tssf", "tssf.tssf", "extract_tssf"),
    ("csp", "tssf.csp", "fit_csp"),
    ("evalstats", "tssf.evalstats", "kfold_cv"),
    ("evalstats", "tssf.evalstats", "roc_auc"),
    ("evalstats", "tssf.evalstats", "compare_paired"),
    ("evalstats", "tssf.evalstats", "bench_predict"),
    ("cli", "tssf.cli", "main"),
)
PIPELINE_CLASSES = ("CspPipeline", "TssfPipeline", "TangentSpacePipeline")
PIPELINE_METHODS = ("fit", "decision_scores")

# the per-layer metrics the benchmark reports: span name -> stats
REPORTED = {
    "dataio.empirical_covariance": ("calls", "self_s"),
    "dataio.read_trials": ("total_s",),
    "manifold.frechet_mean": ("calls", "total_s", "self_s"),
    "manifold.logm": ("calls", "self_s"),
    "manifold.ged": ("calls", "self_s"),
    "linmodel.grid_search_cv": ("calls", "self_s"),
    "linmodel.fit_linear_svm": ("calls", "self_s"),
    "tssf.extract_tssf": ("calls", "total_s", "self_s"),
    "csp.fit_csp": ("calls", "self_s"),
    "pipelines.fit": ("calls", "self_s"),
    "pipelines.decision_scores": ("calls", "self_s"),
    "evalstats.kfold_cv": ("calls", "self_s"),
    "evalstats.roc_auc": ("calls", "self_s"),
    "evalstats.compare_paired": ("total_s",),
    "evalstats.bench_predict": ("total_s",),
    "cli.main": ("total_s", "self_s"),
}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__perfbench_original__ = fn
        return traced

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, module_name, _ in FUNCTIONS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "tssf" or n.startswith("tssf.")]
        for layer, module_name, attribute in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(f"{layer}.{attribute}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        pipelines = sys.modules["tssf.pipelines"]
        for cls_name in PIPELINE_CLASSES:
            cls = getattr(pipelines, cls_name)
            for method in PIPELINE_METHODS:
                self._patch(cls, method, self._wrap(f"pipelines.{method}", cls.__dict__[method]))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self):
        """``{span name: {"calls", "total_s", "self_s"}}`` over finished spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - inner) / 1e9
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def leftover_wrappers():
    """Names of tssf module or class attributes that are still wrappers."""
    found = []
    owners = [m for n, m in list(sys.modules.items()) if n == "tssf" or n.startswith("tssf.")]
    pipelines = sys.modules.get("tssf.pipelines")
    if pipelines is not None:
        owners += [getattr(pipelines, c) for c in PIPELINE_CLASSES]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
