"""The benchmark's reference AUCs, checked for one seed on every test run.

``perfbench/reference.json`` holds, per workload and seed, the fold AUCs of
one ``tssf eval`` and the held-out AUCs of the online pipelines; the
benchmark counts every AUC that differs from it as a failed operation.
This module rebuilds the inputs of one seed as ``perfbench/worker.py``
does, so a change that moves a result shows here, not only in a benchmark
run. ``perfbench/workloads.py`` (standard library only) and the reference
file are loaded by path and only read.

The results are computed in one child process with single-threaded BLAS,
as the benchmark computes them; ``python tests/test_reference_results.py
SEED`` prints them as JSON.
"""

import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
SEED = 0
EVAL_WORKLOADS = ("eval-c8-grid", "eval-c64-fixed")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_count_auc(scores, labels):
    # ROC-AUC by counting pairs, as the benchmark does; ties count one half
    diff = scores[labels == 1][:, None] - scores[labels == -1][None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def results(seed):
    """Fold AUCs of one cold eval per workload, and the online held-out AUCs."""
    from tssf.cli import main
    from tssf.dataio import SynthConfig, synth_generate, write_trials
    from tssf.linmodel import ClassifierConfig
    from tssf.pipelines import PipelineSpec, make_pipeline

    workloads = load_workloads()
    fold_aucs = {}
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "eval.eegt"), os.path.join(tmp, "folds.csv")
        for name in EVAL_WORKLOADS:
            workload = workloads.WORKLOADS[name]
            trials = synth_generate(SynthConfig(seed=seed, **workload.synth))
            write_trials(trials.subset(range(workload.eval_trials)), data)
            argv = ["eval", "--data", data, "--out", out]
            for pipeline in workload.eval_pipelines:
                argv += ["--pipeline", pipeline]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + list(workload.eval_args))
            if code != 0:
                raise RuntimeError(f"tssf eval of {name} exited {code}")
            with open(out, encoding="utf-8", newline="") as fh:
                fold_aucs[name] = [float(row["auc"]) for row in csv.DictReader(fh)]

    online = workloads.ONLINE
    trials = synth_generate(SynthConfig(seed=seed, **online.synth))
    fit, stream = slice(0, online.fit_trials), slice(online.fit_trials, None)
    classifier = ClassifierConfig(reg=online.reg)
    heldout_auc = {}
    for name in workloads.ONLINE_PIPELINES:
        pipe = make_pipeline(PipelineSpec(name, k=online.k, classifier=classifier))
        pipe.fit(trials.data[:, :, fit], trials.labels[fit])
        scores = pipe.decision_scores(trials.data[:, :, stream])
        heldout_auc[name] = pair_count_auc(scores, trials.labels[stream])
    return {"fold_aucs": fold_aucs, "heldout_auc": heldout_auc}


@pytest.fixture(scope="module")
def computed():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(SEED)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", EVAL_WORKLOADS)
def test_fold_aucs_of_a_cold_eval(computed, reference, name):
    expected = reference[name][str(SEED)]["fold_aucs"]
    np.testing.assert_allclose(computed["fold_aucs"][name], expected, rtol=0, atol=1e-9)


def test_eval_workloads_are_the_benchmarks():
    assert set(EVAL_WORKLOADS) == set(load_workloads().WORKLOADS)


@pytest.mark.parametrize("name", EVAL_WORKLOADS)
def test_online_heldout_aucs(computed, reference, name):
    # the online stage is the same on every workload
    expected = reference[name][str(SEED)]["heldout_auc"]
    assert computed["heldout_auc"].keys() == expected.keys()
    for pipeline, auc in computed["heldout_auc"].items():
        assert auc == pytest.approx(expected[pipeline], rel=0, abs=1e-9), pipeline


if __name__ == "__main__":
    print(json.dumps(results(int(sys.argv[1]))))
