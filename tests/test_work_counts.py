"""Work counts of the benchmark's evals, as a committed record.

One in-process ``tssf eval`` per workload of ``perfbench/workloads.py``
(loaded by path and only read) at seed 1, counted by wrapping private
functions with ``monkeypatch``:

* ``eigh_calls`` and ``eigh_c3t``: calls of ``np.linalg.eigh`` and the sum
  over them of T * C**3, for a stack of T matrices of size C x C;
* ``svm_solves`` and ``svm_updates``: calls of ``linmodel._solve_svm_dual``
  and the pair updates its ``SvmFitInfo`` reports;
* ``covariances_built``: trials through ``_covariance_stack``;
* ``frechet_means`` and ``frechet_sweeps``: calls of
  ``manifold._frechet_mean_and_logs`` and of the public ``manifold.logm``,
  which only its sweeps call.

Unlike wall times, these counts do not depend on the host. A change that
moves one on purpose rewrites ``work_counts.json``
(``python tests/test_work_counts.py > tests/work_counts.json``) and states
old -> new.
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
RECORD = os.path.join(HERE, "work_counts.json")
SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_eval(workload, path):
    """Counts of one ``tssf eval`` of ``workload``, its data written to ``path``."""
    from tssf import dataio, linmodel, manifold, pipelines
    from tssf import tssf as tssf_module
    from tssf.cli import main
    from tssf.dataio import SynthConfig, synth_generate, write_trials

    trials = synth_generate(SynthConfig(seed=SEED, **workload.synth))
    write_trials(trials.subset(range(workload.eval_trials)), path)
    counts = dict.fromkeys(
        (
            "eigh_calls",
            "eigh_c3t",
            "svm_solves",
            "svm_updates",
            "covariances_built",
            "frechet_means",
            "frechet_sweeps",
        ),
        0,
    )
    eigh, solve, stack = np.linalg.eigh, linmodel._solve_svm_dual, dataio._covariance_stack
    mean_and_logs, logm = manifold._frechet_mean_and_logs, manifold.logm

    def counted_eigh(a, *args, **kwargs):
        counts["eigh_calls"] += 1
        counts["eigh_c3t"] += math.prod(np.shape(a)[:-2]) * np.shape(a)[-1] ** 3
        return eigh(a, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        w, b, info = solve(*args, **kwargs)
        counts["svm_solves"] += 1
        counts["svm_updates"] += info.iterations
        return w, b, info

    def counted_stack(data):
        counts["covariances_built"] += data.shape[2]
        return stack(data)

    def counted_mean(points):
        counts["frechet_means"] += 1
        return mean_and_logs(points)

    def counted_logm(a):
        counts["frechet_sweeps"] += 1
        return logm(a)

    argv = ["eval", "--data", path, "--out", path + ".csv"]
    for pipeline in workload.eval_pipelines:
        argv += ["--pipeline", pipeline]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(np.linalg, "eigh", counted_eigh)
        mp.setattr(linmodel, "_solve_svm_dual", counted_solve)
        for module in (dataio, pipelines):
            mp.setattr(module, "_covariance_stack", counted_stack)
        for module in (manifold, tssf_module):
            mp.setattr(module, "_frechet_mean_and_logs", counted_mean)
        mp.setattr(manifold, "logm", counted_logm)
        mp.setattr(tssf_module, "_last_fit", (None, None))  # a cold eval
        code = main(argv + list(workload.eval_args))
    assert code == 0, f"tssf eval of {workload.name} exited {code}"
    return counts


def all_counts():
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        return {
            name: count_eval(workload, os.path.join(tmp, f"{name}.eegt"))
            for name, workload in workloads.WORKLOADS.items()
        }


def assert_counts_match(counts, record):
    changed = [
        f"{name}.{key}: {record.get(name, {}).get(key)} -> {value}"
        for name, got in counts.items()
        for key, value in got.items()
        if record.get(name, {}).get(key) != value
    ]
    assert counts.keys() == record.keys() and not changed, changed


@pytest.fixture(scope="module")
def counts():
    return all_counts()


@pytest.fixture(scope="module")
def record():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_work_counts_equal_the_record(counts, record):
    assert_counts_match(counts, record)


def test_one_more_smo_update_fails_the_check(counts):
    # the check sees a change of one in any count
    record = copy.deepcopy(counts)
    record["eval-c8-grid"]["svm_updates"] += 1
    with pytest.raises(AssertionError, match=r"eval-c8-grid\.svm_updates"):
        assert_counts_match(counts, record)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    print(json.dumps(all_counts(), indent=1))
