"""Self-test of the benchmark, on shrunken inputs (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit, in plain and traced runs; that the output checks run and
catch injected faults; that the tracer reaches every module binding a
wrapped function and leaves no wrapper behind; and that the benchmark
refuses to run where the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

for _var in run.THREAD_VARS:  # before numpy loads in this process
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(run.ROOT, "src"))


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
        {w["name"] for w in doc["workloads"]},
    )


def bench(*args, cwd=run.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def check_metrics():
    e2e, layers, names = declared()
    assert names == set(workloads.WORKLOADS), names
    for name in sorted(names):
        for trace, wanted in ((0, e2e), (1, layers)):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (name, trace, set(got) ^ set(wanted))
            for key, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), (key, value)
            info = json.loads(next(l for l in proc.stdout.splitlines() if l.startswith("info "))[5:])
            assert info["checks"]["fold_rows"] > 0 and info["checks"]["single_vs_batch"] > 0, info
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, checks {info['checks']}")


def check_faults_are_counted():
    import numpy as np

    import worker

    work_dir = os.path.join(run.ROOT, ".perfbench-work", "selftest")
    os.makedirs(work_dir, exist_ok=True)
    setup = worker.Setup(workloads.tiny(workloads.WORKLOADS["eval-c64-fixed"]), 3, work_dir)
    clean = worker.run_round(setup, None, 10)
    assert clean.failed == 0, clean.problems
    n_folds = len(clean.fold_aucs)

    wrong = {"fold_aucs": [a + 0.01 for a in clean.fold_aucs],
             "heldout_auc": {k: v + 0.01 for k, v in clean.heldout_auc.items()}}
    rnd = worker.run_round(setup, wrong, 10)
    # a round checks fold AUCs after each eval and held-out AUCs after each
    # online phase
    evals, phases = workloads.EVALS_PER_ROUND, workloads.EVALS_PER_ROUND + 1
    assert rnd.failed == evals * n_folds + phases * len(clean.heldout_auc), (rnd.failed, rnd.problems)

    pipe = setup.pipelines["TS_AIRM"]
    honest = pipe.decision_scores
    pipe.decision_scores = lambda x: honest(x) + (1e-3 if x.shape[2] == 1 else 0.0)
    rnd = worker.run_round(setup, None, 10)
    n_stream = len(setup.single)  # 10 calls: one pass per phase
    assert rnd.failed == phases * n_stream, (rnd.failed, rnd.problems)
    pipe.decision_scores = lambda x: np.full(x.shape[2], np.nan)
    rnd = worker.run_round(setup, None, 10)
    # per phase: every call, the bench_predict slice (it refuses NaN as
    # nondeterministic) and the non-finite batch scores
    assert rnd.failed == phases * (n_stream + 2), (rnd.failed, rnd.problems)
    del pipe.decision_scores
    shutil.rmtree(work_dir)
    print("ok  reference mismatches, single/batch mismatches and NaN scores are counted")


def check_tracer():
    import numpy as np
    import tssf.csp
    import tssf.manifold
    import tssf.pipelines
    import tssf.tssf
    from tracer import Tracer, leftover_wrappers

    before = dict(vars(tssf.pipelines))
    originals = (tssf.manifold.frechet_mean, tssf.pipelines.TssfPipeline.fit)
    tracer = Tracer()
    with tracer:
        for module in (tssf.manifold, tssf.pipelines, tssf.tssf, tssf.csp):
            assert hasattr(module.frechet_mean, "__perfbench_original__"), module
        assert hasattr(tssf.pipelines.TssfPipeline.fit, "__perfbench_original__")
        assert leftover_wrappers()
        tssf.manifold.frechet_mean(np.stack([np.eye(3), 2 * np.eye(3)]))
    assert leftover_wrappers() == [], leftover_wrappers()
    assert (tssf.manifold.frechet_mean, tssf.pipelines.TssfPipeline.fit) == originals
    assert dict(vars(tssf.pipelines)) == before
    stats = tracer.stats()
    assert stats["manifold.frechet_mean"]["calls"] == 1
    assert stats["manifold.logm"]["calls"] >= 2
    fm = stats["manifold.frechet_mean"]
    assert 0 <= fm["self_s"] <= fm["total_s"]
    print("ok  tracer wraps every binding module and restores every original")


def check_refuses_without_sources():
    bare = os.path.join(run.ROOT, ".perfbench-work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "eval-c64-fixed", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without the program's sources")


if __name__ == "__main__":
    check_refuses_without_sources()
    check_tracer()
    check_faults_are_counted()
    check_metrics()
    print("selftest passed")
