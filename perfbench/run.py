"""tssf benchmark: one workload, one seed, every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval-c8-grid --seed 1 --seconds 40 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  Each run starts
fresh worker processes with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to 1 before numpy loads; the worker reads the
effective OpenBLAS thread count through ctypes and refuses to report
unless it is 1.  ``setup_s`` is the median over ``SETUP_SAMPLES`` fresh
processes of the time from process start until the inputs are ready.

With ``--trace 0`` the measuring worker runs the rounds (online phases
alternating with two evals) that fit in ``--seconds``, at least one, and
the last output line carries the end-to-end metrics; with ``--trace 1`` it
runs one plain round and one traced round and reports the per-layer
metrics, with the spans written to
``.perfbench-work/trace-<workload>-<seed>.json``.  Informational lines
before it give the environment and a table of every metric, followed by
the ones that are printed but not gated: ``eval_wall_s``, ``fail_ratio``,
``csv_bad_rows``, ``onestep_speedup_x`` and ``online_p99_us.<pipeline>``.  The program is
taken from ``src/`` of the checkout; scratch files go to
``.perfbench-work/``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, role, work_dir, deadline):
    """Start a worker; return (setup seconds, its last output line or None)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
        "--root", ROOT,
        "--work-dir", work_dir,
    ] + (["--tiny"] if args.tiny else [])
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {role} worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if len(ready) != 1:
        raise SystemExit(f"error: {role} worker did not report readiness")
    return ready[0] - start, (lines[-1] if role == "measure" else None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-test")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "tssf", "__init__.py")):
        print(f"error: no tssf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench-work")
    work_dir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        samples = 1 if args.trace else SETUP_SAMPLES
        setups = [run_worker(args, "setup", work_dir, deadline)[0] for _ in range(samples - 1)]
        setup_s, line = run_worker(args, "measure", work_dir, deadline)
        setups.append(setup_s)
        result = json.loads(line)
        if args.trace:  # keep the spans of the latest traced run per workload and seed
            kept = os.path.join(scratch, os.path.basename(result["trace_file"]))
            os.replace(result["trace_file"], kept)
            result["trace_file"] = kept
    finally:
        shutil.rmtree(work_dir)

    metrics = result["end_to_end"]
    metrics["setup_s"] = (statistics.median(setups), "s")
    if args.trace:
        metrics = result["per_layer"]
    info = dict(result["info"], setup_samples_s=setups, reference_checked=result["reference"])
    if args.trace:
        info["trace_file"] = result["trace_file"]
    print("env " + json.dumps(result["env"]))
    print("info " + json.dumps(info))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:44s} {value:16.6g} {unit}")
    ungated = {"eval_wall_s": "s", "fail_ratio": "1", "csv_bad_rows": "count",
               "onestep_speedup_x": "x"}
    ungated.update({k: "us" for k in info if k.startswith("online_p99_us.")})
    for name, unit in ungated.items():
        print(f"{name:44s} {info[name]:16.6g} {unit}  (not gated)")
    # a metric a failure left undefined (NaN) is reported as null
    values = {k: v if math.isfinite(v) else None for k, (v, _) in metrics.items()}
    correct = result["failed"] == 0 and None not in values.values()
    out = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, (_, u) in metrics.items()},
    }
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
