"""Regenerate ``reference.json``: fold and held-out AUCs per workload and seed.

    python3 perfbench/make_reference.py --seeds 0-29

Run it only on a commit whose results are known good; the benchmark
counts every AUC that differs from this file as a failed operation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-29", help="inclusive range a-b")
    args = ap.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    work_dir = os.path.join(run.ROOT, ".perfbench-work", "reference")
    os.makedirs(work_dir, exist_ok=True)
    for seed in range(first, last + 1):
        for name in workloads.WORKLOADS:
            cmd = [
                sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", name, "--seed", str(seed), "--seconds", "0",
                "--role", "reference", "--root", run.ROOT, "--work-dir", work_dir,
            ]
            out = subprocess.run(
                cmd, env=run.worker_env(), stdout=subprocess.PIPE, text=True, check=True
            ).stdout
            reference.setdefault(name, {})[str(seed)] = json.loads(out.splitlines()[-1])
            print(f"{name} seed {seed}", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
