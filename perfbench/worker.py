"""One benchmark process: set up a workload, then measure and check it.

Started by ``run.py`` with the BLAS thread variables already set, so the
thread pool is fixed before numpy loads.  It prints ``READY <monotonic
time>`` once its inputs are ready (the end of set-up) and, unless it is a
set-up-only process, one result JSON object as its last line.
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import resource
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (perfbench's own module; no numpy)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# --- environment -----------------------------------------------------------


def _openblas_libraries():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads():
    """``{library path: (threads, config string)}`` of every loaded OpenBLAS."""
    out = {}
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        for get_threads, get_config in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
            ("openblas_get_num_threads64_", "openblas_get_config64_"),
            ("openblas_get_num_threads", "openblas_get_config"),
        ):
            if hasattr(lib, get_threads):
                fn = getattr(lib, get_threads)
                fn.argtypes, fn.restype = [], ctypes.c_int
                config = ""
                if hasattr(lib, get_config):
                    cfg = getattr(lib, get_config)
                    cfg.argtypes, cfg.restype = [], ctypes.c_char_p
                    config = cfg().decode("ascii", "replace").strip()
                out[path] = (fn(), config)
                break
    return out


def check_environment(root):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    threads = blas_threads()
    if not threads:
        raise BenchError("no OpenBLAS library found; cannot verify single-threading")
    bad = {p: n for p, (n, _) in threads.items() if n != 1}
    if bad:
        raise BenchError(f"BLAS is not single-threaded: {bad}")
    import tssf

    src = os.path.join(root, "src")
    if not os.path.abspath(tssf.__file__).startswith(src + os.sep):
        raise BenchError(f"tssf imported from {tssf.__file__}, not from {src}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({cfg for _, cfg in threads.values()}),
        "blas_threads": 1,
        "nproc": os.cpu_count(),
    }


# --- set-up ----------------------------------------------------------------


class Setup:
    """Synthesized trials, the eval EEGT file and the fitted online pipelines."""

    def __init__(self, workload, seed, work_dir):
        import numpy as np
        from tssf.dataio import SynthConfig, synth_generate, write_trials
        from tssf.linmodel import ClassifierConfig
        from tssf.pipelines import PipelineSpec, make_pipeline

        self.workload = workload
        trials = synth_generate(SynthConfig(seed=seed, **workload.synth))
        self.eval_path = os.path.join(work_dir, "eval.eegt")
        write_trials(trials.subset(range(workload.eval_trials)), self.eval_path)
        online = workload.online
        trials = synth_generate(SynthConfig(seed=seed, **online.synth))
        fit = slice(0, online.fit_trials)
        classifier = ClassifierConfig(reg=online.reg)
        self.pipelines = {}
        for name in workloads.ONLINE_PIPELINES:
            spec = PipelineSpec(name, k=online.k, classifier=classifier)
            self.pipelines[name] = make_pipeline(spec).fit(
                trials.data[:, :, fit], trials.labels[fit]
            )
        self.stream = np.ascontiguousarray(trials.data[:, :, online.fit_trials :])
        self.stream_labels = trials.labels[online.fit_trials :].astype(int)
        self.single = [
            np.ascontiguousarray(self.stream[:, :, t : t + 1]) for t in range(self.stream.shape[2])
        ]
        b = workloads.BATCH_TRIALS
        self.batches = [
            np.ascontiguousarray(self.stream[:, :, t : t + b]) for t in range(0, self.stream.shape[2], b)
        ]
        self.csv_path = os.path.join(work_dir, "folds.csv")


# --- checks ----------------------------------------------------------------


PLAIN_FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def strict_float(cell):
    """True when ``cell`` is a plain float literal, as the CSV schema requires."""
    return PLAIN_FLOAT.fullmatch(cell) is not None


def lenient_float(cell):
    """The number in a cell, also when written as ``np.float64(x)``."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64(") : -1]
    return float(cell)


def parse_fold_csv(text):
    """``(rows, bad_rows)``: rows as (pipeline, session, fold, auc or None).

    ``rows`` is None when the header is not the documented one.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "pipeline,k,feature_kind,session,fold,auc":
        return None, len(lines)
    rows, bad = [], 0
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6:
            bad += 1
            rows.append((None, None, None, None))
            continue
        if not strict_float(cells[5]):
            bad += 1
        try:
            auc = lenient_float(cells[5])
        except ValueError:
            auc = None
        rows.append((cells[0], cells[3], cells[4], auc))
    return rows, bad


def mann_whitney_auc(scores, labels):
    """ROC-AUC by explicit pair counting, independent of the program's roc_auc."""
    import numpy as np

    pos, neg = scores[labels == 1], scores[labels == -1]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def same_auc(a, b):
    return a is not None and math.isfinite(a) and abs(a - b) <= 1e-9


# --- one measured round ------------------------------------------------------


class Round:
    """Counts, checks and timings of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.eval_wall_s = []
        self.csv_text, self.fold_aucs, self.csv_bad_rows = "", [], 0
        self.online_ns = {}  # pipeline -> list of per-pass latency arrays
        self.batch_us = {}  # pipeline -> per-slice median per trial
        self.heldout_auc = {}
        self.checks = {"fold_rows": 0, "fold_vs_reference": 0, "single_vs_batch": 0,
                       "heldout_vs_reference": 0}

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def run_eval(setup, reference, rnd):
    from tssf import cli

    w = setup.workload
    argv = ["eval", "--data", setup.eval_path, "--out", setup.csv_path]
    for name in w.eval_pipelines:
        argv += ["--pipeline", name]
    argv += list(w.eval_args)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tic = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # any crash of the program is a failed op
            code = f"{type(exc).__name__}: {exc}"
        rnd.eval_wall_s.append(time.perf_counter() - tic)
    folds = int(w.eval_args[w.eval_args.index("--folds") + 1])
    sessions = w.synth.get("sessions", 1)
    expected = len(w.eval_pipelines) * folds * sessions
    rnd.attempted += expected
    if code != 0:
        rnd.fail(expected, f"tssf eval returned {code}")
        return
    with open(setup.csv_path, encoding="utf-8") as fh:
        text = fh.read()
    if rnd.csv_text and text != rnd.csv_text:
        rnd.fail(expected, "fold CSV differs between evals of one seed")
        return
    rnd.csv_text = text
    rows, rnd.csv_bad_rows = parse_fold_csv(text)
    if rows is None or len(rows) != expected:
        rnd.fail(expected, f"fold CSV has a bad header or not {expected} rows")
        return
    rnd.fold_aucs = [auc for *_, auc in rows]
    ref = reference.get("fold_aucs") if reference else None
    if ref is not None and len(ref) != expected:
        raise BenchError("reference.json does not match the workload definition")
    for i, (pipeline, session, fold, auc) in enumerate(rows):
        rnd.checks["fold_rows"] += 1
        rnd.checks["fold_vs_reference"] += ref is not None
        if auc is None or not math.isfinite(auc) or not 0.0 <= auc <= 1.0:
            rnd.fail(1, f"fold row {i}: AUC {auc!r}")
        elif ref is not None and not same_auc(auc, ref[i]):
            rnd.fail(1, f"{pipeline} session {session} fold {fold}: AUC {auc} != reference {ref[i]}")


def allowed_cores():
    """The CPUs this process may run on, or None where that is not known."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def pin_to(cores, p):
    """Pin the process to core ``p`` of ``cores`` (in turn), or unpin it for None."""
    if not cores or len(cores) < 2:
        return
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cores if p is None else {cores[p % len(cores)]})


def timed_pass(setup, rnd, name):
    """One warmed pass of T=1 calls over every stream trial: (latency ns, scores).

    A call that raised leaves NaN as its score, so ``check_scores`` counts it.
    """
    import numpy as np

    pipe = setup.pipelines[name]
    n = len(setup.single)
    with contextlib.suppress(Exception):  # the timed calls count failures
        for t in range(min(workloads.WARMUP_CALLS, n)):
            pipe.decision_scores(setup.single[t])
    lat = np.empty(n, dtype=np.int64)
    scores = np.full(n, np.nan)
    clock = time.perf_counter_ns
    for t in range(n):
        x = setup.single[t]
        tic = clock()
        try:
            s = pipe.decision_scores(x)
        except Exception as exc:  # counted as failed in check_scores
            s = None
            if len(rnd.problems) < 20:
                rnd.problems.append(f"{name} trial {t}: {type(exc).__name__}: {exc}")
        lat[t] = clock() - tic
        if s is not None:
            s = np.asarray(s, dtype=float)
            if s.shape == (1,):
                scores[t] = s[0]
    rnd.attempted += n
    return lat, scores


def batch_slice(setup, rnd, name):
    """One ``bench_predict`` sweep over the pipeline's next block of stream trials."""
    from tssf.evalstats import bench_predict

    done = len(rnd.batch_us.get(name, ()))
    rnd.attempted += 1
    try:
        with warnings.catch_warnings():  # few repetitions, many slices
            warnings.simplefilter("ignore", UserWarning)
            row = bench_predict(
                {name: setup.pipelines[name]},
                setup.batches[done % len(setup.batches)],
                repetitions=workloads.BATCH_REPETITIONS,
            )
        rnd.batch_us.setdefault(name, []).append(row[0].median_per_trial_s * 1e6)
    except Exception as exc:  # a failed sweep is a failed op
        rnd.fail(1, f"{name} batch: {type(exc).__name__}: {exc}")


def run_phase(setup, reference, rnd, min_calls, online_s, batch_s):
    """One online phase, then its output checks.

    Single-trial (T=1) calls run in a closed loop with one client.  The
    pipelines take turns; a turn is one or more passes, each a warmed pass
    over every stream trial.  In a timed phase (``online_s`` > 0) a turn
    lasts at least ``TURN_SECONDS``, so every pipeline is sampled for about
    as long as the others however fast its calls are; otherwise a turn is
    one pass and the call counts repeat exactly.  After each set of turns, a
    pipeline whose batch time is behind its share of ``batch_s`` gets
    ``batch_slice`` sweeps until it is not.  So single-trial and batch
    samples both spread over the whole phase instead of one stretch of it.
    Each set of turns runs pinned to the next of the process's cores, so
    that one core slowed by its neighbours does not slow every sample of a
    run.  Sets go on until every pipeline has ``min_calls`` calls and the
    phase has lasted ``online_s``.  Every pipeline gets at least one slice.
    """
    import numpy as np

    names = list(setup.pipelines)
    turn_s = workloads.TURN_SECONDS if online_s > 0 else 0.0
    lat = {name: [] for name in names}
    scores = {name: [] for name in names}
    batch_spent = dict.fromkeys(names, 0.0)
    cores = allowed_cores()
    start = time.perf_counter()
    p = 0
    try:
        while True:
            pin_to(cores, p)
            for name in names[p % len(names) :] + names[: p % len(names)]:
                turn_start = time.perf_counter()
                while True:
                    block_lat, block_scores = timed_pass(setup, rnd, name)
                    lat[name].append(block_lat)
                    scores[name].append(block_scores)
                    if time.perf_counter() - turn_start >= turn_s:
                        break
            p += 1
            elapsed = time.perf_counter() - start
            last = p * len(setup.single) >= min_calls and elapsed >= online_s
            share = batch_s * (1.0 if last or online_s <= 0 else min(1.0, elapsed / online_s))
            for name in names:
                while batch_spent[name] < share or (last and batch_spent[name] == 0.0):
                    tic = time.perf_counter()
                    batch_slice(setup, rnd, name)
                    batch_spent[name] += time.perf_counter() - tic
            if last:
                break
    finally:
        pin_to(cores, None)
    for name in names:
        rnd.online_ns.setdefault(name, []).extend(lat[name])
        check_scores(setup, reference, rnd, name, np.stack(scores[name]))


def check_scores(setup, reference, rnd, name, single):
    """Every single-trial score must equal the batch score of its trial.

    A call that raised left NaN in its slot of ``single``, so it fails here,
    once, with the calls whose score is wrong or non-finite.  The batch
    scores also give the held-out AUC, checked against the reference.
    """
    import numpy as np

    rnd.attempted += 1  # the batch scores and their held-out AUC
    try:
        batch = np.asarray(setup.pipelines[name].decision_scores(setup.stream), dtype=float)
    except Exception as exc:  # a failed sweep is a failed op
        rnd.fail(1, f"{name} batch scores: {type(exc).__name__}: {exc}")
        batch = np.full(len(setup.single), np.nan)
        swept = False
    else:
        swept = True
    tol = 1e-9 * np.maximum(1.0, np.abs(batch))
    ok = np.isfinite(single) & np.isfinite(batch) & (np.abs(single - batch) <= tol)
    rnd.checks["single_vs_batch"] += ok.size
    if not ok.all():
        rnd.fail(int((~ok).sum()), f"{name}: {int((~ok).sum())} single-trial scores differ from batch")
    finite = bool(np.isfinite(batch).all())
    auc = mann_whitney_auc(batch, setup.stream_labels) if finite else float("nan")
    rnd.heldout_auc.setdefault(name, auc)
    ref = reference.get("heldout_auc") if reference else None
    rnd.checks["heldout_vs_reference"] += ref is not None
    if swept and not finite:
        rnd.fail(1, f"{name}: non-finite batch scores")
    elif ref is not None and finite and not same_auc(auc, ref[name]):
        rnd.fail(1, f"{name}: held-out AUC {auc} != reference {ref[name]}")


def run_round(setup, reference, min_calls, online_s=0.0, batch_s=0.0):
    """Online phases alternating with evals (online, eval, online, ...).

    The machine's speed changes on a scale of seconds, so spreading the
    online samples and the evals over the round averages more of those
    changes than one stretch of each would.  Each eval runs pinned to the
    next core, so the evals of a run do not all wait on the same neighbours.
    """
    rnd = Round()
    tic = time.perf_counter()
    phases = workloads.EVALS_PER_ROUND + 1
    cores = allowed_cores()
    for phase in range(phases):
        if phase:
            pin_to(cores, phase)
            try:
                run_eval(setup, reference, rnd)
            finally:
                pin_to(cores, None)
        run_phase(setup, reference, rnd, -(-min_calls // phases), online_s / phases, batch_s / phases)
    rnd.wall_s = time.perf_counter() - tic
    return rnd


# --- metrics -----------------------------------------------------------------


def end_to_end(workload, rounds):
    import numpy as np

    first = rounds[0]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    aucs = [a for a in first.fold_aucs if a is not None]
    auc_mean = float(np.mean(aucs)) if aucs else float("nan")
    m = {
        "auc_mean": (auc_mean, "1"),
        "success_ratio": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    low = workloads.PASS_PERCENTILE
    p99 = {}  # printed, not gated: run-to-run spread exceeds any allowed bound
    for name in workloads.ONLINE_PIPELINES:
        passes = [a for r in rounds for a in r.online_ns[name]]
        chunk_p50_us = [
            np.percentile(c, 50) / 1e3
            for a in passes
            for c in np.array_split(a, max(1, a.size // workloads.CHUNK_CALLS))
        ]
        m[f"online_p50_us.{name}"] = (float(np.percentile(chunk_p50_us, low)), "us")
        p99[f"online_p99_us.{name}"] = float(np.percentile(np.concatenate(passes), 99) / 1e3)
        batch = [b for r in rounds for b in r.batch_us.get(name, [float("nan")])]
        m[f"batch_us_per_trial.{name}"] = (float(np.percentile(batch, low)), "us")
    info = {
        # printed, not gated: a ~10 s eval cannot read the fast state alone, and
        # the host's slow spells of minutes move it by up to 1.45x between runs.
        # Slowdowns only add time, so the fastest eval is the steadiest reading.
        "eval_wall_s": min(t for r in rounds for t in r.eval_wall_s),
        "eval_wall_samples_s": [t for r in rounds for t in r.eval_wall_s],
        "rounds": len(rounds),
        "online_calls": {
            name: int(sum(a.size for r in rounds for a in r.online_ns[name]))
            for name in workloads.ONLINE_PIPELINES
        },
        "fail_ratio": failed / attempted,
        "csv_bad_rows": first.csv_bad_rows,
        "csv_rows": len(first.fold_aucs),
        "onestep_speedup_x": m["online_p50_us.TS_AIRM"][0] / m["online_p50_us.TSSF_Var_1_step"][0],
        **p99,
        "heldout_auc": first.heldout_auc,
        "checks": {k: sum(r.checks[k] for r in rounds) for k in first.checks},
        "problems": [p for r in rounds for p in r.problems][:20],
    }
    return attempted, failed, m, info


def per_layer(tracer, traced, untraced):
    from tracer import REPORTED, UNITS

    stats = tracer.stats()
    m = {}
    for span, wanted in REPORTED.items():
        entry = stats.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in wanted:
            m[f"{span}.{stat}"] = (entry[stat], UNITS[stat])
    m["trace_overhead_ratio"] = (traced.wall_s / untraced.wall_s, "1")
    return m


def check_determinism(rounds):
    """Rounds of one process must write byte-identical fold CSVs."""
    for r in rounds[1:]:
        if r.csv_text != rounds[0].csv_text:
            r.fail(len(r.fold_aucs), "fold CSV differs between rounds of one seed")


def load_reference(workload_name, seed):
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload_name, {}).get(str(seed))


def measure(args, workload, setup):
    """The rounds of a measuring worker, as one result dict."""
    reference = None if args.tiny else load_reference(workload.name, args.seed)
    result = {"reference": reference is not None}
    if args.trace:
        from tracer import Tracer

        # count-based rounds, so that call counts repeat exactly
        rounds = [run_round(setup, reference, workloads.MIN_ONLINE_CALLS)]
        tracer = Tracer()
        with tracer:
            traced = run_round(setup, reference, workloads.MIN_ONLINE_CALLS)
        trace_path = os.path.join(args.work_dir, f"trace-{workload.name}-{args.seed}.json")
        tracer.write(trace_path)
        result["trace_file"] = trace_path
        result["per_layer"] = per_layer(tracer, traced, rounds[0])
        rounds.append(traced)
    else:
        scale = 0.05 if args.tiny else 1.0

        def measured_round():
            return run_round(
                setup,
                reference,
                workloads.MIN_ONLINE_CALLS,
                scale * workloads.ONLINE_SECONDS,
                scale * workloads.BATCH_SECONDS,
            )

        start = time.perf_counter()
        rounds = [measured_round()]
        # only whole rounds that fit in --seconds, so a run's round count
        # does not flip between runs of the same code
        longest = rounds[0].wall_s
        while time.perf_counter() - start + longest <= args.seconds:
            rounds.append(measured_round())
            longest = max(longest, rounds[-1].wall_s)
    check_determinism(rounds)
    attempted, failed, metrics, info = end_to_end(workload, rounds)
    result.update(attempted=attempted, failed=failed, end_to_end=metrics, info=info)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure", "reference"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    try:
        env = check_environment(args.root)
        setup = Setup(workload, args.seed, args.work_dir)
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.role == "setup":
            return 0
        if args.role == "reference":
            rnd = run_round(setup, None, 1)
            result = {"fold_aucs": rnd.fold_aucs, "heldout_auc": rnd.heldout_auc}
        else:
            result = dict(measure(args, workload, setup), env=env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
