"""Workload definitions of the tssf benchmark.

Every workload is a synthetic configuration drawn from the seed the
benchmark is given.  All workloads run the same round, so every end-to-end
metric is measured on every workload.  A round alternates online phases
and evals: online, eval, online, eval, online.

* online phase: single-trial (T=1) ``decision_scores`` calls in a closed
  loop, one client, with ``evalstats.bench_predict`` batch sweeps over the
  same stream trials;
* eval: one in-process ``tssf eval`` over the workload's eval data.

The online stage (``ONLINE``) is the same on every workload: a C=64
stream drawn with the ``eval-c64-fixed`` generator, on which the online
metrics are defined.  The online pipelines are fitted during set-up on the
first ``fit_trials`` trials of one ``synth_generate`` draw and the
remaining trials are the stream.  Drawing training and stream trials from
two seeds would mix them with two different matrices and put held-out AUC
at chance.

This module imports nothing from numpy or tssf, so the parent process can
read it before any BLAS library is loaded.
"""

from dataclasses import dataclass, replace

ONLINE_PIPELINES = ("TSSF_Var_1_step", "TSSF_LogCov_2_step", "TS_AIRM")
ALL_PIPELINES = (
    "CSP",
    "TSSF_Var_1_step",
    "TSSF_Var_2_step",
    "TSSF_Cov_1_step",
    "TSSF_Cov_2_step",
    "TSSF_LogCov_2_step",
    "TS_AIRM",
)

MIN_ONLINE_CALLS = 2000  # per pipeline and round: >= 20 samples beyond p99
EVALS_PER_ROUND = 2  # between online phases; eval_wall_s is the fastest of a run
ONLINE_SECONDS = 12.0  # at least, per round, over its EVALS_PER_ROUND + 1 online phases
WARMUP_CALLS = 5  # untimed calls before each pass
TURN_SECONDS = 0.1  # at least, of whole passes per pipeline turn in a timed phase
BATCH_REPETITIONS = 1  # timed sweeps per bench_predict slice, after its warm-up sweep
BATCH_TRIALS = 10  # trials per batch sweep: the stream is swept block by block
BATCH_SECONDS = 1.5  # at least, of batch slices per pipeline and round
# The online metric is this percentile of the medians of CHUNK_CALLS
# consecutive calls, the batch metric this percentile of the slices.  The
# cores of a shared host switch between a fast and a slow state about 1.6x
# apart, each lasting from a fraction of a second to many seconds, and the
# fast share of a run ranges from near 0 to about a half.  A median over all
# calls lands in either mode or between them, depending on that share; a
# low percentile of short-stretch readings reads the fast state whenever a
# run saw some of it.  Stretches and slices are short so that most lie
# within one state.
CHUNK_CALLS = 10
PASS_PERCENTILE = 1


C64 = dict(
    channels=64,
    samples=256,
    noise_sigma=1.5,
    nonstationarity=0.2,
    var_pos=(4.0, 1.0),
    var_neg=(1.0, 4.0),
)


@dataclass(frozen=True)
class Online:
    synth: dict  # SynthConfig fields, without the seed
    k: int
    reg: float
    fit_trials: int  # trials 0 .. fit_trials-1 fit the pipelines; the rest stream


ONLINE = Online(synth=dict(C64, trials_per_class=160), k=6, reg=1.0, fit_trials=120)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields of the eval data, without the seed
    eval_trials: int  # trials 0 .. eval_trials-1 go to the EEGT file for eval
    eval_pipelines: tuple
    eval_args: tuple  # CLI flags after --data/--out
    online: Online = ONLINE


WORKLOADS = {
    w.name: w
    for w in (
        # grid search + SVM (linmodel) and 73k small logm calls dominate; the
        # five TSSF pipelines refit the same tangent model; AUC is not saturated
        Workload(
            name="eval-c8-grid",
            synth=dict(
                channels=8,
                samples=256,
                trials_per_class=150,
                sessions=2,
                noise_sigma=2.0,
                nonstationarity=0.5,
                var_pos=(2.0, 1.0),
                var_neg=(1.0, 2.0),
            ),
            eval_trials=300,
            eval_pipelines=ALL_PIPELINES,
            eval_args=("--k", "4", "--folds", "5", "--seed", "0"),
        ),
        # manifold and covariance work dominate and grid_search_cv never runs,
        # so an SVM or grid change must leave this workload unchanged
        Workload(
            name="eval-c64-fixed",
            synth=dict(C64, trials_per_class=60),
            eval_trials=120,
            eval_pipelines=("CSP", "TSSF_Var_1_step", "TS_AIRM"),
            eval_args=("--k", "6", "--reg", "1", "--folds", "5", "--seed", "0"),
        ),
    )
}


def tiny(workload):
    """A copy of ``workload`` small enough for the self-test."""
    # inner 5-fold grid search needs >= 5 trials per class in every outer
    # training split, hence 24 trials per class
    shrink = dict(trials_per_class=24, samples=64)
    synth = dict(workload.synth, **shrink)
    synth["channels"] = min(synth["channels"], 8)
    args = list(workload.eval_args)
    args[args.index("--folds") + 1] = "2"
    args[args.index("--k") + 1] = "2"
    online = Online(synth=dict(ONLINE.synth, channels=8, **shrink), k=2, reg=1.0, fit_trials=24)
    return replace(workload, synth=synth, eval_trials=48, eval_args=tuple(args), online=online)
