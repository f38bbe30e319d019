"""
Cross-validated comparison and prediction latency
=================================================

Evaluates several pipelines with session-wise stratified cross-validation,
compares them with paired statistics, and measures per-trial prediction
latency. Run from the repository root (single-threaded BLAS gives the
cleanest timings):

    TSSF_THREADS=1 OMP_NUM_THREADS=1 python3 demos/03_evaluation_and_timing.py
"""

import numpy as np

import tssf
from tssf.pipelines import PipelineSpec, make_pipeline

######################################################################
# Data: two sessions of a noisy two-source discrimination task
# ------------------------------------------------------------

cfg = tssf.SynthConfig(
    channels=16,
    samples=128,
    trials_per_class=60,
    seed=21,
    n_discriminative=2,
    var_pos=(2.5, 1.0),
    var_neg=(1.0, 2.5),
    noise_sigma=3.0,
    sessions=2,
)
trialset = tssf.synth_generate(cfg)
print(f"{trialset.n_trials} trials, {trialset.n_channels} channels, 2 sessions")

######################################################################
# Cross-validation
# ----------------
# Fitting happens inside each training split only: the reference mean,
# the filters, and the classifiers never see held-out trials. All four
# pipelines are cross-validated together, fold by fold, so the TSSF
# pipeline and TS_AIRM share each fold's tangent-space fit.

classifier = tssf.ClassifierConfig(grid=(0.1, 1.0, 10.0))
names = ["CSP", "TSSF_Var_1_step", "TSSF_Cov_2_step", "TS_AIRM"]
factories = [
    lambda n=name: make_pipeline(PipelineSpec(name=n, k=2, classifier=classifier))
    for name in names
]
reports = dict(zip(names, tssf.cross_validate(trialset, factories, folds=5, seed=0)))
for report in reports.values():
    print(report.summary())

######################################################################
# Paired statistics
# -----------------
# Per-fold scores are paired (same folds, same seed), so pipelines are
# compared with the standardized mean difference and a one-sided
# signed-rank p-value.

print()
for name in names[1:]:
    a, b = reports[name], reports["CSP"]
    try:
        cmp = tssf.compare_paired(a.pipeline, a.aucs, b.pipeline, b.aucs)
        print(f"{name} vs CSP: SMD {cmp.smd:+.3f}, one-sided p {cmp.p_value:.4f}")
    except tssf.DegenerateStatistic:
        print(f"{name} vs CSP: identical fold scores (degenerate comparison)")

######################################################################
# Prediction latency
# ------------------
# The one-step pipeline needs no per-trial eigendecomposition of the
# full channel covariance, which is where the full tangent-space
# pipeline spends nearly all of its prediction time.

fitted = {
    name: make_pipeline(
        PipelineSpec(name=name, k=6, classifier=tssf.ClassifierConfig(reg=1.0))
    ).fit(trialset.data, trialset.labels)
    for name in ("CSP", "TSSF_Var_1_step", "TS_AIRM")
}
rows = tssf.bench_predict(fitted, trialset.data, repetitions=10)
print()
print("pipeline            per-trial median")
for row in rows:
    print(f"{row.pipeline:<18s}  {row.median_per_trial_s * 1e6:8.1f} us")
ratio = rows[-1].median_per_trial_s / rows[1].median_per_trial_s
print(f"\nfull tangent space is {ratio:.1f}x slower per trial than one-step "
      f"at {trialset.n_channels} channels (the gap widens with channel count)")
