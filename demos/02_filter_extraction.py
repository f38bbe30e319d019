"""
From a tangent-space model to spatial filters
=============================================

Fits a linear model on tangent vectors of trial covariances, turns it
into a bank of spatial filters, and shows that scoring filtered
log-power features with the sorted log-eigenvalues ("one-step"
classification) reproduces the model's decision values exactly when all
components are kept, for the SVM and for a ridge model alike. Run from the
repository root:

    python3 demos/02_filter_extraction.py
"""

import numpy as np

import tssf

######################################################################
# Synthetic motor-imagery-like data
# ---------------------------------
# Eight channels mix eight latent sources; two sources swap their
# variances between the classes (4:1 vs 1:4), the rest are noise.

cfg = tssf.SynthConfig(
    channels=8,
    samples=256,
    trials_per_class=80,
    seed=7,
    n_discriminative=2,
    var_pos=(4.0, 1.0),
    var_neg=(1.0, 4.0),
    noise_sigma=0.5,
)
trialset = tssf.synth_generate(cfg)
covs = tssf.covariances(trialset)
print(f"generated {trialset.n_trials} trials, C={trialset.n_channels}, "
      f"N={trialset.n_samples}")

######################################################################
# Filter extraction
# -----------------
# Frechet mean -> tangent vectors -> linear SVM -> whitened weight matrix
# W = V diag(beta) V^T -> filters mean^{-1/2} V. These are the generalized
# eigenvectors of (weight matrix mapped onto the manifold, mean), and beta
# their log eigenvalues. Components are ranked by |beta|: a coefficient
# near zero contributes nothing to the decision function. The bank names no
# feature kind: beta scores the diagonal of the log filtered covariance
# ("diaglogcov") and the filtered log-variances ("logvar") alike.

model = tssf.extract_tssf(
    covs,
    trialset.labels,
    k=trialset.n_channels,  # keep everything
    model_cfg=tssf.ClassifierConfig(reg=1.0),
)
print("\nsorted coefficients (beta = log generalized eigenvalues):")
print("rank  beta      |beta|")
for rank, beta in enumerate(model.beta):
    print(f"{rank:4d}  {beta:+.4f}  {abs(beta):.4f}")

######################################################################
# One-step scoring equals the tangent model at full rank
# ------------------------------------------------------

vectors = tssf.tangent_vectors(model.reference_mean, covs)
svm = tssf.fit_linear_svm(vectors, trialset.labels, reg=1.0)
worst = 0.0
for cov, vector in zip(covs, vectors):
    filtered_cov = model.filters.T @ cov @ model.filters
    feats = tssf.compute_features(model, filtered_cov, tssf.DIAGLOGCOV)
    score, _ = tssf.predict_one_step(model, feats)
    tangent_score = float(svm.weights @ vector + svm.intercept)
    worst = max(worst, abs(score - tangent_score))
print(f"\nfull-rank one-step vs tangent decision values: worst |diff| = {worst:.2e}")

######################################################################
# Choosing k
# ----------
# Two components carry the class information here, so keeping k=2 loses
# almost nothing. A k=2 fit on the same data reuses the tangent-space
# model, so its filters are the leading columns of the full bank; every
# model keeps all C sorted coefficients in ``full_beta``.

small = tssf.extract_tssf(covs, trialset.labels, k=2, model_cfg=tssf.ClassifierConfig(reg=1.0))
assert np.array_equal(small.filters, model.filters[:, :2])
assert np.array_equal(small.full_beta, model.beta)
correct = 0
for t in range(trialset.n_trials):
    filtered = tssf.apply_filters(small, trialset.trial(t))
    feats = tssf.compute_features(small, tssf.empirical_covariance(filtered), tssf.DIAGLOGCOV)
    _, label = tssf.predict_one_step(small, feats)
    correct += label == trialset.labels[t]
print(f"k=2 one-step training accuracy: {correct / trialset.n_trials:.3f}")

######################################################################
# Spatial patterns
# ----------------
# Filters are decoding directions; patterns are the matching encoding
# directions (how each recovered source projects to the channels) and
# are what a reviewer inspects for physiological plausibility.

data_cov = covs.mean(axis=0)
patterns = tssf.compute_patterns(small.filters, data_cov)
print("\npattern matrix (channels x components):")
print(np.round(patterns, 3))
print("\nCSV export:")
print(tssf.patterns_to_csv(patterns, trialset.channel_names))

######################################################################
# Filters from any tangent-space linear model
# -------------------------------------------
# Nothing above needs the SVM: any linear function on the tangent vectors
# is a filter bank. Ridge regression on the same vectors, solved with
# numpy, gets its own bank from ``tangent_filters``; with all C filters
# kept, its one-step scores are its own decision values.

centred = vectors - vectors.mean(axis=0)
target = trialset.labels - trialset.labels.mean()
ridge_w = np.linalg.solve(centred.T @ centred + np.eye(centred.shape[1]), centred.T @ target)
ridge_b = trialset.labels.mean() - vectors.mean(axis=0) @ ridge_w
decision = vectors @ ridge_w + ridge_b
ridge = tssf.tangent_filters(
    model.reference_mean, tssf.unvec(ridge_w), trialset.n_channels, intercept=ridge_b
)
f = ridge.filters
scores = np.array([
    tssf.predict_one_step(ridge, tssf.compute_features(ridge, f.T @ cov @ f, tssf.DIAGLOGCOV))[0]
    for cov in covs
])
worst = np.abs(scores - decision).max() / np.abs(decision).max()
assert worst < 1e-12, worst
print(f"ridge: full-rank one-step vs decision values: worst relative |diff| = {worst:.2e}")
top_pattern = tssf.compute_patterns(ridge.filters[:, :1], data_cov)[:, 0]
print("ridge's top pattern:", np.round(top_pattern, 3))
