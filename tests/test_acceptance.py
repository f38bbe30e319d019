"""Acceptance criteria: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Each test prints its measured margin next to the bound it
must meet.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import scipy.linalg
import scipy.stats

import tssf
from tssf import manifold
from tssf.pipelines import PipelineSpec, make_pipeline

from conftest import random_invertible, random_orthogonal, random_spd, random_symmetric


def _report(num, text):
    print(f"\nACCEPTANCE {num}: {text} -- PASS")


def sample_covariances(rng, c, t, n=200):
    x = rng.standard_normal((t, c, n))
    covs = x @ np.transpose(x, (0, 2, 1)) / n
    return covs


class TestAcceptance:
    def test_01_full_rank_decision_equivalence(self):
        # 100 instances, C=8, T=40: tangent decision value vs the
        # full-rank filter route, per-trial |difference| < 1e-8, < 10 s
        rng = np.random.default_rng(101)
        tic = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            covs = sample_covariances(rng, 8, 40)
            mean = tssf.frechet_mean(covs)
            weight_tangent = random_symmetric(rng, 8, scale=0.4)
            weight_cov = manifold.exp_map_at(mean, weight_tangent)
            solution = manifold.ged(weight_cov, mean)
            for cov in covs:
                tangent_value = manifold.inner_product_at(
                    mean, weight_tangent, manifold.log_map_at(mean, cov)
                )
                exact = tssf.exact_decision_value(weight_cov, mean, cov, solution)
                worst = max(worst, abs(tangent_value - exact))
        elapsed = time.perf_counter() - tic
        assert worst < 1e-8
        assert elapsed < 10.0
        _report(1, f"full-rank decision equivalence, worst |diff| {worst:.2e} < 1e-8, {elapsed:.1f}s < 10s")

    def test_02_inner_product_invariance(self):
        # 100 random triples: metric inner product equals the whitened
        # vectorization dot product within 1e-10
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(100):
            ref = random_spd(rng, 6)
            s1, s2 = random_symmetric(rng, 6), random_symmetric(rng, 6)
            inv_half = manifold.powm(ref, -0.5)
            oracle = np.dot(
                manifold.vec(inv_half @ s1 @ inv_half),
                manifold.vec(inv_half @ s2 @ inv_half),
            )
            got = manifold.inner_product_at(ref, s1, s2)
            worst = max(worst, abs(got - oracle))
        assert worst < 1e-10
        _report(2, f"inner-product invariance, worst |diff| {worst:.2e} < 1e-10")

    def test_03_orthogonal_log_commutation(self):
        # 100 random (orthogonal V, SPD A): logm(V^T A V) = V^T logm(A) V
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            v = random_orthogonal(rng, 6)
            a = random_spd(rng, 6)
            dev = np.linalg.norm(manifold.logm(v.T @ a @ v) - v.T @ manifold.logm(a) @ v)
            worst = max(worst, dev)
        assert worst < 1e-10
        _report(3, f"log/orthogonal-congruence commutation, worst {worst:.2e} < 1e-10")

    def test_04_ged_log_invariance(self):
        # 50 instances: GED(weight cov, mean) and GED(tangent weight, mean)
        # share eigenvectors; eigenvalues related by elementwise log
        rng = np.random.default_rng(104)
        worst_angle, worst_eig = 0.0, 0.0
        for _ in range(50):
            mean = random_spd(rng, 6)
            tangent = random_symmetric(rng, 6, scale=0.5)
            cov = manifold.exp_map_at(mean, tangent)
            on_manifold = manifold.ged(cov, mean)
            on_tangent = manifold.ged(tangent, mean)
            angle = manifold.subspace_angle_by_cluster(
                on_manifold.eigenvectors, on_tangent.eigenvectors, on_manifold.eigenvalues
            )
            worst_angle = max(worst_angle, angle)
            worst_eig = max(
                worst_eig,
                np.max(np.abs(np.log(on_manifold.eigenvalues) - on_tangent.eigenvalues)),
            )
        assert worst_angle < 1e-8
        assert worst_eig < 1e-8
        _report(4, f"GED log-invariance, worst angle {worst_angle:.2e}, eig dev {worst_eig:.2e} < 1e-8")

    def test_05_csp_equivalence_chain(self):
        # 50 instances: GED(m+, m-) matches GED(m+ - m-, m+ + m-) with the
        # eigenvalue map (l-1)/(l+1), both within 1e-8
        rng = np.random.default_rng(105)
        worst_angle, worst_map = 0.0, 0.0
        for _ in range(50):
            mean_pos, mean_neg = random_spd(rng, 6), random_spd(rng, 6)
            ratio = manifold.ged(mean_pos, mean_neg)
            discr = manifold.ged(mean_pos - mean_neg, mean_pos + mean_neg)
            angle = manifold.subspace_angle_by_cluster(
                ratio.eigenvectors, discr.eigenvectors, ratio.eigenvalues
            )
            worst_angle = max(worst_angle, angle)
            mapped = (ratio.eigenvalues - 1.0) / (ratio.eigenvalues + 1.0)
            worst_map = max(worst_map, np.max(np.abs(mapped - discr.eigenvalues)))
        assert worst_angle < 1e-8
        assert worst_map < 1e-8
        _report(5, f"CSP chain, worst angle {worst_angle:.2e}, map dev {worst_map:.2e} < 1e-8")

    def test_06_frechet_mean(self):
        # fixed-point residual < 1e-10; congruence invariance within 1e-6
        # for 20 random invertible transforms
        rng = np.random.default_rng(106)
        points = [random_spd(rng, 5) for _ in range(10)]
        mean = tssf.frechet_mean(points)
        residual = np.linalg.norm(
            np.mean([manifold.log_map_at(mean, p) for p in points], axis=0)
        )
        assert residual < 1e-10
        worst = 0.0
        for _ in range(20):
            w = random_invertible(rng, 5)
            transformed = tssf.frechet_mean([w.T @ p @ w for p in points])
            worst = max(worst, np.linalg.norm(transformed - w.T @ mean @ w))
        assert worst < 1e-6
        _report(6, f"Frechet mean, residual {residual:.2e} < 1e-10, congruence {worst:.2e} < 1e-6")

    def test_07_synthetic_end_to_end(self):
        # 8 channels, 2 discriminative sources (4:1 swapped), sigma=0.5,
        # 200 trials/class, 5-fold CV
        cfg = tssf.SynthConfig(
            channels=8,
            samples=256,
            trials_per_class=200,
            seed=107,
            n_discriminative=2,
            var_pos=(4.0, 1.0),
            var_neg=(1.0, 4.0),
            noise_sigma=0.5,
            mixing="random",
        )
        trialset = tssf.synth_generate(cfg)

        def run(name, k):
            report = tssf.kfold_cv(
                trialset,
                lambda: make_pipeline(PipelineSpec(name=name, k=k)),
                folds=5,
                seed=0,
            )
            return report.mean_auc

        auc_var1 = run("TSSF_Var_1_step", 2)
        auc_cov2 = run("TSSF_Cov_2_step", 2)
        auc_full = run("TS_AIRM", 2)
        auc_csp = run("CSP", 2)
        assert auc_var1 >= 0.95
        assert auc_cov2 >= auc_full - 0.02
        assert auc_csp >= 0.90
        _report(
            7,
            f"synthetic end-to-end: Var_1_step {auc_var1:.3f} >= 0.95, "
            f"Cov_2_step {auc_cov2:.3f} >= TS_AIRM {auc_full:.3f} - 0.02, "
            f"CSP {auc_csp:.3f} >= 0.90",
        )

    @staticmethod
    def _joint_diag_covs(rng, c, t, basis, perturbation=0.0):
        covs, labels = [], []
        for i in range(t):
            label = 1 if i % 2 == 0 else -1
            eigs = np.exp(0.1 * rng.standard_normal(c))
            eigs[0] *= 4.0 if label == 1 else 1.0
            eigs[1] *= 1.0 if label == 1 else 4.0
            q = basis
            if perturbation > 0:
                g = rng.standard_normal((c, c))
                q = basis @ scipy.linalg.expm(perturbation * 0.5 * (g - g.T))
            covs.append((q * eigs) @ q.T)
            labels.append(label)
        return np.array(covs), np.array(labels)

    def test_08_gershgorin_degradation(self):
        c = 8
        cfg = tssf.ClassifierConfig(reg=1.0)

        def deviations(seed, perturbation):
            rng = np.random.default_rng(seed)
            basis = random_orthogonal(rng, c)
            covs, labels = self._joint_diag_covs(rng, c, 60, basis, perturbation)
            model = tssf.extract_tssf(covs, labels, c, model_cfg=cfg)
            solution = manifold.GedResult(
                eigenvectors=model.full_filters, eigenvalues=np.exp(model.beta)
            )
            finv_t = np.linalg.inv(model.full_filters.T)
            weight_cov = finv_t @ np.diag(np.exp(model.beta)) @ finv_t.T
            dev_diag, dev_logvar = [], []
            for cov in covs:
                exact = tssf.exact_decision_value(
                    weight_cov, model.reference_mean, cov, solution
                )
                filtered = model.filters.T @ cov @ model.filters
                f_diag = tssf.compute_features(model, filtered, tssf.DIAGLOGCOV)
                s_diag, _ = tssf.predict_one_step(model, f_diag)
                f_var = tssf.compute_features(model, filtered, tssf.LOGVAR)
                s_var, _ = tssf.predict_one_step(model, f_var)
                dev_diag.append(abs(s_diag - model.intercept - exact))
                dev_logvar.append(abs(s_var - model.intercept - exact))
            return np.mean(dev_diag), np.mean(dev_logvar)

        # exactly jointly diagonalizable: both one-step feature types match
        # the exact decision values
        exact_diag, exact_logvar = [], []
        for seed in range(20):
            d, v = deviations(1000 + seed, 0.0)
            exact_diag.append(d)
            exact_logvar.append(v)
        assert max(exact_diag) < 1e-8
        assert max(exact_logvar) < 1e-8

        # growing eigenvector perturbation: the log-variance approximation
        # degrades monotonically (the diagonal-log form is an identity at
        # full rank, so the trend is carried by the log-variance route)
        levels = (0.05, 0.15, 0.45)
        means = []
        for level in levels:
            vals = [deviations(1000 + seed, level)[1] for seed in range(20)]
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]
        _report(
            8,
            f"Gershgorin: exact regime {max(exact_diag):.2e}/{max(exact_logvar):.2e} < 1e-8; "
            f"log-variance deviation {means[0]:.3g} < {means[1]:.3g} < {means[2]:.3g}",
        )

    def test_09_one_step_latency(self, tmp_path):
        # C=64, K=6: one-step prediction at least 10x faster per trial than
        # the full tangent-space pipeline, measured via the bench command
        # in a fresh single-threaded process over >= 100 trials
        config = tmp_path / "bench.cfg"
        config.write_text(
            "channels: 64\nsamples: 256\ntrials_per_class: 60\nseed: 109\n"
            "n_discriminative: 2\nvar_pos: 4, 1\nvar_neg: 1, 4\nnoise_sigma: 0.5\n"
        )
        data = tmp_path / "bench.eegt"
        out = tmp_path / "bench.csv"
        env = dict(os.environ, TSSF_THREADS="1")
        synth = subprocess.run(
            [sys.executable, "-m", "tssf.cli", "synth", "--config", str(config),
             "--out", str(data)],
            env=env, capture_output=True, text=True,
        )
        assert synth.returncode == 0, synth.stderr
        bench = subprocess.run(
            [sys.executable, "-m", "tssf.cli", "bench", "--data", str(data),
             "--pipeline", "TSSF_Var_1_step", "--pipeline", "TS_AIRM",
             "--k", "6", "--reg", "1.0", "--reps", "10", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert bench.returncode == 0, bench.stderr
        rows = {}
        for line in out.read_text().strip().split("\n")[1:]:
            name, n_trials, _, median, _ = line.split(",")
            rows[name] = (int(n_trials), float(median))
        assert rows["TS_AIRM"][0] >= 100
        ratio = rows["TS_AIRM"][1] / rows["TSSF_Var_1_step"][1]
        assert ratio >= 10.0
        _report(
            9,
            f"latency: one-step {rows['TSSF_Var_1_step'][1]*1e6:.0f}us vs full "
            f"{rows['TS_AIRM'][1]*1e6:.0f}us per trial, ratio {ratio:.1f}x >= 10x",
        )

    def test_10_statistics_oracles(self):
        rng = np.random.default_rng(110)
        # ROC-AUC: exact match against pair counting on 1000 instances
        for _ in range(1000):
            n = int(rng.integers(4, 24))
            labels = np.concatenate([[1, -1], rng.choice([-1, 1], n - 2)])
            scores = rng.integers(0, 8, size=n) / 4.0
            pos = scores[labels == 1]
            neg = scores[labels == -1]
            oracle = (
                np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
            ) / (len(pos) * len(neg))
            assert tssf.roc_auc(scores, labels) == oracle
        # Wilcoxon: exact enumeration for n <= 10 over 200 instances
        worst = 0.0
        checked = 0
        for _ in range(200):
            n = int(rng.integers(5, 11))
            d = rng.integers(-5, 6, size=n).astype(float)
            if np.all(d == 0):
                continue
            a = rng.integers(-10, 10, size=n).astype(float)
            b = a - d
            dd = d[d != 0]
            ranks = scipy.stats.rankdata(np.abs(dd))
            w_obs = ranks[dd > 0].sum()
            count = sum(
                1
                for signs in itertools.product((0, 1), repeat=len(dd))
                if np.dot(ranks, signs) >= w_obs - 1e-9
            )
            oracle = count / 2.0 ** len(dd)
            p = tssf.wilcoxon_one_sided(a, b)
            worst = max(worst, abs(p - oracle))
            checked += 1
        assert checked >= 190
        assert worst < 1e-12
        _report(10, f"statistics oracles: ROC-AUC exact x1000; signed-rank dev {worst:.1e} < 1e-12")
