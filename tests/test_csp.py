import numpy as np
import pytest

import tssf
from tssf import csp, manifold
from tssf.errors import DegenerateModel, InvalidInput

from conftest import random_spd


def two_class_covs(rng, c=4, t=40, n=500):
    covs, labels = [], []
    for i in range(t):
        label = 1 if i % 2 == 0 else -1
        scales = np.ones(c)
        scales[0] = 1.8 if label == 1 else 0.7
        scales[1] = 0.7 if label == 1 else 1.8
        x = rng.standard_normal((c, n)) * scales[:, None]
        covs.append((x @ x.T) / n)
        labels.append(label)
    return np.array(covs), np.array(labels)


def class_means(covs, labels):
    return covs[labels == 1].mean(axis=0), covs[labels == -1].mean(axis=0)


def tangent_route(covs, labels, k):
    # CSP as the tangent filters of mean+'s tangent vector at mean-
    mean_pos, mean_neg = class_means(covs, labels)
    _, inv_half = manifold._half_powers(mean_neg)
    weights = manifold._logm(manifold._congruence(inv_half, mean_pos))
    return tssf.tangent_filters(mean_neg, weights, k)


class TestFitCsp:
    def test_diagonal_example(self):
        covs = np.array([np.diag([4.0, 1.0]), np.diag([4.0, 1.0]),
                         np.diag([1.0, 4.0]), np.diag([1.0, 4.0])])
        labels = np.array([1, 1, -1, -1])
        model = csp.fit_csp(covs, labels, 2)
        np.testing.assert_allclose(model.full_beta, np.log([4.0, 0.25]), atol=1e-12)
        for col in model.filters.T:
            mags = np.sort(np.abs(col))[::-1]
            assert mags[1] <= 1e-12 * mags[0]

    def test_equal_means_raise_degenerate_model(self, rng):
        # every generalized eigenvalue is 1 to rounding: no filter tells the
        # classes apart, so no filter bank is returned
        a = random_spd(rng, 3)
        covs = np.array([a] * 6)
        labels = np.array([1, -1] * 3)
        with pytest.raises(DegenerateModel, match="equal to rounding"):
            csp.fit_csp(covs, labels, 2)

    def test_exact_tie_rule_keeps_original_order(self):
        # class means 2I and I give bitwise-equal eigenvalues, so the tie
        # rule (descending eigenvalue, then original position) applies
        covs = np.array([2.0 * np.eye(3), np.eye(3)] * 3)
        labels = np.array([1, -1] * 3)
        model = csp.fit_csp(covs, labels, 2)
        np.testing.assert_array_equal(model.full_beta, np.log(np.full(3, 2.0)))
        eigenvectors = manifold.ged(2.0 * np.eye(3), np.eye(3)).eigenvectors
        np.testing.assert_array_equal(model.filters, eigenvectors[:, :2])

    def test_any_k_from_1_to_c(self, rng):
        # 1 <= k <= C, odd k included: the k-prefix of the one ranked bank
        covs, labels = two_class_covs(rng)
        c = covs.shape[1]
        bank = csp.fit_csp(covs, labels, c).full_filters
        for k in range(1, c + 1):
            np.testing.assert_array_equal(csp.fit_csp(covs, labels, k).filters, bank[:, :k])
        for k in (0, c + 1):
            with pytest.raises(InvalidInput, match=rf"^k must be in \[1, {c}\], got {k}$"):
                csp.fit_csp(covs, labels, k)

    @pytest.mark.parametrize("k", [2.0, 2.5, np.float64(3)])
    def test_non_integer_k_rejected_before_the_ged(self, rng, k, monkeypatch):
        covs, labels = two_class_covs(rng)

        def fail(*args, **kwargs):
            raise AssertionError("fit_csp whitened a class mean before checking k")

        monkeypatch.setattr(csp, "_half_powers", fail)
        with pytest.raises(InvalidInput, match="^k must be an integer, got "):
            csp.fit_csp(covs, labels, k)

    def test_single_class_rejected(self, rng):
        covs, _ = two_class_covs(rng)
        with pytest.raises(DegenerateModel):
            csp.fit_csp(covs, np.ones(len(covs)), 2)

    def test_selection_takes_both_spectrum_ends(self, rng):
        covs, labels = two_class_covs(rng)
        model = csp.fit_csp(covs, labels, 2)
        route = tangent_route(covs, labels, 2)
        np.testing.assert_array_equal(model.beta, route.beta)
        np.testing.assert_array_equal(model.filters, route.filters)
        log_eig = np.log(manifold.ged(*class_means(covs, labels)).eigenvalues)
        np.testing.assert_allclose(
            np.sort(model.beta), [log_eig.min(), log_eig.max()], rtol=1e-12, atol=0
        )

    def test_filters_are_the_prefix_of_one_ranked_bank(self, rng):
        # all C filters ranked by |log eigenvalue|, as extract_tssf ranks its
        # own; k only cuts the prefix
        covs, labels = two_class_covs(rng)
        model = csp.fit_csp(covs, labels, 2)
        route = tangent_route(covs, labels, 2)
        for name in ("filters", "beta", "full_filters", "full_beta", "reference_mean"):
            np.testing.assert_array_equal(getattr(model, name), getattr(route, name))
        assert model.intercept == 0.0
        np.testing.assert_array_equal(model.filters, model.full_filters[:, :2])
        wider = csp.fit_csp(covs, labels, 4)
        np.testing.assert_array_equal(wider.full_filters, model.full_filters)
        # the generalized eigendecomposition gives the same bank to rounding
        solution = manifold.ged(*class_means(covs, labels))
        log_eig = np.log(solution.eigenvalues)
        order = sorted(range(log_eig.size), key=lambda i: (-abs(log_eig[i]), -log_eig[i]))
        scale = np.abs(log_eig).max()
        np.testing.assert_allclose(model.full_beta, log_eig[order], rtol=0, atol=1e-12 * scale)
        filters = solution.eigenvectors[:, order]
        scale = np.abs(filters).max()
        np.testing.assert_allclose(model.full_filters, filters, rtol=0, atol=1e-12 * scale)

    def test_discriminative_identity_oracle(self, rng):
        # eigenvector set equals ged(mean+ - mean-, mean+ + mean-) with
        # the eigenvalue map l' = (l - 1) / (l + 1)
        covs, labels = two_class_covs(rng)
        mean_pos = covs[labels == 1].mean(axis=0)
        mean_neg = covs[labels == -1].mean(axis=0)
        ratio = manifold.ged(mean_pos, mean_neg)
        discr = manifold.ged(mean_pos - mean_neg, mean_pos + mean_neg)
        angle = manifold.subspace_angle_by_cluster(
            ratio.eigenvectors, discr.eigenvectors, ratio.eigenvalues
        )
        assert angle < 1e-8
        mapped = (ratio.eigenvalues - 1) / (ratio.eigenvalues + 1)
        np.testing.assert_allclose(discr.eigenvalues, mapped, atol=1e-8)

    def test_scaling_invariance_of_discriminative_form(self, rng):
        covs, labels = two_class_covs(rng)
        mean_pos = covs[labels == 1].mean(axis=0)
        mean_neg = covs[labels == -1].mean(axis=0)
        diff, common = mean_pos - mean_neg, mean_pos + mean_neg
        g1 = manifold.ged(diff, common)
        g2 = manifold.ged(diff, 0.5 * common)
        angle = manifold.subspace_angle_by_cluster(
            g1.eigenvectors, g2.eigenvectors, g1.eigenvalues
        )
        assert angle < 1e-8

    def test_common_activity_whitened(self, rng):
        covs, labels = two_class_covs(rng)
        mean_pos = covs[labels == 1].mean(axis=0)
        mean_neg = covs[labels == -1].mean(axis=0)
        discr = manifold.ged(mean_pos - mean_neg, mean_pos + mean_neg)
        f = discr.eigenvectors
        common_filtered = f.T @ (mean_pos + mean_neg) @ f
        off_diag = common_filtered - np.diag(np.diag(common_filtered))
        assert np.abs(off_diag).max() < 1e-8


class TestCspInTheTangentFramework:
    def test_full_rank_one_step_scores_are_tangent_inner_products(self, rng):
        # k = C: CSP's one-step "diaglogcov" score of S is the Frobenius
        # product <logm(m-^{-1/2} m+ m-^{-1/2}), logm(m-^{-1/2} S m-^{-1/2})>,
        # to 1e-12 of the largest score: rounding scales with the scores, not
        # with a score near 0
        covs, labels = two_class_covs(rng)
        model = csp.fit_csp(covs, labels, covs.shape[1])
        mean_pos, mean_neg = class_means(covs, labels)
        inv_half = manifold.powm(mean_neg, -0.5)
        weights = manifold.logm(inv_half @ mean_pos @ inv_half)
        f = model.filters
        scores, expected = [], []
        for s in covs:
            feats = tssf.compute_features(model, f.T @ s @ f, tssf.DIAGLOGCOV)
            scores.append(tssf.predict_one_step(model, feats)[0])
            expected.append(np.sum(weights * manifold.logm(inv_half @ s @ inv_half)))
        scale = np.abs(expected).max()
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12 * scale)
