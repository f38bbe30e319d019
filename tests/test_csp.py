import numpy as np
import pytest

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


class TestFitCsp:
    def test_diagonal_example(self):
        covs = np.array([np.diag([4.0, 1.0]), np.diag([4.0, 1.0]),
                         np.diag([1.0, 4.0]), np.diag([1.0, 4.0])])
        labels = np.array([1, 1, -1, -1])
        model = csp.fit_csp(covs, labels, 2)
        np.testing.assert_allclose(model.eigenvalues, [4.0, 0.25], atol=1e-12)
        for col in model.filters.T:
            mags = np.sort(np.abs(col))[::-1]
            assert mags[1] <= 1e-12 * mags[0]

    def test_equal_means_eigenvalues_one(self, rng):
        a = random_spd(rng, 3)
        covs = np.array([a] * 6)
        labels = np.array([1, -1] * 3)
        model = csp.fit_csp(covs, labels, 2)
        np.testing.assert_allclose(model.eigenvalues, np.ones(3), atol=1e-10)
        assert len(set(model.selection)) == 2

    def test_exact_tie_rule_keeps_original_order(self):
        # identity covariances give bitwise-equal eigenvalues, so the
        # tie rule (descending eigenvalue, then original position) applies
        covs = np.array([np.eye(3)] * 6)
        labels = np.array([1, -1] * 3)
        model = csp.fit_csp(covs, labels, 2)
        np.testing.assert_array_equal(model.eigenvalues, np.ones(3))
        np.testing.assert_array_equal(model.selection, [0, 1])

    def test_odd_k_rejected(self, rng):
        covs, labels = two_class_covs(rng)
        with pytest.raises(InvalidInput):
            csp.fit_csp(covs, labels, 3)
        c = covs.shape[1]
        with pytest.raises(InvalidInput, match=rf"k must be in \[2, {c}\]"):
            csp.fit_csp(covs, labels, c + 2)

    def test_single_class_rejected(self, rng):
        covs, _ = two_class_covs(rng)
        with pytest.raises(DegenerateModel):
            csp.fit_csp(covs, np.ones(len(covs)), 2)

    def test_selection_takes_both_spectrum_ends(self, rng):
        covs, labels = two_class_covs(rng)
        model = csp.fit_csp(covs, labels, 2)
        assert 0 in model.selection  # largest eigenvalue
        assert len(covs[0]) - 1 in model.selection  # smallest eigenvalue

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

