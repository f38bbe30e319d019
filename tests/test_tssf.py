import sys
import threading

import numpy as np
import pytest

import tssf
from tssf import manifold
from tssf import tssf as tssf_module
from tssf.errors import (
    DegenerateModel,
    DimMismatch,
    InvalidInput,
    NotPositiveDefinite,
    UnsupportedFeatureKind,
)

from conftest import random_orthogonal, random_spd


def synth_covs(rng, c=4, t=30, sep=1.0, n=400):
    """Sample covariances with two discriminative variance axes."""
    covs, labels = [], []
    for i in range(t):
        label = 1 if i % 2 == 0 else -1
        scales = np.ones(c)
        scales[0] = 2.0 if label == 1 else 2.0 / (1 + sep)
        scales[1] = 2.0 / (1 + sep) if label == 1 else 2.0
        x = rng.standard_normal((c, n)) * scales[:, None]
        covs.append((x @ x.T) / n)
        labels.append(label)
    return np.array(covs), np.array(labels)


def fitted_model(rng, c=4, k=None, reg=2.0):
    covs, labels = synth_covs(rng, c=c)
    model = tssf.extract_tssf(covs, labels, k or c, model_cfg=tssf.ClassifierConfig(reg=reg))
    return model, covs, labels


class TestExtract:
    def test_diagonal_covs_give_axis_aligned_filters(self, rng):
        # commuting diagonal covariances with diagonal-only weights: every
        # filter is a scaled coordinate axis (direct diagonal GED oracle)
        covs, labels = [], []
        for i in range(40):
            label = 1 if i % 2 == 0 else -1
            base = np.array([4.0, 1.0, 2.0]) if label == 1 else np.array([1.0, 4.0, 2.0])
            covs.append(np.diag(base * np.exp(0.05 * rng.standard_normal(3))))
            labels.append(label)
        model = tssf.extract_tssf(
            np.array(covs), np.array(labels), 3, model_cfg=tssf.ClassifierConfig(reg=1.0)
        )
        for col in model.full_filters.T:
            mags = np.sort(np.abs(col))[::-1]
            assert mags[1] <= 1e-8 * mags[0]

    def test_full_rank_one_step_reproduces_tangent_scores(self, rng):
        model, covs, labels = fitted_model(rng, c=4, k=4)
        vecs = tssf.tangent_vectors(model.reference_mean, covs)
        lin = tssf.fit_linear_svm(vecs, labels, 2.0)
        for cov, vec_t in zip(covs, vecs):
            filtered = model.filters.T @ cov @ model.filters
            feats = tssf.compute_features(model, filtered, tssf.DIAGLOGCOV)
            score, _ = tssf.predict_one_step(model, feats)
            tangent = float(lin.weights @ vec_t + lin.intercept)
            assert abs(score - tangent) < 1e-8

    def test_constant_labels_rejected(self, rng):
        covs, _ = synth_covs(rng)
        with pytest.raises(DegenerateModel):
            tssf.extract_tssf(covs, np.ones(len(covs)), 2)

    def test_zero_weights_rejected(self):
        covs = np.array([np.eye(3)] * 10)
        labels = np.where(np.arange(10) % 2 == 0, 1, -1)
        with pytest.raises(DegenerateModel):
            tssf.extract_tssf(covs, labels, 2, model_cfg=tssf.ClassifierConfig(reg=1.0))

    def test_k_bounds(self, rng):
        covs, labels = synth_covs(rng)
        with pytest.raises(InvalidInput):
            tssf.extract_tssf(covs, labels, 0)
        with pytest.raises(InvalidInput):
            tssf.extract_tssf(covs, labels, 5)

    @pytest.mark.parametrize("k", [2.0, 2.5, np.float64(3)])
    def test_non_integer_k_rejected_before_the_tangent_fit(self, rng, k, monkeypatch):
        covs, labels = synth_covs(rng)

        def fail(*args, **kwargs):
            raise AssertionError("extract_tssf fitted before checking k")

        monkeypatch.setattr(tssf_module, "fit_tangent_model", fail)
        with pytest.raises(InvalidInput, match="^k must be an integer, got "):
            tssf.extract_tssf(covs, labels, k)

    def test_sorted_by_abs_beta(self, rng):
        model, _, _ = fitted_model(rng, c=4, k=4)
        assert np.all(np.diff(np.abs(model.beta)) <= 1e-12)

    def test_whitening_invariant(self, rng):
        model, _, _ = fitted_model(rng, c=4, k=2)
        ident = model.full_filters.T @ model.reference_mean @ model.full_filters
        np.testing.assert_allclose(ident, np.eye(4), atol=1e-8)

    def test_truncation_prefix(self, rng):
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(reg=2.0)
        m3 = tssf.extract_tssf(covs, labels, 3, model_cfg=cfg)
        m2 = tssf.extract_tssf(covs, labels, 2, model_cfg=cfg)
        np.testing.assert_array_equal(m2.filters, m3.filters[:, :2])
        np.testing.assert_array_equal(m2.beta, m3.beta[:2])
        np.testing.assert_array_equal(m2.full_filters, m3.full_filters)
        # every model keeps all C sorted coefficients, whatever its k
        np.testing.assert_array_equal(m2.full_beta, m3.full_beta)
        np.testing.assert_array_equal(m3.beta, m3.full_beta[:3])
        assert m3.full_beta.shape == (4,)


def weights_with_spread(rng, c, spread):
    """Whitened tangent weight matrix with eigenvalues spanning ``spread``."""
    lam = np.linspace(-0.43, 0.57, c) * spread  # no |lam| ties
    q = random_orthogonal(rng, c)
    return (q * lam) @ q.T


def extract_with_weights(monkeypatch, mean, w):
    # extract_tssf with the tangent fit replaced by (mean, vec(w)), so the
    # extraction step alone sees the chosen weights
    fit = tssf.LinearModel(weights=manifold.vec(w), intercept=0.25, reg=1.0)
    monkeypatch.setattr(tssf_module, "fit_tangent_model", lambda *args: (mean, fit))
    covs = np.array([mean] * 4)
    return tssf.extract_tssf(covs, [1, -1, 1, -1], len(mean))


def paper_route(mean, w):
    # the filters as the paper defines them: GED of the weights mapped
    # onto the manifold at the mean, against the mean
    half = manifold.powm(mean, 0.5)
    solution = manifold.ged(half @ manifold.expm(w) @ half, mean)
    log_d = np.log(solution.eigenvalues)
    # descending |log d|, ties by descending log d, then position (a stable sort)
    order = sorted(range(log_d.size), key=lambda i: (-abs(log_d[i]), -log_d[i]))
    return solution.eigenvectors[:, order], log_d[order]


class TestDirectRoute:
    @pytest.mark.parametrize("spread", [0.5, 2.0, 5.0, 10.0])
    def test_equals_paper_route(self, monkeypatch, rng, spread):
        mean = random_spd(rng, 6)
        w = weights_with_spread(rng, 6, spread)
        model = extract_with_weights(monkeypatch, mean, w)
        filters, beta = paper_route(mean, w)
        np.testing.assert_allclose(model.full_beta, beta, rtol=0, atol=1e-10 * np.abs(beta).max())
        signs = np.sign(np.sum(model.full_filters * filters, axis=0))
        scale = np.abs(filters).max()
        np.testing.assert_allclose(model.full_filters, filters * signs, rtol=0, atol=1e-10 * scale)
        assert model.intercept == 0.25

    def test_wide_spread_gives_the_weight_eigenvalues(self, monkeypatch, rng):
        # at spread 40, exp(lam_min) is below the rounding of exp(lam_max):
        # the exponential route loses the small end of the spectrum
        mean = random_spd(rng, 6)
        w = weights_with_spread(rng, 6, 40.0)
        model = extract_with_weights(monkeypatch, mean, w)
        self.assert_filters_of(model, w)

    @staticmethod
    def assert_filters_of(model, w):
        lam = np.linalg.eigvalsh(w)
        beta = model.full_beta
        assert np.all(np.isfinite(beta)) and np.all(np.isfinite(model.full_filters))
        np.testing.assert_allclose(np.sort(beta), lam, rtol=0, atol=1e-12 * np.abs(lam).max())
        assert np.all(np.diff(np.abs(beta)) <= 0)
        # the filters whiten the mean and diagonalize the whitened weights
        f = model.full_filters
        np.testing.assert_allclose(f.T @ model.reference_mean @ f, np.eye(len(f)), atol=1e-8)
        v = manifold.powm(model.reference_mean, 0.5) @ f
        np.testing.assert_allclose(v.T @ w @ v, np.diag(beta), atol=1e-10 * np.abs(lam).max())

    def test_two_eigendecompositions_after_the_fit(self, monkeypatch, rng):
        covs, labels = synth_covs(rng, c=5)
        cfg = tssf.ClassifierConfig(reg=1.0)
        tssf.fit_tangent_model(covs, labels, cfg)  # extract_tssf reuses this fit
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("extraction must not call expm or ged")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(manifold, "expm", forbidden)
        monkeypatch.setattr(manifold, "ged", forbidden)
        tssf.extract_tssf(covs, labels, 3, model_cfg=cfg)
        assert shapes == [(5, 5), (5, 5)]


def ridge(x, y, alpha=1.0):
    # ridge regression with an unpenalized intercept, solved with numpy
    x_mean, y_mean = x.mean(axis=0), y.mean()
    xc = x - x_mean
    w = np.linalg.solve(xc.T @ xc + alpha * np.eye(x.shape[1]), xc.T @ (y - y_mean))
    return w, y_mean - x_mean @ w


class TestTangentFilters:
    def test_ranking_rule(self):
        # descending |lam|; log 4 and log 1/4 tie there and go by descending
        # lam; the equal log 2s keep their sym_eig positions
        w = np.diag(np.log([2.0, 0.25, 1.0, 4.0, 2.0, 0.9]))
        lam, v = manifold.sym_eig(w)
        bank = tssf.tangent_filters(np.eye(6), w, 6)
        order = [0, 5, 1, 2, 4, 3]
        np.testing.assert_array_equal(bank.full_beta, lam[order])
        np.testing.assert_array_equal(bank.full_filters, v[:, order])

    def test_k_prefix_and_defaults(self, rng):
        ref, w = random_spd(rng, 4), weights_with_spread(rng, 4, 1.0)
        bank = tssf.tangent_filters(ref, w, 2)
        np.testing.assert_array_equal(bank.filters, bank.full_filters[:, :2])
        np.testing.assert_array_equal(bank.beta, bank.full_beta[:2])
        assert bank.intercept == 0.0 and not hasattr(bank, "feature_kind")
        np.testing.assert_array_equal(bank.reference_mean, ref)
        assert tssf.tangent_filters(ref, w, 2, intercept=-1.5).intercept == -1.5

    def test_bad_inputs_rejected(self, rng):
        ref, w = random_spd(rng, 3), weights_with_spread(rng, 3, 1.0)
        with pytest.raises(DegenerateModel, match="all-zero weight vector"):
            tssf.tangent_filters(ref, np.zeros((3, 3)), 2)
        for k, message in [(0, r"k must be in \[1, 3\], got 0"),
                           (4, r"k must be in \[1, 3\], got 4"),
                           (2.0, "k must be an integer, got 2.0")]:
            with pytest.raises(InvalidInput, match=f"^{message}$"):
                tssf.tangent_filters(ref, w, k)
        with pytest.raises(DimMismatch):
            tssf.tangent_filters(random_spd(rng, 4), w, 2)
        with pytest.raises(InvalidInput, match="weights is not symmetric"):
            tssf.tangent_filters(ref, w + np.triu(np.ones((3, 3)), 1), 2)
        with pytest.raises(NotPositiveDefinite):
            tssf.tangent_filters(-ref, w, 2)

    def test_extract_tssf_is_tangent_filters_of_its_fit(self, rng):
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(reg=2.0)
        model = tssf.extract_tssf(covs, labels, 2, model_cfg=cfg)
        mean, lin = tssf.fit_tangent_model(covs, labels, cfg)
        bank = tssf.tangent_filters(mean, manifold.unvec(lin.weights), 2, lin.intercept)
        for name in ("filters", "beta", "full_filters", "full_beta", "reference_mean"):
            np.testing.assert_array_equal(getattr(model, name), getattr(bank, name))
        assert model.intercept == bank.intercept

    def test_ridge_full_rank_one_step_equals_its_decision_values(self, rng):
        # any linear model on tangent_vectors is a filter bank: ridge, not the SVM
        covs, labels = synth_covs(rng)
        c = covs.shape[1]
        mean = tssf.frechet_mean(covs)
        x = tssf.tangent_vectors(mean, covs)
        w, b = ridge(x, labels.astype(float))
        decision = x @ w + b
        bank = tssf.tangent_filters(mean, manifold.unvec(w), c, b)
        f = bank.filters
        feats = [tssf.compute_features(bank, f.T @ s @ f, tssf.DIAGLOGCOV) for s in covs]
        scores = [tssf.predict_one_step(bank, row)[0] for row in feats]
        scale = np.abs(decision).max()
        np.testing.assert_allclose(scores, decision, rtol=0, atol=1e-12 * scale)


class TestApplyFilters:
    def test_identity_columns_select_rows(self, rng):
        model, _, _ = fitted_model(rng)
        object.__setattr__(model, "filters", np.eye(4)[:, [2, 0]])
        trial = rng.standard_normal((4, 7))
        np.testing.assert_array_equal(tssf.apply_filters(model, trial), trial[[2, 0]])

    def test_zero_trial(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        np.testing.assert_array_equal(
            tssf.apply_filters(model, np.zeros((4, 5))), np.zeros((2, 5))
        )

    def test_filtered_variance_is_quadratic_form(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        trial = rng.standard_normal((4, 500))
        filtered = tssf.apply_filters(model, trial)
        cov_full = tssf.empirical_covariance(trial)
        cov_filt = tssf.empirical_covariance(filtered)
        for j, f in enumerate(model.filters.T):
            assert cov_filt[j, j] == pytest.approx(f @ cov_full @ f, rel=1e-10)

    def test_channel_mismatch(self, rng):
        model, _, _ = fitted_model(rng)
        with pytest.raises(DimMismatch):
            tssf.apply_filters(model, rng.standard_normal((5, 10)))


class TestComputeFeatures:
    def test_identity_covariance_zero_features(self, rng):
        model, _, _ = fitted_model(rng, k=3)
        np.testing.assert_allclose(
            tssf.compute_features(model, np.eye(3), tssf.LOGVAR), np.zeros(3), atol=1e-15
        )
        np.testing.assert_allclose(
            tssf.compute_features(model, np.eye(3), tssf.DIAGLOGCOV), np.zeros(3), atol=1e-15
        )

    def test_diagonal_covariance_kinds_agree(self, rng):
        model, _, _ = fitted_model(rng, k=3)
        cov = np.diag([0.5, 2.0, 3.0])
        np.testing.assert_allclose(
            tssf.compute_features(model, cov, tssf.LOGVAR),
            tssf.compute_features(model, cov, tssf.DIAGLOGCOV),
            atol=1e-12,
        )

    def test_diaglogcov_matches_eig_oracle(self, rng):
        model, _, _ = fitted_model(rng, k=3)
        cov = random_spd(rng, 3)
        w, v = np.linalg.eigh(cov)
        oracle = np.diag((v * np.log(w)) @ v.T)
        np.testing.assert_allclose(
            tssf.compute_features(model, cov, tssf.DIAGLOGCOV), oracle, atol=1e-12
        )

    def test_unknown_kind(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(UnsupportedFeatureKind):
            tssf.compute_features(model, np.eye(2), "sparse")

    def test_size_mismatch(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(DimMismatch, match="must be 2 x 2"):
            tssf.compute_features(model, np.eye(3), tssf.LOGVAR)

    def test_first_failing_variance_named(self):
        # one axis names the matrix by its index, two axes by a tuple of ints
        stack = np.tile(np.eye(3), (2, 4, 1, 1))
        stack[1, 0, 1, 1] = 0.0
        with pytest.raises(
            NotPositiveDefinite,
            match=r"^filtered covariance \(1, 0\) is not positive definite: "
            r"variance 0\.000e\+00 in component 1 is not above 0\.000e\+00$",
        ):
            tssf_module._log_variances(stack.diagonal(0, -2, -1))
        with pytest.raises(
            NotPositiveDefinite,
            match=r"^filtered covariance 4 is not positive definite: "
            r"variance 0\.000e\+00 in component 1 is not above 0\.000e\+00$",
        ):
            tssf_module._log_variances(stack.reshape(8, 3, 3).diagonal(0, -2, -1))

    def test_no_bank_has_logcov_features(self, rng):
        # the tangent vector of a filtered covariance needs a reference point
        # that no bank holds: the error names the library call that takes one
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(
            UnsupportedFeatureKind,
            match=r"^a filter bank has no 'logcov' features, only 'logvar' and 'diaglogcov'; "
            r".* is vec\(log_map_at\(ref, cov\)\)$",
        ):
            tssf.compute_features(model, np.eye(2), tssf.LOGCOV)

    def test_csp_model_needs_an_explicit_kind(self, rng):
        # a CSP bank, like every bank, scores either diagonal kind and names
        # none: the caller does; it has no "logcov" features
        covs, labels = synth_covs(rng)
        model = tssf.fit_csp(covs, labels, 2)
        cov = model.filters.T @ covs[0] @ model.filters
        np.testing.assert_array_equal(
            tssf.compute_features(model, cov, tssf.LOGVAR), np.log(np.diag(cov))
        )
        with pytest.raises(TypeError, match="kind"):
            tssf.compute_features(model, cov)
        with pytest.raises(UnsupportedFeatureKind, match="no 'logcov' features"):
            tssf.compute_features(model, cov, tssf.LOGCOV)


class TestPredict:
    def test_one_step_arithmetic(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        object.__setattr__(model, "beta", np.array([np.log(4.0), np.log(0.25)]))
        object.__setattr__(model, "intercept", 0.0)
        score, label = tssf.predict_one_step(model, np.array([1.0, 0.0]))
        assert score == pytest.approx(np.log(4.0), abs=1e-15)
        assert label == 1

    def test_one_step_zero_tie(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        object.__setattr__(model, "intercept", 0.0)
        score, label = tssf.predict_one_step(model, np.zeros(2))
        assert score == 0.0 and label == 1

    def test_one_step_rejects_a_non_finite_score(self, rng):
        # NaN has no sign, and an infinite score is no decision value
        model, _, _ = fitted_model(rng, k=2)
        object.__setattr__(model, "beta", np.array([0.5, -2.0]))
        object.__setattr__(model, "intercept", 0.25)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput, match="^the features give the non-finite score"):
                tssf.predict_one_step(model, np.array([bad, 0.0]))
        feats = np.array([1.5, -0.75])
        score, label = tssf.predict_one_step(model, feats)
        assert score == float(model.beta @ feats + 0.25) and label == 1

    def test_one_step_feature_length(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(InvalidInput):
            tssf.predict_one_step(model, np.zeros(3))

    def test_one_step_needs_a_tssf_model(self, rng):
        # a CSP bank is a TssfModel with intercept 0, so it is one-step
        # scorable like any other bank
        covs, labels = synth_covs(rng)
        model = tssf.fit_csp(covs, labels, 2)
        assert isinstance(model, tssf.TssfModel)
        assert model.intercept == 0.0
        feats = rng.standard_normal(2)
        score, label = tssf.predict_one_step(model, feats)
        assert score == pytest.approx(float(model.beta @ feats), abs=1e-12)
        assert label == (1 if score >= 0 else -1)
        with pytest.raises(InvalidInput, match="expected 2 features"):
            tssf.predict_one_step(model, np.zeros(3))

    def test_two_step_passthrough_matches_one_step(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        second = tssf.LinearModel(
            weights=model.beta.copy(), intercept=model.intercept, reg=1.0
        )
        feats = rng.standard_normal(2)
        s1, _ = tssf.predict_one_step(model, feats)
        s2 = feats @ second.weights + second.intercept
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_two_step_separable_training_accuracy(self, rng):
        model, covs, labels = fitted_model(rng, k=2)
        feats = np.array(
            [
                tssf.compute_features(model, model.filters.T @ cov @ model.filters, tssf.LOGVAR)
                for cov in covs
            ]
        )
        second = tssf.fit_linear_svm(feats, labels, reg=10.0)
        predicted = np.where(feats @ second.weights + second.intercept >= 0, 1, -1)
        np.testing.assert_array_equal(predicted, labels)


class TestExactDecisionValue:
    def test_trial_equals_reference(self, rng):
        ref = random_spd(rng, 4)
        cw = random_spd(rng, 4)
        res = manifold.ged(cw, ref)
        assert tssf.exact_decision_value(cw, ref, ref, res) == pytest.approx(0.0, abs=1e-10)

    def test_weight_equals_reference(self, rng):
        ref = random_spd(rng, 4)
        res = manifold.ged(ref, ref)
        trial = random_spd(rng, 4)
        assert tssf.exact_decision_value(ref, ref, trial, res) == pytest.approx(0.0, abs=1e-8)

    def test_matches_inner_product_form(self, rng):
        # Tr(logm(D) logm(F^T C F)) equals the tangent inner product at ref
        for _ in range(5):
            ref = random_spd(rng, 6)
            sw = 0.4 * (lambda a: 0.5 * (a + a.T))(rng.standard_normal((6, 6)))
            cw = manifold.exp_map_at(ref, sw)
            res = manifold.ged(cw, ref)
            trial = random_spd(rng, 6)
            st = manifold.log_map_at(ref, trial)
            lhs = tssf.exact_decision_value(cw, ref, trial, res)
            rhs = manifold.inner_product_at(ref, sw, st)
            assert abs(lhs - rhs) < 1e-8

    def test_rank_deficient_rejected(self, rng):
        f = np.ones((3, 3))
        res = manifold.GedResult(eigenvectors=f, eigenvalues=np.ones(3))
        with pytest.raises(InvalidInput):
            tssf.exact_decision_value(np.eye(3), np.eye(3), np.eye(3), res)
        res = manifold.GedResult(eigenvectors=np.eye(3)[:, :2], eigenvalues=np.ones(2))
        with pytest.raises(InvalidInput, match="must be square"):
            tssf.exact_decision_value(np.eye(3), np.eye(3), np.eye(3), res)

    def test_indefinite_weight_cov_rejected(self, rng):
        ref = random_spd(rng, 3)
        cw = np.diag([2.0, 1.0, -1.0])
        res = manifold.ged(cw, ref)
        with pytest.raises(InvalidInput, match="eigenvalues must be positive"):
            tssf.exact_decision_value(cw, ref, random_spd(rng, 3), res)

    def test_mismatched_weight_cov_rejected(self, rng):
        ref = random_spd(rng, 3)
        cw = random_spd(rng, 3)
        res = manifold.ged(cw, ref)
        trial = random_spd(rng, 3)
        for other in (2.0 * cw, random_spd(rng, 3)):
            with pytest.raises(InvalidInput, match="diagonalize weight_cov"):
                tssf.exact_decision_value(other, ref, trial, res)

    def test_mismatched_reference_rejected(self, rng):
        ref = random_spd(rng, 3)
        cw = random_spd(rng, 3)
        res = manifold.ged(cw, ref)
        with pytest.raises(InvalidInput):
            tssf.exact_decision_value(cw, 4.0 * ref, random_spd(rng, 3), res)


class TestSortingImportance:
    def test_dropping_last_component_matters_least(self, rng):
        model, covs, _ = fitted_model(rng, c=4, k=4)
        # log-variance features: removing component j shifts the score by
        # exactly beta_j * feature_j, so compare those contributions
        first_impact, last_impact = [], []
        for cov in covs:
            filtered = model.filters.T @ cov @ model.filters
            feats = tssf.compute_features(model, filtered, tssf.LOGVAR)
            first_impact.append(abs(model.beta[0] * feats[0]))
            last_impact.append(abs(model.beta[-1] * feats[-1]))
        assert np.mean(last_impact) < np.mean(first_impact)


class TestTangentVectors:
    def test_dot_product_is_manifold_inner_product(self, rng):
        covs = np.array([random_spd(rng, 4) for _ in range(3)])
        ref = random_spd(rng, 4)
        vecs = tssf.tangent_vectors(ref, covs)
        for i in range(3):
            for j in range(3):
                expected = manifold.inner_product_at(
                    ref,
                    manifold.log_map_at(ref, covs[i]),
                    manifold.log_map_at(ref, covs[j]),
                )
                assert vecs[i] @ vecs[j] == pytest.approx(expected, abs=1e-10)


class TestFitTangentModel:
    def test_stored_fit_equals_fresh_fit_bitwise(self, rng, monkeypatch):
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(reg=2.0)
        first = tssf.fit_tangent_model(covs, labels, cfg)
        again = tssf.fit_tangent_model(covs.copy(), labels.copy(), cfg)
        assert again[0] is first[0] and again[1] is first[1]
        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
        mean, model = tssf.fit_tangent_model(covs, labels, cfg)
        assert mean is not first[0]
        np.testing.assert_array_equal(mean, first[0])
        np.testing.assert_array_equal(model.weights, first[1].weights)
        assert (model.intercept, model.reg) == (first[1].intercept, first[1].reg)

    def test_returned_arrays_are_read_only(self, rng):
        covs, labels = synth_covs(rng)
        for _ in range(2):  # a computed result, then a stored one
            mean, model = tssf.fit_tangent_model(covs, labels, tssf.ClassifierConfig(reg=2.0))
            for array in (mean, model.weights):
                with pytest.raises(ValueError):
                    array[0] = 1.0
        bank = tssf.extract_tssf(covs, labels, 2, model_cfg=tssf.ClassifierConfig(reg=2.0))
        # every filter bank holds read-only arrays too: extract_tssf's, tangent_filters', fit_csp's
        ref = np.array(mean)  # a writeable mean of the caller's
        tangent = tssf.tangent_filters(ref, tssf.unvec(model.weights), 2)
        for bank in (bank, tangent, tssf.fit_csp(covs, labels, 2)):
            for array in (bank.filters, bank.beta, bank.full_filters, bank.full_beta,
                          bank.reference_mean):
                with pytest.raises(ValueError):
                    array[0] = 1.0
        # and its mean is its own: a write to the caller's ref does not move it
        ref[0, 0] += 100.0
        np.testing.assert_array_equal(tangent.reference_mean, mean)

    def test_trains_on_the_final_frechet_sweep(self, rng, monkeypatch):
        # the model is fitted on the whitened logs of the mean's last sweep,
        # which are tangent_vectors(mean, covs) bit for bit; no log is
        # recomputed after the mean: every _logm call is a sweep's logm
        covs, labels = synth_covs(rng)
        features, logm_calls, sweeps = [], [], []
        fit = tssf_module.fit_from_config

        def capture(x, y, cfg):
            features.append(x)
            return fit(x, y, cfg)

        def counting(calls, original):
            def counted(*args, **kwargs):
                calls.append(np.shape(args[0]))
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
        monkeypatch.setattr(tssf_module, "fit_from_config", capture)
        for module in (manifold, tssf_module):
            if hasattr(module, "_logm"):
                monkeypatch.setattr(module, "_logm", counting(logm_calls, manifold._logm))
        monkeypatch.setattr(manifold, "logm", counting(sweeps, manifold.logm))
        mean, _ = tssf.fit_tangent_model(covs, labels, tssf.ClassifierConfig(reg=2.0))
        monkeypatch.undo()
        assert len(sweeps) >= 2 and logm_calls == sweeps
        np.testing.assert_array_equal(mean, manifold.frechet_mean(covs))
        assert len(features) == 1
        np.testing.assert_array_equal(features[0], tssf.tangent_vectors(mean, covs))

    def test_none_means_default_configs(self, rng):
        covs, labels = synth_covs(rng, t=20)
        first = tssf.fit_tangent_model(covs, labels)
        assert tssf.fit_tangent_model(covs, labels, tssf.ClassifierConfig()) is first

    def test_different_inputs_miss(self, rng):
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(reg=2.0)
        base = tssf.fit_tangent_model(covs, labels, cfg)
        flipped = labels.copy()
        flipped[:2] = -flipped[:2]
        variants = [
            (covs, flipped, cfg),
            (covs, labels, tssf.ClassifierConfig(reg=3.0)),
            (covs[:-2], labels[:-2], cfg),
        ]
        for args in variants:
            mean, model = tssf.fit_tangent_model(*args)
            assert mean is not base[0] and model is not base[1]
        mean, _ = tssf.fit_tangent_model(covs, labels.astype(float), cfg)  # same values, new dtype
        assert mean is not base[0]
        np.testing.assert_array_equal(mean, base[0])

    def test_concurrent_fits_agree(self, rng, monkeypatch):
        covs, labels = synth_covs(rng, c=3, t=12)
        cfgs = [tssf.ClassifierConfig(reg=r) for r in (0.5, 1.0, 2.0, 4.0)]
        expected = [tssf.fit_tangent_model(covs, labels, cfg) for cfg in cfgs]
        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
        errors = []

        def work(offset):
            try:
                for i in range(20):
                    j = (i + offset) % len(cfgs)
                    mean, model = tssf.fit_tangent_model(covs, labels, cfgs[j])
                    np.testing.assert_array_equal(mean, expected[j][0])
                    np.testing.assert_array_equal(model.weights, expected[j][1].weights)
            except Exception as exc:  # reported through errors below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_bad_inputs_rejected(self, rng):
        covs, labels = synth_covs(rng, t=10)
        with pytest.raises(InvalidInput):
            tssf.fit_tangent_model(covs[0], labels)
        with pytest.raises(InvalidInput):
            tssf.fit_tangent_model(covs, labels[:-1])
        with pytest.raises(DegenerateModel):
            tssf.fit_tangent_model(covs, np.ones(10))

    def test_label_values_checked_before_any_mean(self, rng, monkeypatch):
        covs, labels = synth_covs(rng, t=10)

        def fail(*args, **kwargs):
            raise AssertionError("a Frechet mean was computed before the labels were checked")

        monkeypatch.setattr(tssf_module, "_frechet_mean_and_logs", fail)
        fits = (
            tssf.fit_tangent_model,
            lambda covs, labels: tssf.extract_tssf(covs, labels, 2),
            lambda covs, labels: tssf.fit_csp(covs, labels, 2),
        )
        for fit in fits:
            with pytest.raises(InvalidInput, match=r"-1 or \+1, got 0$"):
                fit(covs, (labels > 0).astype(int))
