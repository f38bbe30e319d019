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
    UnsupportedFeatureKind,
)

from conftest import random_spd


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


def fitted_model(rng, c=4, k=None, kind=tssf.LOGVAR, reg=2.0):
    covs, labels = synth_covs(rng, c=c)
    k = k or c
    model = tssf.extract_tssf(
        covs, labels, k, model_cfg=tssf.ClassifierConfig(reg=reg), feature_kind=kind
    )
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
        model, covs, labels = fitted_model(rng, c=4, k=4, kind=tssf.DIAGLOGCOV)
        vecs = tssf.tangent_vectors(model.reference_mean, covs)
        lin = tssf.fit_linear_svm(vecs, labels, 2.0)
        for cov, vec_t in zip(covs, vecs):
            filtered = model.filters.T @ cov @ model.filters
            feats = tssf.compute_features(model, filtered, tssf.DIAGLOGCOV)
            score, _ = tssf.predict_one_step(model, feats, tssf.DIAGLOGCOV)
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
        np.testing.assert_array_equal(m2.sort_index, m3.sort_index)
        # every model keeps all C sorted coefficients, whatever its k
        np.testing.assert_array_equal(m2.full_beta, m3.full_beta)
        np.testing.assert_array_equal(m3.beta, m3.full_beta[:3])
        assert m3.full_beta.shape == (4,)


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

    def test_logcov_length_and_reference(self, rng):
        model, covs, _ = fitted_model(rng, k=2, kind=tssf.LOGCOV)
        filtered = model.filters.T @ covs[0] @ model.filters
        feats = tssf.compute_features(model, filtered, tssf.LOGCOV)
        assert feats.shape == (3,)
        oracle = manifold.vec(manifold.log_map_at(model.filtered_mean, filtered))
        np.testing.assert_allclose(feats, oracle, atol=1e-12)

    def test_unknown_kind(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(UnsupportedFeatureKind):
            tssf.compute_features(model, np.eye(2), "sparse")

    @pytest.mark.parametrize("kind", [tssf.LOGVAR, tssf.DIAGLOGCOV])
    def test_logcov_needs_a_logcov_model(self, rng, kind):
        # only a "logcov" model holds the filtered-space mean its features need
        model, _, _ = fitted_model(rng, k=2, kind=kind)
        assert model.filtered_mean is None
        with pytest.raises(UnsupportedFeatureKind, match=f"'logcov' features of a model extracted for '{kind}'"):
            tssf.compute_features(model, np.eye(2), tssf.LOGCOV)


class TestPredict:
    def test_one_step_arithmetic(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        object.__setattr__(model, "beta", np.array([np.log(4.0), np.log(0.25)]))
        object.__setattr__(model, "intercept", 0.0)
        score, label = tssf.predict_one_step(model, np.array([1.0, 0.0]), tssf.LOGVAR)
        assert score == pytest.approx(np.log(4.0), abs=1e-15)
        assert label == 1

    def test_one_step_zero_tie(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        object.__setattr__(model, "intercept", 0.0)
        score, label = tssf.predict_one_step(model, np.zeros(2), tssf.LOGVAR)
        assert score == 0.0 and label == 1

    def test_one_step_rejects_logcov(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(UnsupportedFeatureKind):
            tssf.predict_one_step(model, np.zeros(3), tssf.LOGCOV)

    def test_one_step_feature_length(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        with pytest.raises(InvalidInput):
            tssf.predict_one_step(model, np.zeros(3), tssf.LOGVAR)

    def test_two_step_passthrough_matches_one_step(self, rng):
        model, _, _ = fitted_model(rng, k=2)
        second = tssf.LinearModel(
            weights=model.beta.copy(), intercept=model.intercept, reg=1.0
        )
        feats = rng.standard_normal(2)
        s1, _ = tssf.predict_one_step(model, feats, tssf.LOGVAR)
        s2 = tssf.decision_value(second, feats)
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
        predicted = [1 if tssf.decision_value(second, f) >= 0 else -1 for f in feats]
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
    def test_stored_fit_equals_fresh_fit_bitwise(self, rng):
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(reg=2.0)
        first = tssf.fit_tangent_model(covs, labels, cfg)
        again = tssf.fit_tangent_model(covs.copy(), labels.copy(), cfg)
        assert again[0] is first[0] and again[1] is first[1]
        tssf_module._clear_fit_store()
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
        model = tssf.extract_tssf(covs, labels, 2, model_cfg=tssf.ClassifierConfig(reg=2.0))
        assert not model.reference_mean.flags.writeable

    def test_trains_on_the_final_frechet_sweep(self, rng, monkeypatch):
        # the model is fitted on the whitened logs of the mean's last sweep,
        # which are tangent_vectors(mean, covs) up to rounding; no log is
        # recomputed after the mean
        covs, labels = synth_covs(rng)
        cfg = tssf.ClassifierConfig(kind="lda")  # closed form: stable under rounding

        def fail(*args, **kwargs):
            raise AssertionError("tangent vectors recomputed after the Frechet mean")

        tssf_module._clear_fit_store()
        monkeypatch.setattr(tssf_module, "_whitened_log", fail)
        mean, model = tssf.fit_tangent_model(covs, labels, cfg)
        monkeypatch.undo()
        np.testing.assert_array_equal(mean, manifold.frechet_mean(covs))
        expected = tssf.fit_lda(tssf.tangent_vectors(mean, covs), labels)
        np.testing.assert_allclose(model.weights, expected.weights, rtol=1e-9, atol=1e-9)
        assert model.intercept == pytest.approx(expected.intercept, rel=1e-9, abs=1e-9)

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
            (covs, labels, tssf.ClassifierConfig(kind="lda")),
            (covs[:-2], labels[:-2], cfg),
        ]
        for args in variants:
            mean, model = tssf.fit_tangent_model(*args)
            assert mean is not base[0] and model is not base[1]
        mean, _ = tssf.fit_tangent_model(covs, labels.astype(float), cfg)  # same values, new dtype
        assert mean is not base[0]
        np.testing.assert_array_equal(mean, base[0])

    def test_store_keeps_the_most_recent_fits(self, rng, monkeypatch):
        covs, labels = synth_covs(rng, t=20)
        cfg = [tssf.ClassifierConfig(reg=r) for r in (1.0, 2.0, 3.0)]
        monkeypatch.setattr(tssf_module, "_FIT_STORE_SIZE", 2)
        tssf_module._clear_fit_store()
        first = tssf.fit_tangent_model(covs, labels, cfg[0])
        tssf.fit_tangent_model(covs, labels, cfg[1])
        assert tssf.fit_tangent_model(covs, labels, cfg[0]) is first  # now most recent
        tssf.fit_tangent_model(covs, labels, cfg[2])  # evicts cfg[1]
        assert tssf.fit_tangent_model(covs, labels, cfg[0]) is first
        assert len(tssf_module._fit_store) == 2
        tssf_module._clear_fit_store()

    def test_concurrent_fits_agree_and_respect_capacity(self, rng, monkeypatch):
        covs, labels = synth_covs(rng, c=3, t=12)
        cfgs = [tssf.ClassifierConfig(reg=r) for r in (0.5, 1.0, 2.0, 4.0)]
        tssf_module._clear_fit_store()
        expected = [tssf.fit_tangent_model(covs, labels, cfg) for cfg in cfgs]
        monkeypatch.setattr(tssf_module, "_FIT_STORE_SIZE", 2)
        tssf_module._clear_fit_store()
        errors = []

        def work(offset):
            try:
                for i in range(20):
                    j = (i + offset) % len(cfgs)
                    mean, model = tssf.fit_tangent_model(covs, labels, cfgs[j])
                    np.testing.assert_array_equal(mean, expected[j][0])
                    np.testing.assert_array_equal(model.weights, expected[j][1].weights)
                    assert len(tssf_module._fit_store) <= 2
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
            tssf_module._clear_fit_store()
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
