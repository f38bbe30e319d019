import warnings

import numpy as np
import pytest

from tssf import linmodel, manifold
from tssf.errors import DegenerateModel, InvalidInput

from conftest import random_spd, random_symmetric


def blobs(rng, n_per_class=10, dim=2, sep=2.0):
    xp = rng.standard_normal((n_per_class, dim)) + sep
    xn = rng.standard_normal((n_per_class, dim)) - sep
    x = np.vstack([xp, xn])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return x, y


def subgradient_oracle(x, y, reg, iters=200_000, step0=0.5):
    """Slow projected-subgradient descent on the primal, averaged iterates."""
    t, d = x.shape
    w = np.zeros(d)
    b = 0.0
    w_avg, b_avg = np.zeros(d), 0.0
    best = np.inf
    for it in range(iters):
        margins = 1.0 - y * (x @ w + b)
        active = margins > 0
        gw = w - reg * ((y[active, None] * x[active]).sum(axis=0)) / t
        gb = -reg * y[active].sum() / t
        step = step0 / np.sqrt(it + 1.0)
        w -= step * gw
        b -= step * gb
        w_avg += w
        b_avg += b
        if it % 1000 == 999:
            best = min(best, linmodel.svm_objective(w, b, x, y, reg))
            wa, ba = w_avg / (it + 1), b_avg / (it + 1)
            best = min(best, linmodel.svm_objective(wa, ba, x, y, reg))
    return best


def whole_array_svm_dual(x, y, reg, tol, max_iter):
    """The dual ascent with every quantity recomputed over whole arrays."""
    t = x.shape[0]
    cap = reg / t
    gram = x @ x.T
    alpha, qalpha, pos, it = np.zeros(t), np.zeros(t), y > 0, 0
    while it < max_iter:
        cand = y - y * qalpha
        up = (pos & (alpha < cap)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < cap)) | (pos & (alpha > 0))
        up_vals, low_vals = np.where(up, cand, -np.inf), np.where(low, cand, np.inf)
        i, j = int(np.argmax(up_vals)), int(np.argmin(low_vals))
        m_val, big_m_val = up_vals[i], low_vals[j]
        if m_val - big_m_val <= tol:
            break
        curvature = max(gram[i, i] + gram[j, j] - 2.0 * gram[i, j], 1e-12)
        slope = y[i] * (qalpha[i] - 1.0) - y[j] * (qalpha[j] - 1.0)
        # alpha_i moves by +y_i * step and alpha_j by -y_j * step; both stay
        # in [0, cap]
        lo_i, hi_i = (-alpha[i], cap - alpha[i]) if y[i] > 0 else (alpha[i] - cap, alpha[i])
        lo_j, hi_j = (alpha[j] - cap, alpha[j]) if y[j] > 0 else (-alpha[j], cap - alpha[j])
        step = min(max(-slope / curvature, lo_i, lo_j), hi_i, hi_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        qalpha += step * y * (gram[:, i] - gram[:, j])
        it += 1
    return x.T @ (alpha * y), 0.5 * (m_val + big_m_val)


class TestSvm:
    def test_bitwise_equal_to_whole_array_loop(self, rng, monkeypatch):
        # the solver updates its index sets in place; every result bit must
        # match recomputing them over whole arrays, also when capped
        for trial in range(56):
            t, d = int(rng.integers(6, 60)), int(rng.integers(1, 12))
            x = rng.standard_normal((t, d)) * 10.0 ** rng.uniform(-2, 1)
            if trial % 4 == 0:
                x = np.round(x, 1)  # ties between candidates
            y = np.where(rng.random(t) < 0.5, -1.0, 1.0)
            y[:2], y[2:4] = 1.0, -1.0
            reg = float(10.0 ** rng.uniform(-2, 2))
            if trial >= 40:
                # x[0] also with label -1, at large reg: the pair of its two
                # copies has curvature 0, which the solver clamps to 1e-12
                x = rng.standard_normal((t, t - 2)) * 10.0 ** rng.uniform(0, 2)
                x[2] = x[0]
                reg = float(10.0 ** rng.uniform(2, 4))
            max_iter = (5, 10**5)[trial % 2]
            monkeypatch.setattr(linmodel, "SVM_MAX_UPDATES", max_iter)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                w, b, info = linmodel._solve_svm_dual(x, y, reg, x @ x.T)
            w_ref, b_ref = whole_array_svm_dual(x, y, reg, 1e-6, max_iter)
            assert w.tobytes() == w_ref.tobytes()
            assert b == b_ref

    def test_separable_1d(self):
        x = np.array([[-1.0], [-1.2], [1.0], [1.2]])
        y = np.array([-1, -1, 1, 1])
        model = linmodel.fit_linear_svm(x, y, reg=10.0)
        assert model.weights[0] > 0
        preds = np.sign(x @ model.weights + model.intercept)
        np.testing.assert_array_equal(preds, y)

    def test_duplicated_dataset_same_model(self, rng, monkeypatch):
        monkeypatch.setattr(linmodel, "SVM_TOL", 1e-10)
        x, y = blobs(rng, n_per_class=10, sep=1.0)
        m1 = linmodel.fit_linear_svm(x, y, reg=1.0)
        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        m2 = linmodel.fit_linear_svm(x2, y2, reg=1.0)
        np.testing.assert_allclose(m2.weights, m1.weights, atol=1e-8)
        assert m2.intercept == pytest.approx(m1.intercept, abs=1e-8)

    def test_objective_matches_subgradient_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(linmodel, "SVM_TOL", 1e-8)
        x, y = blobs(rng, n_per_class=10, sep=0.5)
        model = linmodel.fit_linear_svm(x, y, reg=2.0)
        ours = linmodel.svm_objective(model.weights, model.intercept, x, y, 2.0)
        oracle = subgradient_oracle(x, y, 2.0)
        assert abs(ours - oracle) < 1e-4
        assert ours <= oracle + 1e-6  # solver should not be worse

    def test_kkt_gap_reported(self, rng):
        x, y = blobs(rng, n_per_class=10)
        _, _, info = linmodel._solve_svm_dual(x, y, 1.0, linmodel._gram(x, 1.0))
        assert info.iterations > 0 and info.kkt_gap <= linmodel.SVM_TOL

    def test_point_with_both_labels_reaches_the_gap(self):
        # x[0] with both labels at large reg, where late updates improve
        # beta by less than the rounding unit of the dual objective: the fit
        # still returns only once the gap is below the tolerance
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 19)) * 50.0
        x[1] = x[0]
        y = np.resize([1.0, -1.0], 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, info = linmodel._solve_svm_dual(x, y, 1e4, linmodel._gram(x, 1e4))
        assert info.kkt_gap <= linmodel.SVM_TOL

    def test_iteration_cap_warns(self, rng, monkeypatch):
        monkeypatch.setattr(linmodel, "SVM_MAX_UPDATES", 1)
        x, y = blobs(rng, n_per_class=10, sep=0.3)
        with pytest.warns(RuntimeWarning, match=r"reg=2.*SVM_MAX_UPDATES=1 .*KKT gap"):
            _, _, info = linmodel._solve_svm_dual(x, y, 2.0, linmodel._gram(x, 2.0))
        assert info.iterations == 1 and info.kkt_gap > 1e-6

    def test_converged_fit_is_silent(self, rng):
        x, y = blobs(rng, n_per_class=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linmodel.fit_linear_svm(x, y, reg=1.0)

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((6, 2))
        with pytest.raises(DegenerateModel):
            linmodel.fit_linear_svm(x, np.ones(6), reg=1.0)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda x, y: linmodel.fit_linear_svm(x, y, reg=1.0),
            lambda x, y: linmodel.grid_search_cv(x, y, folds=2),
            lambda x, y: linmodel.fit_from_config(x, y),
        ],
        ids=["fit_linear_svm", "grid_search_cv", "fit_from_config"],
    )
    def test_label_contract_of_every_fit(self, rng, fit):
        # the contract of every other fit: a single class is DegenerateModel
        # (exit 3), and a bad label is InvalidInput naming it
        x, y = blobs(rng, n_per_class=4)
        with pytest.raises(DegenerateModel, match="single class"):
            fit(x, -np.ones(8))
        y[5] = 2
        with pytest.raises(InvalidInput, match="got 2"):
            fit(x, y)

    def test_one_sample_per_class_rejected(self, rng):
        x = rng.standard_normal((2, 2))
        with pytest.raises(InvalidInput):
            linmodel.fit_linear_svm(x, np.array([1, -1]), reg=1.0)

    def test_bad_reg(self, rng):
        x, y = blobs(rng, 3)
        with pytest.raises(InvalidInput):
            linmodel.fit_linear_svm(x, y, reg=0.0)
        with pytest.raises(InvalidInput, match="reg must be positive"):
            linmodel.fit_from_config(x, y, linmodel.ClassifierConfig(reg=-1.0))

    def test_bad_shapes(self, rng):
        x, y = blobs(rng, 3)
        with pytest.raises(InvalidInput, match="must be 2-D"):
            linmodel.fit_linear_svm(x[:, 0], y, reg=1.0)
        with pytest.raises(InvalidInput, match="label count"):
            linmodel.fit_linear_svm(x, y[:-1], reg=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize(
        "fit",
        [
            lambda x, y: linmodel.fit_linear_svm(x, y, reg=1.0),
            lambda x, y: linmodel.grid_search_cv(x, y, folds=5),
        ],
        ids=["fit_linear_svm", "grid_search_cv"],
    )
    def test_non_finite_features_rejected(self, rng, fit, bad):
        # one entry makes the Gram matrix NaN, inf, or (1e200^2) overflow:
        # the fit raises instead of returning a NaN model, and numpy warns
        # of nothing (RuntimeWarnings fail the suite)
        x, y = blobs(rng, n_per_class=20, dim=10)
        for row in (0, 39):  # the first and the last inner-CV fold
            xb = x.copy()
            xb[row, 4] = bad
            with pytest.raises(InvalidInput, match="SVM features"):
                fit(xb, y)

    def test_overflowing_solver_rejected(self, rng):
        # a finite Gram matrix whose largest entry is 1.7e308: a pair
        # curvature g_ii + g_jj - 2 g_ij overflows, and without the bound
        # the model comes out NaN
        x, y = blobs(rng, n_per_class=20, dim=10)
        x *= np.sqrt(1.7e308 / np.einsum("ij,ij->i", x, x).max())
        assert np.isfinite(x @ x.T).all()
        with pytest.raises(InvalidInput, match="solver overflows"):
            linmodel.fit_linear_svm(x, y, reg=1.0)


class TestGridSearch:
    def test_single_element_grid(self, rng):
        x, y = blobs(rng)
        model = linmodel.grid_search_cv(x, y, grid=[3.0], folds=2)
        assert model.reg == 3.0

    def test_duplicate_grid_tie(self, rng):
        x, y = blobs(rng)
        model = linmodel.grid_search_cv(x, y, grid=[2.0, 2.0], folds=2)
        assert model.reg == 2.0

    def test_separable_prefers_smallest(self, rng):
        x, y = blobs(rng, n_per_class=20, sep=4.0)
        model = linmodel.grid_search_cv(x, y, folds=5, seed=1)
        assert model.reg == 0.01  # every grid point reaches AUC 1.0; tie rule

    def test_deterministic_under_seed(self, rng):
        x, y = blobs(rng, n_per_class=12, sep=0.3)
        m1 = linmodel.grid_search_cv(x, y, folds=3, seed=7)
        m2 = linmodel.grid_search_cv(x, y, folds=3, seed=7)
        assert m1.reg == m2.reg
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_folds_exceed_class_size(self, rng):
        x, y = blobs(rng, n_per_class=3)
        with pytest.raises(InvalidInput):
            linmodel.grid_search_cv(x, y, folds=4)

    def test_empty_grid(self, rng):
        x, y = blobs(rng)
        with pytest.raises(InvalidInput):
            linmodel.grid_search_cv(x, y, grid=[])

    def test_bad_grid_and_folds(self, rng):
        x, y = blobs(rng)
        with pytest.raises(InvalidInput, match="grid values must be positive"):
            linmodel.grid_search_cv(x, y, grid=[1.0, 0.0])
        with pytest.raises(InvalidInput, match="folds must be >= 2"):
            linmodel.grid_search_cv(x, y, folds=1)


class TestDecisionValue:
    def test_matches_manifold_inner_product(self, rng):
        # with whitened tangent vectors, w.x is the manifold inner product
        # between the matching ambient tangent elements at the reference
        ref = random_spd(rng, 4)
        half = manifold.powm(ref, 0.5)
        w_mat = random_symmetric(rng, 4)
        s_mat = random_symmetric(rng, 4)
        model = linmodel.LinearModel(weights=manifold.vec(w_mat), intercept=0.0, reg=1.0)
        got = manifold.vec(s_mat) @ model.weights + model.intercept
        expected = manifold.inner_product_at(ref, half @ w_mat @ half, half @ s_mat @ half)
        assert got == pytest.approx(expected, abs=1e-10)
