import tracemalloc

import numpy as np
import pytest

import tssf
from tssf import dataio, manifold
from tssf.errors import (
    ConvergenceFailure,
    DimMismatch,
    InvalidInput,
    NotPositiveDefinite,
)

from conftest import random_invertible, random_orthogonal, random_spd, random_symmetric


class TestSymEig:
    def test_diagonal(self):
        w, v = manifold.sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(w, [3.0, 1.0])
        np.testing.assert_array_equal(v, np.eye(2))

    def test_identity(self):
        w, v = manifold.sym_eig(np.eye(2))
        np.testing.assert_array_equal(w, [1.0, 1.0])
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-14)

    def test_reconstruction(self, rng):
        a = random_symmetric(rng, 5)
        w, v = manifold.sym_eig(a)
        assert np.linalg.norm((v * w) @ v.T - a) < 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(5)) < 1e-10
        assert np.all(np.diff(w) <= 0)

    def test_sign_convention(self, rng):
        _, v = manifold.sym_eig(random_symmetric(rng, 6))
        picks = np.argmax(np.abs(v), axis=0)
        assert np.all(v[picks, np.arange(6)] > 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInput):
            manifold.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput, match=r"must be square, got shape \(2, 3\)"):
            manifold.sym_eig(np.zeros((2, 3)))

    def test_symmetry_tolerance(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        manifold.sym_eig(a)  # within SYM_RTOL: accepted
        a[1, 0] = 1.0 + 1e-9
        with pytest.raises(InvalidInput):
            manifold.sym_eig(a)
        with pytest.raises(InvalidInput):
            manifold.sym_eig(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_symmetry_tolerance_is_relative(self, rng, scale):
        # the tolerance follows each matrix's largest entry: 10 % asymmetry
        # is rejected at any scale, alone and inside a stack of well-scaled
        # matrices, and rounding-level asymmetry is accepted at any scale
        a = scale * np.array([[2.0, 1.0], [1.1, 2.0]])
        with pytest.raises(InvalidInput, match="^matrix is not symmetric"):
            manifold.sym_eig(a)
        stack = np.array([random_spd(rng, 2) for _ in range(5)])
        stack[3] = a
        with pytest.raises(InvalidInput, match="^matrix 3 is not symmetric"):
            manifold.sym_eig(stack)
        a[1, 0] = a[0, 1] * (1.0 + 1e-15)
        manifold.sym_eig(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_not_called_asymmetry(self, rng, bad):
        # a NaN sample leaves a NaN row and column; one infinite entry would
        # make the symmetry tolerance infinite. The error says what is wrong
        stack = np.array([random_spd(rng, 3) for _ in range(5)])
        stack[3, 2, :] = stack[3, :, 2] = np.nan
        lone = stack[1].copy()
        lone[0, 2] = bad
        for a, name in ((stack, "covariance 3"), (lone, "covariance")):
            with pytest.raises(InvalidInput, match=f"^{name} has a non-finite entry$"):
                manifold.ensure_spd(a, "covariance")
        with pytest.raises(InvalidInput, match="^matrix has a non-finite entry$"):
            manifold.sym_eig(lone)
        # a symmetric pair of them, or one on the diagonal, is exactly
        # symmetric: every public matrix function still names the matrix,
        # where sym_eig and expm returned NaN and logm called it not SPD
        g = random_spd(rng, 3)
        pair, diagonal = g.copy(), g.copy()
        pair[0, 2] = pair[2, 0] = diagonal[1, 1] = bad
        calls = [
            ("matrix", manifold.sym_eig),
            ("matrix", manifold.expm),
            ("matrix", manifold.logm),
            ("matrix", lambda b: manifold.powm(b, 0.5)),
            ("matrix 1", lambda b: manifold.logm(np.array([g, b, g]))),
            ("covariance", lambda b: manifold.ensure_spd(b, "covariance")),
            ("matrix", manifold.vec),
            ("ref", lambda b: manifold.log_map_at(b, g)),
            ("x", lambda b: manifold.log_map_at(g, b)),
            ("ref", lambda b: manifold.exp_map_at(b, g)),
            ("s", lambda b: manifold.exp_map_at(g, b)),
            ("ref", lambda b: manifold.inner_product_at(b, g, g)),
            ("s1", lambda b: manifold.inner_product_at(g, b, g)),
            ("s2", lambda b: manifold.inner_product_at(g, g, b)),
            ("a", lambda b: manifold.airm_distance(b, g)),
            ("b", lambda b: manifold.airm_distance(g, b)),
            ("a", lambda b: manifold.ged(b, g)),
            ("b", lambda b: manifold.ged(g, b)),
            ("point 1", lambda b: manifold.frechet_mean([g, b, g])),
            ("ref", lambda b: tssf.tangent_vectors(b, [g])),
            ("covariance 1", lambda b: tssf.tangent_vectors(g, [g, b, g])),
            ("ref", lambda b: tssf.tangent_filters(b, g, 1)),
            ("weights", lambda b: tssf.tangent_filters(g, b, 1)),
        ]
        for name, call in calls:
            for a in (pair, diagonal):
                with pytest.raises(InvalidInput, match=f"^{name} has a non-finite entry$"):
                    call(a)


class TestMatrixFunctions:
    def test_logm_identity(self):
        np.testing.assert_allclose(manifold.logm(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_logm_diagonal(self):
        out = manifold.logm(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-14)

    def test_logm_expm_roundtrip(self, rng):
        a = random_spd(rng, 4)
        np.testing.assert_allclose(manifold.expm(manifold.logm(a)), a, rtol=1e-8)

    def test_logm_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            manifold.logm(np.diag([1.0, -1.0]))

    def test_expm_zero(self):
        np.testing.assert_array_equal(manifold.expm(np.zeros((2, 2))), np.eye(2))

    def test_expm_output_spd(self, rng):
        out = manifold.expm(random_symmetric(rng, 4))
        assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_powm_sqrt(self):
        np.testing.assert_allclose(
            manifold.powm(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_powm_half_squares_back(self, rng):
        a = random_spd(rng, 5)
        half = manifold.powm(a, 0.5)
        np.testing.assert_allclose(half @ half, a, rtol=1e-8)

    def test_powm_whitening_identity(self, rng):
        # C^{-1/2} C C^{-1/2} = I, the C^{-m} = C^{-m/2} C^{-m/2} route
        a = random_spd(rng, 4)
        inv_half = manifold.powm(a, -0.5)
        np.testing.assert_allclose(inv_half @ a @ inv_half, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(
            manifold.powm(a, -0.5), np.linalg.inv(manifold.powm(a, 0.5)), atol=1e-8
        )

    def test_powm_zero_power(self, rng):
        with pytest.raises(InvalidInput):
            manifold.powm(random_spd(rng, 3), 0.0)


class TestAirmDistance:
    def test_self_distance_zero(self, rng):
        a = random_spd(rng, 4)
        assert manifold.airm_distance(a, a) < 1e-12

    def test_scaled_identity(self):
        assert manifold.airm_distance(np.eye(2), np.e * np.eye(2)) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_affine_invariance(self, rng):
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        d = manifold.airm_distance(a, b)
        for _ in range(5):
            w = random_invertible(rng, 5)
            dt = manifold.airm_distance(w.T @ a @ w, w.T @ b @ w)
            assert abs(dt - d) < 1e-8

    def test_symmetry(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        assert manifold.airm_distance(a, b) == pytest.approx(
            manifold.airm_distance(b, a), abs=1e-10
        )

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            manifold.airm_distance(random_spd(rng, 3), random_spd(rng, 4))

    def test_wide_generalized_spectrum(self):
        # each argument is SPD within SPD_TOL, while the generalized
        # eigenvalues 1e-6 and 1e6 of (b, a) span 1e12
        a, b = np.diag([1e6, 1.0]), np.diag([1.0, 1e6])
        assert manifold.airm_distance(a, b) == pytest.approx(np.sqrt(2.0) * np.log(1e6), rel=1e-12)
        assert manifold.airm_distance(b, a) == pytest.approx(np.sqrt(2.0) * np.log(1e6), rel=1e-12)

    @pytest.mark.parametrize("first", [True, False])
    def test_names_the_argument_that_is_not_spd(self, first):
        bad, good = np.diag([1.0, 1e-13]), np.eye(2)
        args, name = ((bad, good), "a") if first else ((good, bad), "b")
        with pytest.raises(NotPositiveDefinite, match=f"^{name} is not positive definite"):
            manifold.airm_distance(*args)

    def test_ill_conditioned_pair_never_gives_nan(self, rng):
        # both arguments pass the SPD check, but their condition numbers of
        # almost 1e10 multiply past 1/eps: a typed error or a finite distance
        def spd(first, last):
            q = random_orthogonal(rng, 6)
            s = (q * np.logspace(first, last, 6)) @ q.T
            return 0.5 * (s + s.T)

        for _ in range(20):
            try:
                d = manifold.airm_distance(spd(0, -9.9), spd(-9.9, 0))
            except NotPositiveDefinite as exc:
                assert "(b, a) too ill-conditioned" in str(exc)
            else:
                assert np.isfinite(d)


class TestFrechetMean:
    def test_single_and_repeated_point(self, rng):
        a = random_spd(rng, 3)
        np.testing.assert_allclose(manifold.frechet_mean([a]), a, atol=1e-12)
        np.testing.assert_allclose(manifold.frechet_mean([a, a]), a, atol=1e-10)

    def test_two_point_geodesic_midpoint(self):
        # closed-form midpoint a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2}
        a, b = np.diag([1.0, 4.0]), np.diag([4.0, 1.0])
        mean = manifold.frechet_mean([a, b])
        np.testing.assert_allclose(mean, np.diag([2.0, 2.0]), atol=1e-9)

    def test_two_point_midpoint_random(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        half = manifold.powm(a, 0.5)
        inv_half = manifold.powm(a, -0.5)
        midpoint = half @ manifold.powm(inv_half @ b @ inv_half, 0.5) @ half
        np.testing.assert_allclose(manifold.frechet_mean([a, b]), midpoint, atol=1e-8)

    def test_congruence_invariance(self, rng):
        pts = [random_spd(rng, 4) for _ in range(6)]
        mean = manifold.frechet_mean(pts)
        w = random_invertible(rng, 4)
        mean_t = manifold.frechet_mean([w.T @ p @ w for p in pts])
        np.testing.assert_allclose(mean_t, w.T @ mean @ w, atol=1e-6)

    def test_fixed_point_residual(self, rng):
        pts = [random_spd(rng, 4) for _ in range(8)]
        mean = manifold.frechet_mean(pts)
        tangents = np.mean([manifold.log_map_at(mean, p) for p in pts], axis=0)
        assert np.linalg.norm(tangents) < manifold.FRECHET_TOL

    def test_convergence_failure_reports_residual(self, rng, monkeypatch):
        pts = [random_spd(rng, 4, spread=2.0) for _ in range(8)]
        monkeypatch.setattr(manifold, "FRECHET_MAX_UPDATES", 1)
        with pytest.raises(ConvergenceFailure) as exc:
            manifold.frechet_mean(pts)
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            manifold.frechet_mean([])
        with pytest.raises(DimMismatch, match="same shape"):
            manifold.frechet_mean([np.eye(2), np.eye(3)])

    def test_close_to_fixed_point_mean(self, rng):
        # the curvature-corrected step converges to the point the unit-step
        # fixed-point iteration converges to
        pts = np.array([random_spd(rng, 6, spread=1.5) for _ in range(12)])
        fixed_point = loop_frechet_mean(pts, tol=1e-13, curvature=False)
        assert manifold.airm_distance(manifold.frechet_mean(pts), fixed_point) < 1e-9

    def test_widely_spread_set_converges(self, rng):
        # the unit step oscillates on such sets (ConvergenceFailure); the
        # curvature-corrected step is a damped Newton step
        pts = np.array([random_spd(rng, 6, spread=4.0) for _ in range(10)])
        mean = manifold.frechet_mean(pts)
        inv_half = manifold.powm(mean, -0.5)
        residual = np.mean([manifold.logm(sym(inv_half @ p @ inv_half)) for p in pts], axis=0)
        assert np.linalg.norm(residual) < 1e-10

    def test_logm_sweeps_at_64_channels(self, monkeypatch, bench_c64):
        calls = count_logm_calls(monkeypatch)
        manifold.frechet_mean(bench_c64)
        assert len(calls) <= 5  # the unit step takes 9
        assert all(shape == (120, 64, 64) for shape in calls)

    def test_calls_module_logm(self, monkeypatch):
        # perfbench/selftest.py::check_tracer wraps the module-global
        # manifold.logm and expects one frechet_mean on [I, 2I] to call it
        # at least twice; a refactor that bypasses it fails here first
        calls = count_logm_calls(monkeypatch)
        manifold.frechet_mean(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert len(calls) >= 2

    def test_final_sweep_logs_are_the_whitened_logs_at_the_mean(self, rng):
        pts = np.array([random_spd(rng, 5, spread=1.5) for _ in range(12)])
        mean, logs = manifold._frechet_mean_and_logs(pts)
        np.testing.assert_array_equal(mean, manifold.frechet_mean(pts))
        inv_half = manifold.powm(mean, -0.5)
        expected = [manifold.logm(sym(inv_half @ p @ inv_half)) for p in pts]
        np.testing.assert_allclose(logs, expected, rtol=1e-12, atol=1e-13)

    def test_peak_memory_at_64_channels(self, bench_c64):
        # logm needs its input, eigenvectors, scaled eigenvectors and output:
        # four (T, C, C) stacks; any further stack held across it shows here
        covs = bench_c64[:96]
        tracemalloc.start()
        try:
            manifold.frechet_mean(covs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * covs.nbytes

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
    def test_scale_equivariance(self, rng, scale):
        # the stopping rule is whitened, so data units change nothing: with
        # an unwhitened residual, tiny data stopped at the arithmetic mean
        pts = np.array([random_spd(rng, 6, spread=1.5) for _ in range(12)])
        expected = scale * manifold.frechet_mean(pts)
        np.testing.assert_allclose(
            manifold.frechet_mean(scale * pts), expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max()
        )


class TestKarcherHessian:
    @pytest.fixture
    def logs(self, rng):
        return manifold.logm(np.array([random_spd(rng, 5, spread=2.0) for _ in range(7)]))

    def test_matches_per_point_form(self, rng, logs):
        x = random_symmetric(rng, 5)
        np.testing.assert_allclose(
            manifold._karcher_hessian(logs)(x), loop_hessian(logs, x), rtol=1e-12, atol=1e-12
        )

    def test_symmetric_and_above_identity(self, rng, logs):
        hess = manifold._karcher_hessian(logs)
        for _ in range(10):
            x, y = random_symmetric(rng, 5), random_symmetric(rng, 5)
            assert np.sum(y * hess(x)) == pytest.approx(np.sum(hess(y) * x), rel=1e-12)
            assert np.sum(x * hess(x)) >= np.sum(x * x)

    def test_commuting_logs_give_unit_step(self, rng):
        # H is the identity on matrices that commute with every L_t, so for
        # diagonal points the step is the mean log itself
        logs = manifold.logm(np.array([np.diag(np.exp(rng.uniform(-2, 2, 4))) for _ in range(5)]))
        grad = logs.mean(axis=0)
        np.testing.assert_allclose(manifold._curvature_step(logs, grad), grad, atol=1e-15)


class TestTangentMaps:
    def test_log_map_at_identity_is_logm(self, rng):
        a = random_spd(rng, 4)
        np.testing.assert_allclose(
            manifold.log_map_at(np.eye(4), a), manifold.logm(a), atol=1e-12
        )

    def test_log_map_at_self_is_zero(self, rng):
        a = random_spd(rng, 4)
        np.testing.assert_allclose(manifold.log_map_at(a, a), np.zeros((4, 4)), atol=1e-12)

    def test_roundtrip(self, rng):
        ref, x = random_spd(rng, 5), random_spd(rng, 5)
        s = manifold.log_map_at(ref, x)
        np.testing.assert_allclose(manifold.exp_map_at(ref, s), x, atol=1e-8)

    def test_invalid_reference(self, rng):
        with pytest.raises(NotPositiveDefinite):
            manifold.log_map_at(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("c", [4, 9, 16, 33, 64])
    def test_exactly_symmetric(self, rng, c):
        # both maps end in one symmetrized congruence by ref^{1/2}, whose
        # eigenvector products alone are symmetric only to rounding
        for _ in range(5):
            ref, x = random_spd(rng, c), random_spd(rng, c)
            for out in (manifold.log_map_at(ref, x), manifold.exp_map_at(ref, sym(x - ref))):
                assert np.array_equal(out, out.T)


class TestVec:
    def test_example(self):
        s = np.array([[1.0, 3.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            manifold.vec(s), [1.0, 3.0 * np.sqrt(2.0), 4.0], atol=1e-15
        )

    def test_zero(self):
        np.testing.assert_array_equal(manifold.vec(np.zeros((3, 3))), np.zeros(6))

    def test_trace_isometry(self, rng):
        s = random_symmetric(rng, 6)
        assert np.linalg.norm(manifold.vec(s)) ** 2 == pytest.approx(
            np.trace(s @ s), abs=1e-12
        )

    def test_dot_product_isometry(self, rng):
        s1, s2 = random_symmetric(rng, 5), random_symmetric(rng, 5)
        assert np.dot(manifold.vec(s1), manifold.vec(s2)) == pytest.approx(
            np.trace(s1 @ s2), abs=1e-12
        )

    def test_roundtrip_one_ulp(self, rng):
        # scaling by sqrt(2) and back is exact to <= 1 ulp in float64
        s = random_symmetric(rng, 7)
        back = manifold.unvec(manifold.vec(s))
        np.testing.assert_allclose(back, s, rtol=2.0**-52, atol=0.0)
        np.testing.assert_array_equal(np.diag(back), np.diag(s))

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(InvalidInput):
            manifold.unvec(np.zeros(5))
        with pytest.raises(InvalidInput, match="must be 1-D"):
            manifold.unvec(np.zeros((2, 3)))


class TestInnerProduct:
    def test_identity_reference(self, rng):
        s1, s2 = random_symmetric(rng, 4), random_symmetric(rng, 4)
        assert manifold.inner_product_at(np.eye(4), s1, s2) == pytest.approx(
            np.trace(s1 @ s2), abs=1e-12
        )

    def test_positivity(self, rng):
        ref = random_spd(rng, 4)
        s = random_symmetric(rng, 4)
        assert manifold.inner_product_at(ref, s, s) > 0
        assert manifold.inner_product_at(ref, np.zeros((4, 4)), np.zeros((4, 4))) == 0

    def test_vectorization_oracle(self, rng):
        ref = random_spd(rng, 5)
        s1, s2 = random_symmetric(rng, 5), random_symmetric(rng, 5)
        inv_half = manifold.powm(ref, -0.5)
        v1 = manifold.vec(inv_half @ s1 @ inv_half)
        v2 = manifold.vec(inv_half @ s2 @ inv_half)
        assert manifold.inner_product_at(ref, s1, s2) == pytest.approx(
            np.dot(v1, v2), abs=1e-10
        )


class TestGed:
    def test_diagonal_example(self):
        res = manifold.ged(np.diag([8.0, 2.0]), np.diag([2.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [4.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            res.eigenvectors, np.diag([1.0 / np.sqrt(2.0)] * 2), atol=1e-12
        )

    def test_equal_arguments(self, rng):
        c = random_spd(rng, 4)
        res = manifold.ged(c, c)
        np.testing.assert_allclose(res.eigenvalues, np.ones(4), atol=1e-10)
        np.testing.assert_allclose(
            res.eigenvectors.T @ c @ res.eigenvectors, np.eye(4), atol=1e-8
        )

    def test_whitening_and_diagonalization(self, rng):
        cw, cm = random_spd(rng, 5), random_spd(rng, 5)
        res = manifold.ged(cw, cm)
        f = res.eigenvectors
        np.testing.assert_allclose(f.T @ cm @ f, np.eye(5), atol=1e-8)
        filtered = f.T @ cw @ f
        np.testing.assert_allclose(filtered, np.diag(res.eigenvalues), atol=1e-8)

    def test_log_eigenvalue_invariance(self, rng):
        # the eigenvectors survive the logarithm of the first argument:
        # ged(log_map_at(cm, cw), cm) has the same F with eigenvalues log(d)
        cm = random_spd(rng, 5)
        cw = random_spd(rng, 5)
        sw = manifold.log_map_at(cm, cw)
        res_c = manifold.ged(cw, cm)
        res_s = manifold.ged(sw, cm)
        order = np.argsort(-res_c.eigenvalues)
        np.testing.assert_allclose(
            np.log(res_c.eigenvalues[order]), res_s.eigenvalues[np.argsort(-res_s.eigenvalues)],
            atol=1e-8,
        )
        angle = manifold.subspace_angle_by_cluster(
            res_c.eigenvectors, res_s.eigenvectors, res_c.eigenvalues
        )
        assert angle < 1e-8

    def test_deterministic_bitwise(self, rng):
        cw, cm = random_spd(rng, 6), random_spd(rng, 6)
        r1 = manifold.ged(cw, cm)
        r2 = manifold.ged(cw, cm)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)

    def test_indefinite_first_argument(self, rng):
        s = random_symmetric(rng, 4)
        res = manifold.ged(s, random_spd(rng, 4))
        assert res.eigenvalues.min() < 0 or res.eigenvalues.max() > 0

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            manifold.ged(random_spd(rng, 3), random_spd(rng, 4))


class TestOrthogonalLogCommutation:
    def test_congruence_by_orthogonal(self, rng):
        # Logm(V^T A V) = V^T Logm(A) V for orthogonal V
        for _ in range(10):
            v = random_orthogonal(rng, 5)
            a = random_spd(rng, 5)
            lhs = manifold.logm(v.T @ a @ v)
            rhs = v.T @ manifold.logm(a) @ v
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestSubspaceAngles:
    def test_identical_sets(self, rng):
        f = random_invertible(rng, 4)
        assert manifold.subspace_angle_by_cluster(f, f, np.arange(4.0)[::-1]) < 1e-12

    def test_cluster_rotation_invisible(self, rng):
        # a rotation inside a degenerate eigenvalue block is not a deviation
        f = np.eye(4)
        theta = 0.7
        rot = np.eye(4)
        rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        eigs = np.array([3.0, 2.0, 2.0, 1.0])
        assert manifold.subspace_angle_by_cluster(f, f @ rot, eigs) < 1e-12

    def test_detects_mismatch(self):
        f1 = np.eye(3)
        f2 = np.eye(3)[:, [1, 0, 2]]
        eigs = np.array([3.0, 2.0, 1.0])
        assert manifold.subspace_angle_by_cluster(f1, f2, eigs) > 1.0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(DimMismatch, match="must align"):
            manifold.subspace_angle_by_cluster(np.eye(3), np.eye(3), np.ones(2))


def loop_frechet_mean(points, tol=1e-10, max_iterations=50, curvature=True):
    """The Frechet-mean iteration one point at a time (reference).

    With ``curvature=False`` it is the unit-step fixed-point iteration
    ``m <- Expm_m(mean_t Logm_m(points[t]))``.
    """
    mean = np.mean(points, axis=0)
    for _ in range(max_iterations):
        half, inv_half = manifold.powm(mean, 0.5), manifold.powm(mean, -0.5)
        logs = [manifold.logm(sym(inv_half @ p @ inv_half)) for p in points]
        log_mean = np.mean(logs, axis=0)
        if np.linalg.norm(log_mean) < tol:
            return mean
        step = loop_cg(logs, log_mean) if curvature else log_mean
        mean = half @ manifold.expm(sym(step)) @ half
    raise AssertionError("reference iteration did not converge")


def loop_hessian(logs, x):
    """H[X] = X + mean_t (L_t^2 X + X L_t^2 - 2 L_t X L_t) / 12, point by point."""
    return x + np.mean([l @ l @ x + x @ l @ l - 2.0 * l @ x @ l for l in logs], axis=0) / 12.0


def loop_cg(logs, g):
    """Conjugate gradients for H X = g, stopped at ||r|| <= 1e-3 ||g||."""
    x, r, p = np.zeros_like(g), g, g
    for _ in range(manifold.vec_dim(len(g))):
        hp = loop_hessian(logs, p)
        alpha = np.sum(r * r) / np.sum(p * hp)
        x, r_old, r = x + alpha * p, r, r - alpha * hp
        if np.linalg.norm(r) <= 1e-3 * np.linalg.norm(g):
            break
        p = r + np.sum(r * r) / np.sum(r_old * r_old) * p
    return x


def sym(a):
    return 0.5 * (a + a.T)


@pytest.fixture(scope="module")
def bench_c64():
    """Covariances of perfbench's eval-c64-fixed eval data at seed 1: (120, 64, 64)."""
    cfg = dataio.SynthConfig(
        channels=64, samples=256, trials_per_class=60, seed=1, noise_sigma=1.5, nonstationarity=0.2
    )
    return dataio.covariances(dataio.synth_generate(cfg))


def count_logm_calls(monkeypatch):
    """Wrap ``manifold.logm``; returns the list of argument shapes it sees."""
    calls = []
    logm = manifold.logm

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return logm(a, *args, **kwargs)

    monkeypatch.setattr(manifold, "logm", counting)
    return calls


def outcome(check, a):
    """"accepted", or the type and message of whatever ``check`` raised."""
    try:
        check(a)
    except Exception as exc:  # noqa: BLE001  (the outcome is compared, whatever it is)
        return type(exc), str(exc)
    return "accepted"


def eigenvalue_rule(a):
    """Outcome of ensure_spd without the Cholesky certificate."""

    def check(a):
        a = manifold._check_symmetric(a)
        manifold._check_definite(np.linalg.eigvalsh(a), "matrix")

    return outcome(check, a)


def ensure_spd_outcome(a):
    return outcome(manifold.ensure_spd, a)


class TestCertifiedSpdCheck:
    @staticmethod
    def with_spectrum(rng, eigenvalues):
        q = random_orthogonal(rng, len(eigenvalues))
        a = (q * np.asarray(eigenvalues)) @ q.T
        return 0.5 * (a + a.T)

    def boundary_set(self, rng):
        # lam_min / lam_max at 0.5, 0.99, 1.01 and 3 times SPD_TOL, at C = 2
        # and 6, at unit and 1e-8 scale; indefinite matrices with positive
        # trace; clearly SPD matrices
        tol = manifold.SPD_TOL
        mats = []
        for c in (2, 6):
            for factor in (0.5, 0.99, 1.01, 3.0):
                for scale in (1.0, 1e-8):
                    spectrum = np.concatenate([[1.0], np.linspace(1.0, 0.1, c - 2), [factor * tol]])
                    mats.append(self.with_spectrum(rng, scale * spectrum[:c]))
            mats.append(self.with_spectrum(rng, np.r_[3.0, -1.0, np.ones(c - 2)]))
            mats.append(self.with_spectrum(rng, np.r_[5.0, -1e-3, np.ones(c - 2)]))
            mats.append(random_spd(rng, c))
        return mats

    def test_decisions_equal_eigenvalue_rule_one_matrix(self, rng):
        outcomes = set()
        for a in self.boundary_set(rng):
            expected = eigenvalue_rule(a)
            assert ensure_spd_outcome(a) == expected
            outcomes.add(expected == "accepted")
        assert outcomes == {True, False}  # both decisions are exercised

    def test_decisions_equal_eigenvalue_rule_stacks(self, rng):
        mats = self.boundary_set(rng)
        for c in (2, 6):
            same = [a for a in mats if a.shape == (c, c)]
            for i in range(len(same)):
                # a clearly SPD stack with one boundary matrix at position 1
                stack = np.stack([random_spd(rng, c), same[i], random_spd(rng, c)])
                assert ensure_spd_outcome(stack) == eigenvalue_rule(stack)
            assert ensure_spd_outcome(np.stack(same)) == eigenvalue_rule(np.stack(same))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_and_jitter(self, rng, bad):
        a = random_spd(rng, 4)
        for stack in (a, np.stack([a, a])):
            entry = stack.copy()
            entry[..., 1, 1] = bad
            assert ensure_spd_outcome(entry) == eigenvalue_rule(entry)
            off = stack.copy()
            off[..., 2, 0] = off[..., 0, 2] = bad
            assert ensure_spd_outcome(off) == eigenvalue_rule(off)

    def test_certificate_accepts_only_what_the_rule_accepts(self, rng):
        tol = manifold.SPD_TOL
        for a in self.boundary_set(rng):
            if manifold._certified_spd(a):
                assert eigenvalue_rule(a) == "accepted"
        # the certificate carries the common case: a well-conditioned stack,
        # and a matrix at 3x the tolerance whose trace is its largest eigenvalue
        stack = np.array([random_spd(rng, 8, spread=2.0) for _ in range(20)])
        assert manifold._certified_spd(stack)
        assert manifold._certified_spd(np.diag([1.0, 3.0 * tol]))
        assert not manifold._certified_spd(np.diag([1.0, 1.01 * tol]))


class TestStacks:
    def test_functions_match_per_matrix_calls(self, rng):
        stack = np.array([random_spd(rng, 4, spread=1.5) for _ in range(6)]).reshape(2, 3, 4, 4)
        for fn in (
            manifold.logm,
            manifold.expm,
            lambda a: manifold.powm(a, -0.5),
            manifold.vec,
            lambda a: manifold.log_map_at(stack[0, 0], a),
            lambda a: manifold.exp_map_at(stack[0, 0], manifold.logm(a)),
        ):
            out = fn(stack)
            for i in np.ndindex(stack.shape[:2]):
                np.testing.assert_allclose(out[i], fn(stack[i]), rtol=1e-13, atol=1e-14)

    def test_sym_eig_conventions_per_matrix(self, rng):
        stack = np.array([random_symmetric(rng, 5) for _ in range(4)])
        w, v = manifold.sym_eig(stack)
        for t in range(4):
            w_t, v_t = manifold.sym_eig(stack[t])
            np.testing.assert_array_equal(w[t], w_t)
            np.testing.assert_array_equal(v[t], v_t)

    def test_first_failing_matrix_named(self, rng):
        stack = np.array([random_spd(rng, 3) for _ in range(5)])
        stack[3] = np.diag([1.0, -1.0, 2.0])
        for fn in (manifold.ensure_spd, manifold.logm, lambda a: manifold.powm(a, 2.0)):
            with pytest.raises(NotPositiveDefinite, match="matrix 3 "):
                fn(stack)
        # a two-axis stack is named by a tuple of plain ints
        two = np.stack([stack[[0, 1, 2, 4]]] * 2)
        two[1, 0] = stack[3]
        with pytest.raises(NotPositiveDefinite, match=r"matrix \(1, 0\) is not positive"):
            manifold.ensure_spd(two)

    def test_the_error_keeps_what_fault_and_index_of_its_whole_message(self):
        # the message is "what index fault", byte for byte the text the raise
        # sites formatted themselves; the parts let a blocked pass renumber it
        lone, stack = np.diag([1.0, -1.0]), np.stack([np.eye(2), np.diag([1.0, -1.0])])
        fault = "is not positive definite: eigenvalue range [-1.000e+00, 1.000e+00] fails "
        fault += "tolerance 1e-10"
        for a, index, text in [
            (lone, (), "matrix "),
            (stack, (1,), "matrix 1 "),
            (stack[None], (0, 1), "matrix (0, 1) "),
        ]:
            with pytest.raises(NotPositiveDefinite) as info:
                manifold.logm(a)
            assert str(info.value) == text + fault
            assert (info.value.what, info.value.fault, info.value.index) == ("matrix", fault, index)

    def test_a_non_finite_matrix_lapack_rejects_is_named(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        nan = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(NotPositiveDefinite, match=r"^point 2 has a non-finite entry$") as info:
            manifold._spd_eigh(nan, "point")
        assert info.value.index == (2,)
        with pytest.raises(np.linalg.LinAlgError):  # a finite stack: LAPACK's own error
            manifold._spd_eigh(nan[:2])

    def test_frechet_mean_matches_loop_reference(self, rng):
        pts = np.array([random_spd(rng, 5, spread=1.5) for _ in range(12)])
        np.testing.assert_allclose(
            manifold.frechet_mean(pts), loop_frechet_mean(pts), rtol=1e-12, atol=1e-13
        )

    def test_frechet_mean_names_non_spd_point(self, rng):
        pts = np.array([random_spd(rng, 3) for _ in range(4)])
        pts[2] = np.diag([1.0, 1.0, -0.5])
        with pytest.raises(NotPositiveDefinite, match="matrix 2 "):
            manifold.frechet_mean(pts)


class TestCongruence:
    @pytest.mark.parametrize("stack", [False, True])
    def test_exactly_symmetric_and_bitwise_the_replaced_forms(self, rng, stack):
        c = 6
        x = np.array([random_spd(rng, c) for _ in range(7)])
        x = x if stack else x[0]
        filters = rng.standard_normal((c, 3))
        whitening = sym(rng.standard_normal((c, c)))  # an exactly symmetric factor
        out = manifold._congruence(filters, x)
        assert np.array_equal(out, out.swapaxes(-1, -2))
        y = filters.T @ x @ filters
        assert np.array_equal(out, 0.5 * (y + y.swapaxes(-1, -2)))
        y = whitening @ x @ whitening
        out = manifold._congruence(whitening, x)
        assert np.array_equal(out, out.swapaxes(-1, -2))
        assert np.array_equal(out, 0.5 * (y + y.swapaxes(-1, -2)))


class TestLogInner:
    # <B, logm W> as the compiled scorer reads it: with B = U diag(mu) U^T,
    # <B, logm W> = mu . diag logm(U^T W U), the diagonal taken by _diag_logm
    @pytest.mark.parametrize("c", [1, 2, 8, 64])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_matches_tangent_vector_dot(self, rng, c, diagonal):
        stack = np.array([random_spd(rng, c, spread=1.5) for _ in range(5)])
        b = np.diag(rng.standard_normal(c)) if diagonal else random_symmetric(rng, c)
        logs = manifold._vec(manifold.logm(stack))
        expected = logs @ manifold.vec(b)
        bound = np.linalg.norm(logs, axis=1) * np.linalg.norm(b)  # Cauchy-Schwarz
        mu, u = np.linalg.eigh(b)
        got = manifold._diag_logm(u.T @ stack @ u) @ mu
        assert got.shape == (5,)
        assert np.all(np.abs(got - expected) <= 1e-12 * bound)

    def test_single_calls_equal_one_batch_call(self, rng):
        stack = np.array([random_spd(rng, 6, spread=1.5) for _ in range(7)])
        batch = manifold._diag_logm(stack)
        single = [manifold._diag_logm(stack[t : t + 1])[0] for t in range(7)]
        np.testing.assert_array_equal(single, batch)
        np.testing.assert_allclose(
            batch, manifold.logm(stack).diagonal(0, -2, -1), rtol=0, atol=1e-13
        )

    def test_non_spd_matrix_named(self, rng):
        stack = np.array([random_spd(rng, 3) for _ in range(5)])
        stack[3] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefinite, match="covariance 3 "):
            manifold._diag_logm(stack, "covariance")

    def test_eigenvalue_not_above_floor_named(self, rng):
        # scaling keeps a matrix SPD by the relative rule; only the floor,
        # in the data's units, rejects one scaled far below the others
        stack = np.array([random_spd(rng, 3) for _ in range(5)])
        stack[2] *= 1e-20
        manifold._diag_logm(stack)
        with pytest.raises(NotPositiveDefinite, match=r"^covariance 2 .* or floor 1\.000e-12$"):
            manifold._diag_logm(stack, "covariance", floor=1e-12)
