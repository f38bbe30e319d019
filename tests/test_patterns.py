import numpy as np
import pytest

from tssf import patterns
from tssf.errors import DimMismatch, InvalidInput

from conftest import random_invertible, random_orthogonal, random_spd


class TestComputePatterns:
    def test_orthogonal_filters_identity_cov(self, rng):
        f = random_orthogonal(rng, 4)
        out = patterns.compute_patterns(f, np.eye(4))
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_diagonal_inverse_transpose(self):
        out = patterns.compute_patterns(np.diag([2.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-14)

    def test_square_full_rank_is_inverse_transpose(self, rng):
        f = random_invertible(rng, 5)
        cov = random_spd(rng, 5)
        out = patterns.compute_patterns(f, cov)
        np.testing.assert_allclose(out, np.linalg.inv(f).T, atol=1e-8)

    def test_reconstruction_rectangular(self, rng):
        f = random_invertible(rng, 5)[:, :3]
        cov = random_spd(rng, 5)
        out = patterns.compute_patterns(f, cov)
        np.testing.assert_allclose(f.T @ out, np.eye(3), atol=1e-8)

    def test_filter_scale_covariance(self, rng):
        f = random_invertible(rng, 4)[:, :2]
        cov = random_spd(rng, 4)
        base = patterns.compute_patterns(f, cov)
        f_scaled = f.copy()
        f_scaled[:, 0] *= 5.0
        scaled = patterns.compute_patterns(f_scaled, cov)
        np.testing.assert_allclose(scaled[:, 0], base[:, 0] / 5.0, atol=1e-10)
        np.testing.assert_allclose(scaled[:, 1], base[:, 1], atol=1e-10)

    def test_rank_deficient_rejected(self, rng):
        f = np.ones((4, 2))
        with pytest.raises(InvalidInput):
            patterns.compute_patterns(f, random_spd(rng, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_filter_rejected(self, rng, bad):
        # named before the rank test, whose SVD raised an untyped LinAlgError
        f = random_invertible(rng, 4)[:, :2]
        f[1, 0] = bad
        with pytest.raises(InvalidInput, match="^filters have a non-finite entry$"):
            patterns.compute_patterns(f, random_spd(rng, 4))

    def test_channel_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            patterns.compute_patterns(np.eye(3), random_spd(rng, 4))
        with pytest.raises(InvalidInput, match="C x K matrix"):
            patterns.compute_patterns(np.ones(4), random_spd(rng, 4))


class TestCsv:
    def test_layout(self, rng):
        f = random_invertible(rng, 3)[:, :2]
        out = patterns.compute_patterns(f, random_spd(rng, 3))
        text = patterns.patterns_to_csv(out, ["C3", "Cz", "C4"])
        lines = text.strip().split("\n")
        assert lines[0] == "channel,comp0,comp1"
        assert len(lines) == 4
        assert lines[1].startswith("C3,")

    def test_float32_patterns_read_back_bit_exactly(self, rng):
        out = patterns.compute_patterns(random_invertible(rng, 3)[:, :2], random_spd(rng, 3))
        out32 = out.astype(np.float32)
        rows = [line.split(",") for line in patterns.patterns_to_csv(out32, ["a", "b", "c"]).split()]
        read = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]], np.float32)
        assert read.tobytes() == out32.tobytes()
        assert all(repr(float(cell)) == cell for row in rows[1:] for cell in row[1:])

    def test_name_count_mismatch(self, rng):
        f = random_invertible(rng, 3)[:, :2]
        out = patterns.compute_patterns(f, random_spd(rng, 3))
        with pytest.raises(DimMismatch):
            patterns.patterns_to_csv(out, ["a", "b"])
