"""Regression / pseudo-inverse primitives."""

import numpy as np
import pytest

from ensgrad.errors import InsufficientSampleError
from ensgrad.linalg import (
    PinvConfig,
    sample_cross_cov,
    tikhonov_pinv,
    uncentred_cross_cov,
)


def rng(seed):
    return np.random.default_rng(seed)


class TestTikhonovPinv:
    def test_identity_passthrough(self):
        assert np.allclose(tikhonov_pinv(np.eye(2), PinvConfig(0.0)), np.eye(2))

    def test_scalar_damping(self):
        # s = 2, lam = 0.5: 2 / (4 + (0.5*2)^2) = 0.4
        out = tikhonov_pinv(np.array([[2.0]]), PinvConfig(0.5))
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 0.4) < 1e-15

    def test_zero_matrix(self):
        out = tikhonov_pinv(np.zeros((3, 2)), PinvConfig(0.1))
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_matches_numpy_pinv_at_lambda_zero(self):
        for seed in range(20):
            a = rng(seed).standard_normal((3, 7))
            assert np.allclose(tikhonov_pinv(a, PinvConfig(0.0)), np.linalg.pinv(a),
                               atol=1e-12)

    def test_monotone_lambda_damping(self):
        a = rng(1).standard_normal((4, 6))
        lams = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
        prev = None
        for lam in lams:
            s = np.linalg.svd(tikhonov_pinv(a, PinvConfig(lam)), compute_uv=False)
            if prev is not None:
                assert np.all(s <= prev + 1e-15)
            prev = s

    def test_rank_truncation(self):
        # rank-1 matrix: second singular value must be dropped, not inverted
        u = np.array([[1.0], [2.0]])
        a = u @ np.array([[3.0, 0.0, -3.0]])
        out = tikhonov_pinv(a, PinvConfig(0.0))
        assert np.abs(a @ out @ a - a).max() < 1e-12

    def test_lam_validation(self):
        with pytest.raises(ValueError):
            PinvConfig(-0.5)
        with pytest.raises(ValueError):
            PinvConfig(np.inf)

    @pytest.mark.parametrize("lam", ["0.1", True, np.bool_(True), None, 1j],
                             ids=["str", "bool", "np-bool", "none", "complex"])
    def test_lam_must_be_a_real_number(self, lam):
        with pytest.raises(ValueError, match="lam"):
            PinvConfig(lam)

    def test_real_scalars_accepted(self):
        for lam in (0, 2, np.int64(1), np.float32(0.5), np.float64(0.1)):
            assert PinvConfig(lam).lam == lam

    def test_pinv_identity_both_shapes(self):
        # A^T (A A^T)^+ == A^+ for wide and tall A
        cfg = PinvConfig(0.0)
        for seed in range(100):
            for shape in ((3, 7), (7, 3)):
                a = rng(seed).standard_normal(shape)
                lhs = a.T @ tikhonov_pinv(a @ a.T, cfg)
                ref = tikhonov_pinv(a, cfg)
                assert np.abs(lhs - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_projection_identity_any_rank(self):
        cfg = PinvConfig(0.0)
        for seed, rank in [(0, 1), (1, 2), (2, 4)]:
            g = rng(seed)
            a = g.standard_normal((4, rank)) @ g.standard_normal((rank, 9))
            anoms = a - a.mean(axis=1, keepdims=True)
            p = tikhonov_pinv(anoms, cfg)
            assert np.abs(p @ anoms @ anoms.T - anoms.T).max() < 1e-10


class TestSampleCrossCov:
    def test_constant_row_vanishes(self):
        a = rng(2).standard_normal((3, 8))
        anoms = a - a.mean(axis=1, keepdims=True)
        out = sample_cross_cov(np.full(8, 4.2), anoms)
        assert np.abs(out).max() < 1e-13

    def test_row_of_u_gives_sample_variance(self):
        u = rng(3).standard_normal((1, 50))
        anoms = u - u.mean(axis=1, keepdims=True)
        out = sample_cross_cov(anoms[0], anoms)
        assert np.allclose(out, u.var(ddof=1))

    def test_linear_two_point_sample(self):
        # f(u) = alpha*u + beta on {0, 2}: values [beta, 2a+b], anomalies
        # [-1, 1], so F Ut^T/(N-1) = 2*alpha
        alpha, beta = 3.0, 1.0
        u = np.array([[0.0, 2.0]])
        anoms = u - u.mean(axis=1, keepdims=True)
        values = alpha * u[0] + beta
        out = sample_cross_cov(values, anoms)
        assert np.allclose(out, 2.0 * alpha)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            sample_cross_cov(np.array([1.0]), np.array([[0.0]]))

    def test_no_double_centring_needed(self):
        # adding a constant to F must not change the result
        a = rng(4).standard_normal((2, 12))
        anoms = a - a.mean(axis=1, keepdims=True)
        f = rng(5).standard_normal(12)
        a = sample_cross_cov(f, anoms)
        b = sample_cross_cov(f + 7.0, anoms)
        assert np.abs(a - b).max() < 1e-12


class TestUncentredCrossCov:
    def test_constant_f_structural_term(self):
        # constant f = beta against an off-centre ensemble leaves beta*(ubar-mu)^T
        g = rng(6)
        members = g.standard_normal((3, 40)) + 2.0
        mu = np.zeros(3)
        beta = 1.7
        out = uncentred_cross_cov(np.full(40, beta), members, mu)
        expected = beta * (members.mean(axis=1) - mu)
        assert np.allclose(out, expected)

    def test_centred_input_constant_f_zero(self):
        g = rng(7)
        members = g.standard_normal((2, 30))
        members -= members.mean(axis=1, keepdims=True)
        out = uncentred_cross_cov(np.full(30, 5.0), members, np.zeros(2))
        assert np.abs(out).max() < 1e-13

    def test_zero_members_rejected(self):
        # without the guard, 0/0 would hand back a NaN row
        with pytest.raises(InsufficientSampleError):
            uncentred_cross_cov(np.zeros(0), np.zeros((3, 0)), np.zeros(3))

    def test_one_member(self):
        members, mu = np.array([[1.0], [-2.0], [0.5]]), np.array([0.5, 0.5, 0.5])
        out = uncentred_cross_cov(np.array([3.0]), members, mu)
        assert np.array_equal(out, 3.0 * (members[:, 0] - mu))

    def test_linear_f_large_n(self):
        # f = alpha^T u: (1/N) sum f_n (u_n - mu)^T -> alpha^T C_u
        g = rng(8)
        alpha = np.array([1.0, -2.0])
        members = g.standard_normal((2, 200_000))
        f = alpha @ members
        out = uncentred_cross_cov(f, members, np.zeros(2))
        assert np.abs(out - alpha).max() < 0.02


class TestPinvRegression:
    def test_exact_linear_recovery(self):
        u = np.array([[-1.0, 1.0]])
        anoms = u - u.mean(axis=1, keepdims=True)
        values = 3.0 * u[0] + 1.0
        out = values @ tikhonov_pinv(anoms, PinvConfig(0.0))
        assert np.allclose(out, [3.0])

    def test_constant_values_zero(self):
        a = rng(9).standard_normal((3, 10))
        anoms = a - a.mean(axis=1, keepdims=True)
        out = np.full(10, 2.5) @ tikhonov_pinv(anoms, PinvConfig(0.0))
        assert np.abs(out).max() < 1e-12

    def test_stein_quadratic_near_zero(self):
        # f(u) = u^2, u ~ N(0,1): the regression target E f'(u) = E 2u = 0;
        # estimator sd is ~ sqrt(E u^6)/sqrt(N) = sqrt(15/N)
        n = 100_000
        u = np.random.Generator(np.random.Philox(1234)).standard_normal((1, n))
        anoms = u - u.mean(axis=1, keepdims=True)
        out = u[0] ** 2 @ tikhonov_pinv(anoms, PinvConfig(0.0))
        assert abs(out[0]) < 3.0 * np.sqrt(15.0 / n)

    def test_preconditioning_identity_all_ranks(self):
        # the regression of F times the sample covariance == sample_cross_cov(F)
        for seed, shape, rank in [(0, (3, 9), 3), (1, (5, 4), 3), (2, (4, 12), 2)]:
            g = rng(seed)
            raw = g.standard_normal((shape[0], rank)) @ g.standard_normal((rank, shape[1]))
            anoms = raw - raw.mean(axis=1, keepdims=True)
            f = g.standard_normal(shape[1])
            n = shape[1]
            lhs = f @ tikhonov_pinv(anoms, PinvConfig(0.0)) @ (anoms @ anoms.T / (n - 1))
            ref = sample_cross_cov(f, anoms)
            assert np.abs(lhs - ref).max() < 1e-10
