"""Objective values, analytic gradients, and expected-gradient oracles."""

import math
import re

import numpy as np
import pytest

from ensgrad import objectives
from ensgrad.errors import DimensionError
from ensgrad.objectives import (
    RASTRIGIN_STRETCH,
    bilinear_eval,
    bilinear_grad,
    bilinear_objective,
    fd_gradient,
    hermite_eval,
    hermite_expected_grad,
    hermite_expected_grad_dist,
    hermite_grad_u,
    hermite_objective,
    hermite_value,
    rastrigin_blurred,
    rastrigin_blurred_grad,
    rastrigin_eval,
    rastrigin_grad,
)
from ensgrad.sampling import GaussianSpec


def rng(seed):
    return np.random.default_rng(seed)


# 64-point Gauss-Hermite rule for the weight exp(-t^2/2), normalised to a
# probability measure. It is exact for polynomial integrands up to degree
# 127, which makes it an independent oracle for the closed-form Gaussian
# expectations of every Hermite order used here.
QUAD_T, QUAD_W = np.polynomial.hermite_e.hermegauss(64)
QUAD_W = QUAD_W / np.sqrt(2.0 * np.pi)


def quad_expected_grad(order, a, var):
    """`order * E[He_{order-1}(a + sqrt(var) Z)]` by quadrature; a (d, M),
    var (d,); averaged over the last axis."""
    if order == 0:
        return np.zeros(a.shape[0])
    t = a[:, :, None] + np.sqrt(var)[:, None, None] * QUAD_T
    return order * (hermite_value(order - 1, t) @ QUAD_W).mean(axis=1)


def cov_of_kind(kind, var):
    """A 3-D covariance of the given kind, and its marginal variances
    (var for a scalar, var * (1, 0.5, 1.5) otherwise)."""
    if kind == "scalar":
        return var, np.full(3, var)
    diag = var * np.array([1.0, 0.5, 1.5])
    if kind == "diagonal":
        return diag, diag
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
    sd = np.sqrt(diag)
    return corr * np.outer(sd, sd), diag


class TestHermiteValues:
    def test_low_orders_by_hand(self):
        t = np.array([0.0, 1.0, 2.0, -1.5])
        assert np.array_equal(hermite_value(0, t), np.ones(4))
        assert np.array_equal(hermite_value(1, t), t)
        assert np.allclose(hermite_value(2, t), t**2 - 1.0)
        assert np.allclose(hermite_value(3, t), t**3 - 3.0 * t)
        assert hermite_value(3, 2.0) == pytest.approx(2.0)

    def test_matches_numpy_basis(self):
        t = rng(0).standard_normal(50)
        for k in range(6):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            ref = np.polynomial.hermite_e.hermeval(t, coeffs)
            assert np.allclose(hermite_value(k, t), ref, atol=1e-12)

    @pytest.mark.parametrize("order", range(objectives.MAX_HERMITE_ORDER + 1))
    def test_bits_equal_textbook_recurrence(self, order):
        # h_{k+1} = t h_k - k shrink h_{k-1} from h_0 = 1 and h_1 = t, every
        # step computed as written: a shortcut in the recurrence must keep its bits
        def textbook(order, t, shrink):
            h_prev, h = np.ones_like(t), t.copy(order="K")  # in t's own layout
            if order == 0:
                return h_prev
            for k in range(1, order):
                h, h_prev = t * h - (k * shrink) * h_prev, h
            return h

        g = rng(21)
        t = np.concatenate([g.standard_normal(40) * 3.0, [0.0, -0.0, 1.0, -1.0, 1e5, -7.25]])
        assert np.array_equal(hermite_value(order, t), textbook(order, t, 1.0))
        x = g.standard_normal((4, 3, 6))
        mean = g.standard_normal(3)
        for cov in (0.26, np.array([0.01, 1.0, 2.5])):  # scalar and per-dimension shrink
            spec = GaussianSpec(mean, cov)
            a = mean[:, None] + x
            shrink = 1.0 - np.broadcast_to(cov, (3,))[:, None]
            ref = (order * textbook(order - 1, a, shrink).mean(axis=-1) if order
                   else np.zeros((4, 3)))
            assert np.array_equal(hermite_expected_grad(order, x, spec), ref)
        # the table means: the binomial sums, Horner's in u for the values and
        # powers of u for the gradient, fed textbook He_k member means; on
        # stacked draws, and on the transposed (d, M) layout that
        # read_ensemble_csv returns, with enough members for numpy to sum a
        # strided row otherwise than a contiguous one
        spec = hermite_objective(order, dims=3)
        for X, U in ((g.standard_normal((4, 3, 6)) * 2.0, g.standard_normal((4, 3, 5))),
                     (g.standard_normal((20, 3)).T * 2.0, g.standard_normal((24, 3)).T)):
            he = [textbook(k, X, 1.0).mean(axis=-1, keepdims=True) for k in range(order + 1)]
            acc = he[0] * np.ones_like(U)
            for k in range(1, order + 1):
                acc = acc * U + math.comb(order, k) * he[k]
            grad, u_pow = np.zeros(X.shape[:-1]), np.ones_like(U)
            for k in range(order - 1, -1, -1):
                grad += math.comb(order - 1, k) * he[k][..., 0] * u_pow.mean(axis=-1)
                u_pow = u_pow * U
            assert np.array_equal(spec.value_mean(X, U), acc.sum(axis=-2))
            assert np.array_equal(spec.grad_mean(X, U), order * grad)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            hermite_value(-1, 0.0)

    def test_eval_is_separable_sum(self):
        x = np.array([0.2, -0.3])
        u = np.array([1.0, 0.5])
        ref = sum(hermite_value(3, x[i] + u[i]) for i in range(2))
        assert hermite_eval(3, x, u) == pytest.approx(float(ref))

    def test_eval_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hermite_eval(2, np.zeros(3), np.zeros(4))


class TestAnalyticGradients:
    def test_fd_agreement_all_objectives(self):
        # relative agreement at 1e-6 over 20 random points per objective
        g = rng(1)
        cases = []
        for order in range(6):
            spec = hermite_objective(order, dims=3)
            x = g.standard_normal(3)
            cases.append((lambda u, s=spec, x=x: s.value(x, u),
                          lambda u, s=spec, x=x: s.grad_u(x, u), 3))
        cases.append((rastrigin_eval, rastrigin_grad, 2))
        cases.append((lambda u: rastrigin_blurred(u, 0.3),
                      lambda u: rastrigin_blurred_grad(u, 0.3), 2))
        a = g.standard_normal((4, 3))
        b = g.standard_normal((4, 3))
        xb = g.standard_normal(3)
        cases.append((lambda u: bilinear_eval(a, b, xb, u),
                      lambda u: bilinear_grad(b), 3))
        for f, grad, d in cases:
            for _ in range(20):
                u = g.uniform(-1.5, 1.5, size=d)
                fd = fd_gradient(f, u, step=1e-5)
                an = grad(u)
                scale = max(1.0, np.abs(an).max())
                assert np.abs(fd - an).max() <= 1e-6 * scale

    def test_order_zero_gradient_is_zero(self):
        assert np.array_equal(hermite_grad_u(0, np.ones(3), np.ones(3)), np.zeros(3))

    def test_fd_default_step_scales_with_u(self):
        seen = []
        f = lambda u: seen.append(u.copy()) or 0.0
        u = np.array([100.0, 0.001])
        fd_gradient(f, u)
        steps = [abs(seen[2 * i][i] - seen[2 * i + 1][i]) / 2.0 for i in range(2)]
        assert steps[0] == pytest.approx(1e-5 * 100.0)
        assert steps[1] == pytest.approx(1e-5)


class TestExpectedGradients:
    def test_order_one_constant(self):
        x = rng(2).standard_normal((3, 4))
        out = hermite_expected_grad(1, x, GaussianSpec(np.zeros(3), 0.01))
        assert np.allclose(out, 1.0, atol=1e-13)

    def test_order_two_closed_form(self):
        # E[2 He_1(u + x)] = 2 (mu + x), averaged over members
        g = rng(3)
        x = g.standard_normal((3, 5))
        mu = g.standard_normal(3)
        out = hermite_expected_grad(2, x, GaussianSpec(mu, 0.01))
        ref = 2.0 * (mu + x.mean(axis=1))
        assert np.abs(out - ref).max() < 1e-12

    def test_order_three_closed_form(self):
        # E[3 He_2(u + x)] = 3 ((mu + x)^2 + sigma^2 - 1), averaged
        g = rng(4)
        x = g.standard_normal((2, 7))
        mu = np.array([0.3, -0.2])
        var = 0.04
        out = hermite_expected_grad(3, x, GaussianSpec(mu, var))
        ref = (3.0 * ((mu[:, None] + x) ** 2 + var - 1.0)).mean(axis=1)
        assert np.abs(out - ref).max() < 1e-12

    def test_distributional_variant_combines_scales(self):
        mu_u, mu_x = np.array([0.1]), np.array([-0.4])
        var_u, var_x = 0.01, 0.25
        out = hermite_expected_grad_dist(
            3, GaussianSpec(mu_x, var_x), GaussianSpec(mu_u, var_u)
        )
        ref = 3.0 * ((mu_u + mu_x) ** 2 + var_u + var_x - 1.0)
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("kind", ["scalar", "diagonal", "full"])
    def test_distributional_variant_is_one_member_at_the_x_mean(self, kind):
        # u + x ~ N(mu_u + mu_x, var_u + var_x): the conditional oracle at the
        # one x-member mu_x under the summed variances, bit for bit
        g = rng(11)
        u_cov, x_cov = cov_of_kind(kind, 0.26)[0], cov_of_kind(kind, 0.25)[0]
        u_spec = GaussianSpec(g.standard_normal(3), u_cov)
        x_spec = GaussianSpec(g.standard_normal(3), x_cov)
        var = lambda cov: np.diag(cov) if np.ndim(cov) == 2 else np.broadcast_to(cov, (3,))
        summed = GaussianSpec(u_spec.mean, var(u_cov) + var(x_cov))
        for order in range(7):
            assert np.array_equal(hermite_expected_grad_dist(order, x_spec, u_spec),
                                  hermite_expected_grad(order, x_spec.mean[:, None], summed))

    @pytest.mark.parametrize("cov", [np.array([0.5]), np.ones((2, 2))], ids=["diag-1", "full-2"])
    def test_covariance_of_another_dim_rejected(self, cov):
        # one variance for three dims used to be broadcast to all three
        msg = re.escape(f"covariance shape {cov.shape} does not match dim 3")
        with pytest.raises(DimensionError, match=msg):
            hermite_expected_grad(3, np.zeros((3, 4)), GaussianSpec(np.zeros(3), cov))
        with pytest.raises(DimensionError, match=msg):
            hermite_expected_grad_dist(3, GaussianSpec(np.ones(3), 0.25),
                                       GaussianSpec(np.zeros(3), cov))

    def test_order_zero_is_zero(self):
        out = hermite_expected_grad(0, np.zeros((2, 3)), GaussianSpec(np.zeros(2), 1.0))
        assert np.array_equal(out, np.zeros(2))

    @pytest.mark.parametrize("kind", ["scalar", "diagonal", "full"])
    @pytest.mark.parametrize("var", [0.01, 0.26, 1.0, 2.5])
    def test_closed_form_matches_quadrature(self, kind, var):
        g = rng(9)
        mu_u = g.standard_normal(3)
        mu_x = np.linspace(-2.0, 2.0, 3)
        u_cov, u_var = cov_of_kind(kind, var)
        x_cov, x_var = cov_of_kind(kind, 0.25)
        u_spec = GaussianSpec(mu_u, u_cov)
        x_spec = GaussianSpec(mu_x, x_cov)
        x = mu_x[:, None] + g.standard_normal((3, 7))
        for order in range(7):
            cases = (
                (hermite_expected_grad(order, x, u_spec),
                 quad_expected_grad(order, mu_u[:, None] + x, u_var)),
                (hermite_expected_grad_dist(order, x_spec, u_spec),
                 quad_expected_grad(order, (mu_u + mu_x)[:, None],
                                    u_var + x_var)),
            )
            for got, ref in cases:
                assert got.shape == (3,)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (
                    order, got, ref)

    @pytest.mark.parametrize("order", range(7))
    def test_stacked_trials_match_per_trial_calls(self, order):
        g = rng(10)
        spec = GaussianSpec(g.standard_normal(3), cov_of_kind("full", 0.26)[0])
        x = g.standard_normal((4, 3, 6))
        out = hermite_expected_grad(order, x, spec)
        assert out.shape == (4, 3)
        for t in range(4):
            ref = hermite_expected_grad(order, x[t], spec)
            assert np.all(np.abs(out[t] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_monte_carlo_agreement_order_five(self):
        g = rng(5)
        x = g.standard_normal((2, 3)) * 0.5
        spec = GaussianSpec(np.array([0.1, -0.1]), 0.01)
        out = hermite_expected_grad(5, x, spec)
        u = spec.mean[:, None] + 0.1 * g.standard_normal((2, 400_000))
        mc = np.stack(
            [hermite_grad_u(5, x[:, m], u[:, k]) for m in range(3)
             for k in range(0, 400_000, 4000)]
        ).mean(axis=0)
        # coarse subsample keeps runtime sane; agreement is statistical
        assert np.abs(out - mc).max() < 0.2


class TestVectorisedKernels:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
    def test_table_pairs_and_grads_match_scalar(self, order):
        # the table means against the scalar table, and every kernel on a
        # stack of trials against each trial alone
        g = rng(6)
        spec = hermite_objective(order, dims=3)
        X = g.standard_normal((2, 3, 4))
        U = g.standard_normal((2, 3, 5))
        table, grads = spec.table(X, U), spec.grad_table(X, U)
        pairs = spec.pairs(X[..., :4], U[..., :4])
        assert table.shape == (2, 5) and grads.shape == (2, 3) and pairs.shape == (2, 4)
        for t in range(2):
            values = [[spec.value(X[t, :, m], U[t, :, n]) for n in range(5)] for m in range(4)]
            grad_u = [spec.grad_u(X[t, :, m], U[t, :, n]) for n in range(5) for m in range(4)]
            assert np.allclose(table[t], np.mean(values, axis=0), rtol=0, atol=1e-12)
            assert np.allclose(grads[t], np.mean(grad_u, axis=0), rtol=0, atol=1e-12)
            for m in range(4):
                assert pairs[t, m] == pytest.approx(
                    spec.value(X[t, :, m], U[t, :, m]), abs=1e-12)
            assert np.array_equal(spec.table(X[t], U[t]), table[t])
            assert np.array_equal(spec.pairs(X[t, :, :4], U[t, :, :4]), pairs[t])

    @pytest.mark.parametrize("order", range(7))
    def test_binomial_means_match_direct_tables(self, order):
        # the binomial means on a stack of trials, against each trial's
        # M x N table formed directly, with x-members far from zero
        g = rng(9)
        spec = hermite_objective(order, dims=3)
        X = np.linspace(-2.0, 2.0, 3)[:, None] + 0.5 * g.standard_normal((40, 3, 12))
        U = 0.1 * g.standard_normal((40, 3, 12))
        table, grads = spec.table(X, U), spec.grad_table(X, U)
        for t in range(40):
            sums = X[t][:, :, None] + U[t][:, None, :]  # (d, M, N)
            ref_table = hermite_value(order, sums).sum(axis=0).mean(axis=0)
            ref_grads = (order * hermite_value(max(order - 1, 0), sums)).mean(axis=(1, 2))
            for got, ref in ((table[t], ref_table), (grads[t], ref_grads)):
                assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_bilinear_kernels(self):
        g = rng(7)
        a = g.standard_normal((3, 2))
        b = g.standard_normal((3, 4))
        spec = bilinear_objective(a, b)
        X = g.standard_normal((2, 3))
        U = g.standard_normal((4, 5))
        table = spec.table(X, U)
        for n in range(5):
            ref = np.mean([bilinear_eval(a, b, X[:, m], U[:, n]) for m in range(3)])
            assert table[n] == pytest.approx(ref, abs=1e-12)
        # a single x-member stands for all of them
        pairs = spec.pairs(X[:, 1:2], U)
        for n in range(5):
            assert pairs[n] == pytest.approx(bilinear_eval(a, b, X[:, 1], U[:, n]), abs=1e-12)
        assert np.allclose(spec.grad_table(X, U), b.sum(axis=0))
        assert np.allclose(spec.grad_pairs(X[:, :1], U)[:, 2], b.sum(axis=0))


class TestRastrigin:
    def test_global_minimum_at_origin(self):
        assert rastrigin_eval(np.zeros(2)) == 0.0
        assert np.array_equal(rastrigin_grad(np.zeros(2)), np.zeros(2))

    def test_stretch_axis(self):
        # first coordinate is doubled before the standard form
        assert rastrigin_eval([0.5, 0.0]) == pytest.approx(
            20.0 + 1.0 - 10.0 * np.cos(2.0 * np.pi) - 10.0)

    def test_blurred_at_origin_frozen(self):
        ref = 25.0 - 10.0 * (np.exp(-2.0 * np.pi**2) + np.exp(-8.0 * np.pi**2))
        assert rastrigin_blurred(np.zeros(2)) == pytest.approx(ref, abs=1e-12)

    def test_blurred_floor_over_grid(self):
        # at blur 1 the cosine ripple is damped below 1e-6 everywhere
        ts = np.linspace(-3.0, 3.0, 41)
        for t1 in ts:
            for t2 in ts:
                v = rastrigin_blurred([t1, t2])
                assert v >= 25.0 - 1e-6

    def test_blurred_ripple_second_dim(self):
        # along dim 2 the blurred surface deviates from 25 + t^2 by < 1e-6
        for t in np.linspace(-3.0, 3.0, 61):
            v = rastrigin_blurred([0.0, t])
            assert abs(v - (25.0 + t * t)) < 1e-6

    def test_blurred_matches_monte_carlo(self):
        g = rng(8)
        mu = np.array([0.7, -1.2])
        blur = 0.2
        u = mu[:, None] + np.sqrt(blur) * g.standard_normal((2, 200_000))
        mc = np.mean([rastrigin_eval(u[:, k]) for k in range(0, 200_000, 20)])
        assert rastrigin_blurred(mu, blur) == pytest.approx(mc, rel=0.02)

    def test_blur_zero_recovers_exact(self):
        mu = np.array([0.3, 0.9])
        assert rastrigin_blurred(mu, 0.0) == pytest.approx(rastrigin_eval(mu), abs=1e-12)
        assert np.allclose(rastrigin_blurred_grad(mu, 0.0), rastrigin_grad(mu))
