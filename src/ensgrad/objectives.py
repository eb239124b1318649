"""Benchmark objectives: separable Hermite sums, a stretched Rastrigin
surface with its Gaussian-blurred counterpart, and a bilinear model with
known gradient. Each comes with analytic gradients and, where meaningful,
the exact expected gradient used as benchmark truth.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError

MAX_HERMITE_ORDER = 6


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or not 0 <= order <= MAX_HERMITE_ORDER:
        raise ValueError(f"Hermite order must be an int in [0, {MAX_HERMITE_ORDER}], got {order}")


def _scaled_hermite(order, t, shrink):
    """The recurrence h_{k+1} = t h_k - k shrink h_{k-1}, from h_0 = 1 and
    h_1 = t, elementwise. With shrink = 1 it gives He_order(t); with
    shrink = 1 - var it gives E[He_order(t + sqrt(var) Z)], Z ~ N(0, 1)."""
    h_prev = np.ones_like(t)
    if order == 0:
        return h_prev
    h = t.copy()
    for k in range(1, order):
        h, h_prev = t * h - (k * shrink) * h_prev, h
    return h


def hermite_value(order, t):
    """Probabilists' Hermite polynomial He_k, elementwise, via the
    recurrence He_{k+1} = t*He_k - k*He_{k-1}."""
    _check_order(order)
    return _scaled_hermite(order, np.asarray(t, dtype=float), 1.0)


def hermite_eval(order, x, u):
    """`sum_i He_order(u_i + x_i)`."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise DimensionError(f"x has shape {x.shape} but u has shape {u.shape}")
    return float(hermite_value(order, u + x).sum())


def hermite_grad_u(order, x, u):
    """Gradient in u: component i is `order * He_{order-1}(u_i + x_i)`."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise DimensionError(f"x has shape {x.shape} but u has shape {u.shape}")
    if order == 0:
        return np.zeros_like(u)
    return order * hermite_value(order - 1, u + x)


def _marginal_var(spec):
    """Per-dimension variances of a GaussianSpec. The objectives here are
    separable across dimensions, so marginals are all that expected
    gradients need, whatever the correlations."""
    cov = spec.cov
    if np.isscalar(cov):
        return np.full(spec.dim, float(cov))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 1:
        return cov
    return np.diag(cov)


def hermite_expected_grad(order, x_members, u_spec):
    """Expected gradient of the mean objective, conditional on the drawn
    x-members: component i is `avg_m E[order * He_{order-1}(u_i + x_mi)]`
    with `u_i ~ N(mu_i, C_ii)`, in closed form (`_scaled_hermite`).

    `x_members` is (d, M), or (..., d, M) with leading trial axes; the
    result is (d,), or (..., d)."""
    _check_order(order)
    x_members = np.asarray(x_members, dtype=float)
    if x_members.ndim < 2:
        raise DimensionError(f"expected (..., d, M) x-members, got shape {x_members.shape}")
    d = x_members.shape[-2]
    if u_spec.dim != d:
        raise DimensionError(f"u_spec has dim {u_spec.dim}, x-members have {d}")
    if order == 0:
        return np.zeros(x_members.shape[:-1])
    a = u_spec.mean[:, None] + x_members
    shrink = 1.0 - _marginal_var(u_spec)[:, None]
    return order * _scaled_hermite(order - 1, a, shrink).mean(axis=-1)


def hermite_expected_grad_dist(order, x_spec, u_spec):
    """Distributional variant: expectation over x as well. The sum u_i + x_i
    is again Gaussian, with the two means and the two variances added."""
    _check_order(order)
    if x_spec.dim != u_spec.dim:
        raise DimensionError(f"x dim {x_spec.dim} != u dim {u_spec.dim}")
    if order == 0:
        return np.zeros(u_spec.dim)
    a = u_spec.mean + x_spec.mean
    shrink = 1.0 - (_marginal_var(u_spec) + _marginal_var(x_spec))
    return order * _scaled_hermite(order - 1, a, shrink)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A conditional objective `loss(x, u)` with optional extras.

    `value` is the scalar evaluation; the vectorised kernels, when present,
    must agree with it elementwise. `expected_grad(x_members, u_spec)` is
    the truth oracle for benchmark error measurement."""

    name: str
    value: Callable
    grad_u: Optional[Callable] = None
    expected_grad: Optional[Callable] = None
    value_table: Optional[Callable] = None  # (X(d,M), U(d,N)) -> (M, N)
    value_pairs: Optional[Callable] = None  # (X(d,N), U(d,N)) -> (N,)
    grad_u_table: Optional[Callable] = None  # (X, U) -> (du, M, N)


def hermite_objective(order, dims=5):
    """Separable Hermite benchmark objective in `dims` dimensions."""
    _check_order(order)

    def value_table(X, U):
        t = X[:, :, None] + U[:, None, :]
        return hermite_value(order, t).sum(axis=0)

    def value_pairs(X, U):
        return hermite_value(order, X + U).sum(axis=0)

    def grad_u_table(X, U):
        if order == 0:
            return np.zeros((X.shape[0], X.shape[1], U.shape[1]))
        t = X[:, :, None] + U[:, None, :]
        return order * hermite_value(order - 1, t)

    return ObjectiveSpec(
        name=f"hermite{order}",
        value=lambda x, u: hermite_eval(order, x, u),
        grad_u=lambda x, u: hermite_grad_u(order, x, u),
        expected_grad=lambda X, u_spec: hermite_expected_grad(order, X, u_spec),
        value_table=value_table,
        value_pairs=value_pairs,
        grad_u_table=grad_u_table,
    )


# ---------------------------------------------------------------------------
# Rastrigin demo surface (2-D), stretched 2x along the first axis.

RASTRIGIN_STRETCH = np.array([2.0, 1.0])


def rastrigin_eval(u):
    """`20 + sum_i v_i^2 - 10 cos(2 pi v_i)` with `v = stretch * u`."""
    v = RASTRIGIN_STRETCH * np.asarray(u, dtype=float)
    return float(20.0 + np.sum(v**2 - 10.0 * np.cos(2.0 * np.pi * v)))


def rastrigin_grad(u):
    v = RASTRIGIN_STRETCH * np.asarray(u, dtype=float)
    return RASTRIGIN_STRETCH * (2.0 * v + 20.0 * np.pi * np.sin(2.0 * np.pi * v))


def rastrigin_blurred(mu, blur=1.0):
    """Expectation of `rastrigin_eval(u)` under `u ~ N(mu, blur*I)`, in
    closed form: E[v^2] = m^2 + s^2 and E[cos 2 pi v] = cos(2 pi m)
    exp(-2 pi^2 s^2), where m, s are the mean/std of `v = stretch*u`."""
    m = RASTRIGIN_STRETCH * np.asarray(mu, dtype=float)
    s2 = RASTRIGIN_STRETCH**2 * blur
    damp = np.exp(-2.0 * np.pi**2 * s2)
    return float(20.0 + np.sum(m**2 + s2 - 10.0 * np.cos(2.0 * np.pi * m) * damp))


def rastrigin_blurred_grad(mu, blur=1.0):
    m = RASTRIGIN_STRETCH * np.asarray(mu, dtype=float)
    s2 = RASTRIGIN_STRETCH**2 * blur
    damp = np.exp(-2.0 * np.pi**2 * s2)
    return RASTRIGIN_STRETCH * (2.0 * m + 20.0 * np.pi * np.sin(2.0 * np.pi * m) * damp)


# ---------------------------------------------------------------------------
# Bilinear model: loss(x, u) = 1^T (A x + B u). The gradient in u is the
# constant row 1^T B, which makes every estimator error analytic.


def bilinear_eval(a, b, x, u):
    return float((a @ x).sum() + (b @ u).sum())


def bilinear_grad(b):
    """The exact gradient row `1^T B`."""
    return np.asarray(b, dtype=float).sum(axis=0)


def bilinear_objective(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def value_table(X, U):
        ax = (a @ X).sum(axis=0)
        bu = (b @ U).sum(axis=0)
        return ax[:, None] + bu[None, :]

    def value_pairs(X, U):
        return (a @ X).sum(axis=0) + (b @ U).sum(axis=0)

    def grad_u_table(X, U):
        g = b.sum(axis=0)
        return np.broadcast_to(g[:, None, None], (g.size, X.shape[1], U.shape[1]))

    return ObjectiveSpec(
        name="bilinear",
        value=lambda x, u: bilinear_eval(a, b, x, u),
        grad_u=lambda x, u: bilinear_grad(b),
        expected_grad=lambda X, u_spec: bilinear_grad(b),
        value_table=value_table,
        value_pairs=value_pairs,
        grad_u_table=grad_u_table,
    )


def fd_gradient(f, u, step=None):
    """Central finite differences of a scalar function of one vector."""
    u = np.asarray(u, dtype=float)
    g = np.zeros_like(u)
    for i in range(u.size):
        h = step if step is not None else 1e-5 * max(1.0, abs(u[i]))
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g
