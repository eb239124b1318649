"""Benchmark objectives: separable Hermite sums, a stretched Rastrigin
surface with its Gaussian-blurred counterpart, and a bilinear model with
known gradient. Each comes with analytic gradients and, where meaningful,
the exact expected gradient used as benchmark truth.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError
from .sampling import GaussianSpec

MAX_HERMITE_ORDER = 6


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or not 0 <= order <= MAX_HERMITE_ORDER:
        raise ValueError(f"Hermite order must be an int in [0, {MAX_HERMITE_ORDER}], got {order}")


def _hermite_terms(t, shrink):
    """h_1, h_2, ... of the recurrence h_{k+1} = t h_k - k shrink h_{k-1},
    from h_0 = 1 and h_1 = t, elementwise. With shrink = 1 they are
    He_k(t); with shrink = 1 - var, E[He_k(t + sqrt(var) Z)], Z ~ N(0, 1)."""
    yield t
    h, h_prev = t * t - shrink, t  # h_2, the k = 1 step's bits: (1 * shrink) * 1.0 == shrink
    for k in itertools.count(2):
        yield h
        h, h_prev = t * h - (k * shrink) * h_prev, h


def _scaled_hermite(order, t, shrink):
    """h_order of `_hermite_terms`, a new array."""
    if order == 0:
        return np.ones_like(t)
    h = next(itertools.islice(_hermite_terms(t, shrink), order - 1, None))
    return h.copy() if order == 1 else h


def hermite_value(order, t):
    """Probabilists' Hermite polynomial He_k, elementwise, via the
    recurrence He_{k+1} = t*He_k - k*He_{k-1}."""
    _check_order(order)
    return _scaled_hermite(order, np.asarray(t, dtype=float), 1.0)


def _hermite_point(x, u):
    """`u + x`, the point a Hermite objective reads, of same-shape x and u."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise DimensionError(f"x has shape {x.shape} but u has shape {u.shape}")
    return u + x


def hermite_eval(order, x, u):
    """`sum_i He_order(u_i + x_i)`."""
    return float(hermite_value(order, _hermite_point(x, u)).sum())


def hermite_grad_u(order, x, u):
    """Gradient in u: component i is `order * He_{order-1}(u_i + x_i)`."""
    t = _hermite_point(x, u)
    return np.zeros_like(t) if order == 0 else order * hermite_value(order - 1, t)


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
    shrink = 1.0 - u_spec.variances[:, None]
    return order * _scaled_hermite(order - 1, a, shrink).mean(axis=-1)


def hermite_expected_grad_dist(order, x_spec, u_spec):
    """Distributional variant: expectation over x as well. u_i + x_i is
    again Gaussian, so this is `hermite_expected_grad` at the one x-member
    `x_spec.mean` under the summed variances."""
    if x_spec.dim != u_spec.dim:
        raise DimensionError(f"x dim {x_spec.dim} != u dim {u_spec.dim}")
    summed = GaussianSpec(u_spec.mean, u_spec.variances + x_spec.variances)
    return hermite_expected_grad(order, x_spec.mean[:, None], summed)


def _columns(X, U):
    """Member rows of X (..., dx, K) and U (..., du, K) broadcast against
    each other, as (P, dx) and (P, du), plus the output shape (..., K)."""
    lead = np.broadcast_shapes(X.shape[:-2], U.shape[:-2])
    k = np.broadcast_shapes(X.shape[-1:], U.shape[-1:])
    X = np.broadcast_to(X, lead + X.shape[-2:-1] + k)
    U = np.broadcast_to(U, lead + U.shape[-2:-1] + k)
    rows = [np.moveaxis(a, -1, -2).reshape(-1, a.shape[-2]) for a in (X, U)]
    return rows[0], rows[1], lead + k


def _each_member(X):
    """X (..., d, M) as M one-member ensembles on a new axis: (..., M, d, 1)."""
    return np.moveaxis(X, -1, -2)[..., None]


@dataclass(frozen=True)
class ObjectiveSpec:
    """A conditional objective `loss(x, u)` with optional extras.

    `value` is the scalar evaluation and `grad_u` its analytic u-gradient.
    The optional kernels, which must agree with `value` and `grad_u`, take
    x-members (..., dx, M) and controls (..., du, N) with leading trial
    axes that broadcast:
    - `value_pairs(X, U)`: values loss(x_n, u_n), (..., N), M == N or one
      of the two a single member;
    - `value_mean(X, U)`: the M x N value table averaged over x, (..., N);
    - `grad_mean(X, U)`: the u-gradient averaged over the table, (..., du).
    The methods below fall back on `value` and `grad_u` without them."""

    name: str
    value: Callable
    grad_u: Optional[Callable] = None
    value_pairs: Optional[Callable] = None
    value_mean: Optional[Callable] = None
    grad_mean: Optional[Callable] = None

    def pairs(self, X, U):
        """Values loss(x_n, u_n), (..., N)."""
        if self.value_pairs is not None:
            return self.value_pairs(X, U)
        xs, us, shape = _columns(X, U)
        return np.array([self.value(x, u) for x, u in zip(xs, us)], dtype=float).reshape(shape)

    def table(self, X, U):
        """The value table loss(x_m, u_n) averaged over x, (..., N)."""
        if X.shape[-1] == 1:  # one x-member: the table is its pairs row
            return self.pairs(X, U)
        if self.value_mean is not None:
            return self.value_mean(X, U)
        return self.pairs(_each_member(X), U[..., None, :, :]).mean(axis=-2)

    def grad_pairs(self, X, U):
        """Analytic u-gradients at (x_n, u_n), (..., du, N)."""
        if self.grad_u is None:
            raise ValueError(f"objective {self.name!r} has no analytic gradient")
        xs, us, shape = _columns(X, U)
        g = np.array([self.grad_u(x, u) for x, u in zip(xs, us)], dtype=float)
        return np.moveaxis(g.reshape(shape + g.shape[-1:]), -1, -2)

    def grad_table(self, X, U):
        """The analytic u-gradient averaged over every (x_m, u_n), (..., du)."""
        if self.grad_mean is not None:
            return self.grad_mean(X, U)
        return self.grad_pairs(_each_member(X), U[..., None, :, :]).mean(axis=(-3, -1))


def _member_means(order, X):
    """`mean_m He_k(x_m)` for k = 0..order, (order+1, ..., d, 1)."""
    out = np.ones((order + 1,) + X.shape[:-1] + (1,))
    for k, h in zip(range(1, order + 1), _hermite_terms(X, 1.0)):
        out[k] = h.sum(axis=-1, keepdims=True) / X.shape[-1]
    return out


def hermite_objective(order, dims=5):
    """Separable Hermite benchmark objective in `dims` dimensions.

    Its table means do not form the M x N table: by the binomial
    identity `He_n(x + u) = sum_k C(n, k) He_k(x) u^(n-k)` the x-member mean
    moves inside the sum, onto `He_k(x)`, and the control mean onto
    `u^(n-k)`."""
    _check_order(order)

    def value_pairs(X, U):
        return hermite_value(order, X + U).sum(axis=-2)

    def value_mean(X, U):
        he = _member_means(order, X)
        acc = he[0] * np.ones_like(U)
        for k in range(1, order + 1):  # Horner in u
            acc = acc * U + math.comb(order, k) * he[k]
        return acc.sum(axis=-2)

    def grad_mean(X, U):
        he = _member_means(order, X)[..., 0]
        grad = np.zeros(np.broadcast_shapes(X.shape[:-1], U.shape[:-1]))
        u_pow = np.ones_like(U)
        for k in range(order - 1, -1, -1):
            grad += math.comb(order - 1, k) * he[k] * (u_pow.sum(axis=-1) / U.shape[-1])
            u_pow = u_pow * U
        return order * grad

    return ObjectiveSpec(
        name=f"hermite{order}",
        value=lambda x, u: hermite_eval(order, x, u),
        grad_u=lambda x, u: hermite_grad_u(order, x, u),
        value_pairs=value_pairs,
        value_mean=value_mean,
        grad_mean=grad_mean,
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

    def value_pairs(X, U):
        return (a @ X).sum(axis=-2) + (b @ U).sum(axis=-2)

    return ObjectiveSpec(
        name="bilinear",
        value=lambda x, u: bilinear_eval(a, b, x, u),
        grad_u=lambda x, u: bilinear_grad(b),
        value_pairs=value_pairs,
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
