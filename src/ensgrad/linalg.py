"""Cross-covariances and damped pseudo-inversion.

Notation: a matrix `U` holds one ensemble member per column, `Ut` (U-tilde)
its column anomalies. Everything here is a pure function of ndarray inputs;
the estimators are thin compositions of these. `svd` and `damp`
also take stacks of matrices on leading axes, one per benchmark trial;
nothing is cached here (`estimators.Batch` shares an SVD and its damped
singular values between the estimators and lambdas that need it).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientSampleError, is_real, require

# Relative singular-value cutoff for plain (lam=0) pseudo-inversion.
RANK_RTOL = 1e-12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PinvConfig:
    """Damping for pseudo-inversion: `lam` is relative to the largest
    singular value, so it is scale-free. `lam=0` means Moore-Penrose."""

    lam: float = 0.0

    def __post_init__(self):
        require(is_real(self.lam, 0), "damping lam", "a finite real number >= 0", self.lam)


def svd(a):
    """Thin SVD `(u, s, vt)` of a matrix or of a (..., m, k) stack."""
    return np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)


def _damped(s, s1, lam):
    return s / np.maximum(s**2 + (lam * s1) ** 2, _TINY)


def _truncated(s, s1):
    return np.divide(1.0, s, out=np.zeros(s.shape), where=s > RANK_RTOL * s1)


def damp(s, lambdas):
    """Damped reciprocals of singular values s (..., k) at every lambda,
    (L, ..., k): `s/(s^2 + (lam*s1)^2)`, or at `lam=0` the Moore-Penrose
    reciprocals with values below `RANK_RTOL*s1` truncated. A grid takes the
    damped form at every lambda, then the truncated one over the rows of
    lambda 0. A zero spectrum gives zeros. One lambda, as every `estimate()`
    call asks, is a Python float: numpy's array set-up for a grid would cost
    more than the arithmetic."""
    s1 = s[..., :1]
    if len(lambdas) == 1:
        lam = float(lambdas[0])
        return (_damped(s, s1, lam) if lam else _truncated(s, s1))[None]
    lam = np.asarray(lambdas, dtype=float).reshape((-1,) + (1,) * s.ndim)
    out = _damped(s, s1, lam)
    np.copyto(out, _truncated(s, s1), where=lam == 0)
    return out


def tikhonov_pinv(a, cfg=PinvConfig()):
    """Damped pseudo-inverse via SVD (`damp` gives the singular values).
    At `lam=0` this is the Moore-Penrose inverse with singular values below
    `RANK_RTOL*s1` truncated."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    u, s, vt = svd(a)
    return (vt.T * damp(s, (cfg.lam,))[0]) @ u.T


def sample_cross_cov(values, anomalies):
    """Unbiased sample cross-covariance `values @ anomalies.T / (N-1)`.

    `values` need not be centred: constant components hit the centred
    anomalies and vanish, so no explicit centring is applied (tests should
    not centre twice)."""
    values = np.asarray(values, dtype=float)
    anomalies = np.asarray(anomalies, dtype=float)
    n = anomalies.shape[-1]
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 members, got {n}")
    if values.shape[-1] != n:
        raise DimensionError(
            f"values have {values.shape[-1]} columns but anomalies have {n}"
        )
    return (anomalies @ values[..., None])[..., 0] / (n - 1)


def uncentred_cross_cov(values, members, mu):
    """True-mean cross-covariance `(1/N) * sum_n f_n (u_n - mu)^T`.

    Unbiased, but for values with a nonzero mean `eta` it carries the extra
    term `eta*(ubar - mu)^T` relative to the centred estimator, making it
    noisier in practice."""
    values = np.asarray(values, dtype=float)
    members = np.asarray(members, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = members.shape[-1]
    if n < 1:
        raise InsufficientSampleError("need at least 1 member")
    if values.shape[-1] != n:
        raise DimensionError(
            f"values have {values.shape[-1]} columns but members have {n}"
        )
    if mu.shape != (members.shape[0],):
        raise DimensionError(
            f"mean has shape {mu.shape}, expected ({members.shape[0]},)"
        )
    return values @ (members - mu[:, None]).T / n
