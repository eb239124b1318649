"""Control-ensemble generation and transforms: recentring, mirroring and
decorrelation, on one ensemble or a stack of them.

Draws are Gaussian, one member per column. All randomness goes through
counter-based Philox streams keyed by `(base_seed, *spawn_key)`, so a trial's
draws replay identically regardless of scheduling or worker count.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InsufficientSampleError

# Relative threshold below which a projected anomaly row counts as collapsed.
COLLAPSE_RTOL = 1e-9


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector plus covariance given as a scalar, a diagonal vector, or
    a full (d, d) matrix."""

    mean: np.ndarray
    cov: object = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        cov = self.cov
        if not np.isscalar(cov):
            cov = np.asarray(cov, dtype=float)
            if cov.ndim not in (1, 2):
                raise DimensionError(f"covariance must be scalar, 1-D or 2-D, got {cov.ndim}-D")
            object.__setattr__(self, "cov", cov)

    @property
    def dim(self):
        return self.mean.size

    def factor(self):
        """A (d, d) matrix L with L L^T = cov. Cholesky when positive
        definite, symmetric eigendecomposition for the merely semidefinite
        case; genuinely indefinite covariances raise LinAlgError."""
        d = self.dim
        if np.isscalar(self.cov):
            if self.cov < 0:
                raise np.linalg.LinAlgError("negative covariance scale")
            return np.sqrt(float(self.cov)) * np.eye(d)
        if self.cov.ndim == 1:
            if self.cov.shape != (d,) or np.any(self.cov < 0):
                raise np.linalg.LinAlgError(f"invalid diagonal covariance {self.cov}")
            return np.diag(np.sqrt(self.cov))
        if self.cov.shape != (d, d):
            raise DimensionError(f"covariance shape {self.cov.shape} does not match dim {d}")
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(self.cov)
            if np.min(w) < -1e-12 * max(1.0, np.max(np.abs(w))):
                raise np.linalg.LinAlgError("covariance is not positive semidefinite")
            return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class Ensemble:
    """Members (d, N), the true (distributional) mean, and bookkeeping flags.

    `recentred` records that the sample mean has been shifted onto
    `true_mean` exactly. A stack of ensembles, one per benchmark trial, has
    members (..., d, N) around one true mean; the estimators and
    `decorrelate` take either. `note` carries the degeneracy flag that
    `decorrelate` sets, one string for the whole stack."""

    members: np.ndarray
    true_mean: np.ndarray
    recentred: bool = False
    note: str = ""

    @property
    def dim(self):
        return self.members.shape[-2]

    @property
    def n(self):
        return self.members.shape[-1]

    @property
    def anomalies(self):
        """Members minus their column-sample mean."""
        return self.members - self.members.mean(axis=-1, keepdims=True)


def child_seed(base_seed, *key):
    """Deterministic child stream `(base_seed, key)`; independent of the
    order in which siblings are consumed."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(key))


def rng_from(seed):
    """Philox generator from an int seed or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def draw_ensemble(spec, n, seed):
    """Draw `n` members from `spec`. Not recentred."""
    if n < 1:
        raise InsufficientSampleError(f"need at least 1 member, got {n}")
    rng = rng_from(seed)
    z = rng.standard_normal((spec.dim, n))
    members = spec.mean[:, None] + spec.factor() @ z
    return Ensemble(members=members, true_mean=spec.mean.copy(), recentred=False)


def recenter(e):
    """Shift members so the sample mean equals `true_mean` exactly, in
    every trial of a stack. Idempotent."""
    if e.n < 2:
        raise InsufficientSampleError(
            f"recentring needs at least 2 members, got {e.n}"
        )
    if e.recentred:
        return e
    shift = e.true_mean - e.members.mean(axis=-1)
    return replace(e, members=e.members + shift[..., None], recentred=True)


def mirror(e):
    """The members of a recentred ensemble (stacked or not) reflected about
    its mean, `2*mu - v`, so that `v + mirror(e) = 2*mu`."""
    if not e.recentred:
        raise ValueError("mirror requires a recentred ensemble")
    return 2.0 * e.true_mean[:, None] - e.members


def decorrelate(e, psi):
    """Project anomaly rows orthogonal to the (centred) row `psi`, restore
    each row's sample variance, then recentre to the mean.

    `e` is one recentred ensemble, members (d, N), or a stack of them,
    members (..., d, N), with one row of `psi` (..., N) per trial. `psi` is
    typically the centred row of objective values at the mean control;
    removing it from the ensemble kills the sampling-noise correlation that
    the paired estimator would otherwise regress on. Both dot products are
    matmuls, so a stack gives every trial the bits of its own call. Trials
    whose `psi` has no norm pass through unchanged, without a warning. The
    note is "rank-collapse" when the projection annihilates some row,
    otherwise "psi-zero" when every trial's `psi` has no norm."""
    if not e.recentred:
        raise ValueError("decorrelate requires a recentred ensemble")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != e.members.shape[:-2] + (e.n,):
        raise DimensionError(
            f"psi has shape {psi.shape}, expected {e.members.shape[:-2] + (e.n,)}")
    psi = psi - psi.mean(axis=-1, keepdims=True)  # contract is a centred row; harmless repeat
    nrm2 = psi[..., None, :] @ psi[..., :, None]  # (..., 1, 1)
    zero = nrm2 == 0.0

    a0 = e.members - e.true_mean[:, None]  # anomalies (sample mean == mu)
    a1 = a0 - (a0 @ psi[..., None]) * psi[..., None, :] / np.where(zero, 1.0, nrm2)
    # psi is centred, so row means are untouched; rescale row spreads back.
    s0 = np.linalg.norm(a0, axis=-1)
    s1 = np.linalg.norm(a1, axis=-1)
    collapsed = (s1 <= COLLAPSE_RTOL * s0) & (s0 > 0.0)
    scale = np.where(collapsed | (s0 == 0.0), 1.0, s0 / np.where(s1 > 0, s1, 1.0))
    members = np.where(zero, e.members, e.true_mean[:, None] + a1 * scale[..., None])
    note = "rank-collapse" if collapsed.any() else "psi-zero" if zero.all() else ""
    return Ensemble(members=members, true_mean=e.true_mean, recentred=True, note=note)


def write_ensemble_csv(path, members):
    """One member per row under a `dim_0,...,dim_{d-1}` header."""
    members = np.asarray(members, dtype=float)
    if members.ndim != 2:
        raise DimensionError(f"expected a 2-D member matrix, got shape {members.shape}")
    d = members.shape[0]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"dim_{i}" for i in range(d)])
        for col in members.T:
            w.writerow([repr(float(x)) for x in col])


def read_ensemble_csv(path):
    """Inverse of `write_ensemble_csv`; returns the (d, N) member matrix.
    Non-numeric and non-finite cells are rejected, naming their line."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if not header or any(h != f"dim_{i}" for i, h in enumerate(header)):
            raise DimensionError(f"{path}: expected a dim_0,...,dim_k header, got {header}")
        rows = []
        for row in r:
            if not row:
                continue
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}:{r.line_num}: non-numeric cell in {row}") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{r.line_num}: non-finite cell in {row}")
            rows.append(values)
    if not rows:
        raise InsufficientSampleError(f"{path}: no members")
    if any(len(row) != len(header) for row in rows):
        raise DimensionError(f"{path}: ragged rows")
    return np.array(rows, dtype=float).T
