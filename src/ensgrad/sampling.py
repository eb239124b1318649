"""Control-ensemble generation and transforms: recentring, mirroring and
decorrelation, on one ensemble or a stack of them.

Draws are Gaussian, one member per column. All randomness goes through
counter-based Philox streams keyed by `(base_seed, *spawn_key)`, so a trial's
draws replay identically regardless of scheduling or worker count. Trial t's
stream is the Philox whose key is `child_seed(base_seed, t).generate_state(2,
np.uint64)`, at counter 0. The harness draws a whole sub-batch of trials
through `child_normals`: `child_keys` hashes every trial's key in one array
pass of numpy's SeedSequence algorithm, and one generator is re-keyed per
trial, so no trial builds its own SeedSequence or Generator.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InsufficientSampleError, finite_reals, require

# Relative threshold below which a projected anomaly row counts as collapsed.
COLLAPSE_RTOL = 1e-9


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector plus covariance given as a scalar, a diagonal vector, or
    a full (d, d) matrix, read once when the spec is built: an entry that is
    not a finite real, a covariance of another dim than the mean, a negative
    or indefinite one, or a non-finite factor raises there. `variances` (d,)
    is its diagonal; it, `mean`, `factor()` and an array `cov` are read-only."""

    mean: np.ndarray
    cov: object = 1.0
    variances: np.ndarray = field(init=False, repr=False, compare=False)
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean, cov = finite_reals(self.mean), finite_reals(self.cov)
        require(mean is not None, "mean", "finite real numbers", self.mean)
        require(cov is not None, "cov", "finite real numbers", self.cov)
        mean, d = np.atleast_1d(mean), mean.size
        if cov.ndim == 0:
            if cov < 0:
                raise np.linalg.LinAlgError("negative covariance scale")
            factor, variances = np.sqrt(float(cov)) * np.eye(d), np.full(d, float(cov))
            cov = self.cov
        else:
            if cov.ndim not in (1, 2):
                raise DimensionError(f"covariance must be scalar, 1-D or 2-D, got {cov.ndim}-D")
            if cov.shape != (d,) * cov.ndim:
                raise DimensionError(f"covariance shape {cov.shape} does not match dim {d}")
            cov.flags.writeable = False
            if cov.ndim == 1:
                if np.any(cov < 0):
                    raise np.linalg.LinAlgError(f"invalid diagonal covariance {cov}")
                factor, variances = np.diag(np.sqrt(cov)), cov
            else:
                factor, variances = _full_factor(cov), np.diag(cov)  # only this one can overflow
                require(np.isfinite(factor).all(), "cov", "a matrix with a finite factor", self.cov)
        mean.flags.writeable = factor.flags.writeable = variances.flags.writeable = False
        for name, value in zip(("mean", "cov", "variances", "_factor"),
                               (mean, cov, variances, factor)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # a copy, a pickled one too, is built anew: its arrays stay read-only
        return GaussianSpec, (self.mean, self.cov)

    @property
    def dim(self):
        return self.mean.size

    def factor(self):
        """The (d, d) matrix L with L L^T = cov: Cholesky when positive
        definite, symmetric eigendecomposition for the merely semidefinite
        case."""
        return self._factor


def _full_factor(cov):
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
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
    def n(self):
        return self.members.shape[-1]

    @property
    def anomalies(self):
        """Members minus their column-sample mean."""
        return self.members - self.members.sum(axis=-1, keepdims=True) / self.n


def child_seed(base_seed, *key):
    """Deterministic child stream `(base_seed, key)`; independent of the
    order in which siblings are consumed."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(key))


def rng_from(seed):
    """Philox generator from an int seed or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


# numpy's SeedSequence hash on uint32 words (NEP 19 keeps it stable). Each
# hashmix advances its hash constant whatever word it hashes, so the constants
# of a run of hashmixes are known before the words are.
_MASK32, _POOL = 0xFFFFFFFF, 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n):
    """The little-endian uint32 words of a non-negative int, [0] for 0."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(v, h, mult=_MULT_A):
    """numpy's hashmix of `v` under the hash constant `h`, and the next
    constant. Python ints, or uint32 arrays, which wrap as uint32 does."""
    g = h * mult & _MASK32
    v = (v ^ h) * g & _MASK32
    return v ^ v >> 16, g


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _column(h, mult=_MULT_A):
    """The constants of `_POOL` successive hashmixes from `h`, as a
    (_POOL, 1) uint32 column, and the constant after them."""
    col = []
    for _ in range(_POOL):
        col.append(h)
        h = h * mult & _MASK32
    return np.array(col, np.uint32)[:, None], h


def _absorb(pool, h, word):
    """numpy's mixing of one more entropy word into every pool entry, on a
    (_POOL, 1) or (_POOL, T) uint32 pool: `word` is an int or one per trial."""
    col, h = _column(h)
    return _mix(pool, _hashmix(word, col)[0]), h


def child_keys(base_seed, lo, hi):
    """The (hi - lo, 2) uint64 Philox keys of trials [lo, hi): row t - lo is
    `child_seed(base_seed, t).generate_state(2, np.uint64)`. The pool after
    the base seed's words is the same for every trial: it is numpy's own
    `SeedSequence(base_seed).pool`, made by `_POOL` hashmixes per base word
    (padded to `_POOL` words), whose count fixes the hash constant after it.
    The spawn words and the state words are hashed as arrays over trials,
    one group per spawn-word count."""
    if base_seed < 0 or lo < 0:
        raise ValueError(f"expected non-negative seed and trials, got {base_seed}, {lo}")
    base_seed = int(base_seed)
    pool = np.random.SeedSequence(base_seed).pool[:, None]
    h = _INIT_A * pow(_MULT_A, _POOL * max(len(_words(base_seed)), _POOL), 1 << 32) & _MASK32
    keys = np.empty((hi - lo, 2), np.uint64)
    start = lo
    while start < hi:
        n_words = len(_words(start))
        stop = min(hi, 1 << 32 * n_words)
        t = np.arange(start, stop, dtype=np.uint64 if stop <= 1 << 64 else object)
        p, g = pool, h
        for j in range(n_words):
            p, g = _absorb(p, g, (t >> 32 * j & _MASK32).astype(np.uint32))
        state = _hashmix(p, _column(_INIT_B, _MULT_B)[0], _MULT_B)[0].astype(np.uint64)
        keys[start - lo:stop - lo] = (state[0::2] | state[1::2] << 32).T
        start = stop
    return keys


def child_normals(base_seed, lo, hi, width):
    """(hi - lo, width) standard normals: row t - lo is, bit for bit,
    `rng_from(child_seed(base_seed, t)).standard_normal(width)`. One Philox,
    local to the call, is re-keyed for each trial (counter 0, empty
    buffer) from `child_keys`."""
    z = np.empty((hi - lo, width))
    bitgen = np.random.Philox(0)  # a placeholder key: every row re-keys it
    gen = np.random.Generator(bitgen)
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(z, child_keys(base_seed, lo, hi).tolist()):
        inner["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)
    return z


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
    shift = e.true_mean - e.members.sum(axis=-1) / e.n
    return Ensemble(members=e.members + shift[..., None], true_mean=e.true_mean, recentred=True,
                    note=e.note)


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
    psi = psi - psi.sum(axis=-1, keepdims=True) / e.n  # contract is a centred row; harmless repeat
    nrm2 = psi[..., None, :] @ psi[..., :, None]  # (..., 1, 1)
    zero = nrm2 == 0.0

    a0 = e.members - e.true_mean[:, None]  # anomalies (sample mean == mu)
    a1 = a0 - (a0 @ psi[..., None]) * psi[..., None, :] / np.where(zero, 1.0, nrm2)
    # psi is centred, so row means are untouched; rescale row spreads back.
    s0 = np.sqrt((a0 * a0).sum(axis=-1))  # np.linalg.norm's own formula
    s1 = np.sqrt((a1 * a1).sum(axis=-1))
    collapsed = (s1 <= COLLAPSE_RTOL * s0) & (s0 > 0.0)
    scale = np.where(collapsed | (s0 == 0.0), 1.0, s0 / np.where(s1 > 0, s1, 1.0))
    members = np.where(zero, e.members, e.true_mean[:, None] + a1 * scale[..., None])
    note = "rank-collapse" if collapsed.any() else "psi-zero" if zero.all() else ""
    return Ensemble(members=members, true_mean=e.true_mean, recentred=True, note=note)


def write_rows_csv(path, header, rows):
    """The writer of the package's CSV files but the results tables
    (`harness.write_results_csv`, which writes the same bytes): the
    header, then the rows as given. `csv` writes a Python float as its
    repr, which reads back bit for bit, so callers pass Python floats
    (`.tolist()` for numpy rows)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_ensemble_csv(path, members):
    """One member per row under a `dim_0,...,dim_{d-1}` header."""
    members = np.asarray(members, dtype=float)
    if members.ndim != 2:
        raise DimensionError(f"expected a 2-D member matrix, got shape {members.shape}")
    write_rows_csv(path, [f"dim_{i}" for i in range(members.shape[0])], members.T.tolist())


def _read_rows(path, rows, width, layout):
    """The float matrix of `rows`, a csv reader on `path`: one row per
    non-blank line, each `width` cells wide (the first row's if None). A
    non-numeric cell (its message names `layout`) or a non-finite one raises
    ValueError, a row of another width DimensionError, each naming its line;
    no row at all raises InsufficientSampleError."""
    out = []
    for row in rows:
        if not row:
            continue
        where = f"{path}:{rows.line_num}"
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ValueError(f"{where}: non-numeric cell in {row}; expected {layout}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where}: non-finite cell in {row}")
        width = width or len(values)
        if len(values) != width:
            raise DimensionError(f"{where}: ragged row of {len(values)} cells, expected {width}")
        out.append(values)
    if not out:
        raise InsufficientSampleError(f"{path}: no rows")
    return np.array(out)


def read_values_csv(path):
    """A headerless CSV matrix of numbers, (rows, cols): the layout of the
    CLI's value files."""
    with open(path, newline="") as f:
        return _read_rows(path, csv.reader(f), None, "a headerless CSV matrix of numbers")


def read_ensemble_csv(path):
    """Inverse of `write_ensemble_csv`; returns the (d, N) member matrix,
    C-ordered like a drawn ensemble's."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if not header or any(h != f"dim_{i}" for i, h in enumerate(header)):
            raise DimensionError(f"{path}: expected a dim_0,...,dim_k header, got {header}")
        return _read_rows(path, r, len(header), "one member per row under the header").T.copy()
