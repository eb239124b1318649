"""Ensemble gradient estimators behind one interface.

Each estimator is written once, over stacks of trials: x-members `X`
(..., dx, M) and controls `U` (..., du, N), as Ensembles with any leading
trial axes, give a lambda-free plan plus the evaluations charged per trial;
`_at` alone applies lambdas, turning a plan into gradient rows (L, ..., du)
for a grid of L damping values. `estimate()` runs one unstacked trial at
one lambda; the benchmark harness runs each estimator once per block of
trials, with a `Batch` that lets the estimators of a block share their
evaluations and factorisations; the factorisations do not depend on the
objective, so Batches of several objectives on the same ensembles can share
them too. The Batch memo keeps each estimator's plan, so a lambda sweep of
`estimate()` calls through the memo a `CountingObjective` keeps per pair of
ensembles runs each estimator's body once.
Regularisation and the preconditioned form (trailing `Ut^+` replaced by
`Ut^T/(N-1)`, i.e. the gradient pre-multiplied by the sample control
covariance) are handled uniformly through `EstimatorSpec`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnsembleError, DimensionError
from .linalg import PinvConfig, damp, damped_apply, sample_cross_cov, svd
from .sampling import decorrelate, mirror

ESTIMATOR_IDS = (
    "plain_lls",
    "fragile",
    "paired",
    "stosag",
    "average_lls",
    "gen_stosag",
    "hybrid",
    "two_sided",
    "mirrored2s",
    "one_sided",
    "decorr",
    "avg_grad",
)

# Estimators consuming one fresh subsample of controls per x-member; the
# harness hands these a pooled ensemble of M*subsample_size members laid out
# as consecutive groups [v_1, w_1, v_2, w_2, ...].
SUBSAMPLED_IDS = ("average_lls", "gen_stosag", "hybrid", "two_sided")


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator selection plus the knobs shared by the whole family."""

    kind: str
    pinv: PinvConfig = PinvConfig()
    precondition: bool = False
    subsample_size: int = 2
    charge_cached: bool = False
    avg_grad_diagonal: bool = False

    def __post_init__(self):
        if self.kind not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {self.kind!r}; known: {ESTIMATOR_IDS}")
        for name in ("precondition", "charge_cached", "avg_grad_diagonal"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        n = self.subsample_size
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"subsample_size must be an integer >= 2, got {n!r}")


@dataclass
class GradientEstimate:
    """One `estimate()` result; its spec names the estimator and damping.
    `grad` is the estimated gradient row of the mean objective. `evals`
    counts conditional-objective evaluations charged to this estimate
    (analytic gradient calls, for avg_grad); `cached` counts evaluations at
    the mean control that a surrounding optimisation loop already has."""

    grad: np.ndarray
    evals: int
    cached: int = 0


class CountingObjective:
    """Wraps an ObjectiveSpec, counting the (x, u) evaluations it makes;
    the four evaluation methods are the ObjectiveSpec's. It evaluates
    every request: a lambda sweep reuses evaluations and factorisations
    through the memo of `batch()`, kept for the latest two pairs of
    ensembles."""

    def __init__(self, spec):
        self.spec = spec
        self.evals = 0
        self.grad_evals = 0
        self._memos = []  # (key, memo) of the latest two pairs, latest first

    def _evaluate(self, kind, X, U):
        out = getattr(self.spec, kind)(X, U)
        # per trial, a table's M*N pairs or the members of two paired
        # ensembles; then once per trial of a stack
        m, n = X.shape[-1], U.shape[-1]
        charge = m * n if kind.endswith("table") else max(m, n)
        if X.ndim > 2 or U.ndim > 2:
            charge *= math.prod(np.broadcast_shapes(X.shape[:-2], U.shape[:-2]))
        if kind.startswith("grad"):
            self.grad_evals += charge
        else:
            self.evals += charge
        return out

    def table(self, X, U):
        """The value table averaged over x, (..., N)."""
        return self._evaluate("table", X, U)

    def pairs(self, X, U):
        """Values loss(x_n, u_n), (..., N)."""
        return self._evaluate("pairs", X, U)

    def grad_table(self, X, U):
        """The analytic u-gradient averaged over the table, (..., du)."""
        return self._evaluate("grad_table", X, U)

    def grad_pairs(self, X, U):
        """Analytic u-gradients at (x_n, u_n), (..., du, N)."""
        return self._evaluate("grad_pairs", X, U)

    def batch(self, X, U):
        """A Batch of `X` and `U` on this objective whose memo is the one
        the last batch of the same ensembles used: keyed on the contents of
        both ensembles' members and true means and on their `recentred`
        flags, so an ensemble edited in place is a new key. Only the memos
        of the latest two pairs are kept, enough for a sweep that alternates
        (X, U) and (X, VW), so a loop over fresh ensembles stays bounded. A
        key is compared with those two for equality, never hashed."""
        key = (X.recentred, X.members.shape, X.members.tobytes(), X.true_mean.shape,
               X.true_mean.tobytes(), U.recentred, U.members.shape, U.members.tobytes(),
               U.true_mean.shape, U.true_mean.tobytes())
        for i, (k, memo) in enumerate(self._memos):
            if k == key:
                self._memos.insert(0, self._memos.pop(i))
                break
        else:
            memo = {}
            self._memos = [(key, memo)] + self._memos[:1]
        return Batch(self, X, U, memo, memo)


class Batch:
    """x-members `X` and controls `U` (Ensembles, stacked or not) on an
    objective, with what several estimators on them share, each computed on
    first use. Evaluations, decorrelated controls, projections and plans
    depend on the objective and go into `memo`; the SVDs, their damped
    singular values and the subsample anomalies depend only on `U` (grouped
    by the size of `X`) and go into `shared`, which Batches of other
    objectives on the same `X` and `U` may pass too (default: `memo`).
    Neither memo ever holds a Batch or the objective, so a memo kept by a
    CountingObjective makes no reference cycle. `objective` is an
    ObjectiveSpec or a CountingObjective."""

    def __init__(self, objective, X, U, memo=None, shared=None):
        self.obj, self.X, self.U = objective, X, U
        self._memo = {} if memo is None else memo
        self._shared = self._memo if shared is None else shared

    def once(self, key, compute, shared=False):
        """`compute()`, run on the first call with this key and kept in the
        shared memo when `shared`, for work that reads only `U`. A compute
        that raises keeps nothing, so the next call runs it again."""
        memo = self._shared if shared else self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def values(self):
        """loss(x_n, u_n), (..., N)."""
        return self.once("values", lambda: self.obj.pairs(self.X.members, self.U.members))

    def baseline(self):
        """Values at the mean control, loss(x_m, mu), (..., M)."""
        return self.once("baseline", lambda: self.obj.pairs(self.X.members,
                                                             self.U.true_mean[..., None]))

    def group_rows(self, nm):
        """Each x-member's values on its own subsample of `nm` consecutive
        controls, (..., M, nm)."""

        def compute():
            rows = self.obj.pairs(np.repeat(self.X.members, nm, axis=-1), self.U.members)
            return rows.reshape(rows.shape[:-1] + (self.X.n, nm))

        return self.once(("rows", nm), compute)

    def group_anomalies(self, nm):
        """The subsamples' anomalies about their own means, (..., M, d, nm)."""

        def compute():
            U = self.U.members
            g = np.moveaxis(U.reshape(U.shape[:-1] + (self.X.n, nm)), -2, -3)
            return g - g.sum(axis=-1, keepdims=True) / nm

        return self.once(("anomalies", nm), compute, shared=True)


def _require_paired(b, kind):
    if b.X.n != b.U.n:
        raise DimensionError(f"{kind} requires M == N, got M={b.X.n} N={b.U.n}")


def _require_paired_recentred(b, kind):
    _require_paired(b, kind)
    if not b.U.recentred:
        raise ValueError(f"{kind} requires a recentred control ensemble")


def _regress(key, row, b, spec, name="U", matrix=None, cross=None):
    """The plan of `row @ a^+` for the matrix `a = matrix()` that `name`
    stands for in `b`'s memo (default: `Ut`), with the row's projection kept
    under `key`, or the preconditioned row `cross()` (default: `row @ Ut^T/(N-1)`)."""
    if spec.precondition:
        return "fixed", sample_cross_cov(row, b.U.anomalies) if cross is None else cross()
    usv = b.once(("svd", name), lambda: svd(matrix() if matrix else b.U.anomalies), shared=True)
    projected = b.once(("projected", key, name), lambda: usv[2] @ row[..., None])
    return "regress", usv, projected, b.once(("damped", name), dict, shared=True)


def _plain_lls(b, spec):
    row = b.once("table", lambda: b.obj.table(b.X.members, b.U.members))
    return _regress("table", row, b, spec), b.X.n * b.U.n, 0


def _fragile(b, spec):
    row = b.once("fragile", lambda: b.obj.pairs(b.X.members.sum(axis=-1, keepdims=True) / b.X.n,
                                                 b.U.members))
    return _regress("fragile", row, b, spec), b.U.n, 0


def _paired(b, spec):
    _require_paired(b, "paired")
    return _regress("values", b.values(), b, spec), b.U.n, 0


def _stosag(b, spec):
    _require_paired_recentred(b, "stosag")
    return _regress("stosag", b.values() - b.baseline(), b, spec), b.U.n, b.X.n


def _one_sided(b, spec):
    """Mirrored two-sided form with the reflected values replaced by their
    linear extrapolation 2*loss(X, mu) - loss(X, U); collapses to stosag."""
    _require_paired_recentred(b, "one_sided")
    row = 0.5 * (b.values() - (2.0 * b.baseline() - b.values()))
    return _regress("one_sided", row, b, spec), b.U.n, b.X.n


def _mirrored2s(b, spec):
    _require_paired_recentred(b, "mirrored2s")
    row = b.once("mirrored2s", lambda: 0.5 * (b.values() - b.obj.pairs(b.X.members, mirror(b.U))))
    return _regress("mirrored2s", row, b, spec), 2 * b.U.n, 0


def _decorr(b, spec):
    """Paired, on controls decorrelated from the baseline values."""
    _require_paired_recentred(b, "decorr")

    def compute():
        base = b.baseline()
        return decorrelate(b.U, base - base.sum(axis=-1, keepdims=True) / b.X.n), {}

    # the decorrelated controls depend on the objective, so their SVD goes
    # into the inner Batch's own memo, never into `b`'s shared one
    dec = Batch(b.obj, b.X, *b.once("decorr", compute))
    return _regress("values", dec.values(), dec, spec), b.U.n, b.X.n


def _two_sided(b, spec):
    """Antithetic value differences over the pair groups [v_m, w_m]."""
    if b.U.n != 2 * b.X.n:
        raise DimensionError(
            f"two_sided needs 2*M = {2 * b.X.n} controls laid out in pairs, got {b.U.n}"
        )

    def pair_diffs():
        diff = b.U.members[..., 0::2] - b.U.members[..., 1::2]
        if np.any((diff * diff).sum(axis=-2) == 0.0):  # a zero norm
            raise DegenerateEnsembleError("two_sided: some pair has v == w")
        return diff

    diff = b.once("pair_diffs", pair_diffs, shared=True)
    rows = b.group_rows(2)
    row = rows[..., 0] - rows[..., 1]
    return _regress("two_sided", row, b, spec, "diff", lambda: diff,
                    lambda: (diff @ row[..., None])[..., 0] / (2 * b.X.n)), 2 * b.X.n, 0


def _checked_groups(b, spec, kind):
    nm = spec.subsample_size
    if b.U.n != b.X.n * nm:
        raise DimensionError(
            f"{kind} needs M*subsample_size = {b.X.n}*{nm} controls, got {b.U.n}"
        )
    return b.group_rows(nm), b.group_anomalies(nm)


def _average_lls(b, spec):
    """Mean over x-members of each group's own regression gradient."""
    rows, anoms = _checked_groups(b, spec, "average_lls")
    if spec.precondition or spec.subsample_size > 2:
        return ("mean", _regress(("rows", spec.subsample_size), rows, b, spec, "groups",
                                 lambda: anoms, lambda: sample_cross_cov(rows, anoms))), b.U.n, 0
    # rank-1 groups: pinv rows are +-vt^T/(2*|vt|^2), damped by 1/(1+lam^2)
    vt = anoms[..., 0]
    nrm2 = (vt * vt).sum(axis=-1)
    if np.any(nrm2 == 0.0):
        raise DegenerateEnsembleError("average_lls: some pair has v == w")
    grad = ((rows[..., 0] - rows[..., 1])[..., None] * vt / (2.0 * nrm2[..., None])).mean(axis=-2)
    return ("rank1", grad), b.U.n, 0


def _group_cross_moments(b, spec, kind):
    """Mean per-group cross-covariance and control covariance, shared by
    gen_stosag and hybrid. The sums run over the groups' j-th members, as
    contiguous (..., d, M) arrays, one j at a time: at M = d the covariance
    is near singular, and at lambda = 0 its inverse amplifies any change of
    summation order."""
    rows, anoms = _checked_groups(b, spec, kind)

    def compute():
        c = cov = 0.0
        for j in range(spec.subsample_size):
            a = np.ascontiguousarray(np.moveaxis(anoms[..., j], -1, -2))
            c = c + np.einsum("...m,...dm->...d", rows[..., j], a)
            cov = cov + np.einsum("...dm,...em->...de", a, a)
        scale = (spec.subsample_size - 1) * b.X.n
        return c / scale, cov / scale

    return b.once(("moments", spec.subsample_size), compute)


def _gen_stosag(b, spec):
    c_mean, cov_mean = _group_cross_moments(b, spec, "gen_stosag")
    return _regress(("moments", spec.subsample_size), c_mean, b, spec, "cov_mean",
                    lambda: cov_mean, lambda: c_mean), b.U.n, 0


def _hybrid(b, spec):
    """Per-group cross-covariances against the pooled control covariance."""
    c_mean, _ = _group_cross_moments(b, spec, "hybrid")

    def cov_pool():
        # matmul: this covariance has a near-null tail that amplifies any
        # last-bit difference at lambda = 0
        pooled = b.U.anomalies
        return pooled @ np.swapaxes(pooled, -1, -2) / (b.U.n - 1)

    return _regress(("moments", spec.subsample_size), c_mean, b, spec, "cov_pool",
                    cov_pool, lambda: c_mean), b.U.n, 0


def _avg_grad(b, spec):
    """Average of analytic conditional gradients; no regression involved."""
    X, U = b.X, b.U
    if spec.avg_grad_diagonal:
        _require_paired(b, "avg_grad (diagonal pairing)")
        grad = b.once("grad_pairs", lambda: b.obj.grad_pairs(X.members, U.members)).mean(axis=-1)
        return ("fixed", grad), U.n, 0
    grad = b.once("grad_table", lambda: b.obj.grad_table(X.members, U.members))
    return ("fixed", grad), X.n * U.n, 0


_DISPATCH = {kind: globals()[f"_{kind}"] for kind in ESTIMATOR_IDS}


def _at(plan, lambdas):
    """A plan's gradient rows (L, ..., du) at the tuple `lambdas`: `("regress",
    (u, s, vt), projected, damp(s) by lambdas)`, `("fixed", row)`, `("rank1",
    row)`, damped by `1/(1 + lam^2)`, or `("mean", plan)` over x-members."""
    kind = plan[0]
    if kind == "regress":
        _, (u, s, vt), projected, damped = plan
        coeffs = damped.get(lambdas)
        if coeffs is None:
            coeffs = damped[lambdas] = damp(s, lambdas)
        return damped_apply(None, (u, coeffs, vt), projected)
    if kind == "fixed":
        return np.repeat(plan[1][None], len(lambdas), axis=0)
    if kind == "rank1":
        return np.stack([plan[1] / (1.0 + lam**2) for lam in lambdas])
    return _at(plan[1], lambdas).mean(axis=-2)


def estimate_batch(batch, spec, lambdas=None):
    """Run one estimator on a Batch at every lambda of `lambdas` (default:
    the spec's own): gradient rows (L, ..., du), and the evaluations (new,
    cached) charged per trial. The plan is kept in the Batch's memo, keyed on
    the spec but `pinv` and `charge_cached`; a body that raises keeps nothing."""
    key = ("plan", spec.kind, spec.precondition, spec.subsample_size, spec.avg_grad_diagonal)
    memo = batch._memo
    if key not in memo:
        memo[key] = _DISPATCH[spec.kind](batch, spec)
    plan, evals, cached = memo[key]
    if spec.charge_cached:
        evals, cached = evals + cached, 0
    return _at(plan, (spec.pinv.lam,) if lambdas is None else tuple(lambdas)), evals, cached


def estimate(objective, X, U, spec):
    """Run one estimator on one trial: `objective` is an ObjectiveSpec or a
    CountingObjective, whose memo the calls of a lambda sweep share; `X`/`U`
    are Ensembles, `spec` selects and configures the estimator."""
    batch = (objective.batch(X, U) if isinstance(objective, CountingObjective)
             else Batch(objective, X, U))
    grads, evals, cached = estimate_batch(batch, spec)
    return GradientEstimate(grad=grads[0], evals=evals, cached=cached)
