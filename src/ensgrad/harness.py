"""Monte-Carlo benchmark harness.

Repeats, over many independent trials, the estimation of the expected
gradient of a separable Hermite objective under Gaussian control and
uncertainty ensembles, then aggregates signed per-dimension errors into
RMSE/bias tables over a regularisation grid. `_draw_trials` draws a range of
trials straight into stacked `Ensemble`s, each trial from its own child
stream. `run_bench` runs a block of trials in sub-batches of bounded size:
trial t reads the same stream at every Hermite order, so each sub-batch is
drawn once for all orders, and per order each estimator makes one
`estimate_batch` call over the whole lambda grid, sharing the sub-batch's
evaluations and the controls' SVDs through `Batch`. A run's one store is a
read-only `CellTotals` per (order, N): its blocks' error moments in trial
order and their totals. `cell_tables` turns a cell into RMSE/bias rows in
one array pass, `block_arrays` reads its blocks for bootstrap bands, and
`aggregate` turns `BenchResult.stats`, its per-key `ErrorStats` view, into
rows. The CLI sizes its blocks in trials, at most `BLOCK_TRIALS` each.
`run_trial` is the plain composition of per-call `estimate()`s on the same
draws, one trial and one lambda at a time, which the tests pin the blocks
against. The truth is in closed form (`objectives.hermite_expected_grad`).

Also here: the deterministic steepest-descent demo on the stretched
Rastrigin surface and the control-variate variance-reduction law check.
"""

import csv
import math
import numbers
import sys
from collections import namedtuple
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    Batch,
    CountingObjective,
    EstimatorSpec,
    estimate,
    estimate_batch,
)
from .linalg import PinvConfig
from .objectives import (
    MAX_HERMITE_ORDER,
    hermite_expected_grad,
    hermite_expected_grad_dist,
    hermite_objective,
    rastrigin_blurred,
    rastrigin_eval,
)
from .sampling import Ensemble, GaussianSpec, child_normals, child_seed, recenter, rng_from

RESULTS_HEADER = ("estimator", "order", "N", "lambda", "rmse", "bias", "evals", "trials")
TRAJECTORY_HEADER = ("start_id", "step", "u1", "u2", "loss_exact", "loss_blurred")

DEFAULT_LAMBDAS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0)
DEFAULT_SIZES = (3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100)
MAX_DIMS = 1000  # validate() and every block factor a dims x dims covariance
# Trials per block of the CLI's runs: the block of the default 10^4-trial run
# at run_bench's 50 blocks per cell, so that run keeps its bits while shorter
# runs make fewer, larger blocks.
BLOCK_TRIALS = 200


class ConfigError(ValueError):
    """Invalid benchmark configuration; the CLI maps this to exit code 2."""


def _ints(lo, hi=math.inf):  # bools are ints to Python, and JSON's true/false load as bools
    return lambda v: not isinstance(v, bool) and isinstance(v, int) and lo <= v <= hi


def _reals(lo=-sys.float_info.max, hi=sys.float_info.max):  # finite: NaN fails every comparison
    return lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real) and lo <= v <= hi


def _entries(v):  # of a number, vector or matrix; a deeper list is one entry, and fails
    v = v.tolist() if isinstance(v, np.ndarray) else v
    rows = v if isinstance(v, (list, tuple)) else [v]
    return [x for r in rows for x in (r if isinstance(r, (list, tuple)) else [r])]


# Per BenchConfig field: its shape, check per entry, what that accepts, from_dict's conversion
# per entry. Shapes: "one" value; "distinct", a non-empty tuple of differing entries (a repeat
# would run trials twice); "mean", dims numbers or null; "cov", numbers that must factor.
_Field = namedtuple("_Field", "shape ok what entry", defaults=(None,))
_MEAN, _COV = _Field("mean", _reals(), "finite numbers"), _Field("cov", _reals(), "finite numbers")
CONFIG_FIELDS = {
    "base_seed": _Field("one", _ints(0), "non-negative int"),
    "n_trials": _Field("one", _ints(1), "positive int"),
    "dims": _Field("one", _ints(1, MAX_DIMS), f"int in [1, {MAX_DIMS}]"),
    "hermite_orders": _Field("distinct", _ints(0, MAX_HERMITE_ORDER),
                             f"ints in [0, {MAX_HERMITE_ORDER}]"),
    "ensemble_sizes": _Field("distinct", _ints(2), "ints >= 2"),
    "lambda_grid": _Field("distinct", _reals(0), "finite numbers >= 0", float),
    "estimators": _Field("distinct", ESTIMATOR_IDS.__contains__, f"ids from {list(ESTIMATOR_IDS)}"),
    "u_mean": _MEAN, "u_cov": _COV, "x_mean": _MEAN, "x_cov": _COV,
    "truth": _Field("one", ("conditional", "distribution").__contains__,
                    "'conditional' or 'distribution'"),
    "m_members": _Field("one", lambda v: v is None or _ints(2)(v), "int >= 2 or null"),
    "charge_cached": _Field("one", lambda v: isinstance(v, bool), "true or false"),
}


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark setup. Defaults reproduce the desk-scale study: 5 dims,
    u ~ N(0, I/100), x ~ N(linspace(-2,2), I/4), 10^4 trials."""

    base_seed: int = 2026
    n_trials: int = 10_000
    dims: int = 5
    hermite_orders: tuple = (2, 3, 5)
    ensemble_sizes: tuple = DEFAULT_SIZES
    lambda_grid: tuple = DEFAULT_LAMBDAS
    estimators: tuple = ESTIMATOR_IDS
    u_mean: tuple = None  # default: zeros(dims)
    u_cov: object = 0.01  # scalar/diag/full, like GaussianSpec
    x_mean: tuple = None  # default: linspace(-2, 2, dims)
    x_cov: object = 0.25
    truth: str = "conditional"  # or "distribution"
    m_members: int = None  # decouple M from N (paired family then skips)
    charge_cached: bool = False

    def u_spec(self):
        mean = np.zeros(self.dims) if self.u_mean is None else self.u_mean
        return GaussianSpec(mean=mean, cov=self.u_cov)

    def x_spec(self):
        mean = np.linspace(-2.0, 2.0, self.dims) if self.x_mean is None else self.x_mean
        return GaussianSpec(mean=mean, cov=self.x_cov)

    def validate(self):
        """Check every field against its `CONFIG_FIELDS` entry, naming each failing field."""
        problems = {}
        for name, (shape, ok, what, _) in CONFIG_FIELDS.items():
            v = getattr(self, name)
            if shape in ("distinct", "mean"):  # a mean may be null, for the default
                good = (v is None and shape == "mean") or (
                    isinstance(v, (tuple, list, np.ndarray)) and len(v) > 0 and all(map(ok, v)))
            else:
                good = all(map(ok, _entries(v) if shape == "cov" else [v]))
            if not good:
                problems[name] = f"expected {what}, got {v!r}"
            elif shape == "distinct" and len(set(v)) < len(v):
                problems[name] = f"repeated values in {v!r}"
            elif shape == "mean" and v is not None and len(v) != self.dims and "dims" not in problems:
                problems[name] = f"length {len(v)} != dims {self.dims}"
            elif shape == "cov" and not problems.keys() & {"dims", name[0] + "_mean"}:
                try:  # u_cov factors u_spec() and x_cov x_spec(), each on its own
                    if not np.isfinite(getattr(self, name[0] + "_spec")().factor()).all():
                        problems[name] = "its factor is not finite"
                except ValueError as e:  # includes LinAlgError and DimensionError
                    problems[name] = str(e)
        if problems:
            raise ConfigError("; ".join(f"{k}: {p}" for k, p in problems.items()))
        return self

    def to_dict(self):
        def plain(v):
            if isinstance(v, tuple):
                return [plain(x) for x in v]
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.integer, np.floating)):
                return v.item()
            return v

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"expected an object of config keys, got {type(d).__name__}")
        unknown = sorted(set(d) - set(CONFIG_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known keys: {sorted(CONFIG_FIELDS)}")
        seqs = {k for k, f in CONFIG_FIELDS.items() if f.shape in ("distinct", "mean")}
        cfg = cls(**{k: tuple(v) if k in seqs and isinstance(v, list) else v for k, v in d.items()})
        cfg.validate()  # first, or float() reads true/false as 1.0/0.0
        return replace(cfg, **{k: tuple(map(f.entry, getattr(cfg, k)))
                               for k, f in CONFIG_FIELDS.items() if f.entry})


# ---------------------------------------------------------------------------
# Per-key records, keyed (estimator, order, N, lam): `BenchResult.stats` views
# a run's cells as these; merging is associative and commutative.


class ErrorStats(namedtuple("ErrorStats", "sum_err sum_sq n evals cached")):
    """Sums of signed errors and of their squares, (d,), over n trials; read-only."""

    __slots__ = ()

    def merge(self, other):
        """A new record of both records' moments."""
        if other.evals != self.evals or other.cached != self.cached:
            raise ValueError("merging stats with different evaluation contracts")
        return self._replace(sum_err=self.sum_err + other.sum_err,
                             sum_sq=self.sum_sq + other.sum_sq, n=self.n + other.n)


def merge_stats(into, other):
    """Merge `other` into the dict `into`, rebinding its keys to new records; returns `into`."""
    for key, st in other.items():
        into[key] = into[key].merge(st) if key in into else st
    return into


# ---------------------------------------------------------------------------
# Trials: draws, truth, and the per-call reference composition.

TrialOutcome = namedtuple("TrialOutcome", "errors skips evals")  # per estimator, of run_trial


def _draw_trials(cfg, n, lo, hi):
    """The Ensembles of trials [lo, hi), stacked on a leading axis: x-members
    (T, d, M), recentred controls (T, d, N) and, if an estimator subsamples,
    the pooled controls (T, d, 2M), else None. Each trial draws its raw normals
    from its own child stream, in that order (`child_normals` keys the whole
    range at once); the specs' factors and the recentring apply to the whole
    stack at once."""
    x_spec, u_spec = cfg.x_spec(), cfg.u_spec()
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    d, m, k = cfg.dims, cfg.m_members or n, hi - lo
    widths = (m, n, 2 * m) if need_vw else (m, n)
    z = child_normals(cfg.base_seed, lo, hi, d * sum(widths))
    parts = np.split(z, d * np.cumsum(widths[:-1]), axis=1)
    lx, lu = x_spec.factor(), u_spec.factor()
    x = Ensemble(x_spec.mean[:, None] + lx @ parts[0].reshape(k, d, m), x_spec.mean)

    def controls(part):
        return recenter(Ensemble(u_spec.mean[:, None] + lu @ part.reshape(k, d, -1), u_spec.mean))

    return x, controls(parts[1]), (controls(parts[2]) if need_vw else None)


def trial_truth(cfg, order, x_members):
    """Expected gradient for trials with the given x-members, (d, M) or
    (T, d, M)."""
    if cfg.truth == "distribution":
        truth = hermite_expected_grad_dist(order, cfg.x_spec(), cfg.u_spec())
        return np.broadcast_to(truth, x_members.shape[:-1])
    return hermite_expected_grad(order, x_members, cfg.u_spec())


def run_trial(cfg, order, n, trial_index):
    """One benchmark trial, drawn as a stack of one and unstacked, through
    per-call `estimate()`s, one lambda at a time: returns signed
    per-dimension errors for every configured estimator at every lambda,
    reusing the trial's ensembles and cached evaluations."""
    x_ens, u_ens, vw_ens = (None if e is None else replace(e, members=e.members[0])
                            for e in _draw_trials(cfg, n, trial_index, trial_index + 1))
    obj = CountingObjective(hermite_objective(order, cfg.dims))
    truth = trial_truth(cfg, order, x_ens.members)

    errors, skips, evals = {}, {}, {}
    for est in cfg.estimators:
        ens = vw_ens if est in SUBSAMPLED_IDS else u_ens
        rows = []
        try:
            for lam in cfg.lambda_grid:
                spec = EstimatorSpec(
                    kind=est, pinv=PinvConfig(lam), charge_cached=cfg.charge_cached
                )
                got = estimate(obj, x_ens, ens, spec)
                rows.append(got.grad - truth)
                evals[est] = (got.evals, got.cached)
        except ValueError as e:  # includes DimensionError and degenerate pairs
            skips[est] = str(e)
            continue
        errors[est] = np.array(rows)
    return TrialOutcome(errors=errors, skips=skips, evals=evals)


def _block_batch_size(dims, m, n):
    return max(1, min(512, int(2.0e6 // max(1, dims * m * n))))


def _sub_batches(cfg, n, lo, hi):
    """Trials [lo, hi) at size `n`, drawn once for every order, in
    sub-batches of bounded size: per sub-batch, the x-member Ensemble and,
    for the controls and the pooled controls, `(Ensemble, shared memo)`.
    The memo holds the controls' SVDs and anomalies, which no objective
    changes."""
    step = _block_batch_size(cfg.dims, cfg.m_members or n, n)
    subs = []
    for blo in range(lo, hi, step):
        x_ens, u_ens, vw_ens = _draw_trials(cfg, n, blo, min(blo + step, hi))
        subs.append((x_ens, {False: (u_ens, {}), True: (vw_ens, {})}))
    return subs


def _run_block(cfg, order, subs):
    """Error moments and skip reasons of one order on a block's sub-batches
    (`_sub_batches`): one `estimate_batch` call per estimator and sub-batch
    over the whole lambda grid. Per estimator the moments are `[sums,
    trials, evals, cached]`, with `sums` (2, L, d): the signed errors and
    their squares summed over trials, per lambda, one trial after another
    from a trial-major (T, L, d) array: each step adds one contiguous row."""
    objective = hermite_objective(order, cfg.dims)
    specs = {est: EstimatorSpec(kind=est, charge_cached=cfg.charge_cached)
             for est in cfg.estimators}
    moments, skips = {}, {}
    for x_ens, controls in subs:
        batches = {vw: Batch(objective, x_ens, ens, shared=shared)
                   for vw, (ens, shared) in controls.items()}
        truth = trial_truth(cfg, order, x_ens.members)  # (T, d)
        for est, spec in specs.items():
            if est in skips:
                continue
            try:
                grads, evals, cached = estimate_batch(
                    batches[est in SUBSAMPLED_IDS], spec, cfg.lambda_grid)  # (L, T, d)
            except ValueError as e:  # includes DimensionError and degenerate pairs
                skips[est] = str(e)
                continue
            if est not in moments:
                moments[est] = [np.zeros((2, len(cfg.lambda_grid), cfg.dims)), 0, evals, cached]
            acc = moments[est]
            errors = np.empty((len(truth), len(cfg.lambda_grid), cfg.dims))
            np.subtract(grads, truth, out=errors.transpose(1, 0, 2))
            acc[0][0] += errors.sum(axis=0)
            acc[0][1] += np.square(errors, out=errors).sum(axis=0)
            acc[1] += len(truth)
    return moments, skips


def _run_group(cfg, n, lo, hi):
    """`_run_block` of each configured order on trials [lo, hi) at size
    `n`, yielded as each order finishes, or the `"Type: message"` of one
    that raised; the orders share one draw and one set of control
    factorisations."""
    subs = _sub_batches(cfg, n, lo, hi)
    for order in cfg.hermite_orders:
        try:
            part = _run_block(cfg, order, subs)
        except Exception as e:  # this (order, N) cell fails alone
            part = f"{type(e).__name__}: {e}"
        yield part


# ---------------------------------------------------------------------------
# Bench driver.


# One (order, N) cell's totals over its trials, for the estimators that ran,
# in ESTIMATOR_IDS order: error moment sums (E, 2, L, d), trial counts (E,),
# (evals, cached) pairs, and its B blocks in trial order: moments (E, B, 2, L,
# d) and trial counts (E, B), 0 where a block skipped; run_bench's are read-only.
CellTotals = namedtuple("CellTotals", "estimators sums trials contracts block_sums block_trials")


@dataclass
class BenchResult:
    cells: dict  # (order, N) -> CellTotals
    skips: dict  # (order, N, est) -> reason
    failures: dict = field(default_factory=dict)  # (order, N) -> "Type: message"
    lambda_grid: tuple = ()  # the lambdas indexing the sums
    elapsed: float = 0.0

    @cached_property
    def stats(self):
        """(est, order, N, lam) -> ErrorStats, built on first access: views
        into the cells' sums."""
        stats = {}
        for (order, n), cell in self.cells.items():
            for e, (est, t, (evals, cached)) in enumerate(
                    zip(cell.estimators, cell.trials.tolist(), cell.contracts)):
                for l, lam in enumerate(self.lambda_grid):
                    stats[(est, order, n, lam)] = ErrorStats(cell.sums[e, 0, l], cell.sums[e, 1, l],
                                                             t, evals, cached)
        return stats


def _run_task(args):
    return list(_run_group(*args))


def run_bench(cfg, workers=1, blocks_per_cell=50, progress=None):
    """Run the full benchmark grid, one ensemble size N after another: in
    process, or for `workers` > 1 on one pool of that many processes, which
    the call starts when first needed and shuts down on return. Each (order,
    N) cell's trials split evenly into `blocks_per_cell` blocks. The blocks
    of all orders at one N and trial range are one task: every order's
    trial t reads the same child stream, so the task draws the ensembles
    once and factors the controls once, and each order runs its estimators
    on them. One block per cell makes one task per N, which runs in process
    whatever `workers` says: a pool would add only its start-up.
    `cells[(order, N)]` keeps each block's moments in trial order, 80 bytes
    per block, estimator and lambda at d = 5 (17 MB on the full default
    grid), and their sums in trial order: the same bits for any `workers`
    (another split can move the last bits once a block spans several
    sub-batches). An order that raises fails its (order, N) cell alone; any
    other exception while an N runs, `progress`'s too, fails all of that N's
    cells, and a dead worker also renews the pool. A failed cell keeps no
    estimators or skips, and `failures[(order, N)]` holds its
    `"Type: message"`. `progress(order, N)` is called once per cell, failed
    cells included, as its last block comes back: by N, then by order."""
    import time

    cfg.validate()
    for name, value in (("blocks_per_cell", blocks_per_cell), ("workers", workers)):
        if not _ints(1)(value):
            raise ConfigError(f"{name}: expected positive int, got {value!r}")
    t0 = time.perf_counter()
    orders, progress = cfg.hermite_orders, progress or (lambda order, n: None)
    block = max(1, math.ceil(cfg.n_trials / blocks_per_cell))
    starts = range(0, cfg.n_trials, block)
    row = {est: e for e, est in enumerate(est for est in ESTIMATOR_IDS if est in cfg.estimators)}
    # per cell, every estimator's block sums and trial counts, and the (evals,
    # cached) of those that ran; -0.0 is exact for +: skipped rows add nothing
    cells = {(order, n): (np.full((len(row), len(starts), 2, len(cfg.lambda_grid), cfg.dims), -0.0),
                          np.zeros((len(row), len(starts)), dtype=np.int64), {})
             for order in orders for n in cfg.ensemble_sizes}
    skips, failures, pool = {}, {}, None
    try:
        for n in cfg.ensemble_sizes:
            args = [(cfg, n, lo, min(lo + block, cfg.n_trials)) for lo in starts]
            reported = 0  # of this N's orders, in turn
            try:
                if workers > 1 and len(starts) > 1 and pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                parts = pool.map(_run_task, args) if pool else (_run_group(*a) for a in args)
                for b, group in enumerate(parts):
                    for order, part in zip(orders, group):
                        if isinstance(part, str):
                            failures.setdefault((order, n), part)
                        elif (order, n) not in failures:
                            sums, trials, contracts = cells[(order, n)]
                            for est, (block_sums, block_trials, evals, cached) in part[0].items():
                                if contracts.setdefault(est, (evals, cached)) != (evals, cached):
                                    raise ValueError("cell blocks differ in evaluation contracts")
                                sums[row[est], b] = block_sums
                                trials[row[est], b] = block_trials
                            for est, reason in part[1].items():
                                skips[(order, n, est)] = reason
                        if b == len(starts) - 1:  # the cell's last block
                            reported += 1
                            progress(order, n)
            except Exception as e:  # e.g. a dead worker, which ran all of this N's orders
                failures.update({(order, n): f"{type(e).__name__}: {e}" for order in orders})
                if isinstance(e, BrokenExecutor):
                    pool.shutdown(cancel_futures=True)
                    pool = None
            for order in orders[reported:]:  # the cells of a failed N are reported too
                progress(order, n)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    totals = {}
    skips = {key: reason for key, reason in skips.items() if key[:2] not in failures}
    for key in list(cells):  # popped, so the stacks of a cell that copies them are freed at once
        sums, trials, contracts = cells.pop(key)
        # a failed cell's estimators make no stats or blocks
        ran = () if key in failures else tuple(est for est in row if est in contracts)
        at = slice(None) if len(ran) == len(row) else [row[est] for est in ran]  # a view if all ran
        # from -0.0, the sums are the blocks' sequential adds bit for bit
        totals[key] = cell = CellTotals(ran, sums.sum(axis=1, initial=-0.0)[at],
                                        trials.sum(axis=1)[at], tuple(map(contracts.get, ran)),
                                        sums[at], trials[at])
        for a in (cell.sums, cell.trials, cell.block_sums, cell.block_trials):
            a.flags.writeable = False
    return BenchResult(cells=totals, skips=skips, failures=failures,
                       lambda_grid=tuple(cfg.lambda_grid), elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Aggregation and tables.


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    order: int
    n: int
    lam: float
    rmse: float
    bias: float
    evals: int
    trials: int

    def __iter__(self):  # the fields in RESULTS_HEADER order
        return iter((self.estimator, self.order, self.n, self.lam, self.rmse, self.bias,
                     self.evals, self.trials))


def error_metrics(sum_err, sum_sq, trials):
    """RMSE and bias, each (...), from error sums and sums of squares
    (..., d) over `trials`, broadcast to (...): per-dimension moments over
    trials, then averaged across dimensions (so rmse^2 >= bias^2 holds per
    dimension)."""
    n = trials[..., None]
    return np.sqrt(sum_sq / n).mean(axis=-1), np.abs(sum_err / n).mean(axis=-1)


def aggregate(stats):
    """RMSE/bias rows (`error_metrics`), in (order, N, ESTIMATOR_IDS,
    lambda) order. Keys with no trials are left out; rows with a non-finite
    rmse or bias are kept as they are. One array pass over all keys."""
    kept = [(key, st) for key, st in stats.items() if st.n != 0]
    if not kept:
        return []
    rmse, bias = error_metrics(np.stack([st.sum_err for _, st in kept]),
                               np.stack([st.sum_sq for _, st in kept]),
                               np.array([st.n for _, st in kept]))
    rows = [ResultRow(*key, r, b, st.evals, st.n)
            for (key, st), r, b in zip(kept, rmse.tolist(), bias.tolist())]
    rows.sort(key=lambda r: (r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam))
    return rows


def cell_tables(order, n, cell, lambda_grid):
    """One cell's rows of results.csv and of best_lambda.csv, as tuples in
    `RESULTS_HEADER` order: estimators in `cell`'s (ESTIMATOR_IDS) order,
    lambdas ascending. Rows with a non-finite rmse or bias are left out of
    both, and their count is returned third. An estimator's best row has
    the least rmse of its finite rows, the smallest lambda on a tie; an
    estimator with no finite row has none."""
    by_lam = sorted(range(len(lambda_grid)), key=lambda_grid.__getitem__)
    lams = [float(lambda_grid[l]) for l in by_lam]
    rmse, bias = (m[:, by_lam] for m in error_metrics(cell.sums[:, 0], cell.sums[:, 1],
                                                      cell.trials[:, None]))
    ok = np.isfinite(rmse) & np.isfinite(bias)
    best_at = np.where(ok, rmse, np.inf).argmin(axis=1).tolist()
    rows, best = [], []
    for est, (evals, _), t, rs, bs, oks, j in zip(cell.estimators, cell.contracts,
                                                  cell.trials.tolist(), rmse.tolist(),
                                                  bias.tolist(), ok.tolist(), best_at):
        rows += [(est, order, n, lam, r, b, evals, t)
                 for lam, r, b, keep in zip(lams, rs, bs, oks) if keep]
        if oks[j]:
            best.append((est, order, n, lams[j], rs[j], bs[j], evals, t))
    return rows, best, ok.size - np.count_nonzero(ok)


def select_best_lambda(rows, metric="rmse"):
    """Per (estimator, order, N), the row minimising the metric; ties go to
    the smallest lambda, and rows with a non-finite metric are ignored."""
    if metric not in ("rmse", "bias"):
        raise ValueError(f"metric must be 'rmse' or 'bias', got {metric!r}")
    best = {}
    for row in sorted(rows, key=lambda r: r.lam):
        key, value = (row.estimator, row.order, row.n), getattr(row, metric)
        if math.isfinite(value) and (key not in best or value < getattr(best[key], metric)):
            best[key] = row
    out = list(best.values())
    out.sort(key=lambda r: (r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam))
    return out


def write_results_csv(path, rows):
    """A sequence of result rows (ResultRows or tuples in `RESULTS_HEADER`
    order, with Python floats) under `RESULTS_HEADER`, byte for byte as
    `csv.writer` writes them: a float as its repr, an int lambda as a float.
    An estimator name must be an identifier, which csv never quotes."""
    if bad := sorted(e for e in {e for e, _, _, _, _, _, _, _ in rows} if not e.isidentifier()):
        raise ValueError(f"estimator names are not identifiers: {bad}")
    with open(path, "w", newline="") as f:
        f.write(",".join(RESULTS_HEADER) + "\r\n")
        f.writelines(f"{e},{order},{n},{float(lam)!r},{rmse!r},{bias!r},{evals},{t}\r\n"
                     for e, order, n, lam, rmse, bias, evals, t in rows)


def read_results_csv(path):
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = tuple(next(r))
        if header != RESULTS_HEADER:
            raise DimensionError(f"{path}: unexpected header {header}")
        return [
            ResultRow(row[0], int(row[1]), int(row[2]), float(row[3]), float(row[4]),
                      float(row[5]), int(row[6]), int(row[7]))
            for row in r
            if row
        ]


# ---------------------------------------------------------------------------
# Bootstrap over trial blocks (blocks are iid across trials by construction).


def block_arrays(result, estimator, order, n, lam):
    """One table cell's per-block moments, in trial order: (sums, sumsqs,
    ns) of shapes (B, d), (B, d) and (B,), for the blocks that ran it."""
    cell = result.cells.get((order, n))
    if cell is None or estimator not in cell.estimators or lam not in result.lambda_grid:
        raise KeyError(f"no blocks for {(estimator, order, n, lam)}")
    e, l = cell.estimators.index(estimator), result.lambda_grid.index(lam)
    ran = cell.block_trials[e] > 0
    return cell.block_sums[e, ran, 0, l], cell.block_sums[e, ran, 1, l], cell.block_trials[e, ran]


def bootstrap_band(sums, sumsqs, ns, metric="rmse", n_boot=1000, seed=0, q=(2.5, 97.5)):
    """Percentile bootstrap band for the aggregated metric (`error_metrics`),
    resampling blocks with replacement."""
    if metric not in ("rmse", "bias"):
        raise ValueError(f"metric must be 'rmse' or 'bias', got {metric!r}")
    c = len(ns)
    if c == 0:
        raise ValueError("no blocks to resample")
    idx = rng_from(child_seed(seed, 0)).integers(0, c, size=(n_boot, c))
    rmse, bias = error_metrics(sums[idx].sum(axis=1), sumsqs[idx].sum(axis=1), ns[idx].sum(axis=1))
    return tuple(np.percentile(rmse if metric == "rmse" else bias, q))


# ---------------------------------------------------------------------------
# Control-variate variance-reduction law: subtracting a correlated noise
# term b (corr rho, std ratio r) from a changes the variance by r*(2*rho - r)
# relative to Var(a).


def variance_improvement(rho, r, n_samples, seed=0):
    rng = rng_from(child_seed(seed, 0))
    z = rng.standard_normal((2, n_samples))
    a = z[0]
    b = r * (rho * z[0] + np.sqrt(1.0 - rho**2) * z[1])
    return float((a.var(ddof=1) - (a - b).var(ddof=1)) / a.var(ddof=1))


# ---------------------------------------------------------------------------
# Steepest descent on the Rastrigin demo surface.

DEFAULT_STARTS = ((-2.4, 2.3), (2.2, -1.6), (1.7, 2.6), (-1.9, -2.4), (0.9, -2.8))


@dataclass(frozen=True)
class DescentConfig:
    step: float = 0.012
    n_steps: int = 400
    starts: tuple = DEFAULT_STARTS


@dataclass
class Trajectory:
    points: np.ndarray  # (K+1, d)
    aborted: bool = False


def steepest_descent(grad_fn, cfg):
    """Fixed-step descent from each start; aborts a trajectory on the first
    non-finite step and flags it."""
    out = []
    for start in cfg.starts:
        u = np.asarray(start, dtype=float)
        points = [u.copy()]
        aborted = False
        for _ in range(cfg.n_steps):
            g = np.asarray(grad_fn(u), dtype=float)
            u = u - cfg.step * g
            if not np.all(np.isfinite(u)):
                aborted = True
                break
            points.append(u.copy())
        out.append(Trajectory(points=np.array(points), aborted=aborted))
    return out


def run_rastrigin_demo(cfg=DescentConfig()):
    """Descent with the exact gradient vs. the blurred-surface gradient,
    from the same starts."""
    from .objectives import rastrigin_blurred_grad, rastrigin_grad

    return {
        "exact": steepest_descent(rastrigin_grad, cfg),
        "blurred": steepest_descent(rastrigin_blurred_grad, cfg),
    }


def trajectory_rows(trajectories):
    """Rows for the trajectory CSV: both surface values at every point."""
    rows = []
    for sid, traj in enumerate(trajectories):
        for step, u in enumerate(traj.points):
            rows.append(
                (sid, step, float(u[0]), float(u[1]), rastrigin_eval(u), rastrigin_blurred(u))
            )
    return rows
