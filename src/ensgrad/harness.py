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
evaluations and the controls' SVDs through `Batch`. Every block's error
moments are kept per cell for the bootstrap bands (`block_arrays`), and
`aggregate` turns their sums into RMSE/bias rows in one array pass. The CLI
sizes its blocks in trials, at most `BLOCK_TRIALS` each.
`run_trial` is the plain composition of per-call `estimate()`s on the same
draws, one trial and one lambda at a time, which the tests pin the blocks
against. The truth is in closed form (`objectives.hermite_expected_grad`).

Also here: the deterministic steepest-descent demo on the stretched
Rastrigin surface and the control-variate variance-reduction law check.
"""

import contextlib
import math
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

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
    hermite_expected_grad,
    hermite_expected_grad_dist,
    hermite_objective,
    rastrigin_blurred,
    rastrigin_eval,
)
from .sampling import Ensemble, GaussianSpec, child_seed, recenter, rng_from, write_rows_csv

RESULTS_HEADER = ("estimator", "order", "N", "lambda", "rmse", "bias", "evals", "trials")
TRAJECTORY_HEADER = ("start_id", "step", "u1", "u2", "loss_exact", "loss_blurred")

DEFAULT_LAMBDAS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0)
DEFAULT_SIZES = (3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100)
# Trials per block of the CLI's runs: the block of the default 10^4-trial run
# at run_bench's 50 blocks per cell, so that run keeps its bits while shorter
# runs make fewer, larger blocks.
BLOCK_TRIALS = 200


class ConfigError(ValueError):
    """Invalid benchmark configuration; the CLI maps this to exit code 2."""


def _is_int(v):
    """An int that is not a bool (JSON's true/false load as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


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
        mean = np.zeros(self.dims) if self.u_mean is None else np.asarray(self.u_mean, float)
        return GaussianSpec(mean=mean, cov=self.u_cov)

    def x_spec(self):
        mean = (
            np.linspace(-2.0, 2.0, self.dims)
            if self.x_mean is None
            else np.asarray(self.x_mean, float)
        )
        return GaussianSpec(mean=mean, cov=self.x_cov)

    def validate(self):
        problems = []
        if not _is_int(self.base_seed) or self.base_seed < 0:
            problems.append(f"base_seed: expected non-negative int, got {self.base_seed!r}")
        if not _is_int(self.n_trials) or self.n_trials < 1:
            problems.append(f"n_trials: expected positive int, got {self.n_trials!r}")
        if not _is_int(self.dims) or self.dims < 1:
            problems.append(f"dims: expected positive int, got {self.dims!r}")
        if not self.hermite_orders or any(
            not _is_int(k) or not 0 <= k <= 6 for k in self.hermite_orders
        ):
            problems.append(f"hermite_orders: expected ints in [0, 6], got {self.hermite_orders!r}")
        if not self.ensemble_sizes or any(
            not _is_int(n) or n < 2 for n in self.ensemble_sizes
        ):
            problems.append(f"ensemble_sizes: expected ints >= 2, got {self.ensemble_sizes!r}")
        if not self.lambda_grid or any(
            not np.isfinite(l) or l < 0 for l in self.lambda_grid
        ):
            problems.append(f"lambda_grid: expected finite values >= 0, got {self.lambda_grid!r}")
        for name in ("lambda_grid", "u_mean", "x_mean", "u_cov", "x_cov"):  # JSON true/false
            if any(isinstance(v, bool) for v in np.ravel(np.array(getattr(self, name), object))):
                problems.append(f"{name}: expected numbers, got {getattr(self, name)!r}")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if not self.estimators or unknown:
            problems.append(f"estimators: unknown ids {unknown!r}, known: {list(ESTIMATOR_IDS)}")
        # a repeated entry would run, and count, the same trials twice
        for name in ("hermite_orders", "ensemble_sizes", "lambda_grid", "estimators"):
            values = getattr(self, name)
            if not any(p.startswith(name) for p in problems) and len(set(values)) < len(values):
                problems.append(f"{name}: repeated values in {values!r}")
        if self.truth not in ("conditional", "distribution"):
            problems.append(f"truth: expected 'conditional' or 'distribution', got {self.truth!r}")
        if self.m_members is not None and (
            not _is_int(self.m_members) or self.m_members < 2
        ):
            problems.append(f"m_members: expected int >= 2 or null, got {self.m_members!r}")
        for name, mean in (("u", self.u_mean), ("x", self.x_mean)):
            if mean is not None and len(np.atleast_1d(mean)) != self.dims:
                problems.append(f"{name}_mean: length {len(np.atleast_1d(mean))} != dims {self.dims}")
        if problems:
            raise ConfigError("; ".join(problems))
        try:
            self.u_spec().factor()
            self.x_spec().factor()
        except Exception as e:
            raise ConfigError(f"u_cov/x_cov: {e}") from e
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
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known keys: {sorted(known)}")
        kwargs = dict(d)
        for key in ("hermite_orders", "ensemble_sizes", "lambda_grid", "estimators",
                    "u_mean", "x_mean"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs).validate()  # first, or float() reads true/false as 1.0/0.0
        return replace(cfg, lambda_grid=tuple(float(l) for l in cfg.lambda_grid))


# ---------------------------------------------------------------------------
# Accumulators. Keys are (estimator, order, N, lam); merging is associative
# and commutative, and run_bench sums block moments in a fixed task order so
# aggregates do not depend on scheduling.


@dataclass
class ErrorStats:
    """Signed per-dimension error moments over trials."""

    sum_err: np.ndarray
    sum_sq: np.ndarray
    n: int = 0
    evals: int = 0
    cached: int = 0

    @classmethod
    def empty(cls, dims, evals=0, cached=0):
        return cls(np.zeros(dims), np.zeros(dims), 0, evals, cached)

    def add_block(self, errors):
        """errors: (T, d) signed errors."""
        self.sum_err += errors.sum(axis=0)
        self.sum_sq += (errors**2).sum(axis=0)
        self.n += errors.shape[0]
        return self

    def merge(self, other):
        if other.evals != self.evals or other.cached != self.cached:
            raise ValueError("merging stats with different evaluation contracts")
        self.sum_err += other.sum_err
        self.sum_sq += other.sum_sq
        self.n += other.n
        return self


def merge_stats(into, other):
    for key, st in other.items():
        if key in into:
            into[key].merge(st)
        else:
            into[key] = st
    return into


# ---------------------------------------------------------------------------
# Trials: draws, truth, and the per-call reference composition.


@dataclass
class TrialOutcome:
    """Per-estimator signed errors, shape (n_lambda, d); plus skips."""

    errors: dict
    skips: dict
    evals: dict


def _draw_trials(cfg, n, lo, hi):
    """The Ensembles of trials [lo, hi), stacked on a leading axis: x-members
    (T, d, M), recentred controls (T, d, N) and, if an estimator subsamples,
    the pooled controls (T, d, 2M), else None. Each trial draws its raw normals
    from its own child stream, in that order; the specs' factors and the
    recentring apply to the whole stack at once."""
    x_spec, u_spec = cfg.x_spec(), cfg.u_spec()
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    d, m, k = cfg.dims, cfg.m_members or n, hi - lo
    widths = (m, n, 2 * m) if need_vw else (m, n)
    z = np.empty((k, d * sum(widths)))
    for i in range(k):
        rng_from(child_seed(cfg.base_seed, lo + i)).standard_normal(out=z[i])
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
        except (ValueError, DimensionError) as e:  # includes degenerate pairs
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
    their squares summed over trials, per lambda."""
    objective = hermite_objective(order, cfg.dims)
    moments, skips = {}, {}
    for x_ens, controls in subs:
        batches = {vw: Batch(objective, x_ens, ens, shared=shared)
                   for vw, (ens, shared) in controls.items()}
        truth = trial_truth(cfg, order, x_ens.members)  # (T, d)
        for est in cfg.estimators:
            if est in skips:
                continue
            spec = EstimatorSpec(kind=est, charge_cached=cfg.charge_cached)
            try:
                grads, evals, cached = estimate_batch(
                    batches[est in SUBSAMPLED_IDS], spec, cfg.lambda_grid)
            except (ValueError, DimensionError) as e:  # includes degenerate pairs
                skips[est] = str(e)
                continue
            if est not in moments:
                moments[est] = [np.zeros((2, len(cfg.lambda_grid), cfg.dims)), 0, evals, cached]
            acc = moments[est]
            errors = grads - truth  # (L, T, d)
            acc[0][0] += errors.sum(axis=1)
            acc[0][1] += (errors**2).sum(axis=1)
            acc[1] += len(truth)
    return moments, skips


def _run_group(cfg, n, lo, hi):
    """`_run_block` of each configured order on trials [lo, hi) at size
    `n`, yielded as each order finishes; the orders share one draw and one
    set of control factorisations."""
    subs = _sub_batches(cfg, n, lo, hi)
    for order in cfg.hermite_orders:
        yield _run_block(cfg, order, subs)


# ---------------------------------------------------------------------------
# Bench driver.


@dataclass
class BenchResult:
    stats: dict  # (est, order, N, lam) -> ErrorStats
    skips: dict  # (order, N, est) -> reason
    blocks: dict = field(default_factory=dict)  # (est, order, N) -> (sums, trials)
    lambda_grid: tuple = ()  # the lambdas indexing the blocks' sums
    elapsed: float = 0.0


def _bench_tasks(cfg, blocks_per_cell):
    """The (N, lo, hi) groups of a run, size-major; each covers every order."""
    block = max(1, math.ceil(cfg.n_trials / blocks_per_cell))
    return [(n, lo, min(lo + block, cfg.n_trials))
            for n in cfg.ensemble_sizes for lo in range(0, cfg.n_trials, block)]


def _run_task(args):
    return list(_run_group(*args))


def run_bench(cfg, workers=1, blocks_per_cell=50, progress=None):
    """Run the full benchmark grid. `workers` is a process count, or an
    open `Executor` to run the blocks on, which is left open. Each (order,
    N) cell's trials split evenly into `blocks_per_cell` blocks. The blocks
    of all orders at one N and trial range are one task: every order's
    trial t reads the same child stream, so the task draws the ensembles
    once and factors the controls once, and each order runs its estimators
    on them. `blocks[(est, order, N)]` keeps each block's moments in trial
    order: a (B, 2, L, d) stack, 80 bytes per block and key at d = 5 (17 MB
    on the full default grid), and (B,) trial counts, 0 where a block
    skipped est. The stats are views into the stacks' sums, the same for
    any `workers`; another split can move the last bits once a block spans
    several sub-batches. `progress(i, n_blocks)` is called as each (order,
    N, block) comes back, size-major: for each N and trial range, the
    orders in turn."""
    import time

    cfg.validate()
    if not _is_int(blocks_per_cell) or blocks_per_cell < 1:
        raise ConfigError(f"blocks_per_cell: expected positive int, got {blocks_per_cell!r}")
    t0 = time.perf_counter()
    tasks = _bench_tasks(cfg, blocks_per_cell)
    n_blocks = len(tasks) * len(cfg.hermite_orders)
    per_cell = len(tasks) // len(cfg.ensemble_sizes)
    args = [(cfg, n, lo, hi) for n, lo, hi in tasks]
    row = {est: e for e, est in enumerate(cfg.estimators)}
    # per cell, every estimator's block sums and trial counts, and the (evals,
    # cached) of those that ran; -0.0 is exact for +: skipped rows add nothing
    cells = {(order, n): (np.full((len(row), per_cell, 2, len(cfg.lambda_grid), cfg.dims), -0.0),
                          np.zeros((len(row), per_cell), dtype=np.int64), {})
             for order in cfg.hermite_orders for n in cfg.ensemble_sizes}
    skips, done = {}, 0
    with contextlib.ExitStack() as stack:
        if isinstance(workers, Executor):
            parts = workers.map(_run_task, args)
        elif workers and workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            parts = pool.map(_run_task, args)
        else:
            parts = (_run_group(*a) for a in args)
        for i, ((n, *_), group) in enumerate(zip(tasks, parts)):
            for order, (moments, part_skips) in zip(cfg.hermite_orders, group):
                sums, trials, contracts = cells[(order, n)]
                for est, (block_sums, block_trials, evals, cached) in moments.items():
                    if contracts.setdefault(est, (evals, cached)) != (evals, cached):
                        raise ValueError("merging stats with different evaluation contracts")
                    sums[row[est], i % per_cell] = block_sums
                    trials[row[est], i % per_cell] = block_trials
                for est, reason in part_skips.items():
                    skips[(order, n, est)] = reason
                done += 1
                if progress:
                    progress(done, n_blocks)

    stats, blocks = {}, {}
    for (order, n), (sums, trials, contracts) in cells.items():
        # from -0.0, the sums are the blocks' sequential adds bit for bit
        totals, counts = sums.sum(axis=1, initial=-0.0), trials.sum(axis=1).tolist()
        for est, (evals, cached) in contracts.items():
            e = row[est]
            blocks[(est, order, n)] = sums[e], trials[e]
            for l, lam in enumerate(cfg.lambda_grid):
                stats[(est, order, n, lam)] = ErrorStats(totals[e, 0, l], totals[e, 1, l],
                                                         counts[e], evals, cached)
    return BenchResult(stats=stats, skips=skips, blocks=blocks,
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


def aggregate(stats):
    """RMSE/bias rows: per-dimension moments over trials, then averaged
    across dimensions (so rmse^2 >= bias^2 holds per dimension). Keys with
    no trials are left out. One array pass over all keys."""
    kept = [(key, st) for key, st in stats.items() if st.n != 0]
    if not kept:
        return []
    trials = np.array([st.n for _, st in kept], dtype=float)[:, None]
    rmse = np.sqrt(np.stack([st.sum_sq for _, st in kept]) / trials).mean(axis=1)
    bias = np.abs(np.stack([st.sum_err for _, st in kept]) / trials).mean(axis=1)
    rows = [ResultRow(*key, r, b, st.evals, st.n)
            for (key, st), r, b in zip(kept, rmse.tolist(), bias.tolist())]
    rows.sort(key=lambda r: (r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam))
    return rows


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
    """Result rows under `RESULTS_HEADER`; an int lambda writes as a float."""
    write_rows_csv(path, RESULTS_HEADER, ((r.estimator, r.order, r.n, float(r.lam), r.rmse, r.bias,
                                           r.evals, r.trials) for r in rows))


def read_results_csv(path):
    import csv

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
    if (estimator, order, n, lam) not in result.stats:
        raise KeyError(f"no blocks for {(estimator, order, n, lam)}")
    sums, ns = result.blocks[(estimator, order, n)]
    ran, l = ns > 0, result.lambda_grid.index(lam)
    return sums[ran, 0, l], sums[ran, 1, l], ns[ran]


def bootstrap_band(sums, sumsqs, ns, metric="rmse", n_boot=1000, seed=0, q=(2.5, 97.5)):
    """Percentile bootstrap band for the aggregated metric, resampling
    blocks with replacement."""
    if metric not in ("rmse", "bias"):
        raise ValueError(f"metric must be 'rmse' or 'bias', got {metric!r}")
    rng = rng_from(child_seed(seed, 0))
    c = len(ns)
    idx = rng.integers(0, c, size=(n_boot, c))
    n_tot = ns[idx].sum(axis=1)[:, None]
    if metric == "rmse":
        vals = np.sqrt(sumsqs[idx].sum(axis=1) / n_tot).mean(axis=1)
    else:
        vals = np.abs(sums[idx].sum(axis=1) / n_tot).mean(axis=1)
    return tuple(np.percentile(vals, q))


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
