"""Monte-Carlo benchmark harness.

Repeats, over many independent trials, the estimation of the expected
gradient of a separable Hermite objective under Gaussian control and
uncertainty ensembles, then aggregates signed per-dimension errors into
RMSE/bias tables over a regularisation grid. `run_bench` draws a block's
trials as stacks on a leading axis, in sub-batches of bounded size: each
trial reads its own child stream, and the factors and the recentring apply
to the whole sub-batch. It makes one `estimate_batch` call per estimator
and sub-batch, over the whole lambda grid; the estimators share the
sub-batch's evaluations, decorrelated controls and SVDs through one
`Batch`. A block hands back, per estimator, one (2, L, d) array of summed
signed errors and squared errors; `run_bench` adds these in task order, on
its own process pool or on an `Executor` the caller keeps open across
calls, and builds the per-key `ErrorStats` once.
`run_trial` is the plain composition of per-call `estimate()`s, one trial
and one lambda at a time, which the tests pin the blocks against. The truth
is in closed form (`objectives.hermite_expected_grad`).

Also here: the deterministic steepest-descent demo on the stretched
Rastrigin surface and the control-variate variance-reduction law check.
"""

import contextlib
import math
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field, fields

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
from .sampling import Ensemble, GaussianSpec, child_seed, recenter, rng_from

RESULTS_HEADER = ("estimator", "order", "N", "lambda", "rmse", "bias", "evals", "trials")
TRAJECTORY_HEADER = ("start_id", "step", "u1", "u2", "loss_exact", "loss_blurred")

DEFAULT_LAMBDAS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0)
DEFAULT_SIZES = (3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100)


class ConfigError(ValueError):
    """Invalid benchmark configuration; the CLI maps this to exit code 2."""


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
        if not isinstance(self.base_seed, int):
            problems.append(f"base_seed: expected int, got {self.base_seed!r}")
        if not isinstance(self.n_trials, int) or self.n_trials < 1:
            problems.append(f"n_trials: expected positive int, got {self.n_trials!r}")
        if not isinstance(self.dims, int) or self.dims < 1:
            problems.append(f"dims: expected positive int, got {self.dims!r}")
        if not self.hermite_orders or any(
            not isinstance(k, int) or not 0 <= k <= 6 for k in self.hermite_orders
        ):
            problems.append(f"hermite_orders: expected ints in [0, 6], got {self.hermite_orders!r}")
        if not self.ensemble_sizes or any(
            not isinstance(n, int) or n < 2 for n in self.ensemble_sizes
        ):
            problems.append(f"ensemble_sizes: expected ints >= 2, got {self.ensemble_sizes!r}")
        if not self.lambda_grid or any(
            not np.isfinite(l) or l < 0 for l in self.lambda_grid
        ):
            problems.append(f"lambda_grid: expected finite values >= 0, got {self.lambda_grid!r}")
        elif len(set(self.lambda_grid)) < len(self.lambda_grid):
            problems.append(f"lambda_grid: repeated values in {self.lambda_grid!r}")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if not self.estimators or unknown:
            problems.append(f"estimators: unknown ids {unknown!r}, known: {list(ESTIMATOR_IDS)}")
        if self.truth not in ("conditional", "distribution"):
            problems.append(f"truth: expected 'conditional' or 'distribution', got {self.truth!r}")
        if self.m_members is not None and (
            not isinstance(self.m_members, int) or self.m_members < 2
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
        if "lambda_grid" in kwargs and kwargs["lambda_grid"] is not None:
            kwargs["lambda_grid"] = tuple(float(l) for l in kwargs["lambda_grid"])
        return cls(**kwargs).validate()


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
    truth: np.ndarray


def _draw_factors(cfg):
    """(x_spec, its factor, u_spec, its factor): what every trial's draws
    share, built once per block rather than once per trial."""
    x_spec, u_spec = cfg.x_spec(), cfg.u_spec()
    return x_spec, x_spec.factor(), u_spec, u_spec.factor()


def _draw_trials(cfg, factors, n, lo, hi, need_vw):
    """The ensembles of trials [lo, hi), stacked on a leading axis:
    x-members (T, d, M), recentred controls (T, d, N) and, when `need_vw`,
    the pooled controls (T, d, 2M). Each trial draws its raw normals from
    its own child stream, in that order; the factors and the recentring
    apply to the whole stack at once."""
    x_spec, lx, u_spec, lu = factors
    d, m, k = cfg.dims, cfg.m_members or n, hi - lo
    widths = (m, n, 2 * m) if need_vw else (m, n)
    z = np.empty((k, d * sum(widths)))
    for i in range(k):
        rng_from(child_seed(cfg.base_seed, lo + i)).standard_normal(out=z[i])
    parts = np.split(z, d * np.cumsum(widths[:-1]), axis=1)
    x = x_spec.mean[:, None] + lx @ parts[0].reshape(k, d, m)

    def controls(part):
        return recenter(Ensemble(u_spec.mean[:, None] + lu @ part.reshape(k, d, -1),
                                 u_spec.mean)).members

    return x, controls(parts[1]), (controls(parts[2]) if need_vw else None)


def trial_truth(cfg, order, x_members):
    """Expected gradient for trials with the given x-members, (d, M) or
    (T, d, M)."""
    if cfg.truth == "distribution":
        truth = hermite_expected_grad_dist(order, cfg.x_spec(), cfg.u_spec())
        return np.broadcast_to(truth, x_members.shape[:-1])
    return hermite_expected_grad(order, x_members, cfg.u_spec())


def _ensembles(factors, x, u, vw):
    """Ensembles of drawn x-members and recentred controls (stacked or
    not); `vw` is the pooled control ensemble of the subsampled family."""
    x_spec, _, u_spec, _ = factors
    return (Ensemble(members=x, true_mean=x_spec.mean),
            Ensemble(members=u, true_mean=u_spec.mean, recentred=True),
            None if vw is None else Ensemble(members=vw, true_mean=u_spec.mean, recentred=True))


def run_trial(cfg, order, n, trial_index):
    """One benchmark trial through per-call `estimate()`s, one lambda at a
    time: returns signed per-dimension errors for every configured
    estimator at every lambda, reusing the trial's ensembles and cached
    evaluations."""
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    factors = _draw_factors(cfg)
    x, u, vw = _draw_trials(cfg, factors, n, trial_index, trial_index + 1, need_vw)
    x, u, vw = x[0], u[0], (vw[0] if need_vw else None)
    x_ens, u_ens, vw_ens = _ensembles(factors, x, u, vw)
    obj = CountingObjective(hermite_objective(order, cfg.dims))
    truth = trial_truth(cfg, order, x)

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
    return TrialOutcome(errors=errors, skips=skips, evals=evals, truth=truth)


def _block_batch_size(dims, m, n):
    return max(1, min(512, int(2.0e6 // max(1, dims * m * n))))


def _run_block(cfg, order, n, lo, hi):
    """Error moments and skip reasons for trials [lo, hi) of one (order, N)
    cell: trials stacked in sub-batches, one `estimate_batch` call per
    estimator and sub-batch over the whole lambda grid. Per estimator the
    moments are `[sums, trials, evals, cached]`, with `sums` (2, L, d): the
    signed errors and their squares summed over trials, per lambda."""
    m = cfg.m_members or n
    factors = _draw_factors(cfg)
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    objective = hermite_objective(order, cfg.dims)
    moments, skips = {}, {}
    step = _block_batch_size(cfg.dims, m, n)
    for blo in range(lo, hi, step):
        x, u, vw = _draw_trials(cfg, factors, n, blo, min(blo + step, hi), need_vw)
        x_ens, u_ens, vw_ens = _ensembles(factors, x, u, vw)
        batches = {False: Batch(objective, x_ens, u_ens), True: Batch(objective, x_ens, vw_ens)}
        truth = trial_truth(cfg, order, x)  # (T, d)
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
            acc[1] += len(x)
    return moments, skips


# ---------------------------------------------------------------------------
# Bench driver.


@dataclass
class BenchResult:
    stats: dict  # (est, order, N, lam) -> ErrorStats
    skips: dict  # (order, N, est) -> reason
    blocks: list = field(default_factory=list)  # [((order, N, lo), stats), ...]
    elapsed: float = 0.0


def _bench_tasks(cfg, blocks_per_cell):
    block = max(1, math.ceil(cfg.n_trials / blocks_per_cell))
    tasks = []
    for order in cfg.hermite_orders:
        for n in cfg.ensemble_sizes:
            for lo in range(0, cfg.n_trials, block):
                tasks.append((order, n, lo, min(lo + block, cfg.n_trials)))
    return tasks


def _run_task(args):
    return _run_block(*args)


def _stats_of(cfg, order, n, moments):
    """The per-key ErrorStats of one cell's moments; their arrays are views
    into the moments."""
    return {(est, order, n, lam): ErrorStats(sums[0, l], sums[1, l], trials, evals, cached)
            for est, (sums, trials, evals, cached) in moments.items()
            for l, lam in enumerate(cfg.lambda_grid)}


def run_bench(cfg, workers=1, blocks_per_cell=50, keep_blocks=False, progress=None):
    """Run the full benchmark grid. `workers` is a process count, or an
    open `Executor` to run the blocks on, which is left open. Each block
    returns its error moments as arrays, and they are summed in task
    order, not completion order, so results are bit-identical for any
    `workers`; the per-key `ErrorStats` are built once, at the end.
    `progress(i, n_blocks)` is called as each block is summed."""
    import time

    cfg.validate()
    t0 = time.perf_counter()
    tasks = _bench_tasks(cfg, blocks_per_cell)
    args = [(cfg, order, n, lo, hi) for order, n, lo, hi in tasks]
    cells, skips, blocks = {}, {}, []
    with contextlib.ExitStack() as stack:
        if isinstance(workers, Executor):
            parts = workers.map(_run_task, args)
        elif workers and workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            parts = pool.map(_run_task, args)
        else:
            parts = map(_run_task, args)
        for i, ((order, n, lo, _hi), (moments, part_skips)) in enumerate(zip(tasks, parts)):
            cell = cells.setdefault((order, n), {})
            for est, (sums, trials, evals, cached) in moments.items():
                cur = cell.get(est)
                if cur is None:
                    cell[est] = [sums.copy(), trials, evals, cached]
                elif (evals, cached) != (cur[2], cur[3]):
                    raise ValueError("merging stats with different evaluation contracts")
                else:
                    cur[0] += sums
                    cur[1] += trials
            for est, reason in part_skips.items():
                skips[(order, n, est)] = reason
            if keep_blocks:
                blocks.append(((order, n, lo), _stats_of(cfg, order, n, moments)))
            if progress:
                progress(i + 1, len(tasks))

    stats = {}
    for (order, n), moments in cells.items():
        stats.update(_stats_of(cfg, order, n, moments))
    return BenchResult(stats=stats, skips=skips, blocks=blocks,
                       elapsed=time.perf_counter() - t0)


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
    across dimensions (so rmse^2 >= bias^2 holds per dimension)."""
    rows = []
    for (est, order, n, lam), st in stats.items():
        if st.n == 0:
            continue
        rmse = float(np.sqrt(st.sum_sq / st.n).mean())
        bias = float(np.abs(st.sum_err / st.n).mean())
        rows.append(ResultRow(est, order, n, lam, rmse, bias, st.evals, st.n))
    rows.sort(key=lambda r: (r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam))
    return rows


def select_best_lambda(rows, metric="rmse"):
    """Per (estimator, order, N), the row minimising the metric; ties go to
    the smallest lambda."""
    if metric not in ("rmse", "bias"):
        raise ValueError(f"metric must be 'rmse' or 'bias', got {metric!r}")
    best = {}
    for row in sorted(rows, key=lambda r: r.lam):
        key = (row.estimator, row.order, row.n)
        cur = best.get(key)
        if cur is None or getattr(row, metric) < getattr(cur, metric):
            best[key] = row
    out = list(best.values())
    out.sort(key=lambda r: (r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam))
    return out


def write_results_csv(path, rows):
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RESULTS_HEADER)
        for r in rows:
            w.writerow(
                [r.estimator, r.order, r.n, repr(float(r.lam)), repr(float(r.rmse)),
                 repr(float(r.bias)), r.evals, r.trials]
            )


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
    """Stack per-block moments for one table cell: (sums, sumsqs, ns)."""
    sums, sumsqs, ns = [], [], []
    for (b_order, b_n, _lo), part in result.blocks:
        if b_order != order or b_n != n:
            continue
        st = part.get((estimator, order, n, lam))
        if st is not None and st.n > 0:
            sums.append(st.sum_err)
            sumsqs.append(st.sum_sq)
            ns.append(st.n)
    if not ns:
        raise KeyError(f"no blocks for {(estimator, order, n, lam)}")
    return np.array(sums), np.array(sumsqs), np.array(ns)


def bootstrap_band(sums, sumsqs, ns, metric="rmse", n_boot=1000, seed=0, q=(2.5, 97.5)):
    """Percentile bootstrap band for the aggregated metric, resampling
    blocks with replacement."""
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
