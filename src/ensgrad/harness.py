"""Monte-Carlo benchmark harness.

Repeats, over many independent trials, the estimation of the expected
gradient of a separable Hermite objective under Gaussian control and
uncertainty ensembles, then aggregates signed per-dimension errors into
RMSE/bias tables over a regularisation grid. `run_trial` is the plain
reference path (a composition of the public estimator functions);
`run_bench` runs blocks of trials through a vectorised kernel, which is what
makes desk-scale trial counts affordable on one core. A test pins the two
paths together. The kernel
- stacks a block's trials on a leading axis and batches their SVDs, with
  each SVD's damped singular values computed once for every lambda;
- reduces the M x N evaluations of `plain_lls` and `avg_grad` to member
  means of `He_k(x)` and powers of `u`, by the binomial identity
  `He_n(x + u) = sum_k C(n, k) He_k(x) u^(n-k)`;
- takes the truth in closed form (`objectives.hermite_expected_grad`).

Also here: the deterministic steepest-descent demo on the stretched
Rastrigin surface and the control-variate variance-reduction law check.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DimensionError
from .estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    CountingObjective,
    EstimatorSpec,
    estimate,
)
from .linalg import RANK_RTOL, PinvConfig
from .objectives import (
    hermite_expected_grad,
    hermite_expected_grad_dist,
    hermite_objective,
    hermite_value,
    rastrigin_blurred,
    rastrigin_eval,
)
from .sampling import Ensemble, GaussianSpec, child_seed, decorrelate, rng_from

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
# and commutative, and run_bench folds worker results in a fixed task order
# so aggregates do not depend on scheduling.


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


def eval_contract(estimator, m, n):
    """Per-trial evaluation charges (new, cached) for each estimator given
    M x-members and N controls (the subsampled family sees 2M controls)."""
    return {
        "plain_lls": (m * n, 0),
        "fragile": (n, 0),
        "paired": (n, 0),
        "stosag": (n, m),
        "average_lls": (2 * m, 0),
        "gen_stosag": (2 * m, 0),
        "hybrid": (2 * m, 0),
        "two_sided": (2 * m, 0),
        "mirrored2s": (2 * n, 0),
        "one_sided": (n, m),
        "decorr": (n, m),
        "avg_grad": (m * n, 0),
    }[estimator]


def _charged(cfg, estimator, m, n):
    ev, ca = eval_contract(estimator, m, n)
    return (ev + ca, 0) if cfg.charge_cached else (ev, ca)


def _skip_reasons(cfg, m, n):
    """Estimators that cannot run at (M, N), with reasons."""
    skips = {}
    if m != n:
        for est in ("paired", "stosag", "mirrored2s", "one_sided", "decorr"):
            if est in cfg.estimators:
                skips[est] = f"requires M == N, got M={m} N={n}"
    return skips


# ---------------------------------------------------------------------------
# Reference trial path.


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


def _draw_trial(cfg, factors, n, trial_index, need_vw):
    """All of a trial's ensembles from one child stream, in a fixed order."""
    x_spec, lx, u_spec, lu = factors
    rng = rng_from(child_seed(cfg.base_seed, trial_index))
    m = cfg.m_members or n
    x = x_spec.mean[:, None] + lx @ rng.standard_normal((cfg.dims, m))
    u_raw = u_spec.mean[:, None] + lu @ rng.standard_normal((cfg.dims, n))
    u = u_raw + (u_spec.mean - u_raw.mean(axis=1))[:, None]
    vw = None
    if need_vw:
        vw_raw = u_spec.mean[:, None] + lu @ rng.standard_normal((cfg.dims, 2 * m))
        vw = vw_raw + (u_spec.mean - vw_raw.mean(axis=1))[:, None]
    return x, u, vw


def trial_truth(cfg, order, x_members):
    """Expected gradient for trials with the given x-members, (d, M) or
    (T, d, M)."""
    if cfg.truth == "distribution":
        truth = hermite_expected_grad_dist(order, cfg.x_spec(), cfg.u_spec())
        return np.broadcast_to(truth, x_members.shape[:-1])
    return hermite_expected_grad(order, x_members, cfg.u_spec())


def run_trial(cfg, order, n, trial_index):
    """One benchmark trial through the public estimator functions: returns
    signed per-dimension errors for every configured estimator at every
    lambda, reusing the trial's ensembles and cached evaluations."""
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    factors = _draw_factors(cfg)
    x, u, vw = _draw_trial(cfg, factors, n, trial_index, need_vw)
    x_spec, _, u_spec, _ = factors
    u_mean = u_spec.mean
    x_ens = Ensemble(members=x, true_mean=x_spec.mean)
    u_ens = Ensemble(members=u, true_mean=u_mean, recentred=True)
    vw_ens = (
        Ensemble(members=vw, true_mean=u_mean, recentred=True) if vw is not None else None
    )
    obj = CountingObjective(hermite_objective(order, cfg.dims))
    truth = trial_truth(cfg, order, x)
    m = cfg.m_members or n

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


def _accumulate_reference(cfg, order, n, lo, hi):
    stats, skips = {}, {}
    m = cfg.m_members or n
    for trial in range(lo, hi):
        out = run_trial(cfg, order, n, trial)
        skips.update(out.skips)
        for est, rows in out.errors.items():
            for i, lam in enumerate(cfg.lambda_grid):
                key = (est, order, n, lam)
                if key not in stats:
                    stats[key] = ErrorStats.empty(cfg.dims, *_charged(cfg, est, m, n))
                stats[key].add_block(rows[i][None, :])
    return stats, skips


# ---------------------------------------------------------------------------
# Vectorised block path: trials stacked on a leading axis, SVDs batched.


def _member_hermite_means(order, x):
    """`mean_m He_k(x[..., m])` for k = 0..order: (order+1, *x.shape[:-1])."""
    out = np.empty((order + 1,) + x.shape[:-1])
    out[0] = 1.0
    h_prev, h = np.ones_like(x), x
    for k in range(order):
        if k:
            h, h_prev = x * h - k * h_prev, h
        out[k + 1] = h.mean(axis=-1)
    return out


def _damped_coeff(s, lam):
    """Per-trial damped reciprocal singular values, (T, K)."""
    s1 = s[..., :1]
    if lam == 0.0:
        keep = s > RANK_RTOL * s1
        return np.where(keep, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = s / (s**2 + (lam * s1) ** 2)
    return np.where(s1 > 0, out, 0.0)


def _damped_svd(a, lambdas):
    """Batched SVD of a (T, d, K) stack with its damped reciprocal singular
    values at every lambda: (U, coeffs (L, T, K), Vt). The coefficients are
    shared by every row applied to the same stack."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, np.stack([_damped_coeff(s, lam) for lam in lambdas]), vt


def _apply_damped(row, damped):
    """row (T, K) times the damped pseudo-inverse at every lambda, (L, T, d)."""
    u, coeffs, vt = damped
    z = np.einsum("tn,tkn->tk", row, vt)
    return np.einsum("ltk,tdk->ltd", z * coeffs, u)


def _block_batch_size(dims, m, n):
    return max(1, min(512, int(2.0e6 // max(1, dims * m * n))))


def _run_block_fast(cfg, order, n, lo, hi):
    """ErrorStats for trials [lo, hi) of one (order, N) cell."""
    dims = cfg.dims
    m = cfg.m_members or n
    factors = _draw_factors(cfg)
    _, _, u_spec, _ = factors
    mu = u_spec.mean
    skips = _skip_reasons(cfg, m, n)
    ests = [e for e in cfg.estimators if e not in skips]
    need_vw = any(e in SUBSAMPLED_IDS for e in cfg.estimators)
    lambdas = cfg.lambda_grid

    stats = {
        (est, order, n, lam): ErrorStats.empty(dims, *_charged(cfg, est, m, n))
        for est in ests
        for lam in lambdas
    }
    if not ests:
        return stats, skips

    paired_ids = {"paired", "stosag", "one_sided", "mirrored2s", "decorr"}
    step = _block_batch_size(dims, m, n)
    for blo in range(lo, hi, step):
        bhi = min(blo + step, hi)
        xs, us, vws = [], [], []
        for trial in range(blo, bhi):
            x, u, vw = _draw_trial(cfg, factors, n, trial, need_vw)
            xs.append(x)
            us.append(u)
            vws.append(vw)
        x = np.stack(xs)  # (T, d, M)
        u = np.stack(us)  # (T, d, N)
        vw = np.stack(vws) if need_vw else None
        truth = trial_truth(cfg, order, x)  # (T, d)

        def record(est, grads):
            """grads: (L, T, d), one estimate per lambda and trial."""
            for lam, grad in zip(lambdas, grads):
                stats[(est, order, n, lam)].add_block(grad - truth)

        rows = {}
        if "plain_lls" in ests or "avg_grad" in ests:
            # He_n(x + u) = sum_k C(n, k) He_k(x) u^(n-k): the member mean
            # moves inside, so no (T, d, M, N) table is formed
            he_bar = _member_hermite_means(order, x)[..., None]  # (order+1, T, d, 1)
        if "plain_lls" in ests:
            acc = np.broadcast_to(he_bar[0], u.shape)
            for k in range(1, order + 1):
                acc = acc * u + math.comb(order, k) * he_bar[k]
            rows["plain_lls"] = acc.sum(axis=1)  # (T, N)
        if "avg_grad" in ests:
            grad_mean = np.zeros(truth.shape)
            u_pow = np.ones_like(u)
            for k in range(order - 1, -1, -1):
                grad_mean += math.comb(order - 1, k) * he_bar[k, ..., 0] * u_pow.mean(axis=2)
                u_pow = u_pow * u
            grad_mean *= order
        if "fragile" in ests:
            xbar = x.mean(axis=2)
            rows["fragile"] = hermite_value(order, xbar[:, :, None] + u).sum(axis=1)
        if paired_ids & set(ests):
            r_fwd = hermite_value(order, x + u).sum(axis=1)  # (T, N)
        if {"stosag", "one_sided", "decorr"} & set(ests):
            base = hermite_value(order, x + mu[None, :, None]).sum(axis=1)  # (T, M)
        if "stosag" in ests:
            rows["stosag"] = r_fwd - base
        if "one_sided" in ests:
            rows["one_sided"] = 0.5 * (r_fwd - (2.0 * base - r_fwd))
        if "paired" in ests:
            rows["paired"] = r_fwd
        if "mirrored2s" in ests:
            w_members = 2.0 * mu[None, :, None] - u
            r_back = hermite_value(order, x + w_members).sum(axis=1)
            rows["mirrored2s"] = 0.5 * (r_fwd - r_back)

        if rows:
            damped_u = _damped_svd(u - u.mean(axis=2, keepdims=True), lambdas)
            for est, row in rows.items():
                record(est, _apply_damped(row, damped_u))

        if "decorr" in ests:
            # member construction goes through the reference routine per
            # trial: the variance-restoring rescale near rank collapse
            # amplifies reassociation noise, so a re-derived vectorisation
            # would not reproduce the estimator bit-for-bit
            u_eff = np.empty_like(u)
            for i in range(x.shape[0]):
                psi = base[i] - base[i].mean()
                if psi @ psi > 0.0:
                    ens = Ensemble(members=u[i], true_mean=mu, recentred=True)
                    u_eff[i] = decorrelate(ens, psi).members
                else:
                    u_eff[i] = u[i]
            r_dec = hermite_value(order, x + u_eff).sum(axis=1)
            dec_anoms = u_eff - u_eff.mean(axis=2, keepdims=True)
            record("decorr", _apply_damped(r_dec, _damped_svd(dec_anoms, lambdas)))

        if "avg_grad" in ests:
            record("avg_grad", [grad_mean] * len(lambdas))

        sub_ests = [e for e in SUBSAMPLED_IDS if e in ests]
        if sub_ests:
            v = vw[:, :, 0::2]
            w = vw[:, :, 1::2]
            r_v = hermite_value(order, x + v).sum(axis=1)
            r_w = hermite_value(order, x + w).sum(axis=1)
            d_row = r_v - r_w  # (T, M)
            # per-group anomalies about the group sample mean, as the
            # per-group estimators compute them (not the shortcut (v-w)/2,
            # which differs by the mean's rounding residual)
            gmean = 0.5 * (v + w)
            vt = v - gmean
            wt = w - gmean
            if "two_sided" in ests:
                record("two_sided", _apply_damped(d_row, _damped_svd(v - w, lambdas)))
            if "average_lls" in ests:
                nrm2 = np.einsum("tdm,tdm->tm", vt, vt)
                base_grad = np.einsum("tm,tdm->td", d_row / (2.0 * nrm2), vt) / m
                record("average_lls", [base_grad / (1.0 + lam**2) for lam in lambdas])
            if "gen_stosag" in ests or "hybrid" in ests:
                c_mean = (
                    np.einsum("tm,tdm->td", r_v, vt) + np.einsum("tm,tdm->td", r_w, wt)
                ) / m
            if "gen_stosag" in ests:
                cov_mean = (
                    np.einsum("tdm,tem->tde", vt, vt) + np.einsum("tdm,tem->tde", wt, wt)
                ) / m
                record("gen_stosag", _apply_damped(c_mean, _damped_svd(cov_mean, lambdas)))
            if "hybrid" in ests:
                pooled = vw - vw.mean(axis=2, keepdims=True)
                # matmul, not einsum: bitwise-matches the plain `P @ P.T`
                # route, and this covariance has a near-null tail that
                # amplifies any last-bit difference at lambda = 0
                cov_pool = np.matmul(pooled, pooled.transpose(0, 2, 1)) / (2 * m - 1)
                record("hybrid", _apply_damped(c_mean, _damped_svd(cov_pool, lambdas)))

    return stats, skips


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
    cfg, order, n, lo, hi, reference = args
    if reference:
        return _accumulate_reference(cfg, order, n, lo, hi)
    return _run_block_fast(cfg, order, n, lo, hi)


def run_bench(cfg, workers=1, blocks_per_cell=50, keep_blocks=False, reference=False,
              progress=None):
    """Run the full benchmark grid. Results are identical (to accumulation
    roundoff) for any `workers`, because partial stats are folded in task
    order, not completion order."""
    import time

    cfg.validate()
    t0 = time.perf_counter()
    tasks = _bench_tasks(cfg, blocks_per_cell)
    args = [(cfg, order, n, lo, hi, reference) for order, n, lo, hi in tasks]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_task, args, chunksize=1))
    else:
        partials = []
        for i, a in enumerate(args):
            partials.append(_run_task(a))
            if progress:
                progress(i + 1, len(args))

    stats, skips, blocks = {}, {}, []
    for (order, n, lo, hi), (part, part_skips) in zip(tasks, partials):
        merge_stats(stats, {k: replace(v, sum_err=v.sum_err.copy(), sum_sq=v.sum_sq.copy())
                            for k, v in part.items()})
        for est, reason in part_skips.items():
            skips[(order, n, est)] = reason
        if keep_blocks:
            blocks.append(((order, n, lo), part))
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
