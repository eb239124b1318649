"""Golden estimates: the fixture `test_golden.py` checks the estimators against.

    PYTHONPATH=src python3 tests/golden_fixture.py

writes `tests/golden_estimates.json.gz`. It records
- `estimate()` gradients and `(evals, cached)` for all twelve estimators on a
  Hermite and a bilinear objective, under the options that no benchmark
  reference covers: preconditioning, subsample sizes 3 and 6, diagonal
  `avg_grad` pairing, `charge_cached`, M != N and damping; calls that raise
  record the exception's class instead;
- the per-key error moments of small benchmark grids, accumulated from
  `run_trial` trial by trial, for the configurations of the harness's
  equivalence tests.

The fixture was written by the per-call estimator functions and the plain
per-trial harness path that preceded the batched estimator core.
"""

import gzip
import json
import os

import numpy as np

from ensgrad.estimators import ESTIMATOR_IDS, SUBSAMPLED_IDS, EstimatorSpec, estimate
from ensgrad.harness import BenchConfig, ErrorStats, run_trial
from ensgrad.linalg import PinvConfig
from ensgrad.objectives import bilinear_objective, hermite_objective
from ensgrad.sampling import GaussianSpec, child_seed, draw_ensemble, recenter

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_estimates.json.gz")

D = 4
X_SPEC = GaussianSpec(np.linspace(-2.0, 2.0, D), 0.25)
U_SPEC = GaussianSpec(np.zeros(D), 0.01)
OBJECTIVES = ("hermite3", "bilinear")


def objective(name):
    if name == "bilinear":
        g = np.random.default_rng(7)
        return bilinear_objective(g.standard_normal((3, D)), g.standard_normal((3, D)))
    return hermite_objective(int(name[len("hermite"):]), dims=D)


def ensembles(seed, m, n):
    x = draw_ensemble(X_SPEC, m, child_seed(seed, 0))
    u = recenter(draw_ensemble(U_SPEC, n, child_seed(seed, 1)))
    return x, u


def estimate_cases():
    """(objective, kind, options, seed, m, n) for every recorded call."""
    cases = []
    seed = 0
    for obj in OBJECTIVES:
        for kind in ESTIMATOR_IDS:
            sub = kind in SUBSAMPLED_IDS
            variants = [{"lam": 0.0}, {"lam": 1e-2}, {"lam": 0.3},
                        {"lam": 0.0, "precondition": True},
                        {"lam": 1e-2, "charge_cached": True}]
            if sub:
                variants += [{"lam": lam, "subsample_size": nm, **extra}
                             for nm in (3, 6) for lam in (0.0, 1e-2)
                             for extra in ({}, {"precondition": True})]
            if kind == "avg_grad":
                variants.append({"lam": 0.0, "avg_grad_diagonal": True})
            for opts in variants:
                nm = opts.get("subsample_size", 2)
                # M == N, then M != N; the subsampled family pools M*nm controls
                for m, n in ((6, 6), (5, 8)):
                    seed += 1
                    n_ctrl = m * nm if sub and n == m else n
                    cases.append((obj, kind, opts, seed, m, n_ctrl))
    return cases


def run_case(obj, kind, opts, seed, m, n):
    opts = dict(opts)
    spec = EstimatorSpec(kind=kind, pinv=PinvConfig(opts.pop("lam")), **opts)
    x, u = ensembles(seed, m, n)
    try:
        got = estimate(objective(obj), x, u, spec)
    except Exception as e:  # the class is what gets pinned
        return {"error": type(e).__name__}
    return {"grad": [float(g) for g in got.grad], "evals": got.evals, "cached": got.cached}


def bench_configs():
    """Small grids: the equivalence test's orders and sizes, plus the
    distributional truth, charge_cached and decoupled M."""
    base = dict(base_seed=99, n_trials=12, dims=3, lambda_grid=(0.0, 1e-2))
    cfgs = [BenchConfig(hermite_orders=(order,), ensemble_sizes=(3, 4, 6, 10), **base)
            for order in (0, 1, 2, 3, 5, 6)]
    cfgs += [BenchConfig(hermite_orders=(3,), ensemble_sizes=(4, 6), **base, **extra)
             for extra in ({"truth": "distribution"}, {"charge_cached": True},
                           {"m_members": 4})]
    return cfgs


def trial_stats(cfg):
    """Per-key ErrorStats accumulated trial by trial through run_trial."""
    stats = {}
    for order in cfg.hermite_orders:
        for n in cfg.ensemble_sizes:
            for trial in range(cfg.n_trials):
                out = run_trial(cfg, order, n, trial)
                for est, rows in out.errors.items():
                    for lam, row in zip(cfg.lambda_grid, rows):
                        key = (est, order, n, lam)
                        if key not in stats:
                            stats[key] = ErrorStats.empty(cfg.dims, *out.evals[est])
                        stats[key].add_block(row[None, :])
    return stats


def stats_record(stats):
    return [{"key": list(key), "n": st.n, "evals": st.evals, "cached": st.cached,
             "sum_err": [float(v) for v in st.sum_err],
             "sum_sq": [float(v) for v in st.sum_sq]}
            for key, st in sorted(stats.items())]


def main():
    fixture = {
        "estimates": [{"objective": obj, "kind": kind, "options": opts, "seed": seed,
                       "m": m, "n": n, **run_case(obj, kind, opts, seed, m, n)}
                      for obj, kind, opts, seed, m, n in estimate_cases()],
        "bench": [{"config": cfg.to_dict(), "stats": stats_record(trial_stats(cfg))}
                  for cfg in bench_configs()],
    }
    # one record per line; the file's mtime is left out for stable bytes
    with open(PATH, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
        f.write((json.dumps(fixture, separators=(",", ":"))
                 .replace("},{", "},\n{").replace("[{", "[\n{") + "\n").encode())
    print(f"wrote {PATH}: {len(fixture['estimates'])} estimates, "
          f"{sum(len(b['stats']) for b in fixture['bench'])} stats keys")


if __name__ == "__main__":
    main()
