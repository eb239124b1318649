"""Command line front end.

Subcommands:

  bench         run the RMSE/bias benchmark grid, write results.csv
  rastrigin     descend the stretched Rastrigin surface, exact vs blurred
  linear-check  analytic verifications on the bilinear model (PASS/FAIL)
  gradient      one gradient estimate from ensemble CSV files

Exit codes: 0 success, 1 failed checks or partial benchmark failure,
2 invalid configuration or malformed inputs.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DimensionError
from .estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    EstimatorSpec,
    estimate,
)
from .harness import (
    BLOCK_TRIALS,
    BenchConfig,
    ConfigError,
    DescentConfig,
    TRAJECTORY_HEADER,
    cell_tables,
    run_bench,
    run_rastrigin_demo,
    trajectory_rows,
    write_results_csv,
)
from .linalg import PinvConfig, tikhonov_pinv
from .objectives import (
    ObjectiveSpec,
    bilinear_grad,
    bilinear_objective,
    hermite_objective,
    rastrigin_blurred,
    rastrigin_eval,
    rastrigin_grad,
)
from .sampling import (
    Ensemble,
    GaussianSpec,
    child_seed,
    draw_ensemble,
    read_ensemble_csv,
    read_values_csv,
    recenter,
    rng_from,
    write_rows_csv,
)


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, config, outputs, notes=()):
    """One manifest.json per output directory: what was run, with which
    configuration (hashed), and which files came out."""
    blob = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "command": command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "config": config,
        "outputs": {name: _sha256_file(os.path.join(out_dir, name)) for name in sorted(outputs)},
        "notes": list(notes),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# ---------------------------------------------------------------------------
# bench


def _cmd_bench(args):
    if args.print_default_config:
        print(json.dumps(BenchConfig().to_dict(), indent=2, sort_keys=True))
        return 0
    try:
        cfg = BenchConfig()
        if args.config:
            with open(args.config) as f:
                cfg = BenchConfig.from_dict(json.load(f))
        if args.trials is not None:
            cfg = replace(cfg, n_trials=args.trials)
        if args.seed is not None:
            cfg = replace(cfg, base_seed=args.seed)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        os.makedirs(args.out, exist_ok=True)  # an --out that names a file fails here
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, ConfigError) as e:
        print(f"invalid benchmark configuration: {e}", file=sys.stderr)
        return 2

    orders, sizes = cfg.hermite_orders, cfg.ensemble_sizes
    printed = []

    def cell_done(order, n):
        printed.append((order, n))
        print(f"[{len(printed)}/{len(orders) * len(sizes)}] order={order} N={n} done",
              file=sys.stderr)

    res = run_bench(cfg, workers=args.workers, progress=cell_done,
                    blocks_per_cell=math.ceil(cfg.n_trials / BLOCK_TRIALS))

    def in_cell_order(items):  # keys (order, N, ...): the configured orders, then sizes
        return sorted(items, key=lambda kv: (orders.index(kv[0][0]), sizes.index(kv[0][1]), kv[0]))

    rows, best, failed = [], [], dict(res.failures)
    for order, n in sorted(res.cells):  # the rows' order: cells by (order, N)
        cell_rows, cell_best, bad = cell_tables(order, n, res.cells[(order, n)], cfg.lambda_grid)
        rows += cell_rows
        best += cell_best
        if bad:
            failed[(order, n)] = (f"{bad} of {len(cell_rows) + bad} rows have a non-finite rmse "
                                  "or bias; left out")
    notes = [f"skipped {est} at order={order} N={n}: {reason}"
             for (order, n, est), reason in in_cell_order(res.skips.items())]
    failures = [f"order={order} N={n}: {why}" for (order, n), why in in_cell_order(failed.items())]
    write_results_csv(os.path.join(args.out, "results.csv"), rows)
    write_results_csv(os.path.join(args.out, "best_lambda.csv"), best)
    outputs = ["results.csv", "best_lambda.csv"]
    if failures:
        notes.append("PARTIAL RESULTS: some grid cells failed")
        notes.extend(f"failed cell {f}" for f in failures)
    write_manifest(args.out, "bench", cfg.to_dict(), outputs, notes)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# rastrigin


def _cmd_rastrigin(args):
    try:
        cfg = DescentConfig(step=args.step, n_steps=args.steps)
        os.makedirs(args.out, exist_ok=True)  # an --out that names a file fails here
    except (OSError, ValueError) as e:
        print(f"invalid descent configuration: {e}", file=sys.stderr)
        return 2
    runs = run_rastrigin_demo(cfg)

    outputs, notes = [], []
    for label in ("exact", "blurred"):
        name = f"trajectories_{label}.csv"
        write_rows_csv(os.path.join(args.out, name), TRAJECTORY_HEADER, trajectory_rows(runs[label]))
        outputs.append(name)
        for sid, traj in enumerate(runs[label]):
            if traj.aborted:
                notes.append(f"{label} trajectory {sid} aborted on non-finite step")

    # contour grids over the plotted window, one file per surface
    grid = np.linspace(-3.0, 3.0, 121).tolist()
    for label, fn in (("exact", rastrigin_eval), ("blurred", rastrigin_blurred)):
        name = f"grid_{label}.csv"
        write_rows_csv(os.path.join(args.out, name), ("u1", "u2", "loss"),
                       ((u1, u2, fn(np.array([u1, u2]))) for u1 in grid for u2 in grid))
        outputs.append(name)

    config = {"step": cfg.step, "n_steps": cfg.n_steps, "starts": cfg.starts}
    write_manifest(args.out, "rastrigin", config, outputs, notes)
    final = {
        label: float(np.mean([rastrigin_eval(t.points[-1]) for t in runs[label]]))
        for label in ("exact", "blurred")
    }
    print(f"mean final loss: exact={final['exact']:.6f} blurred={final['blurred']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# linear-check


def _cmd_linear_check(args):
    dims, seeds = args.dims, args.seeds
    if dims < 1 or seeds < 2:
        print("invalid check configuration: dims >= 1, seeds >= 2 (the "
              "unbiasedness bands need a spread)", file=sys.stderr)
        return 2
    n = args.size
    if n < dims + 2:
        print(f"invalid check configuration: size must be >= dims+2 = {dims + 2}", file=sys.stderr)
        return 2

    # exact identities hold to a max |err|; the preconditioned forms target
    # 1^T B C_u (C_u = I here) with mean-zero errors, held to a 3-SE band
    tols = {"stosag_exact": 1e-8, "paired_error_formula": 1e-8, "decorr_zero": 1e-6,
            "one_sided_equals_stosag": 1e-12, "paired_exact": 1e-8,
            "unbiased_paired_preconditioned": 3, "unbiased_stosag_preconditioned": 3}
    if not args.zero_x_coupling:
        del tols["paired_exact"]
    errs = []  # per seed, each identity's error row
    spec = GaussianSpec(mean=np.zeros(dims), cov=1.0)  # of x and u alike
    for k in range(seeds):
        a, b = rng_from(child_seed(7041, k)).standard_normal((2, dims, dims))
        if args.zero_x_coupling:
            # no x-term at all: the paired estimator loses its error term
            a = np.zeros_like(a)
        x_ens = draw_ensemble(spec, n, child_seed(7041, k, 1))
        u_ens = recenter(draw_ensemble(spec, n, child_seed(7041, k, 2)))
        obj = bilinear_objective(a, b)
        truth = bilinear_grad(b)
        paired, stosag, one_sided, decorr, pre_paired, pre_stosag = (
            estimate(obj, x_ens, u_ens,
                     EstimatorSpec(kind=kind, pinv=PinvConfig(0.0), precondition=pre)).grad
            for kind, pre in (("paired", False), ("stosag", False), ("one_sided", False),
                              ("decorr", False), ("paired", True), ("stosag", True)))
        # deliberately wrong control-term sign: loss(x_n, mu) added, not
        # subtracted, which lands at 2*paired - stosag
        checked = 2.0 * paired - stosag if args.inject_sign_error else stosag
        pinv = tikhonov_pinv(u_ens.anomalies, PinvConfig(0.0))
        errs.append({
            "stosag_exact": checked - truth,
            "paired_error_formula": (paired - truth) - (a @ x_ens.members).sum(axis=0) @ pinv,
            "decorr_zero": decorr - truth,
            "one_sided_equals_stosag": one_sided - stosag,
            "paired_exact": paired - truth,
            "unbiased_paired_preconditioned": pre_paired - truth,
            "unbiased_stosag_preconditioned": pre_stosag - truth,
        })

    failed = False
    for name, tol in tols.items():
        e = np.array([seed[name] for seed in errs])
        if name.startswith("unbiased"):
            se = e.std(axis=0, ddof=1) / np.sqrt(seeds)
            worst = (np.abs(e.mean(axis=0)) / np.where(se > 0, se, np.inf)).max()
            shown = f"max |mean|/SE = {worst:.2f} (tol {tol})"
        else:
            worst = np.abs(e).max()
            shown = f"max |err| = {worst:.3e} (tol {tol:.0e})"
        ok = worst <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {shown}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# gradient


def _values_objective(u_members, values, mu, mean_values):
    """Objective backed by a precomputed value matrix, one column per control
    and one row per x-member or a single row, read by position: only the
    provided control ensemble, as a whole, and the mean (with mean values)
    can be evaluated. Column j's pair value is in row `j * rows // N`, the
    row of column j's own x-member: the single row, a square table's
    diagonal, or row m of an M x 2M table for the pair 2m, 2m+1."""
    rows, n = values.shape

    def check_controls(U):
        if not np.array_equal(U, u_members):
            raise DimensionError("this estimator evaluates controls outside the provided "
                                 "ensemble; supply --objective instead of --values")

    def value_pairs(X, U):
        if U.shape[1] == 1 and np.array_equal(U[:, 0], mu):
            if mean_values is None:
                raise DimensionError("this estimator needs values at the mean control; "
                                     "pass --mean-values")
            if mean_values.shape[0] != X.shape[1]:
                raise DimensionError(f"--mean-values has {mean_values.shape[0]} entries, "
                                     f"expected one per x-member ({X.shape[1]})")
            return mean_values
        check_controls(U)
        if X.shape[1] < rows:
            raise DimensionError(f"values table has {rows} rows, the request "
                                 f"covers {X.shape[1]} x-member")
        return values[np.arange(n) * rows // n, np.arange(n)]

    def value_mean(X, U):
        check_controls(U)
        if rows == 1:
            raise DimensionError("this estimator needs the full M-by-N value table, "
                                 "got a single row")
        return values.mean(axis=0)

    return ObjectiveSpec(name="values", value=None, value_pairs=value_pairs,
                         value_mean=value_mean)


def _named_objective(name, dims, x_dims):
    if name.startswith("hermite"):
        try:
            order = int(name[len("hermite"):])
        except ValueError:
            raise DimensionError(f"unknown objective {name!r}")
        if x_dims != dims:  # a Hermite objective evaluates at x + u; rastrigin ignores x
            raise DimensionError(f"--ensemble-x has {x_dims} dims, --ensemble-u has {dims}")
        return hermite_objective(order, dims)
    if name == "rastrigin":
        if dims != 2:
            raise DimensionError(f"rastrigin is 2-D, the control ensemble has {dims} rows")
        return ObjectiveSpec(
            name="rastrigin",
            value=lambda x, u: rastrigin_eval(u),
            grad_u=lambda x, u: rastrigin_grad(u),
        )
    raise DimensionError(f"unknown objective {name!r}; use hermite<order> or rastrigin")


def _cmd_gradient(args):
    try:
        u_members = read_ensemble_csv(args.ensemble_u)
        dims, n_total = u_members.shape
        if args.mean_u is not None:
            mu = np.array([float(t) for t in args.mean_u.split(",")])
            if not np.all(np.isfinite(mu)):
                raise ValueError(f"--mean-u has a non-finite entry: {args.mean_u}")
            if mu.shape != (dims,):
                raise DimensionError(
                    f"--mean-u has {mu.size} entries, the ensemble has {dims} dims"
                )
        else:
            mu = u_members.mean(axis=1)

        if args.ensemble_x is not None:  # each estimator checks its member counts
            x_members = read_ensemble_csv(args.ensemble_x)
        else:
            x_members = np.zeros((dims, n_total // 2 if args.estimator in SUBSAMPLED_IDS
                                  else n_total))

        if (args.values is None) == (args.objective is None):
            print("pass exactly one of --values or --objective", file=sys.stderr)
            return 2
        if args.values is not None:
            if args.estimator == "avg_grad":
                raise DimensionError(
                    "avg_grad differentiates the objective; a values file "
                    "cannot supply gradients, use --objective"
                )
            values = read_values_csv(args.values)
            if values.shape[1] != n_total:
                raise DimensionError(
                    f"--values has {values.shape[1]} columns, expected one per "
                    f"control member ({n_total})"
                )
            if values.shape[0] not in (1, x_members.shape[1]):
                raise DimensionError(
                    f"--values has {values.shape[0]} rows, expected one per "
                    f"x-member ({x_members.shape[1]}) or a single row"
                )
            if args.mean_values:
                mv = read_values_csv(args.mean_values)
                if 1 not in mv.shape:
                    raise DimensionError(
                        f"--mean-values must be a single row or column, got "
                        f"shape {mv.shape}"
                    )
                mean_values = mv.ravel()
            else:
                mean_values = None
            spec_obj = _values_objective(u_members, values, mu, mean_values)
        else:
            spec_obj = _named_objective(args.objective, dims, len(x_members))

        u_ens = Ensemble(members=u_members, true_mean=mu,
                         recentred=bool(np.allclose(u_members.mean(axis=1), mu)))
        x_ens = Ensemble(members=x_members, true_mean=x_members.mean(axis=1))
        est_spec = EstimatorSpec(
            kind=args.estimator,
            pinv=PinvConfig(args.lam),
            precondition=args.precondition,
        )
        got = estimate(spec_obj, x_ens, u_ens, est_spec)
    except (OSError, ValueError) as e:
        print(f"gradient: {e}", file=sys.stderr)
        return 2

    print(",".join(repr(float(g)) for g in got.grad))
    print(f"evals={got.evals} cached={got.cached}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="ensgrad", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the RMSE/bias benchmark grid")
    b.add_argument("--config", help="JSON benchmark configuration")
    b.add_argument("--out", default="ensgrad_bench", help="output directory")
    b.add_argument("--trials", type=int, help="override n_trials")
    b.add_argument("--seed", type=int, help="override base_seed")
    b.add_argument("--workers", type=int, default=1, help="process count")
    b.add_argument("--print-default-config", action="store_true",
                   help="print the default configuration as JSON and exit")
    b.set_defaults(func=_cmd_bench)

    r = sub.add_parser("rastrigin", help="steepest-descent demo, exact vs blurred")
    r.add_argument("--out", default="ensgrad_rastrigin", help="output directory")
    r.add_argument("--step", type=float, default=0.012, help="descent step size")
    r.add_argument("--steps", type=int, default=400, help="descent step count")
    r.set_defaults(func=_cmd_rastrigin)

    c = sub.add_parser("linear-check", help="analytic verifications on the bilinear model")
    c.add_argument("--dims", type=int, default=5)
    c.add_argument("--seeds", type=int, default=100)
    c.add_argument("--size", type=int, default=16, help="ensemble size N")
    c.add_argument("--inject-sign-error", action="store_true",
                   help="flip the control-term sign to prove the check catches it")
    c.add_argument("--zero-x-coupling", action="store_true",
                   help="zero the x-coupling matrix; without it the paired "
                        "estimator is exact too, and an extra line checks that")
    c.set_defaults(func=_cmd_linear_check)

    g = sub.add_parser("gradient", help="one gradient estimate from ensemble CSVs")
    g.add_argument("--ensemble-u", required=True, help="control ensemble CSV (members as rows)")
    g.add_argument("--ensemble-x", help="uncertainty ensemble CSV")
    g.add_argument("--values", help="headerless CSV value matrix: one column per "
                   "control member, one row per x-member (or a single row when "
                   "each control is evaluated once)")
    g.add_argument("--mean-values", help="headerless CSV row of values at the mean "
                   "control, one per x-member (stosag and relatives)")
    g.add_argument("--objective", help="named objective: hermite<order> or rastrigin")
    g.add_argument("--estimator", required=True, choices=ESTIMATOR_IDS)
    g.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="relative Tikhonov damping")
    g.add_argument("--mean-u", help="comma-separated true control mean (default: sample mean)")
    g.add_argument("--precondition", action="store_true",
                   help="premultiply by the sample control covariance")
    g.set_defaults(func=_cmd_gradient)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
