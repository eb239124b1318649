"""Check that the working tree gives the same stats bits and output bytes as
another revision.

    python tools/bitdiff.py BASE

BASE is any git revision (a commit, `HEAD^`, a branch). It is checked out
into a `git worktree` under a temporary directory, which is removed on exit.
Each tree's own `src/` then runs in a child process, and the script prints,
per tree:
- the stats SHA-256 (`stats_sha256` of the working tree's
  `perfbench/checks.py`, for both trees) of four `run_bench` runs: the
  default grid at 200 trials, one block per cell; at 25 trials and seed 5,
  one block per cell, on 1 and on 2 workers (`t25-seed5-w2` runs in process
  too: one block per cell is one task per N, which starts no pool); and at
  90 trials and seed 11, three blocks per cell;
- the SHA-256 of `results.csv` and `best_lambda.csv` written by `ensgrad
  bench --trials 201 --seed 5 --workers 2` on `tests/test_cli.py`'s PIN_CFG
  (`cli-pin-t201-w2`): two blocks per cell, the run that exercises the pool;
- `estimate-t1`, the SHA-256 of one-trial `estimate()` calls, the path an
  optimisation loop takes and `run_bench` does not, for Hermite orders 2, 3
  and 5 at N of 5, 20 and 100: the members that `draw_ensemble` and
  `recenter` draw from `child_seed` streams, and every estimator's gradient
  and (evals, cached) at each default lambda, through a plain
  `ObjectiveSpec` and through a `CountingObjective` (one per step, so a
  lambda sweep reuses its memo). Each objective runs every estimator plain
  and preconditioned, the `CountingObjective` also with the lambdas
  reversed; then `avg_grad` with `avg_grad_diagonal` (after the table
  form), every estimator with `charge_cached`, and `average_lls`,
  `gen_stosag` and `hybrid` with `subsample_size=3` on a pooled 3N ensemble. The `CountingObjective`'s
  `evals` and `grad_evals` are hashed after each step, so the digest covers
  every field that a memoised plan is keyed on;
- the SHA-256 of the other console commands, each run through `cli.main`:
  `cli-gradient`, the exit code, stdout and `evals=` line of `ensgrad
  gradient` for every estimator, from `--objective hermite3`, a `--values`
  row and a full `--values` table (M x 2M for the subsampled estimators),
  both with `--mean-values`, at lambda 0 and 0.01, plain and
  `--precondition`, on ensembles drawn from fixed seeds and written with
  `write_ensemble_csv` (error text is left out: it names temporary paths);
  `cli-linear-check`, the exit code and stdout of `linear-check`, with
  `--zero-x-coupling` and with `--inject-sign-error`; and `cli-rastrigin`,
  the exit code, stdout and four CSVs of `rastrigin --steps 50` (not the
  manifest, which holds a timestamp).
It exits 0 when every digest is equal, 1 naming each run whose digest
differs, and 2 when a tree could not be run. Unlike the hard-coded pins of
the test suite, which hold only on the platform they were recorded on, this
compares two trees on whatever machine it runs on.
"""

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKS = os.path.join(ROOT, "perfbench", "checks.py")


def pin_cfg():
    """`PIN_CFG` of the working tree's tests/test_cli.py, read without
    importing the test module."""
    with open(os.path.join(ROOT, "tests", "test_cli.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "PIN_CFG"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py has no PIN_CFG")


def one_trial_sha256():
    """`estimate-t1`: the SHA-256 of one-trial draws and `estimate()` calls."""
    import numpy as np

    from ensgrad.estimators import (ESTIMATOR_IDS, SUBSAMPLED_IDS, CountingObjective,
                                    EstimatorSpec, estimate)
    from ensgrad.harness import DEFAULT_LAMBDAS
    from ensgrad.linalg import PinvConfig
    from ensgrad.objectives import hermite_objective
    from ensgrad.sampling import GaussianSpec, child_seed, draw_ensemble, recenter

    dims = 5
    x_spec = GaussianSpec(np.linspace(-2.0, 2.0, dims), np.linspace(0.1, 0.5, dims))
    u_spec = GaussianSpec(np.zeros(dims), 0.01)
    h = hashlib.sha256()

    def sweep(obj, x, ens, kind, lambdas=DEFAULT_LAMBDAS, **opts):
        for lam in lambdas:
            got = estimate(obj, x, ens, EstimatorSpec(kind, PinvConfig(lam), **opts))
            h.update(np.asarray(got.grad, dtype=float).tobytes())
            h.update(repr((got.evals, got.cached)).encode())

    for step, (order, n) in enumerate((o, n) for o in (2, 3, 5) for n in (5, 20, 100)):
        x = draw_ensemble(x_spec, n, child_seed(7, step, 0))
        u = recenter(draw_ensemble(u_spec, n, child_seed(7, step, 1)))
        vw = recenter(draw_ensemble(u_spec, 2 * n, child_seed(7, step, 2)))
        vw3 = recenter(draw_ensemble(u_spec, 3 * n, child_seed(7, step, 3)))
        for e in (x, u, vw, vw3):
            h.update(e.members.tobytes())
        plain = hermite_objective(order, dims)
        counting = CountingObjective(plain)
        for obj in (plain, counting):
            passes = (DEFAULT_LAMBDAS, DEFAULT_LAMBDAS[::-1])[:1 if obj is plain else 2]
            for kind in ESTIMATOR_IDS:
                ens = vw if kind in SUBSAMPLED_IDS else u
                for precondition in (False, True):
                    for lambdas in passes:
                        sweep(obj, x, ens, kind, lambdas, precondition=precondition)
            sweep(obj, x, u, "avg_grad", avg_grad_diagonal=True)
            for kind in ESTIMATOR_IDS:
                sweep(obj, x, vw if kind in SUBSAMPLED_IDS else u, kind, charge_cached=True)
            for kind in ("average_lls", "gen_stosag", "hybrid"):
                sweep(obj, x, vw3, kind, subsample_size=3)
        h.update(repr((counting.evals, counting.grad_evals)).encode())
    return h.hexdigest()


def console(*argv):
    """(exit code, stdout, stderr) of `ensgrad argv`, run through `cli.main`."""
    from ensgrad.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def write_values(path, rows):
    """A headerless CSV of float reprs, one line per row."""
    with open(path, "w") as f:
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    return path


def gradient_sha256(tmp):
    """`cli-gradient`: the SHA-256 of `ensgrad gradient` calls on 3 x 8
    x-members and 8 or 16 recentred controls."""
    import numpy as np

    from ensgrad.estimators import ESTIMATOR_IDS, SUBSAMPLED_IDS
    from ensgrad.objectives import hermite_objective
    from ensgrad.sampling import GaussianSpec, draw_ensemble, recenter, write_ensemble_csv

    d, m, obj = 3, 8, hermite_objective(3, 3)
    x = draw_ensemble(GaussianSpec(np.linspace(-1.0, 1.0, d), 0.25), m, 61).members
    u = {n: recenter(draw_ensemble(GaussianSpec(np.zeros(d), 0.25), n, 62 + n)).members
         for n in (m, 2 * m)}
    for name, members in (("x", x), *((f"u{n}", e) for n, e in u.items())):
        write_ensemble_csv(os.path.join(tmp, f"{name}.csv"), members)
    mv = write_values(os.path.join(tmp, "mv.csv"), obj.pairs(x, np.zeros((d, 1)))[None])
    h = hashlib.sha256()
    for est in ESTIMATOR_IDS:
        n = 2 * m if est in SUBSAMPLED_IDS else m
        pair_x = (x.mean(axis=1, keepdims=True) if est == "fragile"
                  else np.repeat(x, 2, axis=1) if est in SUBSAMPLED_IDS else x)
        sources = {
            "objective": ("--objective", "hermite3"),
            "row": ("--values", write_values(os.path.join(tmp, f"row-{est}.csv"),
                                             obj.pairs(pair_x, u[n])[None]), "--mean-values", mv),
            "table": ("--values", write_values(os.path.join(tmp, f"table{n}.csv"), np.array(
                [obj.pairs(x[:, [k]], u[n]) for k in range(m)])), "--mean-values", mv),
        }
        for source, args in sources.items():
            for lam in ("0", "0.01"):
                for pre in ((), ("--precondition",)):
                    rc, out, err = console(
                        "gradient", "--ensemble-u", os.path.join(tmp, f"u{n}.csv"),
                        "--ensemble-x", os.path.join(tmp, "x.csv"), "--mean-u", "0,0,0",
                        "--estimator", est, "--lambda", lam, *args, *pre)
                    evals = [line for line in err.splitlines() if line.startswith("evals=")]
                    h.update(repr((est, source, lam, pre, rc, out, evals)).encode())
    return h.hexdigest()


def console_digests(tmp):
    """`cli-gradient`, `cli-linear-check` and `cli-rastrigin`."""
    got = {"cli-gradient": gradient_sha256(tmp)}
    h = hashlib.sha256()
    for flags in ((), ("--zero-x-coupling",), ("--inject-sign-error",)):
        rc, out, _ = console("linear-check", *flags)
        h.update(repr((flags, rc, out)).encode())
    got["cli-linear-check"] = h.hexdigest()
    out_dir = os.path.join(tmp, "rastrigin")
    rc, out, _ = console("rastrigin", "--steps", 50, "--out", out_dir)
    h = hashlib.sha256(repr((rc, out)).encode())
    for name in ("trajectories_exact.csv", "trajectories_blurred.csv", "grid_exact.csv",
                 "grid_blurred.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(repr((name, f.read())).encode())
    got["cli-rastrigin"] = h.hexdigest()
    return got


def digests(cfg_path, out_dir):
    """The digests of this process's `ensgrad`, by run name."""
    from ensgrad.harness import BenchConfig, run_bench

    spec = importlib.util.spec_from_file_location("bitdiff_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    runs = {
        "t200": (BenchConfig(n_trials=200), 1, 1),
        "t25-seed5-w1": (BenchConfig(n_trials=25, base_seed=5), 1, 1),
        "t25-seed5-w2": (BenchConfig(n_trials=25, base_seed=5), 2, 1),
        "t90-seed11-b3": (BenchConfig(n_trials=90, base_seed=11), 1, 3),
    }
    got = {name: checks.stats_sha256(run_bench(cfg, workers=w, blocks_per_cell=b).stats)
           for name, (cfg, w, b) in runs.items()}
    argv = ["bench", "--config", cfg_path, "--trials", "201", "--seed", "5", "--workers", "2",
            "--out", out_dir]
    rc, _, err = console(*argv)
    if rc != 0:
        raise RuntimeError(f"ensgrad {' '.join(argv)} exited {rc}: {err}")
    for name in ("results.csv", "best_lambda.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            got[f"cli-pin-t201-w2 {name}"] = hashlib.sha256(f.read()).hexdigest()
    got["estimate-t1"] = one_trial_sha256()
    cli_dir = os.path.join(out_dir, "cli")
    os.makedirs(cli_dir)
    return got | console_digests(cli_dir)


def run_tree(tree, cfg_path, out_dir):
    """`digests` in a child process that imports `ensgrad` from `tree`/src."""
    src = os.path.join(tree, "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", src, cfg_path,
                           out_dir], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"the run of {tree} exited {proc.returncode}")
    return json.loads(proc.stdout)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="the git revision to compare the working tree with")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        base_dir = os.path.join(tmp, "base")
        try:
            git("worktree", "add", "--detach", "--quiet", base_dir, args.base)
        except subprocess.CalledProcessError as e:
            print(f"bitdiff: cannot check out {args.base}: {e.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            cfg_path = os.path.join(tmp, "pin_cfg.json")
            with open(cfg_path, "w") as f:
                json.dump(pin_cfg(), f)
            trees = {f"base {git('rev-parse', '--short', args.base)}": base_dir,
                     "working tree": ROOT}
            got = {label: run_tree(tree, cfg_path, os.path.join(tmp, f"out{i}"))
                   for i, (label, tree) in enumerate(trees.items())}
        except (RuntimeError, LookupError) as e:
            print(f"bitdiff: {e}", file=sys.stderr)
            return 2
        finally:
            git("worktree", "remove", "--force", base_dir)
    base, work = got.values()
    for label, d in got.items():
        print(f"{label}:")
        for name, digest in d.items():
            print(f"  {name:<32} {digest}")
    differ = [name for name in base if base[name] != work[name]]
    if differ:
        print(f"bitdiff: {len(differ)} run(s) differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"bitdiff: all {len(base)} digests equal")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        src, cfg_path, out_dir = sys.argv[2:5]
        import ensgrad

        if os.path.dirname(os.path.realpath(ensgrad.__file__)) != os.path.realpath(
                os.path.join(src, "ensgrad")):
            sys.exit(f"bitdiff: imported {ensgrad.__file__}, expected {src}/ensgrad")
        print(json.dumps(digests(cfg_path, out_dir)))
    else:
        sys.exit(main())
