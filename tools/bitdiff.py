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
  optimisation loop takes and `run_bench` does not: the members that
  `draw_ensemble` and `recenter` draw from `child_seed` streams, and every
  estimator's gradient at each default lambda, plain and preconditioned,
  through a plain `ObjectiveSpec` and through a `CountingObjective` (one per
  step, so a lambda sweep reuses its memo), for Hermite orders 2, 3 and 5
  at N of 5, 20 and 100.
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
    for step, (order, n) in enumerate((o, n) for o in (2, 3, 5) for n in (5, 20, 100)):
        x = draw_ensemble(x_spec, n, child_seed(7, step, 0))
        u = recenter(draw_ensemble(u_spec, n, child_seed(7, step, 1)))
        vw = recenter(draw_ensemble(u_spec, 2 * n, child_seed(7, step, 2)))
        for e in (x, u, vw):
            h.update(e.members.tobytes())
        plain = hermite_objective(order, dims)
        for obj in (plain, CountingObjective(plain)):
            for kind in ESTIMATOR_IDS:
                for precondition in (False, True):
                    for lam in DEFAULT_LAMBDAS:
                        spec = EstimatorSpec(kind, PinvConfig(lam), precondition)
                        got = estimate(obj, x, vw if kind in SUBSAMPLED_IDS else u, spec)
                        h.update(np.asarray(got.grad, dtype=float).tobytes())
    return h.hexdigest()


def digests(cfg_path, out_dir):
    """The digests of this process's `ensgrad`, by run name."""
    from ensgrad.cli import main
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
    with contextlib.redirect_stdout(sys.stderr):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"ensgrad {' '.join(argv)} exited {rc}")
    for name in ("results.csv", "best_lambda.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            got[f"cli-pin-t201-w2 {name}"] = hashlib.sha256(f.read()).hexdigest()
    got["estimate-t1"] = one_trial_sha256()
    return got


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
