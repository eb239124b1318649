"""The four workloads. Each is a single closed-loop generator: one caller
waits for every result before it makes the next call.

Every workload has the same four parts:

- `setup()`: build and validate the configuration, then warm up;
- `timed(seed, seconds)`: the measured loop, which checks every output;
- `verify()`: the same operations at the default seed, checked against a
  reference recorded at this commit;
- `fixed(seed, pass_index)`: a fixed amount of work, for the traced run and
  its untraced twin. The two passes draw different inputs of the same size,
  so the second pass cannot hit caches the first one filled.

Operations are result rows (estimator, order, N, lambda) for `grid` and
`cli-bench-w2`, and `estimate()` calls for `sweep` and `descent`.

The timed loop is split into rounds of equal work (a grid call, a command,
a fixed number of steps), and every stretch of a round is timed between two
calibration samples (`speed.Bracketed`), so its time is in reference
seconds. The calibration runs between stretches, never inside one, and never
in the traced or the checking passes.
"""

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

import ensgrad.cli as cli
import ensgrad.estimators as estimators
import ensgrad.harness as harness
import ensgrad.sampling as sampling
from ensgrad.estimators import ESTIMATOR_IDS, SUBSAMPLED_IDS, EstimatorSpec
from ensgrad.harness import DEFAULT_LAMBDAS, BenchConfig
from ensgrad.linalg import PinvConfig
from ensgrad.objectives import hermite_objective

import checks
import speed
from pin import OUT_DIR

DEFAULT_SEED = BenchConfig().base_seed
ORDERS = (2, 3, 5)
DIMS = 5
PER_TRIAL = len(ESTIMATOR_IDS) * len(DEFAULT_LAMBDAS)  # estimates per cell-trial
WARMUP_SEED = 1

# references recorded at the default seed by make_reference.py
REF_GRID = "grid_seed2026_t200.csv.gz"
REF_CLI = "cli_seed2026_t10.csv.gz"
REF_SWEEP = "sweep_seed2026.json"
REF_DESCENT = "descent_seed2026.json"


def call_seed(seed, k):
    """`BenchConfig.base_seed` of the k-th grid call of a run."""
    return seed * 1000 + k


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Measured:
    """What a timed loop or a fixed pass hands back. A timed loop fills
    `rounds` with the reference seconds of each round, all of the same work
    (`round_trials` trials, `round_estimates` estimates), and `latencies` with
    reference seconds per estimate of each call, or for the grid workloads
    `cell_latencies` with those of each cell; `wall` is measured seconds
    outside the calibration. `peak_rss_kb` is read when the loop ends."""

    def __init__(self):
        self.wall = 0.0
        self.trials = 0  # cell-trials, or ensemble draws for the loops
        self.estimates = 0
        self.rounds = []
        self.raw_rounds = []  # the same rounds in measured seconds
        self.speed_samples = []  # speed.sample() results, in order
        self.round_trials = 0
        self.round_estimates = 0
        self.latencies = []
        self.cell_latencies = []  # per round: one latency per cell, in cell order
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.cpu_s = 0.0
        self.notes = []


# ---------------------------------------------------------------------------
# grid: run_bench on the default grid shape, single-threaded


class Grid:
    name = "grid"
    TRIALS = 200  # one block per cell holds the 200 trials a 10^4-trial run's block holds
    BLOCKS_PER_CELL = 1
    SPEED_MIX = "arrays"

    def setup(self):
        cfg = BenchConfig(n_trials=self.TRIALS).validate()
        self.keys = checks.expected_keys(cfg.hermite_orders, cfg.ensemble_sizes,
                                         cfg.lambda_grid)
        self.cells = len(cfg.hermite_orders) * len(cfg.ensemble_sizes)
        harness.run_bench(BenchConfig(n_trials=1), workers=1, blocks_per_cell=1)

    def _call(self, base_seed, out, clock=None):
        """One grid call and its checks. With a clock, each block and the
        final aggregate is a stretch, and the call is one round."""
        cfg = BenchConfig(base_seed=base_seed, n_trials=self.TRIALS)
        per_block = self.TRIALS // self.BLOCKS_PER_CELL * PER_TRIAL
        stretches = []

        def progress(i, n):
            if clock is not None:
                stretches.append(clock.mark())

        t0 = perf_counter()
        res = harness.run_bench(cfg, workers=1, blocks_per_cell=self.BLOCKS_PER_CELL,
                                progress=progress)
        rows = [checks.as_row(r) for r in harness.aggregate(res.stats)]
        if clock is not None:
            stretches.append(clock.mark())
            out.rounds.append(sum(w * f for w, f in stretches))
            out.raw_rounds.append(sum(w for w, _ in stretches))
            out.cell_latencies.append([w * f / per_block for w, f in stretches[:-1]])
            out.wall += sum(w for w, _ in stretches)
        else:
            out.wall += perf_counter() - t0
        out.trials += self.cells * self.TRIALS
        out.estimates += self.cells * self.TRIALS * PER_TRIAL
        out.attempted += len(self.keys)
        out.failed += checks.check_rows(rows, self.keys, self.TRIALS)
        out.notes.append(f"stats_sha256 base_seed={base_seed} {checks.stats_sha256(res.stats)}")
        if clock is not None:
            clock.skip()
        return rows

    def timed(self, seed, seconds):
        out = Measured()
        out.round_trials = self.cells * self.TRIALS
        out.round_estimates = out.round_trials * PER_TRIAL
        clock = speed.Bracketed(self.SPEED_MIX)
        k = 0
        t_end = perf_counter() + seconds
        while perf_counter() < t_end:
            self._call(call_seed(seed, k), out, clock)
            k += 1
        out.peak_rss_kb = _peak_rss_kb()
        out.speed_samples = clock.samples
        return out

    def verify(self):
        out = Measured()
        rows = self._call(DEFAULT_SEED, out)
        out.failed += checks.compare_rows(rows, checks.load_reference_rows(REF_GRID))
        return out

    def fixed(self, seed, pass_index):
        out = Measured()
        self._call(call_seed(seed, pass_index), out)
        return out


# ---------------------------------------------------------------------------
# cli-bench-w2: `ensgrad bench --workers 2`


class _Lines(io.TextIOBase):
    """A text stream that hands each complete line to `on_line`."""

    def __init__(self, on_line):
        self.on_line = on_line
        self.buf = ""

    def writable(self):
        return True

    def write(self, text):
        self.buf += text
        while "\n" in self.buf:
            line, self.buf = self.buf.split("\n", 1)
            self.on_line(line)
        return len(text)


class CliBench:
    """The timed commands run in the benchmark process through `cli.main`,
    as `python -m ensgrad.cli` would run them after its imports: the CLI
    builds one pool of two worker processes per (order, N) cell and shuts it
    down before it prints the cell's `[i/33] ... done` line to stderr. Each
    cell is a stretch, ended at that line, when no worker is running, so the
    speed samples never compete with the workers. The default-seed check
    runs the real command line in child processes."""

    name = "cli-bench-w2"
    TRIALS = 25  # below 50 trials the CLI makes one block per trial
    WORKERS = 2
    VERIFY_TRIALS = 10
    SPEED_MIX = "arrays"

    def setup(self):
        cfg = BenchConfig(n_trials=self.TRIALS).validate()
        self.keys = checks.expected_keys(cfg.hermite_orders, cfg.ensemble_sizes,
                                         cfg.lambda_grid)
        self.cells = len(cfg.hermite_orders) * len(cfg.ensemble_sizes)
        os.makedirs(OUT_DIR, exist_ok=True)
        # warm-up: the command line the timed calls use must parse
        cli.build_parser().parse_args(self._argv(self.TRIALS, 0, OUT_DIR))

    def _argv(self, trials, base_seed, out_dir, workers=WORKERS):
        return ["bench", "--trials", str(trials), "--seed", str(base_seed),
                "--workers", str(workers), "--out", out_dir]

    def _main(self, base_seed, out_dir, on_line):
        """`ensgrad bench` in this process; returns its CPU seconds, this
        process and its finished children together."""
        shutil.rmtree(out_dir, ignore_errors=True)
        ru0 = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        with contextlib.redirect_stderr(_Lines(on_line)):
            cli.main(self._argv(self.TRIALS, base_seed, out_dir))
        ru1 = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime for a, b in zip(ru0, ru1))

    def _command(self, trials, base_seed, workers, out_dir):
        """`python -m ensgrad.cli bench ...` in a child process."""
        shutil.rmtree(out_dir, ignore_errors=True)
        proc = subprocess.run([sys.executable, "-m", "ensgrad.cli"]
                              + self._argv(trials, base_seed, out_dir, workers),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"ensgrad bench exited {proc.returncode}: {proc.stderr[-500:]}",
                  file=sys.stderr)

    def _call(self, base_seed, out, clock):
        """One command: each cell, and the output written after the last
        one, is a stretch; the command is one round."""
        out_dir = os.path.join(OUT_DIR, "cli-bench-w2")
        stretches = []

        def on_line(line):
            if line.startswith("[") and line.endswith(" done"):
                stretches.append(clock.mark())

        clock.skip()
        out.cpu_s += self._main(base_seed, out_dir, on_line)
        stretches.append(clock.mark())
        out.rounds.append(sum(w * f for w, f in stretches))
        out.raw_rounds.append(sum(w for w, _ in stretches))
        out.wall += sum(w for w, _ in stretches)
        out.cell_latencies.append([w * f / (self.TRIALS * PER_TRIAL) for w, f in stretches[:-1]])
        out.trials += self.cells * self.TRIALS
        out.estimates += self.cells * self.TRIALS * PER_TRIAL
        out.attempted += len(self.keys)
        out.failed += checks.check_rows(self._rows(out_dir), self.keys, self.TRIALS)

    @staticmethod
    def _rows(out_dir):
        """The rows of results.csv; none when the command wrote none (a
        partial run, exit 1, still writes the cells that succeeded)."""
        try:
            return checks.read_rows(os.path.join(out_dir, "results.csv"))
        except (OSError, ValueError):
            return []

    def timed(self, seed, seconds):
        out = Measured()
        out.round_trials = self.cells * self.TRIALS
        out.round_estimates = out.round_trials * PER_TRIAL
        clock = speed.Bracketed(self.SPEED_MIX)
        k = 0
        t_end = perf_counter() + seconds
        while perf_counter() < t_end:
            self._call(call_seed(seed, k), out, clock)
            k += 1
        # the largest process of the tree: this one, or a pool worker
        out.peak_rss_kb = max(_peak_rss_kb(),
                              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.speed_samples = clock.samples
        return out

    def verify(self):
        """The command line at the default seed and a short trial count: the
        two-worker results.csv must equal the one-worker one byte for byte,
        and its rows must match the reference."""
        out = Measured()
        paths = {}
        for workers in (self.WORKERS, 1):
            out_dir = os.path.join(OUT_DIR, f"cli-verify-w{workers}")
            self._command(self.VERIFY_TRIALS, DEFAULT_SEED, workers, out_dir)
            paths[workers] = os.path.join(out_dir, "results.csv")
        rows = self._rows(os.path.dirname(paths[self.WORKERS]))
        mismatched = checks.differing_lines(paths[self.WORKERS], paths[1])
        out.attempted += len(self.keys)
        out.failed += min(len(self.keys), checks.check_rows(rows, self.keys, self.VERIFY_TRIALS)
                          + checks.compare_rows(rows, checks.load_reference_rows(REF_CLI))
                          + mismatched)
        return out

    def fixed(self, seed, pass_index):
        """One command, untimed inside, for the traced run: the tracer sees
        this process; the pool workers are not traced."""
        out = Measured()
        out_dir = os.path.join(OUT_DIR, "cli-bench-w2-fixed")
        t0 = perf_counter()
        out.cpu_s = self._main(call_seed(seed, pass_index), out_dir, lambda line: None)
        out.wall = perf_counter() - t0
        out.trials = self.cells * self.TRIALS
        out.attempted = len(self.keys)
        out.failed = checks.check_rows(self._rows(out_dir), self.keys, self.TRIALS)
        return out


# ---------------------------------------------------------------------------
# sweep and descent: estimate() in a loop, ensembles drawn by the benchmark


LOOP_SIZES = (5, 20, 100)
X_SPEC = sampling.GaussianSpec(mean=np.linspace(-2.0, 2.0, DIMS), cov=0.25)
U_SPEC = sampling.GaussianSpec(mean=np.zeros(DIMS), cov=0.01)


def draw(seed, step, n, need_u=True, need_vw=True):
    """One step's ensembles through the public sampling API, each from its
    own child stream: x-members, recentred controls, a pooled 2N control
    ensemble for the subsampled estimators."""
    x = sampling.draw_ensemble(X_SPEC, n, sampling.child_seed(seed, step, 0))
    u = (sampling.recenter(sampling.draw_ensemble(U_SPEC, n, sampling.child_seed(seed, step, 1)))
         if need_u else None)
    vw = (sampling.recenter(sampling.draw_ensemble(U_SPEC, 2 * n,
                                                   sampling.child_seed(seed, step, 2)))
          if need_vw else None)
    return x, u, vw


class _Loop:
    STEPS_WARMUP = 0  # steps of the set-up's warm-up: each estimator at least once
    STEPS_VERIFY = 0  # steps of the default-seed check
    STEPS_FIXED = 0  # steps of each traced or untraced pass
    REFERENCE = None
    SPEED_MIX = "dispatch"

    def setup(self):
        self.objectives = {order: hermite_objective(order, DIMS) for order in ORDERS}
        self.specs = {(est, lam): EstimatorSpec(kind=est, pinv=PinvConfig(lam))
                      for est in ESTIMATOR_IDS for lam in DEFAULT_LAMBDAS}
        self._steps(WARMUP_SEED, 0, self.STEPS_WARMUP, Measured())

    def timed(self, seed, seconds):
        out = Measured()
        out.round_trials = self.STEPS_PER_ROUND
        out.round_estimates = self.STEPS_PER_ROUND * self.ESTIMATES_PER_STEP
        clock = speed.Bracketed(self.SPEED_MIX)
        step = 0
        t_end = perf_counter() + seconds
        while perf_counter() < t_end:
            first = len(out.latencies)
            step = self._steps(seed, step, step + self.STEPS_PER_ROUND, out)
            wall, f = clock.mark()
            out.wall += wall
            out.rounds.append(wall * f)
            out.raw_rounds.append(wall)
            out.latencies[first:] = [x * f for x in out.latencies[first:]]
        out.peak_rss_kb = _peak_rss_kb()
        out.speed_samples = clock.samples
        return out

    def verify(self):
        out = Measured()
        sums = checks.Checksums()
        self._steps(DEFAULT_SEED, 0, self.STEPS_VERIFY, out, sums)
        out.failed += sums.compare(checks.load_reference_json(self.REFERENCE))
        out.failed = min(out.failed, out.attempted)
        return out

    def fixed(self, seed, pass_index):
        out = Measured()
        lo = pass_index * self.STEPS_FIXED
        t0 = perf_counter()
        self._steps(seed, lo, lo + self.STEPS_FIXED, out)
        out.wall = perf_counter() - t0
        return out

    def checksums(self, seed):
        sums = checks.Checksums()
        self._steps(seed, 0, self.STEPS_VERIFY, Measured(), sums)
        return sums



class Sweep(_Loop):
    """All 12 estimators x 11 lambdas on each step's ensembles, through one
    CountingObjective: 10 of every 11 calls reuse cached evaluations and
    linalg's SVD cache."""

    name = "sweep"
    STEPS_PER_ROUND = 9  # every (N, order) pair once
    ESTIMATES_PER_STEP = PER_TRIAL
    STEPS_WARMUP = 3
    STEPS_VERIFY = 9
    STEPS_FIXED = 90
    REFERENCE = REF_SWEEP

    def _steps(self, seed, lo, hi, out, sums=None):
        estimate = estimators.estimate
        for step in range(lo, hi):
            n = LOOP_SIZES[step % 3]
            order = ORDERS[(step // 3) % 3]
            x, u, vw = draw(seed, step, n)
            obj = estimators.CountingObjective(self.objectives[order])
            grads = {}
            for est in ESTIMATOR_IDS:
                ens = vw if est in SUBSAMPLED_IDS else u
                for lam in DEFAULT_LAMBDAS:
                    t0 = perf_counter()
                    got = estimate(obj, x, ens, self.specs[(est, lam)])
                    out.latencies.append(perf_counter() - t0)
                    out.attempted += 1
                    if not checks.check_estimate(got, est, n, n, DIMS):
                        out.failed += 1
                    grads[(est, lam)] = got.grad
                    if sums is not None:
                        sums.add(est, n, got.grad)
            for lam in DEFAULT_LAMBDAS:
                a, b = grads[("one_sided", lam)], grads[("stosag", lam)]
                if np.abs(a - b).max() > 1e-12 * max(1.0, np.abs(b).max()):
                    out.failed += 2
            out.trials += 1
            out.estimates += PER_TRIAL
        return hi


class Descent(_Loop):
    """One estimate() per step on fresh ensembles and a new objective
    wrapper, as an optimisation loop makes per iterate: nothing is reused.
    The estimator cycles every step, lambda independently of it (11 and 12
    are coprime), and the (N, order) pair every 12 steps."""

    name = "descent"
    STEPS_PER_ROUND = 108  # every estimator at every (N, order) pair
    ESTIMATES_PER_STEP = 1
    STEPS_WARMUP = 12
    STEPS_VERIFY = 108
    STEPS_FIXED = 3888
    REFERENCE = REF_DESCENT

    def _steps(self, seed, lo, hi, out, sums=None):
        estimate = estimators.estimate
        for step in range(lo, hi):
            est = ESTIMATOR_IDS[step % 12]
            lam = DEFAULT_LAMBDAS[step % 11]
            pair = (step // 12) % 9
            n = LOOP_SIZES[pair % 3]
            order = ORDERS[pair // 3]
            sub = est in SUBSAMPLED_IDS
            x, u, vw = draw(seed, step, n, need_u=not sub, need_vw=sub)
            obj = estimators.CountingObjective(self.objectives[order])
            t0 = perf_counter()
            got = estimate(obj, x, vw if sub else u, self.specs[(est, lam)])
            out.latencies.append(perf_counter() - t0)
            out.attempted += 1
            if not checks.check_estimate(got, est, n, n, DIMS):
                out.failed += 1
            if sums is not None:
                sums.add(est, n, got.grad)
            out.trials += 1
            out.estimates += 1
        return hi


WORKLOADS = {w.name: w for w in (Grid, CliBench, Sweep, Descent)}
