"""Outside-in tracing of the package's layers.

`Tracer.install()` replaces public functions of the package modules with
wrappers that record one span per call: name, start, end and parent. Each
function is replaced under every name that binds it, so a function imported
into another module (`ensgrad.harness.hermite_value`) is caught where its
callers look it up. `numpy.linalg.svd` is wrapped the same way, for the
harness and `linalg` both call it. Nothing under `src/` is edited; the
wrappers are removed again by `uninstall()`.

Spans are kept in memory and reduced to per-layer metrics by
`layer_metrics()`. Only the process that installed the tracer records:
forked pool workers run the wrappers as pass-throughs, so for a multi-process
run the spans cover the parent process only.
"""

import functools
import inspect
import json
import math
import os
from collections import Counter
from time import perf_counter

import numpy as np

import ensgrad.cli as cli
import ensgrad.estimators as estimators
import ensgrad.harness as harness
import ensgrad.linalg as linalg
import ensgrad.objectives as objectives
import ensgrad.sampling as sampling

PACKAGE_MODULES = (sampling, objectives, linalg, estimators, harness, cli)

# span name -> the group whose outermost spans give an inclusive time
GROUPS = {
    "sampling.child_seed": "sampling.draw",
    "sampling.rng_from": "sampling.draw",
    "sampling.draw_ensemble": "sampling.draw",
    "sampling.recenter": "sampling.draw",
    "sampling.factor": "sampling.draw",
    "sampling.decorrelate": "sampling.decorrelate",
    "objectives.hermite_value": "objectives.hermite",
    "linalg.svd": "linalg.svd",
    "linalg.tikhonov_pinv": "linalg.pinv",
    "estimators.estimate": "estimators.estimate",
    "harness.run_bench": "harness.run_bench",
    "harness.merge_stats": "harness.merge",
    "harness.aggregate": "harness.aggregate",
    "harness.write_results_csv": "cli.write",
    "cli.write_manifest": "cli.write",
    "cli.pool": "cli.pool",
    "cli.main": "cli.main",
}

DRAW_CALLS = ("sampling.child_seed", "sampling.rng_from", "sampling.draw_ensemble",
              "sampling.recenter")

# evaluations a CountingObjective lookup asks for, by method: (X, U) -> count
REQUESTED = {
    "table": lambda X, U: np.shape(X)[1] * np.shape(U)[1],
    "pairs": lambda X, U: np.shape(U)[1],
    "grad_table": lambda X, U: np.shape(X)[1] * np.shape(U)[1],
    "grad_pairs": lambda X, U: np.shape(U)[1],
}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, counts, pid = self.spans, self._stack, self.counts, self.pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn, wrapped):
        for mod in PACKAGE_MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self):
        for mod, attr, after in (
            (sampling, "child_seed", None),
            (sampling, "rng_from", None),
            (sampling, "draw_ensemble", None),
            (sampling, "recenter", None),
            (sampling, "decorrelate", _count_collapse),
            (objectives, "hermite_value", _count_points),
            (linalg, "tikhonov_pinv", None),
            (estimators, "estimate", None),
            (harness, "run_bench", _count_blocks),
            (harness, "merge_stats", None),
            (harness, "aggregate", None),
            (harness, "write_results_csv", None),
            (cli, "write_manifest", None),
            (cli, "main", None),
        ):
            fn = getattr(mod, attr)
            wrapped = self._wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn, after)
            self._patch_everywhere(fn, wrapped)

        # the cli's own binding of run_bench also counts the calls it makes
        inner = cli.run_bench

        def cli_run_bench(*args, **kwargs):
            if os.getpid() == self.pid:
                self.counts["cli.run_bench_calls"] += 1
            return inner(*args, **kwargs)

        self._set(cli, "run_bench", cli_run_bench)

        self._set(sampling.GaussianSpec, "factor",
                  self._wrap("sampling.factor", sampling.GaussianSpec.factor))
        self._set(np.linalg, "svd", self._wrap("linalg.svd", np.linalg.svd, _count_matrices))

        for method, requested in REQUESTED.items():
            self._set(estimators.CountingObjective, method,
                      _counting_lookup(self, getattr(estimators.CountingObjective, method),
                                       requested))

        pool = harness.ProcessPoolExecutor
        traced_pool = type("TracedPool", (pool,), {
            "__init__": self._wrap("cli.pool", pool.__init__, _count_pool),
            "shutdown": self._wrap("cli.pool", pool.shutdown),
        })
        self._set(harness, "ProcessPoolExecutor", traced_pool)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _count_pool(counts, args, kwargs, out):
    counts["cli.pools"] += 1


def _count_collapse(counts, args, kwargs, out):
    if out.note == "rank-collapse":
        counts["sampling.rank_collapse"] += 1


def _count_points(counts, args, kwargs, out):
    counts["objectives.hermite_points"] += int(np.size(out))


def _count_matrices(counts, args, kwargs, out):
    counts["linalg.svd_matrices"] += math.prod(np.shape(args[0])[:-2])


_RUN_BENCH_SIG = inspect.signature(harness.run_bench)


def _count_blocks(counts, args, kwargs, out):
    """Blocks and trials a run_bench call scheduled, from its arguments:
    `blocks_per_cell` splits each (order, N) cell's trials evenly."""
    bound = _RUN_BENCH_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    cfg = bound.arguments["cfg"]
    block = max(1, math.ceil(cfg.n_trials / bound.arguments["blocks_per_cell"]))
    cells = len(cfg.hermite_orders) * len(cfg.ensemble_sizes)
    counts["harness.blocks"] += cells * math.ceil(cfg.n_trials / block)
    counts["harness.trials"] += cells * cfg.n_trials


def _counting_lookup(tracer, method, requested):
    """CountingObjective lookups: evaluations asked for, and evaluations the
    objective's own counters say were computed (the rest were cache hits)."""
    counts, pid = tracer.counts, tracer.pid

    @functools.wraps(method)
    def lookup(self, X, U):
        if os.getpid() != pid:
            return method(self, X, U)
        before = self.evals + self.grad_evals
        out = method(self, X, U)
        counts["estimators.evals_requested"] += requested(X, U)
        counts["estimators.evals"] += self.evals + self.grad_evals - before
        return out

    return lookup


# ---------------------------------------------------------------------------
# reduction


def layer_metrics(tracer):
    """Per-layer metrics from the recorded spans and counts. Self time of a
    layer is the time of its spans minus the time their child spans cover;
    a group's inclusive time counts only its outermost spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, incl = Counter(), Counter(), Counter()
    svd_in_pinv = 0
    for i, (name, t0, t1, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name.split(".")[0]] += (t1 - t0) - child[i]
        group = GROUPS[name]
        p = parent
        while p >= 0 and GROUPS[spans[p][0]] != group:
            p = spans[p][3]
        if p < 0:
            incl[group] += t1 - t0
        if name == "linalg.svd" and parent >= 0 and spans[parent][0] == "linalg.tikhonov_pinv":
            svd_in_pinv += 1

    c = tracer.counts
    pinv_calls = calls["linalg.tikhonov_pinv"]
    requested = c["estimators.evals_requested"]
    blocks = c["harness.blocks"]
    return {
        "sampling.draw_calls": sum(calls[n] for n in DRAW_CALLS),
        "sampling.draw_s": incl["sampling.draw"],
        "sampling.factor_calls": calls["sampling.factor"],
        "sampling.decorrelate_calls": calls["sampling.decorrelate"],
        "sampling.decorrelate_s": incl["sampling.decorrelate"],
        "sampling.rank_collapse": c["sampling.rank_collapse"],
        "objectives.hermite_calls": calls["objectives.hermite_value"],
        "objectives.hermite_points": c["objectives.hermite_points"],
        "objectives.hermite_s": incl["objectives.hermite"],
        "linalg.svd_calls": calls["linalg.svd"],
        "linalg.svd_matrices": c["linalg.svd_matrices"],
        "linalg.svd_s": incl["linalg.svd"],
        "linalg.pinv_calls": pinv_calls,
        "linalg.pinv_s": incl["linalg.pinv"],
        "linalg.svd_cache_hit_ratio": 1.0 - svd_in_pinv / pinv_calls if pinv_calls else 0.0,
        "estimators.calls": calls["estimators.estimate"],
        "estimators.self_s": self_s["estimators"],
        "estimators.evals": c["estimators.evals"],
        "estimators.eval_cache_hit_ratio":
            1.0 - c["estimators.evals"] / requested if requested else 0.0,
        "harness.self_s": self_s["harness"],
        "harness.blocks": blocks,
        "harness.trials_per_block": c["harness.trials"] / blocks if blocks else 0.0,
        "harness.merge_s": incl["harness.merge"],
        "harness.aggregate_s": incl["harness.aggregate"],
        "cli.pools": c["cli.pools"],
        "cli.pool_s": incl["cli.pool"],
        "cli.run_bench_calls": c["cli.run_bench_calls"],
        "cli.write_s": incl["cli.write"],
    }


def dump_spans(tracer, path):
    """Write the spans as JSON lines: [name, start, end, parent]."""
    with open(path, "w") as f:
        for rec in tracer.spans:
            f.write(json.dumps(rec) + "\n")
