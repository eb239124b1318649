"""The ensgrad benchmark.

    python3 perfbench/run.py --workload grid --seed 2026 --seconds 20 --trace 0

Workloads: grid, cli-bench-w2, sweep and descent, which BENCHMARK.json lists
with the reason for each. With `--trace 0` the run measures the end-to-end
metrics for `--seconds`, in reference seconds (see speed.py); with
`--trace 1` it alternates untraced and traced passes of a fixed amount of
work and reports the per-layer metrics. The metric names and units are read
from BENCHMARK.json at the root of the checkout. Every run checks the
program's outputs; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Each run also writes a
record, and with `--trace 1` its spans, under `.perfbench/`.
"""

import pin  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import speed

SETUP_SAMPLES = 11
TRACE_PAIRS = 3
WORKLOAD_NAMES = ("grid", "cli-bench-w2", "sweep", "descent")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: BenchConfig's base_seed, 2026)")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_spec():
    path = os.path.join(pin.ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def environment(seed, default_seed):
    """What a reader needs to compare two runs: the load and the versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    pkg = os.path.join(pin.SRC, "ensgrad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in pin.THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "default_seed": default_seed,
    }


def git_commit():
    """HEAD of the checkout's own .git, read as files (no git process, which
    could look above the checkout); None when the checkout has no .git."""
    git = os.path.join(pin.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def setup_sample(args, seed, mix):
    """Seconds from spawning a fresh benchmark process until its set-up
    (import, config build and validate, warm-up) is done, and the speed
    factor around them."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(seed), "--setup-only"]
    before = speed.sample(mix)
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    t1 = perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {line!r}")
    return t1 - t0, speed.factor(mix, before, speed.sample(mix))


def end_to_end(wl, args, seed):
    speed.kernel(wl.SPEED_MIX)  # the first repetition in a process runs slow
    setups = [setup_sample(args, seed, wl.SPEED_MIX) for _ in range(SETUP_SAMPLES)]
    setup_ref = [w * f for w, f in setups]
    timed = wl.timed(seed, args.seconds)
    check = wl.verify()
    if timed.cell_latencies:
        # the grid workloads: each cell's median over the rounds
        lat_us = [statistics.median(c) * 1e6 for c in zip(*timed.cell_latencies)]
        samples = f"n={len(lat_us)} cells, each the median of {len(timed.cell_latencies)} rounds"
    else:
        lat_us = [x * 1e6 for x in timed.latencies]
        samples = f"n={len(lat_us)} calls"
    round_s = statistics.median(timed.rounds)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "trials_per_s": timed.round_trials / round_s,
        "estimates_per_s": timed.round_estimates / round_s,
        "estimate_p50_us": float(np.percentile(lat_us, 50)),
        "estimate_p99_us": float(np.percentile(lat_us, 99)),
        "peak_rss_mb": timed.peak_rss_kb / 1024.0,
    }
    rounds = (f"median of {len(timed.rounds)} rounds of {timed.round_trials} trials, "
              f"{round_s:.4f} reference s each; raw {timed.trials / timed.wall:.6g}/s")
    info = {
        "setup_s": f"median of {len(setup_ref)} set-ups: "
                   + ", ".join(f"{s:.4f}" for s in setup_ref),
        "trials_per_s": rounds,
        "estimates_per_s": f"{timed.round_estimates} estimates per round",
        "estimate_p50_us": samples,
        "estimate_p99_us": f"{samples}; {sum(x > metrics['estimate_p99_us'] for x in lat_us)} above",
        "peak_rss_mb": "largest of the benchmark process and its pool workers" if wl.name == "cli-bench-w2"
                       else "of the benchmark process, at the end of the timed loop",
    }
    info["timing"] = {"rounds_ref_s": timed.rounds, "rounds_s": timed.raw_rounds,
                      "speed_samples_s": timed.speed_samples, "setup_ref_s": setup_ref,
                      "setup_s": [w for w, _ in setups]}
    return metrics, info, [timed, check]


def per_layer(wl, args, seed):
    """Alternates untraced and traced passes of the same fixed work, on
    inputs drawn for each pass; the per-layer metrics come from the traced
    passes together, `trace.overhead_s` is the median of the pairs' wall
    differences."""
    from tracer import Tracer, dump_spans, layer_metrics

    tracer = Tracer()
    parts, diffs, cpu_s, wall = [], [], 0.0, 0.0
    for i in range(TRACE_PAIRS):
        untraced = wl.fixed(seed, 2 * i)
        tracer.install()
        try:
            traced = wl.fixed(seed, 2 * i + 1)
        finally:
            tracer.uninstall()
        parts += [untraced, traced]
        diffs.append(traced.wall - untraced.wall)
        cpu_s += traced.cpu_s
        wall += traced.wall
    parts.append(wl.verify())
    metrics = layer_metrics(tracer)
    workers = getattr(wl, "WORKERS", 0)
    metrics["cli.cpu_util"] = cpu_s / (wall * workers) if workers else 0.0
    metrics["trace.overhead_s"] = statistics.median(diffs)
    spans_path = os.path.join(pin.OUT_DIR, f"spans-{wl.name}-s{seed}.jsonl")
    dump_spans(tracer, spans_path)
    info = {"trace.overhead_s": "median of " + ", ".join(f"{d:+.3f}" for d in diffs)
                                + f" s; {TRACE_PAIRS} traced passes took {wall:.3f} s",
            "spans": f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, pin.ROOT)}"}
    if wl.name == "cli-bench-w2":
        info["scope"] = ("spans, and so trace.overhead_s, cover the CLI's parent process "
                         "only, not its pool workers")
    return metrics, info, parts


def main(argv=None):
    args = parse_args(argv)
    pin.require_src()
    spec = load_spec()

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    os.makedirs(pin.OUT_DIR, exist_ok=True)
    env = environment(seed, workloads.DEFAULT_SEED)
    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        wanted = spec["per_layer"]
        values, info, parts = per_layer(wl, args, seed)
    else:
        wanted = spec["end_to_end"]
        values, info, parts = end_to_end(wl, args, seed)

    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = f"  ({info[m['name']]})" if m["name"] in info else ""
        print(f"{m['name']} = {value:.6g} {m['unit']}{extra}")
    for key in ("spans", "scope"):
        if key in info:
            print(f"{key}: {info[key]}")
    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    notes = [n for p in parts for n in p.notes]
    for note in notes:
        print("note " + note)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env, notes=notes, failed_frac=failed / attempted,
                  timing=info.get("timing"))
    with open(os.path.join(pin.OUT_DIR, f"run-{args.workload}-s{seed}-t{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
