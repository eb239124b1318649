"""Record the default-seed references that `verify()` compares against.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are known good: a later change that
alters results must show that the change is intended before the references
are recorded again.
"""

import pin  # noqa: F401  (pins BLAS threads before numpy loads)

import gzip
import json
import os
import shutil

pin.require_src()

import checks  # noqa: E402
import workloads  # noqa: E402
from ensgrad import harness  # noqa: E402


def write_gz(name, data):
    with open(os.path.join(checks.REF_DIR, name), "wb") as f:
        with gzip.GzipFile(fileobj=f, mode="wb", mtime=0) as gz:
            gz.write(data)


def main():
    os.makedirs(checks.REF_DIR, exist_ok=True)
    os.makedirs(pin.OUT_DIR, exist_ok=True)

    grid = workloads.Grid()
    grid.setup()
    res = harness.run_bench(harness.BenchConfig(base_seed=workloads.DEFAULT_SEED,
                                                n_trials=grid.TRIALS),
                            workers=1, blocks_per_cell=grid.BLOCKS_PER_CELL)
    path = os.path.join(pin.OUT_DIR, "reference-grid.csv")
    harness.write_results_csv(path, harness.aggregate(res.stats))
    with open(path, "rb") as f:
        write_gz(workloads.REF_GRID, f.read())

    cli = workloads.CliBench()
    cli.setup()
    out_dir = os.path.join(pin.OUT_DIR, "reference-cli")
    cli._command(cli.VERIFY_TRIALS, workloads.DEFAULT_SEED, 1, out_dir)
    with open(os.path.join(out_dir, "results.csv"), "rb") as f:
        write_gz(workloads.REF_CLI, f.read())
    shutil.rmtree(out_dir)

    for loop in (workloads.Sweep(), workloads.Descent()):
        loop.setup()
        sums = loop.checksums(workloads.DEFAULT_SEED)
        with open(os.path.join(checks.REF_DIR, loop.REFERENCE), "w") as f:
            json.dump(sums.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
