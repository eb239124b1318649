"""Pins the process load and locates the package under test.

Import this module first, before numpy, in every benchmark process: BLAS and
OpenMP read their thread counts once, when numpy loads them. With one thread
per process, the two workers of `cli-bench-w2` match the two cores the
benchmark was sized on, and a run's timing does not depend on how many idle
cores the BLAS pool happens to find.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if "numpy" in sys.modules:
    raise RuntimeError("perfbench.pin must be imported before numpy")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# scratch space for outputs and span dumps; listed in the root .gitignore
OUT_DIR = os.path.join(ROOT, ".perfbench")


def require_src():
    """Put the checkout's own `src/` first on the import path (and on the
    path of child processes); exit 2 when the package is not there."""
    if not os.path.isfile(os.path.join(SRC, "ensgrad", "__init__.py")):
        print(f"perfbench: no package at {SRC}/ensgrad; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
