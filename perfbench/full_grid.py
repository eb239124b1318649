"""Time one full default grid, serially, and hash its aggregated stats.

    python3 perfbench/full_grid.py

Runs `run_bench(BenchConfig(), workers=1)`: 12 estimators x orders {2,3,5} x
11 sizes x 11 lambdas x 10^4 trials, the run behind acceptance criteria 3
and 4. It takes minutes, so it is a recorded note, not a workload. Prints
one JSON line with the wall time and the stats SHA-256.
"""

import pin  # noqa: F401  (pins BLAS threads before numpy loads)

import json
import time

pin.require_src()

from checks import stats_sha256  # noqa: E402
from ensgrad.harness import BenchConfig, run_bench  # noqa: E402

if __name__ == "__main__":
    cfg = BenchConfig()
    t0 = time.perf_counter()
    res = run_bench(cfg, workers=1)
    wall = time.perf_counter() - t0
    print(json.dumps({"n_trials": cfg.n_trials, "workers": 1, "wall_s": round(wall, 3),
                      "stats_sha256": stats_sha256(res.stats)}))
