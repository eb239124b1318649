"""The benchmark's view of the package.

`perfbench/tracer.py` patches package names (`harness.run_bench`,
`harness.merge_stats`, `harness.ProcessPoolExecutor`, `cli.run_bench`, ...)
and `perfbench/checks.py` reads the fields of `BenchResult.stats`. Both are
imported here by path and run on a tiny grid, so a rename that would break
the traced benchmark run fails in the test suite first.
"""

import importlib.util
import json
import pathlib

import ensgrad.cli as cli
import ensgrad.harness as harness
from ensgrad.harness import BenchConfig

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
CFG = BenchConfig(base_seed=7, n_trials=4, hermite_orders=(2,), ensemble_sizes=(6,),
                  lambda_grid=(0.0, 1e-2))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _patched():
    return (harness.run_bench, harness.merge_stats, harness.aggregate,
            harness.ProcessPoolExecutor, cli.run_bench, cli.main)


def test_traced_run_reads_the_package(tmp_path):
    tracer_mod, checks = _load("tracer"), _load("checks")
    patched = _patched()
    untraced = checks.stats_sha256(harness.run_bench(CFG, blocks_per_cell=2).stats)

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(CFG.to_dict()))
    tracer = tracer_mod.Tracer().install()
    try:
        res = harness.run_bench(CFG, workers=1, blocks_per_cell=2)
        rows = harness.aggregate(res.stats)
        # 201 trials make two blocks a cell, so the CLI starts its pool
        assert cli.main(["bench", "--config", str(config), "--workers", "2", "--trials", "201",
                         "--out", str(tmp_path / "out")]) == 0
        metrics = tracer_mod.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert _patched() == patched

    assert checks.stats_sha256(res.stats) == untraced
    keys = checks.expected_keys(CFG.hermite_orders, CFG.ensemble_sizes, CFG.lambda_grid)
    assert checks.check_rows([checks.as_row(r) for r in rows], keys, CFG.n_trials) == 0
    # 2 blocks from the direct call, 2 from the CLI's one cell of 201 trials
    assert metrics["harness.blocks"] == 4
    assert metrics["cli.run_bench_calls"] == 1
    assert metrics["cli.pools"] == 1
    assert metrics["objectives.hermite_calls"] > 0
    assert metrics["linalg.svd_matrices"] > 0
    assert metrics["harness.aggregate_s"] > 0
    # the CLI's results write goes through the traced harness.write_results_csv
    # (cli.write_s also counts write_manifest, so the span is checked by name)
    assert metrics["cli.write_s"] > 0
    assert any(span[0] == "harness.write_results_csv" for span in tracer.spans)
