"""The benchmark's view of the package.

`perfbench/tracer.py` patches package names (`harness.run_bench`,
`harness.merge_stats`, `harness.ProcessPoolExecutor`, `cli.run_bench`, ...)
and `perfbench/checks.py` reads the fields of `BenchResult.stats`. Both are
imported here by path and run on a tiny grid, so a rename that would break
the traced benchmark run fails in the test suite first.
"""

import json

import pytest

import ensgrad.cli as cli
import ensgrad.harness as harness
from ensgrad.harness import BenchConfig

from test_cli import PIN_PLATFORM, _load, _platform

CFG = BenchConfig(base_seed=7, n_trials=4, hermite_orders=(2,), ensemble_sizes=(6,),
                  lambda_grid=(0.0, 1e-2))


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


@pytest.mark.skipif(_platform() != PIN_PLATFORM,
                    reason="digests recorded with numpy 2.4.6 on x86_64 with AVX512_SPR")
@pytest.mark.parametrize("cfg,workers,digest", [
    (BenchConfig(n_trials=200), 1,
     "4931b6305e8b2c5c958bc78b83d0074b65ff9dc6903ea31d6cc923ff0b2d5801"),
    (BenchConfig(n_trials=25, base_seed=5), 1,
     "b6ac1405a4c8a54bd52a6975b4936052a1a897d12f038e645bb776a9a7f7f1ba"),
    (BenchConfig(n_trials=25, base_seed=5), 2,
     "b6ac1405a4c8a54bd52a6975b4936052a1a897d12f038e645bb776a9a7f7f1ba"),
], ids=["t200", "t25-seed5-w1", "t25-seed5-w2"])
def test_stats_digest_pinned(cfg, workers, digest):
    # the hash the benchmark's grid and full_grid.py report, over res.stats
    res = harness.run_bench(cfg, workers=workers, blocks_per_cell=1)
    assert _load("checks").stats_sha256(res.stats) == digest
