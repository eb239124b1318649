"""Command line surface: exit codes, file outputs, manifests."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import re

import numpy as np
import pytest

from ensgrad import __version__
from ensgrad.cli import main
from ensgrad.estimators import ESTIMATOR_IDS, SUBSAMPLED_IDS, EstimatorSpec, estimate
from ensgrad.harness import (BenchConfig, RESULTS_HEADER, TRAJECTORY_HEADER, ResultRow,
                             aggregate, run_bench, select_best_lambda)
from ensgrad.objectives import hermite_objective
from ensgrad.sampling import (Ensemble, GaussianSpec, draw_ensemble, recenter,
                              write_ensemble_csv)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


checks = _load("checks")


def read_results(path):
    """The rows of a results CSV, parsed by perfbench's reader, not by the package."""
    return [ResultRow(*key, *rest) for key, *rest in checks.read_rows(path)]


BENCH_CFG = {
    "base_seed": 99,
    "n_trials": 3,
    "dims": 2,
    "hermite_orders": [0],
    "ensemble_sizes": [6],
    "lambda_grid": [0.0],
}


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    got = capsys.readouterr()
    return rc, got.out, got.err


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def write_values(path, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in arr) + "\n")
    return str(path)


def make_u(tmp_path, d=3, n=12, seed=4321, zero_mean=False):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(d, n))
    if zero_mean:
        u = u - u.mean(axis=1, keepdims=True)
    path = tmp_path / "u.csv"
    write_ensemble_csv(path, u)
    return u, str(path)


def parse_grad(out):
    return np.array([float(t) for t in out.strip().splitlines()[0].split(",")])


def check_manifest(out_dir, command):
    man = json.loads((out_dir / "manifest.json").read_text())
    assert man["command"] == command
    assert man["version"] == __version__
    blob = json.dumps(man["config"], sort_keys=True).encode()
    assert man["config_sha256"] == hashlib.sha256(blob).hexdigest()
    for name, digest in man["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
    return man


# ---------------------------------------------------------------------------
# bench


class TestBench:
    def test_order_zero_errors_vanish(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        out = tmp_path / "out"
        rc, _, _ = run(capsys, "bench", "--config", cfg, "--out", out)
        assert rc == 0
        rows = read_results(out / "results.csv")
        assert rows
        assert {r.estimator for r in rows} >= {"plain_lls", "fragile", "paired",
                                               "stosag", "avg_grad", "two_sided"}
        assert all(r.rmse <= 1e-12 and abs(r.bias) <= 1e-12 for r in rows)
        assert all(r.trials == 3 and r.order == 0 and r.n == 6 for r in rows)

    def test_same_config_same_bytes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "bench", "--config", cfg, "--out", a)[0] == 0
        assert run(capsys, "bench", "--config", cfg, "--out", b)[0] == 0
        for name in ("results.csv", "best_lambda.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json",
                        dict(BENCH_CFG, hermite_orders=[3], ensemble_sizes=[4]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "bench", "--config", cfg, "--out", a)[0] == 0
        assert run(capsys, "bench", "--config", cfg, "--out", b, "--seed", "100")[0] == 0
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_trials_override_lands_in_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        out = tmp_path / "out"
        assert run(capsys, "bench", "--config", cfg, "--out", out, "--trials", "5")[0] == 0
        assert all(r.trials == 5 for r in read_results(out / "results.csv"))

    def test_print_default_config_round_trips(self, capsys):
        rc, out, _ = run(capsys, "bench", "--print-default-config")
        assert rc == 0
        cfg = BenchConfig.from_dict(json.loads(out))
        cfg.validate()
        assert cfg == BenchConfig()

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.json", dict(BENCH_CFG, n_trials=0))
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        assert "n_trials" in err

    @pytest.mark.parametrize("name,value", [("base_seed", False), ("n_trials", True),
                                            ("dims", True), ("hermite_orders", [True])])
    def test_bool_for_int_exits_2(self, tmp_path, capsys, name, value):
        cfg = write_cfg(tmp_path / "bad.json", dict(BENCH_CFG, **{name: value}))
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        assert f"{name}: expected" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,values", [("hermite_orders", [0, 0]),
                                             ("ensemble_sizes", [6, 6]),
                                             ("estimators", ["stosag", "stosag"])])
    def test_repeated_entries_exit_2(self, tmp_path, capsys, name, values):
        cfg = write_cfg(tmp_path / "bad.json", dict(BENCH_CFG, **{name: values}))
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        assert f"{name}: repeated values" in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o", "--seed", -1)
        assert rc == 2
        assert "base_seed: expected non-negative int" in err
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        (tmp_path / "o").write_text("")
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        assert err.count("\n") == 1 and "File exists" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.json", dict(BENCH_CFG, bogus=1))
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        assert "unknown config keys" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc, _, err = run(capsys, "bench", "--config", p, "--out", tmp_path / "o")
        assert rc == 2

    @pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"],
                             ids=["nested-100000-deep", "utf16-bom"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, content):
        p = tmp_path / "cfg.json"
        p.write_bytes(content)
        rc, _, err = run(capsys, "bench", "--config", p, "--out", tmp_path / "o")
        assert rc == 2
        assert "invalid benchmark configuration: " in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc, _, err = run(capsys, "bench", "--config", tmp_path / "nope.json",
                         "--out", tmp_path / "o")
        assert rc == 2

    @pytest.mark.parametrize("cfg,field", [({"lambda_grid": ["a"]}, "lambda_grid"),
                                           ({"hermite_orders": 2}, "hermite_orders"),
                                           ({"charge_cached": "no"}, "charge_cached"),
                                           ({"x_cov": -1.0}, "x_cov"),
                                           ([0.1], "expected an object")])
    def test_ill_typed_config_exits_2_naming_the_field(self, tmp_path, capsys, cfg, field):
        p = write_cfg(tmp_path / "cfg.json", cfg)
        rc, _, err = run(capsys, "bench", "--config", p, "--out", tmp_path / "o")
        assert rc == 2
        assert f"invalid benchmark configuration: {field}" in err

    def test_manifest_hashes_and_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        out = tmp_path / "out"
        assert run(capsys, "bench", "--config", cfg, "--out", out)[0] == 0
        man = check_manifest(out, "bench")
        assert set(man["outputs"]) == {"results.csv", "best_lambda.csv"}
        assert man["config"]["n_trials"] == 3

    def test_best_lambda_has_one_row_per_cell(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json",
                        dict(BENCH_CFG, hermite_orders=[3], lambda_grid=[0.0, 1e-2]))
        out = tmp_path / "out"
        assert run(capsys, "bench", "--config", cfg, "--out", out)[0] == 0
        rows = read_results(out / "results.csv")
        best = read_results(out / "best_lambda.csv")
        keys = [(r.estimator, r.order, r.n) for r in best]
        assert len(keys) == len(set(keys))
        assert set(keys) == {(r.estimator, r.order, r.n) for r in rows}

    def test_partial_failure_keeps_good_cells(self, tmp_path, capsys, monkeypatch):
        import ensgrad.harness as harness_mod

        real = harness_mod.hermite_objective

        def flaky(order, dims):
            if order == 1:
                raise RuntimeError("synthetic cell failure")
            return real(order, dims)

        monkeypatch.setattr(harness_mod, "hermite_objective", flaky)
        cfg = write_cfg(tmp_path / "cfg.json", dict(BENCH_CFG, hermite_orders=[0, 1]))
        out = tmp_path / "out"
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", out)
        assert rc == 1
        assert "synthetic cell failure" in err
        rows = read_results(out / "results.csv")
        assert rows and all(r.order == 0 for r in rows)
        man = json.loads((out / "manifest.json").read_text())
        assert any("PARTIAL RESULTS" in note for note in man["notes"])

    @pytest.mark.parametrize("trials, blocks", [(3, 1), (200, 1), (201, 2)])
    def test_blocks_hold_at_most_200_trials(self, tmp_path, capsys, monkeypatch, trials, blocks):
        import ensgrad.cli as cli_mod

        real, got = cli_mod.run_bench, []

        def bench(cfg, workers=1, **kwargs):
            got.append((kwargs["blocks_per_cell"], cfg.hermite_orders, cfg.ensemble_sizes))
            return real(cfg, workers=workers, **kwargs)

        monkeypatch.setattr(cli_mod, "run_bench", bench)
        cfg = write_cfg(tmp_path / "cfg.json",
                        dict(BENCH_CFG, hermite_orders=[0, 2], ensemble_sizes=[6, 7]))
        rc, _, _ = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "out",
                       "--trials", trials)
        assert rc == 0
        # one call, running every order and size
        assert got == [(blocks, (0, 2), (6, 7))]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, workers):
        cfg = write_cfg(tmp_path / "cfg.json", BENCH_CFG)
        out = tmp_path / "out"
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", out, "--workers", workers)
        assert rc == 2
        assert "invalid benchmark configuration: --workers must be >= 1" in err
        assert not out.exists()

    def test_two_workers_same_bytes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", dict(BENCH_CFG, n_trials=4, hermite_orders=[2, 3],
                                                    lambda_grid=[0.0, 1e-2]))
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert run(capsys, "bench", "--config", cfg, "--out", a, "--workers", 1)[0] == 0
        assert run(capsys, "bench", "--config", cfg, "--out", b, "--workers", 2)[0] == 0
        for name in ("results.csv", "best_lambda.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_block_cells_start_no_pool(self, tmp_path, capsys, monkeypatch):
        import ensgrad.harness as harness_mod

        class NoPool(harness_mod.ProcessPoolExecutor):
            def __init__(self, *a, **kw):
                raise AssertionError("a pool started for one-block cells")

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", NoPool)
        rc, _, err = run(capsys, "bench", "--trials", 25, "--workers", 2, "--out", tmp_path / "o")
        assert rc == 0
        cfg = BenchConfig()
        cells = [(order, n) for n in cfg.ensemble_sizes for order in cfg.hermite_orders]
        assert err.splitlines() == [f"[{i}/33] order={order} N={n} done"
                                    for i, (order, n) in enumerate(cells, start=1)]

    def test_cell_line_prints_before_the_next_cell_runs(self, tmp_path, capsys, monkeypatch):
        import ensgrad.harness as harness_mod

        real, seen = harness_mod.hermite_objective, []

        def objective(order, dims):  # made once per order and block, before the block runs
            seen.append(capsys.readouterr().err.count(" done\n"))  # lines since the last cell
            return real(order, dims)

        monkeypatch.setattr(harness_mod, "hermite_objective", objective)
        cfg = write_cfg(tmp_path / "cfg.json",
                        dict(BENCH_CFG, hermite_orders=[0, 2, 3], ensemble_sizes=[5, 6]))
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 0
        assert seen == [0, 1, 1, 1, 1, 1]
        assert err == "[6/6] order=3 N=6 done\n"

    def _two_sizes_on_pools(self, tmp_path, capsys, monkeypatch, name, hook):
        """Orders 0 and 3 at N=6, then at N=7, with two workers and two
        blocks a cell; `hook` runs on the arguments of every call that
        harness makes to the public function `name`, before the call.
        Returns (rc, stderr, out dir, the pools made, the `workers` of each
        run_bench call)."""
        import ensgrad.cli as cli_mod
        import ensgrad.harness as harness_mod

        real, real_bench = getattr(harness_mod, name), cli_mod.run_bench
        pools, calls = [], []

        def patched(*args):
            hook(*args)
            return real(*args)

        class Pool(harness_mod.ProcessPoolExecutor):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                pools.append(self)

        def bench(cfg, workers=1, **kwargs):
            calls.append(workers)
            return real_bench(cfg, workers=workers, **kwargs)

        monkeypatch.setattr(harness_mod, name, patched)  # forked workers inherit it
        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli_mod, "run_bench", bench)
        cfg = write_cfg(tmp_path / "cfg.json",
                        dict(BENCH_CFG, hermite_orders=[0, 3], ensemble_sizes=[6, 7]))
        out = tmp_path / "out"
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", out, "--workers", 2,
                         "--trials", 201)
        return rc, err, out, pools, calls

    @staticmethod
    def assert_partial(out, kept):
        rows = read_results(out / "results.csv")
        assert {(r.order, r.n) for r in rows} == kept
        man = json.loads((out / "manifest.json").read_text())
        assert any("PARTIAL RESULTS" in note for note in man["notes"])

    def test_failing_cell_under_two_workers(self, tmp_path, capsys, monkeypatch):
        def fail(order, dims):  # once per order and block
            if order == 0:
                raise RuntimeError("synthetic block failure")

        rc, err, out, pools, calls = self._two_sizes_on_pools(tmp_path, capsys, monkeypatch,
                                                              "hermite_objective", fail)
        assert rc == 1
        assert "order=0 N=6: RuntimeError: synthetic block failure" in err
        assert "order=0 N=7: RuntimeError: synthetic block failure" in err
        self.assert_partial(out, {(3, 6), (3, 7)})
        assert len(pools) == 1 and calls == [2]

    def test_dead_worker_fails_only_its_cell(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die(batch, spec, lambdas):
            if batch.U.n == 6 and os.getpid() != parent:  # N=6's controls, not its pooled 2N
                os._exit(1)

        rc, err, out, pools, calls = self._two_sizes_on_pools(tmp_path, capsys, monkeypatch,
                                                              "estimate_batch", die)
        assert rc == 1
        # the dead worker's task ran both orders at N=6; N=7 runs on a new pool
        assert "order=0 N=6: BrokenProcessPool" in err
        assert "order=3 N=6: BrokenProcessPool" in err
        self.assert_partial(out, {(0, 7), (3, 7)})
        assert len(pools) == 2 and calls == [2]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_are_a_partial_result(self, tmp_path, capsys):
        # x-means of 1e80 overflow the order-6 Hermite values
        cfg = write_cfg(tmp_path / "cfg.json", {
            "n_trials": 2, "hermite_orders": [6], "ensemble_sizes": [5],
            "lambda_grid": [0.0], "x_mean": [1e80] * 5})
        out = tmp_path / "out"
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", out)
        assert rc == 1
        assert "non-finite" in err
        rows = read_results(out / "results.csv")
        assert all(np.isfinite(r.rmse) and np.isfinite(r.bias) for r in rows)
        man = json.loads((out / "manifest.json").read_text())
        assert any("PARTIAL RESULTS" in note for note in man["notes"])
        assert any("order=6 N=5" in note and "non-finite" in note for note in man["notes"])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_each_cell_with_non_finite_rows_says_how_many(self, tmp_path, capsys):
        # an x-mean of 1e30 in one dimension overflows some estimators' order-6 errors
        cfg = write_cfg(tmp_path / "cfg.json", {
            "n_trials": 2, "hermite_orders": [6, 2], "ensemble_sizes": [5, 3],
            "lambda_grid": [0.0, 0.1], "x_mean": [1e30, 0, 0, 0, 0]})
        out = tmp_path / "out"
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", out)
        assert rc == 1
        failures = err.splitlines()[4:]
        assert [line.split(":")[0] for line in failures] == ["order=6 N=5", "order=6 N=3"]
        rows = read_results(out / "results.csv")
        for line, n in zip(failures, (5, 3)):
            k, m = map(int, re.fullmatch(r"order=6 N=\d: (\d+) of (\d+) rows have a non-finite "
                                         r"rmse or bias; left out", line).groups())
            assert 0 < k < m == 24  # 12 estimators x 2 lambdas, some left
            assert sum(r.order == 6 and r.n == n for r in rows) == m - k

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_failure_lines_in_configured_cell_order(self, tmp_path, capsys):
        # progress goes N by N, but failures list the orders, then the sizes, as configured
        cfg = write_cfg(tmp_path / "cfg.json", {
            "n_trials": 2, "hermite_orders": [6, 5], "ensemble_sizes": [5, 3],
            "lambda_grid": [0.0], "x_mean": [1e80] * 5})
        rc, _, err = run(capsys, "bench", "--config", cfg, "--out", tmp_path / "out")
        assert rc == 1
        lines = err.splitlines()
        assert [line.split(" done")[0] for line in lines[:4]] == [
            "[1/4] order=6 N=5", "[2/4] order=5 N=5", "[3/4] order=6 N=3", "[4/4] order=5 N=3"]
        assert [line.split(":")[0] for line in lines[4:]] == [
            "order=6 N=5", "order=6 N=3", "order=5 N=5", "order=5 N=3"]


# The byte pins: `--seed 5` runs of the default grid and of PIN_CFG, which
# lists its orders, sizes, lambdas and estimators out of order and has 9 dims
# (numpy's pairwise sums over a row start at 8 entries); at 201 trials each cell
# has two blocks. The SHA-256 digests of results.csv and best_lambda.csv were
# recorded before the command built its rows from the per-cell arrays. The
# SVDs and matmuls behind them round as the BLAS build and the CPU make them,
# so the digests are checked where they were recorded; elsewhere
# `test_rows_match_the_per_key_path` still checks the rows.
PIN_CFG = {"hermite_orders": [5, 2], "ensemble_sizes": [10, 4], "lambda_grid": [0.1, 0.0, 0.003],
           "estimators": ["two_sided", "stosag", "avg_grad", "gen_stosag", "plain_lls", "decorr"],
           "dims": 9}
PIN_PLATFORM = ("2.4.6", "x86_64", ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"])
PINS = [
    (None, 25, 1, "2382439d7a82dfef201ca713e8ee8b59a8147f716d4517e8066164b629ad4986",
     "ac590d4ea9951e60480dfc75766b0ce43c7205cf71b901acde89ec03478554cf"),
    (PIN_CFG, 25, 1, "76b3e76f604f90a358ffc1ddfbe7f5afc521afb69a300ecda623d2f78cbd62d2",
     "7a7f67042c9ea1884f0a24f9770d2a7ba9a38d5911211470ac617efe127c6c70"),
    (PIN_CFG, 201, 2, "08471e3cffb2c3ae9399ffa211488c4f3e53c29c6fea0ae137bb13263a523654",
     "7f23df2dd379379c5e71112c5be1cf7d2415c877ce670f1a856c3008185dbb91"),
    (PIN_CFG, 201, 1, "08471e3cffb2c3ae9399ffa211488c4f3e53c29c6fea0ae137bb13263a523654",
     "7f23df2dd379379c5e71112c5be1cf7d2415c877ce670f1a856c3008185dbb91"),
]


def _platform():
    return (np.__version__, platform.machine(),
            np.show_config(mode="dicts")["SIMD Extensions"]["found"])


def _bench(capsys, tmp_path, cfg, trials, workers):
    out = tmp_path / "out"
    argv = ["bench", "--trials", trials, "--seed", 5, "--workers", workers, "--out", out]
    if cfg is not None:
        argv += ["--config", write_cfg(tmp_path / "cfg.json", cfg)]
    return run(capsys, *argv)[0], out


@pytest.mark.skipif(_platform() != PIN_PLATFORM,
                    reason="byte pins recorded with numpy 2.4.6 on x86_64 with AVX512_SPR")
@pytest.mark.parametrize("cfg,trials,workers,results,best", PINS,
                         ids=["default-t25", "pin-t25", "pin-t201-w2", "pin-t201-w1"])
def test_output_bytes_pinned(tmp_path, capsys, cfg, trials, workers, results, best):
    rc, out = _bench(capsys, tmp_path, cfg, trials, workers)
    assert rc == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == results
    assert hashlib.sha256((out / "best_lambda.csv").read_bytes()).hexdigest() == best


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cfg,trials,partial", [
    (PIN_CFG, 25, False), (PIN_CFG, 201, False),
    ({"hermite_orders": [6, 2], "ensemble_sizes": [5], "x_mean": [1e30, 0, 0, 0, 0]}, 3, True)],
    ids=["pin-t25", "pin-t201", "non-finite"])
def test_rows_match_the_per_key_path(tmp_path, capsys, cfg, trials, partial):
    # the reference: aggregate()'s rows of the library run, the finite ones,
    # and select_best_lambda over them, as csv.writer writes them
    rc, out = _bench(capsys, tmp_path, cfg, trials, 1)
    assert rc == partial
    lib = BenchConfig.from_dict(dict(cfg, n_trials=trials, base_seed=5))
    rows = [r for r in aggregate(run_bench(lib, blocks_per_cell=-(-trials // 200)).stats)
            if np.isfinite(r.rmse) and np.isfinite(r.bias)]
    for name, want in (("results.csv", rows), ("best_lambda.csv", select_best_lambda(rows))):
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([RESULTS_HEADER] + [
            (r.estimator, r.order, r.n, float(r.lam), r.rmse, r.bias, r.evals, r.trials)
            for r in want])
        assert (out / name).read_bytes() == buf.getvalue().encode()


# ---------------------------------------------------------------------------
# rastrigin


@pytest.fixture(scope="module")
def rastrigin_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ras")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["rastrigin", "--out", str(out)])
    return rc, out, buf.getvalue()


class TestRastrigin:
    def test_blurred_descent_ends_lower(self, rastrigin_run):
        rc, _, stdout = rastrigin_run
        assert rc == 0
        m = re.search(r"exact=([^ ]+) blurred=([^\s]+)", stdout)
        assert m, stdout
        assert float(m.group(2)) < float(m.group(1))

    def test_trajectory_files_and_header(self, rastrigin_run):
        _, out, _ = rastrigin_run
        for label in ("exact", "blurred"):
            with open(out / f"trajectories_{label}.csv", newline="") as f:
                header = tuple(next(csv.reader(f)))
            assert header == TRAJECTORY_HEADER

    def test_manifest_lists_all_outputs(self, rastrigin_run):
        _, out, _ = rastrigin_run
        man = check_manifest(out, "rastrigin")
        assert set(man["outputs"]) == {
            "trajectories_exact.csv", "trajectories_blurred.csv",
            "grid_exact.csv", "grid_blurred.csv",
        }
        assert man["config"]["step"] == 0.012

    def test_grids_cover_the_window(self, rastrigin_run):
        _, out, _ = rastrigin_run
        grid = np.linspace(-3.0, 3.0, 121)
        mid = grid[60]
        with open(out / "grid_blurred.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["u1", "u2", "loss"]
        assert len(rows) == 1 + 121 * 121
        vals = {(float(a), float(b)): float(c) for a, b, c in rows[1:]}
        centre = 25.0 - 10.0 * (np.exp(-2 * np.pi**2) + np.exp(-8 * np.pi**2))
        assert abs(vals[(mid, mid)] - centre) < 1e-9
        # quadratic term dominates the damped ripple along u1 = 0
        along = [vals[(mid, u2)] for u2 in grid[60:]]
        assert all(b > a for a, b in zip(along, along[1:]))
        with open(out / "grid_exact.csv", newline="") as f:
            ex = {(float(a), float(b)): float(c) for a, b, c in list(csv.reader(f))[1:]}
        assert ex[(mid, mid)] < 1e-12

    def test_zero_step_repeats_each_start(self, tmp_path, capsys):
        out = tmp_path / "ras0"
        rc, _, _ = run(capsys, "rastrigin", "--out", out, "--step", "0", "--steps", "3")
        assert rc == 0
        with open(out / "trajectories_blurred.csv", newline="") as f:
            r = csv.reader(f)
            next(r)
            points = {}
            for row in r:
                points.setdefault(row[0], set()).add((row[2], row[3]))
        assert len(points) == 5
        assert all(len(locs) == 1 for locs in points.values())

    def test_negative_step_exits_2(self, tmp_path, capsys):
        rc, _, err = run(capsys, "rastrigin", "--out", tmp_path / "x", "--step", "-0.01")
        assert rc == 2
        assert "step" in err

    @pytest.mark.parametrize("step", ["nan", "inf", "-inf"])
    def test_non_finite_step_exits_2(self, tmp_path, capsys, step):
        out = tmp_path / "x"
        rc, _, err = run(capsys, "rastrigin", "--out", out, f"--step={step}")
        assert rc == 2
        assert "step must be finite" in err
        assert not out.exists()

    def test_zero_steps_exits_2(self, tmp_path, capsys):
        assert run(capsys, "rastrigin", "--out", tmp_path / "x", "--steps", "0")[0] == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "x").write_text("")
        rc, out, err = run(capsys, "rastrigin", "--out", tmp_path / "x")
        assert rc == 2
        assert out == "" and err.count("\n") == 1 and "File exists" in err


# ---------------------------------------------------------------------------
# linear-check


class TestLinearCheck:
    def test_default_run_all_pass(self, capsys):
        rc, out, _ = run(capsys, "linear-check")
        assert rc == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_injected_sign_error_is_caught(self, capsys):
        rc, out, _ = run(capsys, "linear-check", "--inject-sign-error")
        assert rc == 1
        assert "FAIL stosag_exact" in out
        # the flip reaches stosag_exact alone: one_sided is still compared
        # with the unflipped stosag, and the lines keep their order
        _, clean, _ = run(capsys, "linear-check")
        lines, clean_lines = out.splitlines(), clean.splitlines()
        assert [line.split(":")[0].split()[1] for line in lines] == [
            "stosag_exact", "paired_error_formula", "decorr_zero", "one_sided_equals_stosag",
            "unbiased_paired_preconditioned", "unbiased_stosag_preconditioned"]
        assert lines[1:] == clean_lines[1:] and lines[0] != clean_lines[0]

    def test_zero_coupling_makes_paired_exact(self, capsys):
        rc, out, _ = run(capsys, "linear-check", "--zero-x-coupling")
        assert rc == 0
        assert "PASS paired_exact" in out

    def test_too_few_seeds_exits_2(self, capsys):
        assert run(capsys, "linear-check", "--seeds", "1")[0] == 2

    def test_size_below_dims_exits_2(self, capsys):
        assert run(capsys, "linear-check", "--size", "6")[0] == 2


# ---------------------------------------------------------------------------
# gradient


class TestGradient:
    def test_linear_row_recovers_coefficients(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        b = np.array([1.5, -2.0, 0.5])
        vals = write_values(tmp_path / "vals.csv", b @ u)
        for estimator, evals in (("paired", 12), ("fragile", 12)):
            rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                               "--values", vals, "--estimator", estimator)
            assert rc == 0, err
            np.testing.assert_allclose(parse_grad(out), b, rtol=0, atol=1e-10)
            assert f"evals={evals}" in err

    def test_stosag_needs_then_uses_mean_values(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        b = np.array([1.5, -2.0, 0.5])
        vals = write_values(tmp_path / "vals.csv", b @ u)
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "stosag")
        assert rc == 2
        assert "--mean-values" in err
        mv = write_values(tmp_path / "mv.csv", np.full(u.shape[1], b @ u.mean(axis=1)))
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--values", vals, "--estimator", "stosag",
                           "--mean-values", mv)
        assert rc == 0, err
        np.testing.assert_allclose(parse_grad(out), b, rtol=0, atol=1e-10)
        assert "cached=12" in err

    def test_stosag_bilinear_files_hit_the_target(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        d, n = 3, 10
        u, u_csv = make_u(tmp_path, d=d, n=n, seed=78, zero_mean=True)
        x = rng.normal(size=(d, n))
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, x)
        a_mat = rng.normal(size=(d, d))
        b_mat = rng.normal(size=(d, d))
        ones = np.ones(d)
        vals = write_values(tmp_path / "vals.csv", ones @ (a_mat @ x + b_mat @ u))
        mv = write_values(tmp_path / "mv.csv", ones @ (a_mat @ x))
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--ensemble-x", x_csv, "--values", vals,
                           "--estimator", "stosag", "--mean-values", mv)
        assert rc == 0, err
        np.testing.assert_allclose(parse_grad(out), ones @ b_mat, rtol=0, atol=1e-8)

    def test_two_sided_pooled_row(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3, n=8, seed=5)
        b = np.array([0.3, 1.1, -0.7])
        vals = write_values(tmp_path / "vals.csv", b @ u)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--values", vals, "--estimator", "two_sided")
        assert rc == 0, err
        np.testing.assert_allclose(parse_grad(out), b, rtol=0, atol=1e-10)
        assert "evals=8" in err

    def test_plain_table_mode_allows_m_not_n(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3, n=6)
        x = np.random.default_rng(9).normal(size=(2, 4))
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, x)
        b = np.array([2.0, 0.0, -1.0])
        vals = write_values(tmp_path / "vals.csv", np.tile(b @ u, (4, 1)))
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--ensemble-x", x_csv, "--values", vals,
                           "--estimator", "plain_lls")
        assert rc == 0, err
        np.testing.assert_allclose(parse_grad(out), b, rtol=0, atol=1e-10)
        assert "evals=24" in err

    def test_plain_row_mode_rejected(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3, n=6)
        vals = write_values(tmp_path / "vals.csv", np.zeros(6))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "plain_lls")
        assert rc == 2
        assert "M-by-N" in err

    def test_fragile_table_mode_rejected(self, tmp_path, capsys):
        # the mean x-member is none of the table's rows
        u, u_csv = make_u(tmp_path, d=3, n=6)
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, np.random.default_rng(9).normal(size=(2, 6)))
        vals = write_values(tmp_path / "vals.csv", np.zeros((6, 6)))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv, "--ensemble-x", x_csv,
                         "--values", vals, "--estimator", "fragile")
        assert rc == 2
        assert "covers 1 x-member" in err

    def test_paired_member_count_mismatch(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, n=12)
        x = np.random.default_rng(1).normal(size=(2, 5))
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, x)
        vals = write_values(tmp_path / "vals.csv", np.zeros(12))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--ensemble-x", x_csv, "--values", vals,
                         "--estimator", "paired")
        assert rc == 2
        assert "M == N" in err and "M=5" in err and "N=12" in err

    def test_subsampled_member_count_mismatch(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, n=8)
        x = np.random.default_rng(2).normal(size=(2, 3))
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, x)
        vals = write_values(tmp_path / "vals.csv", np.zeros(8))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--ensemble-x", x_csv, "--values", vals,
                         "--estimator", "two_sided")
        assert rc == 2
        assert "2*M = 6" in err and "got 8" in err

    def test_exactly_one_value_source(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        vals = write_values(tmp_path / "vals.csv", np.zeros(12))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--estimator", "paired")
        assert rc == 2
        assert "exactly one" in err
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--objective", "hermite1",
                         "--estimator", "paired")
        assert rc == 2

    def test_avg_grad_rejects_values(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        vals = write_values(tmp_path / "vals.csv", np.zeros(12))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "avg_grad")
        assert rc == 2
        assert "--objective" in err

    def test_values_column_count_mismatch(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, n=12)
        vals = write_values(tmp_path / "vals.csv", np.zeros(11))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "paired")
        assert rc == 2
        assert "columns" in err

    def test_non_numeric_values_cell(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, n=4)
        p = tmp_path / "vals.csv"
        p.write_text("1.0,2.0,oops,4.0\n")
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", p, "--estimator", "paired")
        assert rc == 2
        assert "headerless" in err

    def test_bad_ensemble_header(self, tmp_path, capsys):
        p = tmp_path / "u.csv"
        p.write_text("a,b\n1.0,2.0\n")
        rc, _, err = run(capsys, "gradient", "--ensemble-u", p,
                         "--objective", "hermite1", "--estimator", "avg_grad")
        assert rc == 2
        assert "dim_0" in err

    @staticmethod
    def repeated_member(tmp_path):
        """d = 2, N = 6 controls whose first two members are equal, and six
        x-members: files for a square value table."""
        rng = np.random.default_rng(12)
        u, x = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
        u[:, 1] = u[:, 0]
        u_csv, x_csv = tmp_path / "u.csv", tmp_path / "x.csv"
        write_ensemble_csv(u_csv, u)
        write_ensemble_csv(x_csv, x)
        return u, x, u_csv, x_csv

    def test_repeated_member_runs_with_values(self, tmp_path, capsys):
        # values are read by position: each copy gets its own column's value
        u, x, u_csv, x_csv = self.repeated_member(tmp_path)
        obj = hermite_objective(3, 2)
        vals = write_values(tmp_path / "vals.csv", [obj.pairs(x[:, [m]], u) for m in range(6)])
        got = [run(capsys, "gradient", "--ensemble-u", u_csv, "--ensemble-x", x_csv, *source,
                   "--estimator", "paired") for source in (("--values", vals),
                                                           ("--objective", "hermite3"))]
        assert got[0][0] == 0, got[0][2]
        assert got[0][1] == got[1][1]

    @pytest.mark.parametrize("estimator", ["mirrored2s", "decorr"])
    def test_antithetic_controls_are_not_looked_up(self, tmp_path, capsys, estimator):
        # the reflected controls v1, -v1, ... are the ensemble's own members
        # in another order, which a positional value table cannot serve
        rng = np.random.default_rng(23)
        v = rng.normal(size=(2, 3))
        u = np.stack([v, -v], axis=-1).reshape(2, 6)
        x = rng.normal(size=(2, 6))
        u_csv, x_csv = tmp_path / "u.csv", tmp_path / "x.csv"
        write_ensemble_csv(u_csv, u)
        write_ensemble_csv(x_csv, x)
        obj = hermite_objective(3, 2)
        vals = write_values(tmp_path / "vals.csv", [obj.pairs(x[:, [m]], u) for m in range(6)])
        mv = write_values(tmp_path / "mv.csv", obj.pairs(x, np.zeros((2, 1))))
        common = ("gradient", "--ensemble-u", u_csv, "--ensemble-x", x_csv, "--mean-u", "0,0",
                  "--estimator", estimator)
        rc, out, err = run(capsys, *common, "--values", vals, "--mean-values", mv)
        assert rc == 2 and out == ""
        assert "outside the provided ensemble; supply --objective" in err
        assert run(capsys, *common, "--objective", "hermite3")[0] == 0

    def test_repeated_member_runs_with_objective(self, tmp_path, capsys):
        u, x, u_csv, x_csv = self.repeated_member(tmp_path)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv, "--ensemble-x", x_csv,
                           "--objective", "hermite3", "--estimator", "paired")
        assert rc == 0, err
        expected = estimate(hermite_objective(3, 2), Ensemble(x, x.mean(axis=1)),
                            Ensemble(u, u.mean(axis=1), recentred=True),
                            EstimatorSpec(kind="paired")).grad
        np.testing.assert_allclose(parse_grad(out), expected, rtol=0, atol=1e-12)

    @staticmethod
    def drawn_files(tmp_path):
        """3 x 20 x-members and recentred controls, plus 40 pooled controls,
        drawn as the library draws them and written to CSV."""
        spec = GaussianSpec(np.zeros(3), 0.25)
        x = draw_ensemble(GaussianSpec(np.linspace(-1.0, 1.0, 3), 0.25), 20, 61)
        u = {n: recenter(draw_ensemble(spec, n, 62 + n)) for n in (20, 40)}
        for name, e in (("x", x), ("u20", u[20]), ("u40", u[40])):
            write_ensemble_csv(tmp_path / f"{name}.csv", e.members)
        return Ensemble(x.members, x.members.mean(axis=1)), u

    @pytest.mark.parametrize("estimator", ESTIMATOR_IDS)
    def test_objective_prints_the_library_bits(self, tmp_path, capsys, estimator):
        x, u = self.drawn_files(tmp_path)
        n = 40 if estimator in SUBSAMPLED_IDS else 20
        rc, out, err = run(capsys, "gradient", "--ensemble-u", tmp_path / f"u{n}.csv",
                           "--ensemble-x", tmp_path / "x.csv", "--mean-u", "0,0,0",
                           "--objective", "hermite5", "--estimator", estimator)
        assert rc == 0, err
        want = estimate(hermite_objective(5, 3), x, u[n], EstimatorSpec(kind=estimator)).grad
        assert out == ",".join(repr(float(g)) for g in want) + "\n"

    @pytest.mark.parametrize("estimator,layout", [
        (estimator, layout) for layout in ("row", "table")
        for estimator in ("paired", "fragile", "stosag", "one_sided", "two_sided",
                          "average_lls", "gen_stosag", "hybrid")
        if (estimator, layout) != ("fragile", "table")])  # its mean x-member is in no row
    def test_values_row_prints_what_the_objective_prints(self, tmp_path, capsys, estimator,
                                                          layout):
        # a row of the values at the pairs the estimator requests, or the
        # full table (M x 2M for the subsampled estimators), and the values
        # at the mean, give --objective's bytes
        x, u = self.drawn_files(tmp_path)
        n = 40 if estimator in SUBSAMPLED_IDS else 20
        members = x.members
        if estimator == "fragile":
            members = x.members.mean(axis=1, keepdims=True)
        elif estimator in SUBSAMPLED_IDS:
            members = np.repeat(x.members, 2, axis=1)
        obj = hermite_objective(5, 3)
        values = obj.pairs(members, u[n].members)
        if layout == "table":  # row m: x_m's values at every control
            values = [obj.pairs(x.members[:, [m]], u[n].members) for m in range(x.n)]
        vals = write_values(tmp_path / "vals.csv", values)
        mv = write_values(tmp_path / "mv.csv", obj.pairs(x.members, np.zeros((3, 1))))
        common = ("gradient", "--ensemble-u", tmp_path / f"u{n}.csv", "--ensemble-x",
                  tmp_path / "x.csv", "--mean-u", "0,0,0", "--estimator", estimator)
        rc, out, err = run(capsys, *common, "--values", vals, "--mean-values", mv)
        assert rc == 0, err
        assert out == run(capsys, *common, "--objective", "hermite5")[1]

    def test_named_objective_avg_grad_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        u = rng.normal(scale=0.1, size=(2, 5))
        x = rng.normal(size=(2, 4))
        u_csv, x_csv = tmp_path / "u.csv", tmp_path / "x.csv"
        write_ensemble_csv(u_csv, u)
        write_ensemble_csv(x_csv, x)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--ensemble-x", x_csv, "--objective", "hermite3",
                           "--estimator", "avg_grad")
        assert rc == 0, err
        obj = hermite_objective(3, 2)
        expected = np.mean(
            [obj.grad_u(x[:, i], u[:, j]) for i in range(4) for j in range(5)], axis=0
        )
        np.testing.assert_allclose(parse_grad(out), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("estimator", ["stosag", "avg_grad"])
    @pytest.mark.parametrize("dx", [4, 1])
    def test_hermite_x_dims_must_match_u(self, tmp_path, capsys, dx, estimator):
        # a hermite objective evaluates at x + u: a 4-row x would not broadcast,
        # and a 1-row x would broadcast silently
        u, u_csv = make_u(tmp_path, d=3, n=8, zero_mean=True)
        x_csv = tmp_path / "x.csv"
        write_ensemble_csv(x_csv, np.random.default_rng(5).normal(size=(dx, 8)))
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv, "--ensemble-x", x_csv,
                           "--objective", "hermite3", "--estimator", estimator)
        assert rc == 2 and out == ""
        assert f"--ensemble-x has {dx} dims, --ensemble-u has 3" in err

    def test_rastrigin_objective_needs_two_dims(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3)
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--objective", "rastrigin", "--estimator", "avg_grad")
        assert rc == 2
        assert "2-D" in err

    def test_unknown_objective_name(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--objective", "ackley", "--estimator", "avg_grad")
        assert rc == 2
        assert "unknown objective" in err

    def test_mean_u_length_mismatch(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3)
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--mean-u", "0.0,0.0", "--objective", "hermite1",
                         "--estimator", "paired")
        assert rc == 2
        assert "--mean-u" in err

    def test_nan_in_values_exits_2(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        row = np.zeros(12)
        row[5] = np.nan
        vals = write_values(tmp_path / "vals.csv", row)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--values", vals, "--estimator", "paired")
        assert rc == 2
        assert out == ""
        assert f"{vals}:1: non-finite" in err

    def test_inf_in_ensemble_exits_2(self, tmp_path, capsys):
        u = np.random.default_rng(5).normal(size=(3, 12))
        u[1, 3] = -np.inf
        u_csv = tmp_path / "u.csv"
        write_ensemble_csv(u_csv, u)
        vals = write_values(tmp_path / "vals.csv", np.zeros(12))
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--values", vals, "--estimator", "paired")
        assert rc == 2
        assert out == ""
        # the header is line 1, member k is on line k + 2
        assert f"{u_csv}:5: non-finite" in err

    def test_nan_in_mean_u_exits_2(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path, d=3)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--mean-u", "0.0,nan,0.0", "--objective", "hermite1",
                           "--estimator", "paired")
        assert rc == 2
        assert out == ""
        assert "--mean-u" in err and "non-finite" in err

    def test_precondition_flag_applies_sample_covariance(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        b = np.array([1.5, -2.0, 0.5])
        vals = write_values(tmp_path / "vals.csv", b @ u)
        rc, out, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                           "--values", vals, "--estimator", "paired",
                           "--precondition")
        assert rc == 0, err
        anoms = u - u.mean(axis=1, keepdims=True)
        expected = b @ (anoms @ anoms.T) / (u.shape[1] - 1)
        np.testing.assert_allclose(parse_grad(out), expected, rtol=0, atol=1e-10)

    def test_lambda_damps_the_estimate(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        b = np.array([1.5, -2.0, 0.5])
        vals = write_values(tmp_path / "vals.csv", b @ u)
        _, out0, _ = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "paired")
        rc, out1, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                            "--values", vals, "--estimator", "paired",
                            "--lambda", "0.5")
        assert rc == 0, err
        assert np.linalg.norm(parse_grad(out1)) < np.linalg.norm(parse_grad(out0))

    def test_negative_lambda_exits_2(self, tmp_path, capsys):
        u, u_csv = make_u(tmp_path)
        vals = write_values(tmp_path / "vals.csv", np.zeros(12))
        rc, _, err = run(capsys, "gradient", "--ensemble-u", u_csv,
                         "--values", vals, "--estimator", "paired",
                         "--lambda", "-0.1")
        assert rc == 2
