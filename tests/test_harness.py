"""Benchmark harness: accumulation, the batched blocks, aggregation, descent."""

import hashlib
import json
import os
import pickle
import re
from concurrent.futures import Executor
from dataclasses import fields, replace

import numpy as np
import pytest

from ensgrad.estimators import ESTIMATOR_IDS
from ensgrad.harness import (
    CONFIG_FIELDS,
    MAX_DIMS,
    BenchConfig,
    CellTotals,
    ConfigError,
    DescentConfig,
    ErrorStats,
    ResultRow,
    _run_group,
    aggregate,
    block_arrays,
    bootstrap_band,
    cell_tables,
    merge_stats,
    run_bench,
    run_trial,
    select_best_lambda,
    steepest_descent,
    variance_improvement,
    write_results_csv,
)
from ensgrad.objectives import MAX_HERMITE_ORDER
from ensgrad.sampling import GaussianSpec

from golden_fixture import trial_stats
from test_cli import read_results

SMALL = BenchConfig(
    base_seed=515,
    n_trials=40,
    dims=3,
    hermite_orders=(3,),
    ensemble_sizes=(6,),
    lambda_grid=(0.0, 1e-2),
)


class TestBenchConfig:
    def test_defaults_validate(self):
        BenchConfig().validate()

    def test_round_trip_dict(self):
        cfg = SMALL
        again = BenchConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            BenchConfig.from_dict({"n_trials": 2, "bogus": 1})

    def test_field_diagnostics_name_the_field(self):
        with pytest.raises(ConfigError, match="n_trials"):
            BenchConfig(n_trials=0).validate()
        with pytest.raises(ConfigError, match="hermite_orders"):
            BenchConfig(hermite_orders=(9,)).validate()
        with pytest.raises(ConfigError, match="estimators"):
            BenchConfig(estimators=("stosag", "nope")).validate()
        with pytest.raises(ConfigError, match="lambda_grid"):
            BenchConfig(lambda_grid=(-0.1,)).validate()
        with pytest.raises(ConfigError, match="lambda_grid: repeated"):
            BenchConfig(lambda_grid=(0.0, 1e-2, -0.0)).validate()
        with pytest.raises(ConfigError, match="truth"):
            BenchConfig(truth="exact").validate()
        with pytest.raises(ConfigError, match="u_mean"):
            BenchConfig(u_mean=(0.0, 0.0)).validate()

    @pytest.mark.parametrize("name,values", [("hermite_orders", (2, 2)),
                                             ("ensemble_sizes", (5, 5)),
                                             ("estimators", ("stosag", "stosag"))])
    def test_repeated_entries_rejected(self, name, values):
        # a repeat would run the same trials twice and count them twice
        with pytest.raises(ConfigError, match=f"{name}: repeated values"):
            BenchConfig(n_trials=4, **{name: values}).validate()

    @pytest.mark.parametrize("name,value", [("base_seed", False), ("n_trials", True),
                                            ("dims", True), ("hermite_orders", [2, True]),
                                            ("ensemble_sizes", [True]), ("m_members", True),
                                            ("base_seed", -1), ("lambda_grid", [True, False]),
                                            ("u_mean", [True, 0.0, 0.0]),
                                            ("x_mean", [True, True, True]), ("u_cov", True),
                                            ("x_cov", [0.25, False, 0.25])])
    def test_bools_are_not_ints(self, name, value):
        # JSON's true/false load as bools, which Python counts as ints
        with pytest.raises(ConfigError, match=f"{name}: expected"):
            BenchConfig.from_dict(dict(SMALL.to_dict(), **{name: value}))

    @pytest.mark.parametrize("name,value", [("lambda_grid", ["a"]), ("lambda_grid", [None]),
                                            ("lambda_grid", [[0.1]]), ("lambda_grid", 0.1),
                                            ("lambda_grid", [10**400]),
                                            ("hermite_orders", 2), ("ensemble_sizes", "55"),
                                            ("estimators", "stosag"), ("estimators", [["stosag"]]),
                                            ("u_mean", ["a", 0.0, 0.0]), ("x_mean", [None] * 3),
                                            ("u_mean", [[0.0], [0.0, 0.0], [0.0]]),
                                            ("charge_cached", "no"), ("u_cov", float("nan")),
                                            ("x_mean", [float("inf"), 0.0, 0.0]),
                                            ("u_mean", [10**400, 0.0, 0.0]),
                                            ("x_cov", [0.25, -float("inf"), 0.25]),
                                            ("hermite_orders", [MAX_HERMITE_ORDER + 1]),
                                            ("dims", MAX_DIMS + 1), ("dims", 10**400),
                                            ("u_cov", [[[0.01]]])])
    def test_ill_typed_fields_are_config_errors_naming_the_field(self, name, value):
        # JSON strings, nulls, nested lists and scalars where a list belongs
        with pytest.raises(ConfigError, match=f"^{name}: expected"):
            BenchConfig.from_dict(dict(SMALL.to_dict(), **{name: value}))

    @pytest.mark.parametrize("value", [[], [SMALL.to_dict()], "cfg", 3, None])
    def test_config_that_is_not_an_object_rejected(self, value):
        with pytest.raises(ConfigError, match="expected an object"):
            BenchConfig.from_dict(value)

    def test_bad_covariance_reported(self):
        with pytest.raises(ConfigError, match="u_cov"):
            BenchConfig(u_cov=-1.0).validate()

    @pytest.mark.parametrize("name", ["u_cov", "x_cov"])
    @pytest.mark.parametrize("cov", [-1.0, [0.25, -0.25, 0.25], [[1.0, 2.0], [2.0, 1.0]],
                                     np.eye(3).tolist(), [[1.0, 0.0], [0.0]], [],
                                     [[1e308, 1e308], [1e308, 1e308]]])
    def test_each_covariance_is_factored_on_its_own(self, name, cov):
        # negative, indefinite, mis-shaped, ragged and overflowing covariances,
        # at dims = 2
        with pytest.raises(ConfigError, match=f"^{name}: [^;]*$"):
            BenchConfig(dims=2, **{name: cov}).validate()

    def test_field_table_covers_every_field(self):
        assert list(CONFIG_FIELDS) == [f.name for f in fields(BenchConfig)]

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="^n_trials: expected"):
            BenchConfig(n_trials=0)
        with pytest.raises(ConfigError, match="^dims: expected"):
            replace(SMALL, dims=2.5)

    # The same values in the forms a caller may give them: lists, tuples, arrays (0-d too) and
    # numpy numbers, with the SHA-256 of their sorted JSON (a manifest's `config_sha256`) as it
    # was before configs kept one form, when all but the last form of each could be serialised.
    FORMS = [
        ({"u_mean": [0.5, -1.0], "u_cov": [[0.25, 0.0625], [0.0625, 0.5]], "x_cov": 0.125},
         {"u_mean": (0.5, -1.0), "u_cov": ((0.25, 0.0625), (0.0625, 0.5)),
          "x_cov": np.float64(0.125)},
         {"u_mean": np.array([0.5, -1.0]), "u_cov": np.array([[0.25, 0.0625], [0.0625, 0.5]]),
          "x_cov": np.array(0.125)},
         {"u_mean": (np.float32(0.5), -1.0), "u_cov": (np.array([0.25, 0.0625]),
                                                       (np.float32(0.0625), 0.5)),
          "x_cov": np.float32(0.125)},
         {"u_mean": [np.float32(0.5), -1.0], "u_cov": [np.array([0.25, 0.0625]),
                                                       (np.float32(0.0625), 0.5)],
          "x_cov": np.float32(0.125)}),
        ({"x_cov": [1, 2]}, {"x_cov": (1, 2)}, {"x_cov": np.array([1, 2])},
         {"x_cov": [np.int64(1), np.uint8(2)]}),
    ]
    FORM_SHA256 = ("7e8a8b5444dab8baf620c92d416f92e0dd58479fca56ac8d7137cb4239e93cec",
                   "99dc8042d6793127e290734dd8e9ea67f9671c677731120958256dad1b227ddb")

    @pytest.mark.parametrize("forms,sha", list(zip(FORMS, FORM_SHA256)), ids=["floats", "ints"])
    def test_every_form_of_a_value_gives_one_config(self, forms, sha):
        cfgs = [BenchConfig(dims=2, **form) for form in forms]
        for cfg in cfgs:
            assert cfg == cfgs[0] and hash(cfg) == hash(cfgs[0])
            blob = json.dumps(cfg.to_dict(), sort_keys=True)
            assert BenchConfig.from_dict(json.loads(blob)) == cfg
            assert hashlib.sha256(blob.encode()).hexdigest() == sha
            for kept, fresh in zip((cfg.u_spec(), cfg.x_spec()), fresh_specs(cfg)):
                assert_same_spec(kept, fresh)

    def test_descent_starts_in_any_form_give_one_config(self):
        starts = [[1.0, -2.0], [0.5, np.float32(0.25)]]
        cfgs = [DescentConfig(starts=form) for form in
                (starts, tuple(map(tuple, starts)), np.array(starts))]
        for cfg in cfgs:
            assert cfg == cfgs[0] and hash(cfg) == hash(cfgs[0])
        assert cfgs[0].starts == ((1.0, -2.0), (0.5, 0.25))

    def test_numpy_scalars_run_with_the_same_bits(self):
        # the np.int64 and np.bool_ that EstimatorSpec takes; to_dict keeps them JSON-safe
        cfg = BenchConfig(base_seed=np.int64(515), n_trials=np.int64(40), dims=np.int64(3),
                          hermite_orders=(np.int64(3),), ensemble_sizes=(np.uint8(6),),
                          lambda_grid=(np.float64(0.0), np.float64(1e-2)),
                          charge_cached=np.bool_(False))
        assert json.loads(json.dumps(cfg.to_dict())) == SMALL.to_dict()
        got = run_bench(cfg, workers=np.int64(1), blocks_per_cell=np.int16(2))
        want = run_bench(SMALL, blocks_per_cell=2)
        assert got.cells.keys() == want.cells.keys()
        for key, cell in want.cells.items():
            assert got.cells[key].sums.tobytes() == cell.sums.tobytes()


def fresh_specs(cfg):
    """The u and x `GaussianSpec`s built anew from a config's stored fields."""
    u_mean = np.zeros(cfg.dims) if cfg.u_mean is None else cfg.u_mean
    x_mean = np.linspace(-2.0, 2.0, cfg.dims) if cfg.x_mean is None else cfg.x_mean
    return GaussianSpec(u_mean, cfg.u_cov), GaussianSpec(x_mean, cfg.x_cov)


def assert_same_spec(a, b):
    for name in ("mean", "cov", "variances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.factor(), b.factor())


# dims 20 and N = 100 make sub-batches of 10 trials
KEPT = BenchConfig(n_trials=10, dims=20, hermite_orders=(2, 3), ensemble_sizes=(100,),
                   lambda_grid=(0.0, 1e-2), estimators=("stosag", "gen_stosag", "avg_grad"))
FULL_COV = 0.01 * (0.5 * np.eye(20) + 0.5)  # positive definite, each pair correlated 1/2


class TestKeptSpecs:
    """A config keeps the specs its check built: a run builds none, and
    reads them without a copy."""

    @pytest.mark.parametrize("u_cov", [0.01, FULL_COV], ids=["scalar", "full"])
    @pytest.mark.parametrize("n_trials", [10, 30], ids=["1-sub-batch", "3-sub-batches"])
    @pytest.mark.parametrize("orders", [(3,), (2, 3, 5)], ids=["1-order", "3-orders"])
    def test_a_run_builds_no_spec(self, monkeypatch, u_cov, n_trials, orders):
        import ensgrad.harness as harness_mod

        cfg = replace(KEPT, n_trials=n_trials, u_cov=u_cov, hermite_orders=orders)
        built, draws, real_init = [], [], GaussianSpec.__post_init__
        real_draw = harness_mod.child_normals

        def init(spec):
            built.append(spec)
            real_init(spec)

        def draw(*args):  # once per sub-batch
            draws.append(args)
            return real_draw(*args)

        monkeypatch.setattr(GaussianSpec, "__post_init__", init)
        monkeypatch.setattr(harness_mod, "child_normals", draw)
        res = run_bench(cfg, blocks_per_cell=1)
        assert len(draws) == n_trials // 10  # the block's sub-batches
        run_trial(cfg, 3, 100, n_trials - 1)
        assert not res.failures and len(res.stats) == len(orders) * 3 * 2
        assert built == []

    def test_config_unchanged_by_a_run(self):
        cfg = replace(KEPT, u_cov=FULL_COV)
        before = (hash(cfg), cfg.to_dict(), pickle.dumps(cfg))
        run_bench(cfg, blocks_per_cell=1)
        assert (hash(cfg), cfg.to_dict(), pickle.dumps(cfg)) == before
        again = pickle.loads(before[2])
        assert again == cfg and hash(again) == hash(cfg)
        for a, b in zip((again.u_spec(), again.x_spec()), (cfg.u_spec(), cfg.x_spec())):
            assert_same_spec(a, b)

    def test_replace_gets_its_own_specs(self):
        cfg = replace(KEPT, u_cov=FULL_COV)
        other = replace(cfg, u_cov=np.diag(FULL_COV))
        assert other.x_spec() is not cfg.x_spec()
        for kept, fresh in zip((other.u_spec(), other.x_spec()), fresh_specs(other)):
            assert_same_spec(kept, fresh)
        assert other.u_spec().cov.shape == (20,) and cfg.u_spec().cov.shape == (20, 20)

    def test_a_run_reads_the_kept_means_read_only(self, monkeypatch):
        import ensgrad.harness as harness_mod

        real, batches = harness_mod.estimate_batch, []

        def kept(batch, spec, lambdas):
            batches.append(batch)
            return real(batch, spec, lambdas)

        monkeypatch.setattr(harness_mod, "estimate_batch", kept)
        run_bench(KEPT, blocks_per_cell=1)
        assert batches
        for batch in batches:
            assert batch.X.true_mean is KEPT.x_spec().mean
            assert batch.U.true_mean is KEPT.u_spec().mean
            for ens in (batch.X, batch.U):
                with pytest.raises(ValueError, match="read-only"):
                    ens.true_mean[0] = 1.0


def _stats(errors, evals=0):
    """The record of (T, d) signed errors."""
    return ErrorStats(errors.sum(axis=0), (errors**2).sum(axis=0), len(errors), evals, 0)


class TestErrorStats:
    def test_two_point_example(self):
        # errors {+1, -1} on one dimension: rmse 1, bias 0
        rows = aggregate({("paired", 3, 6, 0.0): _stats(np.array([[1.0], [-1.0]]))})
        assert rows[0].rmse == pytest.approx(1.0)
        assert rows[0].bias == pytest.approx(0.0)

    def test_gaussian_moments(self):
        # N(0.5, 1) errors: rmse -> sqrt(1.25), bias -> 0.5
        g = np.random.default_rng(0)
        st = _stats(g.normal(0.5, 1.0, size=(100_000, 2)))
        rows = aggregate({("stosag", 3, 6, 0.0): st})
        assert rows[0].rmse == pytest.approx(np.sqrt(1.25), rel=0.01)
        assert rows[0].bias == pytest.approx(0.5, rel=0.01)

    def test_rmse_dominates_bias_per_dim(self):
        g = np.random.default_rng(1)
        st = _stats(g.standard_normal((500, 4)) + g.standard_normal(4))
        assert np.all(st.sum_sq / st.n >= (st.sum_err / st.n) ** 2)
        rows = aggregate({("paired", 2, 4, 0.0): st})
        assert rows[0].rmse >= rows[0].bias

    def test_merge_requires_same_contract(self):
        # a contract that differs on a later key leaves the earlier keys unmerged too
        a, b = _stats(np.ones((1, 2)), evals=10), _stats(np.ones((1, 2)), evals=10)
        into = {"k1": a, "k2": a}
        with pytest.raises(ValueError, match="contracts"):
            merge_stats(into, {"k1": b, "k2": _stats(np.zeros((0, 2)), evals=12)})
        assert into["k1"] is a and into["k2"] is a

    def test_merge_stats_accumulates(self):
        key = ("paired", 2, 4, 0.0)
        a = {key: _stats(np.array([[1.0]]))}
        b = {key: _stats(np.array([[2.0]]))}
        first = a[key]
        merged = merge_stats(a, b)
        assert merged is a
        assert merged[key].n == 2
        assert merged[key].sum_err[0] == 3.0
        assert (first.n, first.sum_err[0]) == (1, 1.0)  # a new record, not written in place

    def test_merge_stats_writes_no_cell(self):
        cfg = BenchConfig(n_trials=4, hermite_orders=(3,), ensemble_sizes=(6,),
                          lambda_grid=(0.0, 0.1), estimators=("stosag", "paired"))
        a, b = run_bench(cfg), run_bench(replace(cfg, base_seed=7))
        cell = a.cells[(3, 6)]
        sums, trials = cell.sums.tobytes(), cell.trials.tobytes()
        rows = cell_tables(3, 6, cell, a.lambda_grid)
        merged = merge_stats(dict(a.stats), b.stats)
        assert merged[("paired", 3, 6, 0.0)].n == 8
        assert (cell.sums.tobytes(), cell.trials.tobytes()) == (sums, trials)
        assert cell_tables(3, 6, cell, a.lambda_grid) == rows
        assert [r.trials for r in aggregate(a.stats)] == [4] * 4
        st = a.stats[("paired", 3, 6, 0.0)]
        with pytest.raises(ValueError, match="read-only"):
            st.sum_err += 1
        with pytest.raises(ValueError, match="read-only"):
            cell.block_trials[0, 0] = 0


class TestRunTrial:
    def test_deterministic_replay(self):
        a = run_trial(SMALL, 3, 6, trial_index=7)
        b = run_trial(SMALL, 3, 6, trial_index=7)
        for est in a.errors:
            assert np.array_equal(a.errors[est], b.errors[est])

    def test_order_zero_all_near_zero(self):
        cfg = BenchConfig(base_seed=1, n_trials=1, dims=3,
                          hermite_orders=(0,), ensemble_sizes=(6,),
                          lambda_grid=(0.0,))
        out = run_trial(cfg, 0, 6, 0)
        for est, rows in out.errors.items():
            assert np.abs(rows).max() < 1e-10, est

    def test_order_one_exact_except_paired(self):
        # constant gradient: regression recovers it exactly; paired leaks
        # x-noise, average_lls averages rank-1 projections, and hybrid's
        # pooled covariance only matches the group average asymptotically
        cfg = BenchConfig(base_seed=2, n_trials=1, dims=3,
                          hermite_orders=(1,), ensemble_sizes=(8,),
                          lambda_grid=(0.0,))
        out = run_trial(cfg, 1, 8, 0)
        for est, rows in out.errors.items():
            if est == "paired":
                assert np.abs(rows).max() > 1e-3
            elif est not in ("average_lls", "hybrid"):
                assert np.abs(rows).max() < 1e-8, est

    # (new, cached) evaluations per trial at M = N = 6, as in the README;
    # the subsampled family sees a pooled ensemble of 2M controls
    CONTRACT = {
        "plain_lls": (36, 0),
        "fragile": (6, 0),
        "paired": (6, 0),
        "stosag": (6, 6),
        "average_lls": (12, 0),
        "gen_stosag": (12, 0),
        "hybrid": (12, 0),
        "two_sided": (12, 0),
        "mirrored2s": (12, 0),
        "one_sided": (6, 6),
        "decorr": (6, 6),
        "avg_grad": (36, 0),
    }

    def test_eval_counts_match_contract(self):
        out = run_trial(SMALL, 3, 6, 0)
        assert set(out.evals) == set(self.CONTRACT)
        for est, (evals, cached) in out.evals.items():
            assert (evals, cached) == self.CONTRACT[est], est

    def test_m_members_skips_paired_family(self):
        cfg = BenchConfig(base_seed=3, n_trials=2, dims=3, m_members=4,
                          hermite_orders=(2,), ensemble_sizes=(6,),
                          lambda_grid=(0.0,))
        out = run_trial(cfg, 2, 6, 0)
        for est in ("paired", "stosag", "mirrored2s", "one_sided", "decorr"):
            assert est in out.skips
            assert est not in out.errors
        assert "plain_lls" in out.errors


class TestFastPathEquivalence:
    """run_bench (one batched call per estimator and block, all lambdas at
    once) against a loop of run_trial (per-call estimate(), one trial and
    one lambda at a time)."""

    @staticmethod
    def assert_agree(cfg):
        tol = {"gen_stosag": 1e-10, "hybrid": 1e-10}
        ref = trial_stats(cfg)
        fast = run_bench(cfg).stats
        assert set(ref) == set(fast)
        for key, st in ref.items():
            ft = fast[key]
            scale = max(1.0, np.abs(st.sum_sq).max())
            worst = max(
                np.abs(st.sum_err - ft.sum_err).max(),
                np.abs(st.sum_sq - ft.sum_sq).max(),
            )
            assert worst <= tol.get(key[0], 1e-12) * scale, (key, worst)
            assert (st.n, st.evals, st.cached) == (ft.n, ft.evals, ft.cached)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 6])
    def test_reference_and_vectorised_agree(self, order):
        for n in (3, 4, 6, 10):
            self.assert_agree(BenchConfig(base_seed=99, n_trials=12, dims=3,
                                          hermite_orders=(order,), ensemble_sizes=(n,),
                                          lambda_grid=(0.0, 1e-2)))

    @pytest.mark.parametrize("option", [{"truth": "distribution"}, {"charge_cached": True},
                                        {"m_members": 4}], ids=lambda o: next(iter(o)))
    def test_options_agree(self, option):
        self.assert_agree(BenchConfig(base_seed=99, n_trials=12, dims=3, hermite_orders=(3,),
                                      ensemble_sizes=(4, 6, 10), lambda_grid=(0.0, 1e-2),
                                      **option))

    def test_skips_recorded_in_bench(self):
        cfg = BenchConfig(base_seed=4, n_trials=4, dims=3, m_members=4,
                          hermite_orders=(2,), ensemble_sizes=(6,),
                          lambda_grid=(0.0,))
        res = run_bench(cfg)
        assert (2, 6, "paired") in res.skips
        assert ("paired", 2, 6, 0.0) not in res.stats


class TestRunBench:
    def test_worker_count_does_not_change_results(self):
        one = run_bench(SMALL, workers=1, blocks_per_cell=4)
        two = run_bench(SMALL, workers=2, blocks_per_cell=4)
        assert set(one.stats) == set(two.stats)
        for key, st in one.stats.items():
            assert np.array_equal(st.sum_err, two.stats[key].sum_err)
            assert np.array_equal(st.sum_sq, two.stats[key].sum_sq)

    def test_progress_fires_for_parallel_runs(self):
        calls = []
        run_bench(SMALL, workers=2, blocks_per_cell=4,
                  progress=lambda order, n: calls.append((order, n)))
        assert calls == [(o, n) for n in SMALL.ensemble_sizes for o in SMALL.hermite_orders]

    def test_one_block_per_cell_starts_no_pool(self, monkeypatch):
        import ensgrad.harness as harness_mod

        def no_pool(*a, **kw):
            raise AssertionError("a pool started for one task per N")

        serial = run_bench(SMALL, blocks_per_cell=1)
        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", no_pool)
        res = run_bench(SMALL, workers=2, blocks_per_cell=1)
        assert not res.failures
        for key, cell in serial.cells.items():
            assert np.array_equal(res.cells[key].block_sums, cell.block_sums)

    def test_list_lambda_grid(self):
        # validate() accepts a list grid, which must run as its tuple does
        as_list = replace(SMALL, lambda_grid=[0.0, 1e-2]).validate()
        ref = run_bench(SMALL).stats
        got = run_bench(as_list).stats
        assert set(ref) == set(got)
        for key, st in ref.items():
            assert np.array_equal(st.sum_err, got[key].sum_err)

    def test_trial_totals(self):
        res = run_bench(SMALL, blocks_per_cell=4)
        for st in res.stats.values():
            assert st.n == SMALL.n_trials

    def test_blocks_partition_trials(self):
        res = run_bench(SMALL, blocks_per_cell=4)
        sums, sumsqs, ns = block_arrays(res, "stosag", 3, 6, 0.0)
        assert ns.sum() == SMALL.n_trials
        total = res.stats[("stosag", 3, 6, 0.0)]
        assert np.allclose(sums.sum(axis=0), total.sum_err)
        assert np.allclose(sumsqs.sum(axis=0), total.sum_sq)

    def test_blocks_stacked_in_trial_order(self):
        res = run_bench(SMALL, blocks_per_cell=4)
        cell = res.cells[(3, 6)]
        e = cell.estimators.index("stosag")
        sums, trials = cell.block_sums[e], cell.block_trials[e]
        assert sums.shape == (4, 2, len(SMALL.lambda_grid), SMALL.dims)
        for b, lo in enumerate(range(0, SMALL.n_trials, 10)):
            (moments, _), = _run_group(SMALL, 6, lo, lo + 10)
            assert np.array_equal(sums[b], moments["stosag"][0])
            assert trials[b] == moments["stosag"][1] == 10
        got = block_arrays(res, "stosag", 3, 6, 1e-2)
        for a, b in zip(got, (sums[:, 0, 1], sums[:, 1, 1], trials)):
            assert np.array_equal(a, b)

    def test_block_that_skipped_an_estimator(self, monkeypatch):
        import ensgrad.harness as harness_mod

        full = run_bench(SMALL, blocks_per_cell=4)
        real, calls = harness_mod.estimate_batch, []

        def second_block_skips_stosag(batch, spec, lambdas):  # one sub-batch a block
            calls.append(spec.kind)
            if spec.kind == "stosag" and calls.count("stosag") == 2:
                raise ValueError("degenerate")
            return real(batch, spec, lambdas)

        monkeypatch.setattr(harness_mod, "estimate_batch", second_block_skips_stosag)
        res = run_bench(SMALL, blocks_per_cell=4)
        cell = res.cells[(3, 6)]
        assert list(cell.block_trials[cell.estimators.index("stosag")]) == [10, 0, 10, 10]
        sums, sumsqs, ns = block_arrays(res, "stosag", 3, 6, 0.0)
        ref = block_arrays(full, "stosag", 3, 6, 0.0)
        for got, want in zip((sums, sumsqs, ns), ref):
            assert np.array_equal(got, want[[0, 2, 3]])
        st = res.stats[("stosag", 3, 6, 0.0)]
        assert st.n == 30
        assert np.array_equal(st.sum_err, ref[0][0] + ref[0][2] + ref[0][3])
        assert np.array_equal(st.sum_sq, ref[1][0] + ref[1][2] + ref[1][3])

    def test_blocks_of_a_cell_where_an_estimator_never_ran(self):
        res = run_bench(replace(SMALL, m_members=4), blocks_per_cell=4)  # M != N: paired skips
        cell = res.cells[(3, 6)]
        assert "paired" not in cell.estimators and "paired" in SMALL.estimators
        assert cell.block_sums.shape[:2] == cell.block_trials.shape == (len(cell.estimators), 4)
        assert not cell.block_sums.flags.writeable and not cell.block_trials.flags.writeable
        for e, est in enumerate(cell.estimators):
            sums, sumsqs, ns = block_arrays(res, est, 3, 6, 1e-2)
            assert np.array_equal(sums.sum(axis=0), cell.sums[e, 0, 1])
            assert np.array_equal(sumsqs.sum(axis=0), cell.sums[e, 1, 1])
            assert ns.sum() == cell.trials[e]
        with pytest.raises(KeyError):
            block_arrays(res, "paired", 3, 6, 0.0)

    def test_block_arrays_missing_key(self):
        res = run_bench(SMALL, blocks_per_cell=2)
        for key in (("stosag", 3, 6, 0.5), ("stosag", 2, 6, 0.0), ("nope", 3, 6, 0.0)):
            with pytest.raises(KeyError):
                block_arrays(res, *key)

    @pytest.mark.parametrize("blocks", [0, -3, 2.5, True, None])
    def test_bad_blocks_per_cell_rejected(self, blocks):
        with pytest.raises(ConfigError, match="blocks_per_cell"):
            run_bench(SMALL, blocks_per_cell=blocks)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, None, "2",
                                         pytest.param(Executor(), id="executor")])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_bench(SMALL, workers=workers)

    def test_interrupted_pooled_run_leaves_queued_blocks_unrun(self, tmp_path, monkeypatch):
        """A `progress` that raises ends a pooled run at once: the blocks of
        the N's after the first never start."""
        import ensgrad.harness as harness_mod

        real, started = harness_mod.child_normals, tmp_path / "started"
        cfg = replace(SMALL, n_trials=8, hermite_orders=(2, 3), ensemble_sizes=(5, 6, 7),
                      lambda_grid=(0.0,))

        def counted(base_seed, lo, hi, width):  # once per sub-batch: one per block here
            with open(started, "a") as f:  # forked workers inherit the patch
                f.write(f"{width // (4 * cfg.dims)}\n")  # M + N + 2M normals per dim, M = N
            return real(base_seed, lo, hi, width)

        def stop(order, n):
            raise RuntimeError("stop")

        monkeypatch.setattr(harness_mod, "child_normals", counted)
        with pytest.raises(RuntimeError, match="stop"):
            run_bench(cfg, workers=2, blocks_per_cell=4, progress=stop)
        assert started.read_text().split() == ["5"] * 4  # the first N's blocks only

    def test_dead_worker_fails_only_its_size(self, monkeypatch):
        import ensgrad.harness as harness_mod

        cfg = replace(SMALL, n_trials=4, hermite_orders=(0, 3), ensemble_sizes=(6, 7))
        serial = run_bench(cfg, blocks_per_cell=2)
        real, parent, pools, calls = harness_mod.estimate_batch, os.getpid(), [], []

        def die(batch, spec, lambdas):
            if batch.U.n == 6 and os.getpid() != parent:  # N=6's controls, not its pooled 2N
                os._exit(1)
            return real(batch, spec, lambdas)

        class Pool(harness_mod.ProcessPoolExecutor):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                pools.append(self)

        monkeypatch.setattr(harness_mod, "estimate_batch", die)  # forked workers inherit it
        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", Pool)
        res = run_bench(cfg, workers=2, blocks_per_cell=2,
                        progress=lambda order, n: calls.append((order, n)))
        assert set(res.failures) == {(0, 6), (3, 6)}
        assert all(why.startswith("BrokenProcessPool: ") for why in res.failures.values())
        assert len(pools) == 2  # N=7 runs on a new pool
        assert calls == [(o, n) for n in cfg.ensemble_sizes for o in cfg.hermite_orders]
        for order in cfg.hermite_orders:
            assert res.cells[(order, 6)].estimators == ()
            got, want = res.cells[(order, 7)], serial.cells[(order, 7)]
            assert got.estimators == want.estimators and got.contracts == want.contracts
            for name in ("sums", "trials", "block_sums", "block_trials"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert res.skips == {key: why for key, why in serial.skips.items() if key[1] == 7}


SHARED = BenchConfig(base_seed=515, n_trials=24, dims=5, hermite_orders=(0, 2, 3, 5),
                     ensemble_sizes=(6, 200), lambda_grid=(0.0, 1e-2))


@pytest.fixture(scope="module")
def one_order_runs():
    # 12-trial blocks: one sub-batch at N=6, two (10 + 2 trials) at N=200
    return {order: run_bench(replace(SHARED, hermite_orders=(order,)), blocks_per_cell=2)
            for order in SHARED.hermite_orders}


class TestOrdersShareDraws:
    """The orders of one run share each block's draws and control
    factorisations, and get the bits of one run per order."""

    @staticmethod
    def assert_same_as_one_order_runs(res, runs):
        assert set(res.stats) == {key for one in runs.values() for key in one.stats}
        for order, one in runs.items():
            assert {k: v for k, v in res.skips.items() if k[0] == order} == one.skips
            for key, st in one.stats.items():
                got = res.stats[key]
                assert np.array_equal(got.sum_err, st.sum_err), key
                assert np.array_equal(got.sum_sq, st.sum_sq), key
                assert (got.n, got.evals, got.cached) == (st.n, st.evals, st.cached)
                for a, b in zip(block_arrays(res, *key), block_arrays(one, *key)):
                    assert np.array_equal(a, b), key

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_as_one_run_per_order(self, one_order_runs, workers):
        res = run_bench(SHARED, workers=workers, blocks_per_cell=2)
        self.assert_same_as_one_order_runs(res, one_order_runs)

    def test_failing_order_fails_alone(self, one_order_runs, monkeypatch):
        import ensgrad.harness as harness_mod

        real, calls = harness_mod.hermite_objective, []

        def flaky(order, dims):  # once per order and block
            calls.append(order)
            if order == 3 and calls.count(3) > 1:  # its first block runs, the rest fail
                raise RuntimeError("synthetic order failure")
            return real(order, dims)

        monkeypatch.setattr(harness_mod, "hermite_objective", flaky)
        res = run_bench(SHARED, blocks_per_cell=2)
        assert res.failures == {(3, n): "RuntimeError: synthetic order failure"
                                for n in SHARED.ensemble_sizes}
        assert not [key for key in res.stats if key[1] == 3]
        for n in SHARED.ensemble_sizes:
            assert res.cells[(3, n)].estimators == () and res.cells[(3, n)].block_sums.size == 0
        assert not [key for key in res.skips if key[0] == 3]
        self.assert_same_as_one_order_runs(
            res, {order: one for order, one in one_order_runs.items() if order != 3})

    def test_draws_and_factorisations_once_per_sub_batch(self, monkeypatch):
        import ensgrad.estimators as estimators_mod
        import ensgrad.harness as harness_mod

        counts = {"draws": 0, "svds": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness_mod, "child_normals",  # the normals of one sub-batch
                            counted("draws", harness_mod.child_normals))
        monkeypatch.setattr(estimators_mod, "svd", counted("svds", estimators_mod.svd))
        cfg = replace(SHARED, hermite_orders=(2, 3, 5))
        calls = []
        run_bench(cfg, blocks_per_cell=2,
                  progress=lambda order, n: calls.append((order, n, counts["draws"])))
        # two blocks per size: one sub-batch each at N=6, two at N=200
        sub_batches = 2 * 1 + 2 * 2
        assert counts["draws"] == sub_batches
        # per sub-batch, the SVDs of U, diff, cov_mean and cov_pool serve
        # every order; decorr's controls depend on the order, so it makes
        # one SVD per order
        assert counts["svds"] == sub_batches * (4 + len(cfg.hermite_orders))
        # a cell is reported once both its blocks have been drawn
        assert calls == [(o, n, 2 if n == 6 else 6)
                         for n in cfg.ensemble_sizes for o in cfg.hermite_orders]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_reported_once(self, monkeypatch, workers):
        import ensgrad.harness as harness_mod

        real = harness_mod.estimate_batch

        def failing(batch, spec, lambdas):  # both blocks of the cell (3, 6)
            if batch.obj.name == "hermite3" and batch.U.n == 6:
                raise RuntimeError("synthetic order failure")
            return real(batch, spec, lambdas)

        monkeypatch.setattr(harness_mod, "estimate_batch", failing)
        calls = []
        res = run_bench(SHARED, workers=workers, blocks_per_cell=2,
                        progress=lambda order, n: calls.append((order, n)))
        assert set(res.failures) == {(3, 6)}
        assert calls == [(o, n) for n in SHARED.ensemble_sizes for o in SHARED.hermite_orders]


class TestAggregation:
    def _rows(self):
        res = run_bench(SMALL, blocks_per_cell=4)
        return aggregate(res.stats)

    def test_row_order_stable(self):
        rows = self._rows()
        keys = [(r.order, r.n, ESTIMATOR_IDS.index(r.estimator), r.lam) for r in rows]
        assert keys == sorted(keys)

    def test_select_best_lambda_prefers_smallest_tie(self):
        from ensgrad.harness import ResultRow

        rows = [
            ResultRow("stosag", 3, 6, 0.0, 1.0, 0.5, 6, 10),
            ResultRow("stosag", 3, 6, 0.1, 1.0, 0.4, 6, 10),
        ]
        best = select_best_lambda(rows, metric="rmse")
        assert len(best) == 1 and best[0].lam == 0.0
        best = select_best_lambda(rows, metric="bias")
        assert best[0].lam == 0.1
        with pytest.raises(ValueError):
            select_best_lambda(rows, metric="mse")

    def test_select_best_lambda_ignores_non_finite_metric(self):
        from ensgrad.harness import ResultRow

        nan, inf = float("nan"), float("inf")
        rows = [
            ResultRow("stosag", 3, 6, 0.0, nan, 0.5, 6, 10),
            ResultRow("stosag", 3, 6, 0.1, 1.0, inf, 6, 10),
        ]
        assert [r.lam for r in select_best_lambda(rows, "rmse")] == [0.1]
        assert [r.lam for r in select_best_lambda(rows, "bias")] == [0.0]
        assert select_best_lambda(rows[:1], "rmse") == []

    @staticmethod
    def _cell(estimators, rmse, bias):
        # one trial in one dimension: a row's rmse is sqrt(sum_sq), its bias |sum_err|
        sums = np.stack([np.array(bias, dtype=float), np.array(rmse, dtype=float) ** 2], axis=1)
        trials = np.ones(len(estimators), dtype=int)
        return CellTotals(tuple(estimators), sums[..., None], trials,
                          tuple((6, 0) for _ in estimators), sums[:, None, ..., None],
                          trials[:, None])

    def test_cell_tables_leave_out_non_finite_rows(self):
        nan, inf = float("nan"), float("inf")
        cell = self._cell(("paired", "stosag"), rmse=[[0.5, 1.0, 2.0], [nan, 1.0, inf]],
                          bias=[[inf, 0.25, 0.5], [0.5, -inf, 0.5]])
        rows, best, bad = cell_tables(3, 6, cell, (0.0, 0.1, 0.2))
        # paired's least rmse has an infinite bias: left out, and the best is the next
        assert rows == [("paired", 3, 6, 0.1, 1.0, 0.25, 6, 1),
                        ("paired", 3, 6, 0.2, 2.0, 0.5, 6, 1)]
        assert best == [rows[0]]  # stosag has no finite row, so no best row
        assert bad == 4

    def test_cell_tables_tie_goes_to_the_smallest_lambda(self):
        cell = self._cell(("stosag",), rmse=[[1.0, 1.0, 1.0, 3.0]], bias=[[0.0, 0.1, 0.2, 0.3]])
        rows, best, bad = cell_tables(3, 6, cell, (3, 0.3, 0.1, 0.0))  # descending, an int
        assert [r[3] for r in rows] == [0.0, 0.1, 0.3, 3.0]
        assert best == [("stosag", 3, 6, 0.1, 1.0, 0.2, 6, 1)] and bad == 0

    def test_metric_flag_changes_selection_on_real_data(self):
        # heavier damping trades bias for variance, so the two metrics pick
        # different lambdas somewhere on the grid
        cfg = BenchConfig(base_seed=6, n_trials=300, dims=3,
                          hermite_orders=(3,), ensemble_sizes=(6,),
                          lambda_grid=(0.0, 3e-2, 3e-1),
                          estimators=("stosag", "paired", "plain_lls"))
        rows = aggregate(run_bench(cfg).stats)
        by_rmse = {(r.estimator): r.lam for r in select_best_lambda(rows, "rmse")}
        by_bias = {(r.estimator): r.lam for r in select_best_lambda(rows, "bias")}
        assert by_rmse != by_bias

    @pytest.mark.parametrize("edge", [False, True])
    def test_results_csv_round_trip(self, tmp_path, edge):
        # the edge rows: an int lambda, a signed zero, the smallest subnormal,
        # a large and an inexact float
        rows = [ResultRow("paired", 3, 6, 0, -0.0, 5e-324, 6, 40),
                ResultRow("paired", 3, 6, 0.1, 1e16, 0.1, 6, 40)] if edge else self._rows()
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        assert read_results(path) == rows
        if edge:
            assert path.read_text() == ("estimator,order,N,lambda,rmse,bias,evals,trials\n"
                                        "paired,3,6,0.0,-0.0,5e-324,6,40\n"
                                        "paired,3,6,0.1,1e+16,0.1,6,40\n")

    @pytest.mark.parametrize("name", ["a,b", 'q"x', "line\nbreak", " pad "])
    def test_results_csv_rejects_an_estimator_that_is_no_identifier(self, tmp_path, name):
        rows = [ResultRow(name, 3, 6, 0.1, 1.0, 0.5, 6, 40),
                ResultRow("paired", 3, 6, 0.0, 2.0, 0.5, 6, 40)]
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match=re.escape(repr([name]))):
            write_results_csv(path, rows)
        assert not path.exists()


class TestBootstrap:
    def test_band_brackets_point_estimate(self):
        res = run_bench(SMALL, blocks_per_cell=8)
        sums, sumsqs, ns = block_arrays(res, "stosag", 3, 6, 0.0)
        lo, hi = bootstrap_band(sums, sumsqs, ns, metric="rmse", seed=3)
        rows = [r for r in aggregate(res.stats)
                if r.estimator == "stosag" and r.lam == 0.0]
        assert lo <= rows[0].rmse <= hi
        assert lo < hi

    def test_unknown_metric_rejected(self):
        arrays = (np.zeros((2, 3)), np.ones((2, 3)), np.array([4, 4]))
        with pytest.raises(ValueError, match="metric"):
            bootstrap_band(*arrays, metric="mse")
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_band(*arrays, n_boot=0)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="no blocks to resample"):
            bootstrap_band(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_band_deterministic_in_seed(self):
        res = run_bench(SMALL, blocks_per_cell=8)
        arrays = block_arrays(res, "paired", 3, 6, 0.0)
        assert bootstrap_band(*arrays, seed=5) == bootstrap_band(*arrays, seed=5)


class TestVarianceImprovement:
    @pytest.mark.parametrize("rho,r", [(0.5, 0.3), (0.7, 0.6), (0.9, 0.9)])
    def test_matches_control_variate_law(self, rho, r):
        got = variance_improvement(rho, r, n_samples=2_000_000, seed=11)
        assert got == pytest.approx(r * (2.0 * rho - r), rel=0.05)


class TestDescent:
    def test_zero_gradient_is_stationary(self):
        cfg = DescentConfig(step=0.05, n_steps=20, starts=((1.0, -2.0),))
        trajs = steepest_descent(lambda u: np.zeros(2), cfg)
        assert np.all(trajs[0].points == trajs[0].points[0])
        assert not trajs[0].aborted

    def test_zero_step_repeats_start(self):
        cfg = DescentConfig(step=0.0, n_steps=5, starts=((0.3, 0.7),))
        trajs = steepest_descent(lambda u: u, cfg)
        assert np.all(trajs[0].points == np.array([0.3, 0.7]))

    def test_abort_on_non_finite(self):
        cfg = DescentConfig(step=1.0, n_steps=10, starts=((1.0, 1.0),))
        trajs = steepest_descent(lambda u: np.array([np.nan, 0.0]), cfg)
        assert trajs[0].aborted
        assert len(trajs[0].points) == 1

    def test_quadratic_converges(self):
        cfg = DescentConfig(step=0.1, n_steps=200, starts=((2.0, -3.0),))
        trajs = steepest_descent(lambda u: 2.0 * u, cfg)
        assert np.abs(trajs[0].points[-1]).max() < 1e-6
