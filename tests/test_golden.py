"""The estimators and the harness against golden values recorded by the
per-call estimator functions that preceded the batched core
(`golden_fixture.py` writes the fixture and documents what it covers)."""

import gzip
import json

import numpy as np
import pytest

from ensgrad.estimators import EstimatorSpec, estimate
from ensgrad.harness import BenchConfig, run_bench
from ensgrad.linalg import PinvConfig

from golden_fixture import PATH, ensembles, objective, trial_stats

# the pin tolerances: relative, the covariance-inverting pair looser
TOL = {"gen_stosag": 1e-10, "hybrid": 1e-10}


def _load():
    with gzip.open(PATH, "rt") as f:
        return json.load(f)


GOLDEN = _load()


def _case_id(case):
    opts = ",".join(f"{k}={v}" for k, v in case["options"].items())
    return f"{case['objective']}-{case['kind']}-{opts}-m{case['m']}n{case['n']}"


@pytest.mark.parametrize("case", GOLDEN["estimates"], ids=_case_id)
def test_estimate_matches_golden(case):
    opts = dict(case["options"])
    spec = EstimatorSpec(kind=case["kind"], pinv=PinvConfig(opts.pop("lam")), **opts)
    x, u = ensembles(case["seed"], case["m"], case["n"])
    if "error" in case:
        with pytest.raises(Exception) as info:
            estimate(objective(case["objective"]), x, u, spec)
        assert type(info.value).__name__ == case["error"]
        return
    got = estimate(objective(case["objective"]), x, u, spec)
    ref = np.array(case["grad"])
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(got.grad - ref).max() <= TOL.get(case["kind"], 1e-12) * scale
    assert (got.evals, got.cached) == (case["evals"], case["cached"])


def _assert_stats_match(stats, golden):
    assert sorted(stats) == sorted(tuple(g["key"]) for g in golden)
    for g in golden:
        st = stats[tuple(g["key"])]
        sum_err, sum_sq = np.array(g["sum_err"]), np.array(g["sum_sq"])
        scale = max(1.0, np.abs(sum_sq).max())
        worst = max(np.abs(st.sum_err - sum_err).max(), np.abs(st.sum_sq - sum_sq).max())
        assert worst <= TOL.get(g["key"][0], 1e-12) * scale, (g["key"], worst)
        assert (st.n, st.evals, st.cached) == (g["n"], g["evals"], g["cached"])


@pytest.mark.parametrize("entry", GOLDEN["bench"], ids=lambda e: json.dumps(
    {k: e["config"][k] for k in ("hermite_orders", "truth", "charge_cached", "m_members")}))
def test_bench_stats_match_golden(entry):
    cfg = BenchConfig.from_dict(entry["config"])
    _assert_stats_match(run_bench(cfg).stats, entry["stats"])
    _assert_stats_match(trial_stats(cfg), entry["stats"])
