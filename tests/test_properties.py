"""Property tests over random ensemble sizes, orders, damping and seeds,
and over random matrix stacks for the damped pseudo-inverse.
Every run draws the same examples (`derandomize`), so a failure replays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ensgrad.estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    Batch,
    EstimatorSpec,
    estimate,
    estimate_batch,
)
from ensgrad.harness import BenchConfig, run_bench
from ensgrad.linalg import PinvConfig, damped_apply, damped_svd, tikhonov_pinv
from ensgrad.objectives import hermite_objective
from ensgrad.sampling import Ensemble, GaussianSpec, child_seed, draw_ensemble, recenter

D = 3
X_SPEC = GaussianSpec(np.linspace(-2.0, 2.0, D), 0.25)
U_SPEC = GaussianSpec(np.zeros(D), 0.01)
TOL = {"gen_stosag": 1e-10, "hybrid": 1e-10}

sizes = st.integers(min_value=3, max_value=12)
orders = st.integers(min_value=0, max_value=6)
lambdas = st.sampled_from((0.0, 1e-3, 3e-2, 1.0))
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def trial(seed, m, n):
    x = draw_ensemble(X_SPEC, m, child_seed(seed, 0))
    u = recenter(draw_ensemble(U_SPEC, n, child_seed(seed, 1)))
    return x, u


def close(a, b, kind):
    scale = max(1.0, np.abs(b).max())
    return np.abs(a - b).max() <= TOL.get(kind, 1e-12) * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=sizes, order=orders, lam=lambdas, seed=seeds, k=st.integers(2, 4))
def test_stacked_call_equals_one_call_per_trial(n, order, lam, seed, k):
    obj = hermite_objective(order, dims=D)
    grid = (0.0, lam)
    for kind in ESTIMATOR_IDS:
        per_trial = [trial(seed + t, n, 2 * n if kind in SUBSAMPLED_IDS else n)
                     for t in range(k)]
        X = Ensemble(np.stack([x.members for x, _ in per_trial]), X_SPEC.mean)
        U = Ensemble(np.stack([u.members for _, u in per_trial]), U_SPEC.mean, recentred=True)
        grads, evals, cached = estimate_batch(Batch(obj, X, U), EstimatorSpec(kind=kind), grid)
        assert grads.shape == (len(grid), k, D)
        for i, l in enumerate(grid):
            for t, (x, u) in enumerate(per_trial):
                got = estimate(obj, x, u, EstimatorSpec(kind=kind, pinv=PinvConfig(l)))
                assert close(grads[i, t], got.grad, kind), (kind, l, t)
                assert (evals, cached) == (got.evals, got.cached)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=sizes, order=orders, lam=lambdas, seed=seeds)
def test_one_sided_equals_stosag(n, order, lam, seed):
    obj = hermite_objective(order, dims=D)
    x, u = trial(seed, n, n)
    spec = EstimatorSpec(kind="stosag", pinv=PinvConfig(lam))
    a = estimate(obj, x, u, spec)
    b = estimate(obj, x, u, EstimatorSpec(kind="one_sided", pinv=PinvConfig(lam)))
    assert close(b.grad, a.grad, "one_sided")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(m=sizes, order=orders, seed=seeds)
def test_gen_stosag_on_pair_groups_equals_two_sided(m, order, seed):
    # undamped only: damping acts on the singular values of the pair
    # differences in one and on their squares in the other
    obj = hermite_objective(order, dims=D)
    x, u = trial(seed, m, 2 * m)
    a = estimate(obj, x, u, EstimatorSpec(kind="two_sided"))
    b = estimate(obj, x, u, EstimatorSpec(kind="gen_stosag"))
    assert close(b.grad, a.grad, "two_sided")


@settings(max_examples=5, deadline=None, derandomize=True)
@given(n=sizes, order=orders, lam=lambdas, seed=seeds)
def test_worker_count_does_not_change_stats(n, order, lam, seed):
    cfg = BenchConfig(base_seed=seed, n_trials=6, dims=D, hermite_orders=(order,),
                      ensemble_sizes=(n,), lambda_grid=tuple(sorted({0.0, lam})))
    one = run_bench(cfg, workers=1, blocks_per_cell=3)
    two = run_bench(cfg, workers=2, blocks_per_cell=3)
    assert set(one.stats) == set(two.stats)
    for key, s in one.stats.items():
        assert np.array_equal(s.sum_err, two.stats[key].sum_err)
        assert np.array_equal(s.sum_sq, two.stats[key].sum_sq)
        assert (s.n, s.evals, s.cached) == (two.stats[key].n, two.stats[key].evals,
                                             two.stats[key].cached)


def random_stack(seed, stack, m, k, rank):
    """(stack, m, k) matrices of at most the given rank, their scales spread
    over a few orders of magnitude."""
    rng = np.random.default_rng(seed)
    r = min(rank, m, k)
    a = rng.standard_normal((stack, m, r)) @ rng.standard_normal((stack, r, k))
    return a * 10.0 ** rng.uniform(-3, 3, size=(stack, 1, 1)), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, stack=st.integers(1, 4), m=st.integers(1, 7), k=st.integers(1, 7),
       rank=st.integers(1, 7),
       lams=st.lists(st.sampled_from((0.0, 1e-6, 1e-3, 3e-2, 1.0, 30.0)), min_size=1,
                     max_size=4))
def test_damped_apply_equals_row_times_pinv(seed, stack, m, k, rank, lams):
    a, rng = random_stack(seed, stack, m, k, rank)
    rows = rng.standard_normal((stack, k))
    got = damped_apply(rows, damped_svd(a, lams))
    assert got.shape == (len(lams), stack, m)
    for l, lam in enumerate(lams):
        for i in range(stack):
            want = rows[i] @ tikhonov_pinv(a[i], PinvConfig(lam))
            assert np.abs(got[l, i] - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, m=st.integers(1, 7), k=st.integers(1, 7), rank=st.integers(1, 7))
def test_undamped_pinv_is_moore_penrose(seed, m, k, rank):
    (a,), _ = random_stack(seed, 1, m, k, rank)
    p = tikhonov_pinv(a, PinvConfig(0.0))
    assert p.shape == (k, m)
    tol = 1e-10
    assert np.abs(a @ p @ a - a).max() <= tol * np.abs(a).max()
    assert np.abs(p @ a @ p - p).max() <= tol * np.abs(p).max()
    assert np.abs(a @ p - (a @ p).T).max() <= tol
    assert np.abs(p @ a - (p @ a).T).max() <= tol
