"""Property tests over random ensemble sizes, orders, damping and seeds,
and over random matrix stacks for the damped pseudo-inverse.
Every run draws the same examples (`derandomize`), so a failure replays."""

from dataclasses import replace

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
from ensgrad.harness import BenchConfig, _draw_factors, _draw_trials, run_bench
from ensgrad.linalg import PinvConfig, damp, damped_apply, svd, tikhonov_pinv
from ensgrad.objectives import hermite_objective
from ensgrad.sampling import (
    Ensemble,
    GaussianSpec,
    child_seed,
    decorrelate,
    draw_ensemble,
    recenter,
    rng_from,
)

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
    u, s, vt = svd(a)
    got = damped_apply(rows, (u, damp(s, lams), vt))
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


ROW_KINDS = ("plain_lls", "fragile", "paired", "stosag", "one_sided", "mirrored2s")


def preconditioning_case(kind, seed, d, n, nm, rank):
    """x-members and recentred controls, the controls of rank at most
    `rank`, laid out as `kind` needs them, and the sample covariance that
    the preconditioned form of `kind` pre-multiplies its gradient by."""
    m = n if kind in ROW_KINDS else max(1, n // nm)
    n = {"two_sided": 2 * m, "gen_stosag": m * nm, "hybrid": m * nm}.get(kind, n)
    rng = np.random.default_rng(seed)
    mean = np.linspace(-2.0, 2.0, d)
    x = Ensemble(mean[:, None] + 0.5 * rng.standard_normal((d, m)), mean)
    u = recenter(Ensemble(0.1 * rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n)),
                          np.zeros(d)))
    if kind == "two_sided":
        diff = u.members[:, 0::2] - u.members[:, 1::2]
        return x, u, diff @ diff.T / (2 * m)
    if kind == "gen_stosag":
        g = u.members.reshape(d, m, nm)
        g = g - g.mean(axis=-1, keepdims=True)
        return x, u, np.einsum("dmj,emj->de", g, g) / ((nm - 1) * m)
    return x, u, u.anomalies @ u.anomalies.T / (n - 1)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=seeds, order=st.integers(1, 6), d=st.integers(1, 6), n=st.integers(2, 11),
       nm=st.integers(2, 4), rank=st.integers(1, 6))
def test_preconditioned_is_plain_times_covariance(seed, order, d, n, nm, rank):
    # at lambda = 0, g Ut^+ Ut Ut^T = g Ut^T: the preconditioned gradient is
    # the plain one times the covariance, rank deficient or not
    obj = hermite_objective(order, dims=d)
    for kind in ROW_KINDS + ("two_sided", "gen_stosag", "hybrid"):
        x, u, cov = preconditioning_case(kind, seed, d, n, nm, min(rank, d))
        spec = EstimatorSpec(kind=kind, subsample_size=nm)
        plain = estimate(obj, x, u, spec).grad
        pre = estimate(obj, x, u, replace(spec, precondition=True)).grad
        assert np.abs(plain @ cov - pre).max() <= 1e-10 * np.abs(pre).max(), kind


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, d=st.integers(1, 6), n=st.integers(3, 100),
       lead=st.sampled_from(((), (5,), (2, 3))), zeros=st.integers(0, 3), collapse=st.booleans())
def test_stacked_decorrelate_equals_one_call_per_trial(seed, d, n, lead, zeros, collapse):
    # the first `zeros` trials get a zero psi, the last one (if `collapse`)
    # a psi equal to one of its own anomaly rows, which the projection
    # annihilates
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(d)
    a = rng.standard_normal(lead + (d, n)) * 10.0 ** rng.uniform(-3, 1)
    stack = Ensemble(mu[:, None] + a - a.mean(axis=-1, keepdims=True), mu, recentred=True)
    trials = stack.members.reshape(-1, d, n)
    psi = rng.standard_normal((len(trials), n))
    psi[:zeros] = 0.0
    if collapse:
        psi[-1] = trials[-1, 0] - mu[0]
    got = decorrelate(stack, psi.reshape(lead + (n,)))
    each = [decorrelate(Ensemble(t, mu, recentred=True), p) for t, p in zip(trials, psi)]
    assert got.members.shape == stack.members.shape
    assert np.array_equal(got.members.reshape(-1, d, n), np.stack([e.members for e in each]))
    notes = {e.note for e in each}
    want = "rank-collapse" if "rank-collapse" in notes else "psi-zero" if notes == {"psi-zero"} else ""
    assert got.note == want
    for t, p, e in zip(trials, psi, each):
        if e.note == "psi-zero":
            assert np.array_equal(e.members, t)
        else:
            assert np.array_equal(e.members, decorrelate_with_vector_dots(t, mu, p))


def decorrelate_with_vector_dots(members, mu, psi):
    """One trial's decorrelated members, written with 1-D dot products."""
    psi = psi - psi.mean()
    a0 = members - mu[:, None]
    a1 = a0 - np.outer(a0 @ psi, psi) / float(psi @ psi)
    s0, s1 = np.linalg.norm(a0, axis=1), np.linalg.norm(a1, axis=1)
    keep = (s1 <= 1e-9 * s0) | (s0 == 0.0)
    return mu[:, None] + a1 * np.where(keep, 1.0, s0 / np.where(s1 > 0, s1, 1.0))[:, None]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, dims=st.integers(1, 6), n=st.integers(2, 30),
       m=st.one_of(st.none(), st.integers(2, 30)), lo=st.integers(0, 100), k=st.integers(1, 6),
       need_vw=st.booleans(), u_cov=st.sampled_from((0.01, (0.04, 0.01, 0.09, 0.01, 0.02, 0.03))))
def test_stacked_draws_equal_one_draw_per_trial(seed, dims, n, m, lo, k, need_vw, u_cov):
    cfg = BenchConfig(base_seed=seed, dims=dims, m_members=m,
                      u_cov=u_cov if np.isscalar(u_cov) else np.array(u_cov[:dims]))
    factors = _draw_factors(cfg)
    got = _draw_trials(cfg, factors, n, lo, lo + k, need_vw)
    rows = [_draw_trials(cfg, factors, n, t, t + 1, need_vw) for t in range(lo, lo + k)]
    for i, part in enumerate(got):
        if i == 2 and not need_vw:
            assert part is None and all(r[i] is None for r in rows)
            continue
        assert np.array_equal(part, np.concatenate([r[i] for r in rows]))
    # each trial's x-members come first in its own child stream
    x_spec, lx, _, _ = factors
    z = rng_from(child_seed(seed, lo)).standard_normal((dims, m or n))
    assert np.array_equal(got[0][0], x_spec.mean[:, None] + lx @ z)
