"""Property tests over random ensemble sizes, orders, damping and seeds,
and over random matrix stacks for the damped pseudo-inverse.
Every run draws the same examples (`derandomize`), so a failure replays."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensgrad.estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    Batch,
    EstimatorSpec,
    estimate,
    estimate_batch,
)
from ensgrad.harness import (
    DEFAULT_SIZES,
    BenchConfig,
    ConfigError,
    ErrorStats,
    _draw_trials,
    aggregate,
    run_bench,
)
from ensgrad.linalg import RANK_RTOL, PinvConfig, damp, damped_apply, svd, tikhonov_pinv
from ensgrad.objectives import bilinear_grad, bilinear_objective, hermite_objective
from ensgrad.sampling import (
    Ensemble,
    GaussianSpec,
    child_keys,
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


@pytest.mark.parametrize("cfg", [
    BenchConfig(base_seed=5, n_trials=25),
    BenchConfig(n_trials=40, ensemble_sizes=(3, 15, 100)),
], ids=["t25-seed5", "t40"])
def test_one_block_equals_one_block_per_trial(cfg):
    # at N=100 a sub-batch holds 40 trials, so each block here is one sub-batch
    one = run_bench(cfg, blocks_per_cell=1)
    per_trial = run_bench(cfg, blocks_per_cell=cfg.n_trials)
    assert 100 in cfg.ensemble_sizes and list(one.stats) == list(per_trial.stats)
    for key, s in one.stats.items():
        t = per_trial.stats[key]
        assert np.array_equal(s.sum_err, t.sum_err) and np.array_equal(s.sum_sq, t.sum_sq)
        assert (s.n, s.evals, s.cached) == (t.n, t.evals, t.cached)
    assert one.skips == per_trial.skips


def aggregate_per_row(stats):
    """`aggregate` one key at a time: the reference its array pass matches."""
    rows = []
    for (est, order, n, lam), s in stats.items():
        if s.n == 0:
            continue
        rmse = float(np.sqrt(s.sum_sq / s.n).mean())
        bias = float(np.abs(s.sum_err / s.n).mean())
        rows.append((est, order, n, lam, rmse, bias, s.evals, s.n))
    rows.sort(key=lambda r: (r[1], r[2], ESTIMATOR_IDS.index(r[0]), r[3]))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, d=st.integers(1, 20), keys=st.integers(0, 60), empty=st.floats(0.0, 1.0))
def test_aggregate_equals_per_row_formula(seed, d, keys, empty):
    rng = rng_from(child_seed(seed, 0))
    stats = {}
    for i in range(keys):
        key = (ESTIMATOR_IDS[rng.integers(len(ESTIMATOR_IDS))], int(rng.integers(0, 7)),
               int(rng.choice(DEFAULT_SIZES)), float(rng.choice((0.0, 1e-3, 1.0))) + i)
        n = 0 if rng.random() < empty else int(rng.integers(1, 10_001))
        scale = 10.0 ** rng.uniform(-8, 8, size=d)
        stats[key] = ErrorStats(rng.normal(size=d) * scale * n, rng.random(d) * scale**2 * n,
                                n, int(rng.integers(0, 500)), int(rng.integers(0, 50)))
    got = [(r.estimator, r.order, r.n, r.lam, r.rmse, r.bias, r.evals, r.trials)
           for r in aggregate(stats)]
    want = aggregate_per_row(stats)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert len(got) == sum(s.n > 0 for s in stats.values())


def test_aggregate_of_nothing_is_empty():
    assert aggregate({}) == []
    assert aggregate({("stosag", 2, 5, 0.0): ErrorStats(np.zeros(3), np.zeros(3), 0, 0, 0)}) == []


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


def two_branch_damp(s, lambdas):
    """`damp` as it was when it computed both branches at every lambda and
    picked one with `np.where`."""
    lam = np.asarray(lambdas, dtype=float).reshape((-1,) + (1,) * s.ndim)
    s1 = s[..., :1]
    keep = s > RANK_RTOL * s1
    damped = s / np.maximum(s**2 + (lam * s1) ** 2, np.finfo(float).tiny)
    return np.where(lam == 0.0, keep / np.where(keep, s, 1.0), damped)


@st.composite
def spectra(draw):
    """Stacks (..., k) of spectra, largest value first, with zeros,
    all-zero rows, values below 1e-154 (whose squares underflow) and values
    exactly at the truncation cutoff `RANK_RTOL*s1`."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (draw(st.integers(1, 5)),)
    size = int(np.prod(shape))
    values = st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 1e-160, 1e-154, 1.0, 1e150)),
                       st.floats(0.0, 1e200))
    s = np.sort(np.array(draw(st.lists(values, min_size=size, max_size=size))))
    s = s.reshape(shape)[..., ::-1].copy()
    at_cut = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    at_cut[..., 0] = False
    s = np.where(at_cut, RANK_RTOL * s[..., :1], s)
    if draw(st.booleans()):
        s.reshape(-1, shape[-1])[0] = 0.0
    return s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=spectra(),
       lams=st.lists(st.one_of(st.sampled_from((0.0, 1e-12, 1e-4, 3e-2, 1.0, 3.0)),
                               st.floats(0.0, 1e3)), min_size=1, max_size=6))
def test_damp_rows_are_the_single_lambda_calls_and_the_two_branch_formula(s, lams):
    # squares above 1e154 and reciprocals of subnormals overflow to inf in
    # both forms alike
    with np.errstate(over="ignore"):
        got = damp(s, lams)
        want = two_branch_damp(s, lams)
        singles = [damp(s, (lam,)) for lam in lams]
    assert got.shape == want.shape == (len(lams),) + s.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for row, single in zip(got, singles):
        assert single.shape == (1,) + s.shape
        assert row.tobytes() == single[0].tobytes()


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


# base seeds of one to five uint32 words, and trial ranges at the start and
# across 2^32, where a trial's spawn key grows a second word
wide_seeds = st.integers(min_value=0, max_value=2**130)
trial_starts = st.one_of(st.integers(0, 100), st.integers(2**32 - 6, 2**32 + 6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=wide_seeds, lo=trial_starts, k=st.integers(1, 12))
@example(seed=2**130, lo=2**32 - 3, k=6)
def test_child_keys_equal_seed_sequence_state(seed, lo, k):
    want = [child_seed(seed, t).generate_state(2, np.uint64) for t in range(lo, lo + k)]
    got = child_keys(seed, lo, lo + k)
    assert got.dtype == np.uint64 and np.array_equal(got, np.array(want))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=wide_seeds, dims=st.integers(1, 6), n=st.integers(2, 30),
       m=st.one_of(st.none(), st.integers(2, 30)), lo=trial_starts, k=st.integers(1, 6),
       need_vw=st.booleans(), u_cov=st.sampled_from((0.01, (0.04, 0.01, 0.09, 0.01, 0.02, 0.03))))
@example(seed=2**130, dims=5, n=4, m=None, lo=2**32 - 3, k=6, need_vw=True, u_cov=0.01)
def test_stacked_draws_equal_one_draw_per_trial(seed, dims, n, m, lo, k, need_vw, u_cov):
    cfg = BenchConfig(base_seed=seed, dims=dims, m_members=m,
                      u_cov=u_cov if np.isscalar(u_cov) else np.array(u_cov[:dims]),
                      estimators=tuple(e for e in ESTIMATOR_IDS
                                       if need_vw or e not in SUBSAMPLED_IDS))
    got = _draw_trials(cfg, n, lo, lo + k)
    rows = [_draw_trials(cfg, n, t, t + 1) for t in range(lo, lo + k)]
    for i, part in enumerate(got):
        if i == 2 and not need_vw:
            assert part is None and all(r[i] is None for r in rows)
            continue
        assert np.array_equal(part.members, np.concatenate([r[i].members for r in rows]))
    # each trial's x-members come first in its own child stream
    x_spec = cfg.x_spec()
    for i in range(k):
        z = rng_from(child_seed(seed, lo + i)).standard_normal((dims, m or n))
        assert np.array_equal(got[0].members[i], x_spec.mean[:, None] + x_spec.factor() @ z)


# ---------------------------------------------------------------------------
# The bilinear identities of `ensgrad linear-check` at random seeds, sizes and
# objective rows, at its tolerances: with an objective A x + B u summed over
# rows, stosag is exact, the paired error is (A X).sum(0) @ Ut^+ in closed
# form, and decorrelation removes it. Errors are relative to the compared
# quantity's largest entry.


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# (d, N) with N in d+2..30, as linear-check requires
dims_and_sizes = st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(d + 2, 30)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, dn=dims_and_sizes, rows=st.integers(1, 4))
def test_bilinear_identities(seed, dn, rows):
    d, n = dn
    rng = rng_from(child_seed(seed, 0))
    a, b = rng.standard_normal((rows, d)), rng.standard_normal((rows, d))
    spec = GaussianSpec(np.zeros(d), 1.0)
    x_ens = draw_ensemble(spec, n, child_seed(seed, 1))
    u_ens = recenter(draw_ensemble(spec, n, child_seed(seed, 2)))
    obj, truth = bilinear_objective(a, b), bilinear_grad(b)
    grads = {kind: estimate(obj, x_ens, u_ens, EstimatorSpec(kind=kind)).grad
             for kind in ("stosag", "paired", "decorr")}
    paired_err = (a @ x_ens.members).sum(axis=0) @ tikhonov_pinv(u_ens.anomalies, PinvConfig(0.0))
    assert rel_err(grads["stosag"], truth) <= 1e-8
    assert rel_err(grads["paired"] - truth, paired_err) <= 1e-8
    assert rel_err(grads["decorr"], truth) <= 1e-6


# JSON-like values: null, bools, ints (to 10**400), floats (NaN and +-inf
# too), strings (the valid names among them), nested and empty lists, and
# lists of distinct small numbers or names, which some fields accept
names = st.sampled_from(ESTIMATOR_IDS + ("conditional", "distribution"))
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2, 8) | st.floats()
                | st.sampled_from((10**400, -10**400, math.nan, math.inf, -math.inf))
                | st.text(max_size=3) | names)
json_values = (json_scalars
               | st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=6),
                              max_leaves=12)
               | st.lists(st.integers(-1, 8) | st.floats(-1.0, 3.0), min_size=1, max_size=6,
                          unique=True)
               | st.lists(st.sampled_from(ESTIMATOR_IDS), min_size=1, max_size=4, unique=True))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name=st.sampled_from([f.name for f in fields(BenchConfig)]), value=json_values)
@example(name="truth", value="distribution")
@example(name="hermite_orders", value=[0, 6])
def test_config_field_either_validates_or_names_itself(name, value):
    try:
        cfg = BenchConfig.from_dict({name: value})
    except ConfigError as e:
        assert str(e).startswith(f"{name}: "), str(e)
        return
    assert cfg.validate() == BenchConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
