"""Acceptance gate: eight numbered end-to-end checks, one verdict line each.

Every check prints `criterion N: PASS/FAIL - detail` to the terminal before
asserting, so a plain `pytest -v` run shows the full scoreboard even when a
later criterion fails. Criteria 3 and 4 share one full benchmark run at the
default configuration (seed 2026, 1e4 trials), on two workers where there
are two cores, whose stats hash `test_full_grid_digest_pinned` pins to the
serial run's; the rest are self-contained.
"""

import os
import time

import numpy as np
import pytest

from ensgrad.cli import main
from ensgrad.estimators import ESTIMATOR_IDS, EstimatorSpec, estimate
from ensgrad.harness import (
    BenchConfig,
    DescentConfig,
    aggregate,
    block_arrays,
    bootstrap_band,
    run_bench,
    run_rastrigin_demo,
    select_best_lambda,
    variance_improvement,
)
from ensgrad.linalg import PinvConfig, sample_cross_cov, tikhonov_pinv
from ensgrad.objectives import (
    bilinear_grad,
    bilinear_objective,
    fd_gradient,
    hermite_objective,
    rastrigin_blurred,
    rastrigin_blurred_grad,
    rastrigin_eval,
    rastrigin_grad,
)
from ensgrad.sampling import GaussianSpec, child_seed, draw_ensemble, recenter

from test_cli import PIN_PLATFORM, _platform
from test_perfbench import _load

# stosag variants expected to score within a common band (criterion 3c)
FAMILY = ("stosag", "gen_stosag", "two_sided", "mirrored2s", "one_sided", "decorr")


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def full_bench():
    cfg = BenchConfig()
    res = run_bench(cfg, workers=min(2, os.cpu_count() or 1))
    rows = aggregate(res.stats)

    def keyed(metric):
        return {
            (r.estimator, r.order, r.n): r for r in select_best_lambda(rows, metric)
        }

    return {
        "cfg": cfg,
        "res": res,
        "best_rmse": keyed("rmse"),
        "best_bias": keyed("bias"),
    }


def test_criterion_1_linear_identity_suite(capsys):
    t0 = time.time()
    rc = main(["linear-check"])
    elapsed = time.time() - t0
    worst = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("PASS", "FAIL"):
            worst[parts[1].rstrip(":")] = float(parts[5])
    ok = (
        rc == 0
        and worst["stosag_exact"] <= 1e-8
        and worst["paired_error_formula"] <= 1e-8
        and worst["decorr_zero"] <= 1e-6
        and elapsed < 5.0
    )
    report(
        capsys,
        1,
        ok,
        f"stosag {worst['stosag_exact']:.1e}, paired formula "
        f"{worst['paired_error_formula']:.1e}, decorr {worst['decorr_zero']:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_algebraic_identities(capsys):
    t0 = time.time()
    x_spec = GaussianSpec(np.linspace(-2.0, 2.0, 4), 0.25)
    u_spec = GaussianSpec(np.zeros(4), 0.01)

    worst_os = worst_gs = 0.0
    for case in range(100):
        obj = hermite_objective((2, 3, 5)[case % 3], dims=4)
        lam = (0.0, 1e-2, 1e-1)[case % 3]
        x = draw_ensemble(x_spec, 12, child_seed(800 + case, 0))
        u = recenter(draw_ensemble(u_spec, 12, child_seed(800 + case, 1)))
        pv = PinvConfig(lam=lam)
        g1 = estimate(obj, x, u, EstimatorSpec(kind="one_sided", pinv=pv)).grad
        g2 = estimate(obj, x, u, EstimatorSpec(kind="stosag", pinv=pv)).grad
        worst_os = max(worst_os, np.abs(g1 - g2).max() / max(1.0, np.abs(g2).max()))

        m = 3 + case % 6
        xp = draw_ensemble(x_spec, m, child_seed(900 + case, 0))
        up = recenter(draw_ensemble(u_spec, 2 * m, child_seed(900 + case, 1)))
        g3 = estimate(obj, xp, up, EstimatorSpec(kind="gen_stosag")).grad
        g4 = estimate(obj, xp, up, EstimatorSpec(kind="two_sided")).grad
        worst_gs = max(worst_gs, np.abs(g3 - g4).max() / max(1.0, np.abs(g4).max()))

    worst_pinv = worst_pre = 0.0
    rng = np.random.default_rng(90210)
    for _ in range(100):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(d, n))
        ac = a - a.mean(axis=1, keepdims=True)
        diff = tikhonov_pinv(ac) - ac.T @ np.linalg.pinv(ac @ ac.T)
        worst_pinv = max(worst_pinv, np.abs(diff).max())
        row = rng.normal(size=n)
        lhs = sample_cross_cov(row, ac)
        rhs = row @ tikhonov_pinv(ac) @ (ac @ ac.T) / (n - 1)
        worst_pre = max(worst_pre, np.abs(lhs - rhs).max())

    elapsed = time.time() - t0
    ok = (
        worst_os <= 1e-12
        and worst_gs <= 1e-12
        and worst_pinv <= 1e-10
        and worst_pre <= 1e-10
        and elapsed < 5.0
    )
    report(
        capsys,
        2,
        ok,
        f"one_sided {worst_os:.1e}, pair-groups {worst_gs:.1e}, pinv "
        f"{worst_pinv:.1e}, precond {worst_pre:.1e}, {elapsed:.2f}s",
    )


@pytest.mark.slow
def test_criterion_3_rmse_orderings(full_bench, capsys):
    cfg, res = full_bench["cfg"], full_bench["res"]
    best = full_bench["best_rmse"]
    rmse = {k: r.rmse for k, r in best.items()}
    orders, sizes = cfg.hermite_orders, cfg.ensemble_sizes
    others = [e for e in ESTIMATOR_IDS if e != "paired"]

    a_ok = all(
        rmse[("paired", o, n)] > rmse[(e, o, n)]
        for o in orders
        for n in sizes
        if n >= 6
        for e in others
    )
    b_ok = all(
        rmse[("avg_grad", o, n)] < rmse[(e, o, n)]
        for o in orders
        for n in sizes
        for e in ESTIMATOR_IDS
        if e != "avg_grad"
    )
    spread = max(
        max(rmse[(e, o, n)] for e in FAMILY) / min(rmse[(e, o, n)] for e in FAMILY) - 1.0
        for o in orders
        for n in sizes
        if n >= 10
    )
    c_ok = spread <= 0.15
    dec_f = 1.0 - rmse[("fragile", 3, 100)] / rmse[("fragile", 3, 30)]
    dec_s = 1.0 - rmse[("stosag", 3, 100)] / rmse[("stosag", 3, 30)]
    d_ok = dec_f < 0.10 and dec_s > 0.30
    e_ok = all(
        rmse[("fragile", o, n)] < rmse[("stosag", o, n)]
        for o in (3, 5)
        for n in (6, 8, 10, 15, 20, 30)
    )
    f_ok = True
    for n in sizes:
        plain = best[("plain_lls", 2, n)]
        lo, hi = bootstrap_band(
            *block_arrays(res, "plain_lls", 2, n, plain.lam), metric="rmse"
        )
        f_ok = f_ok and lo <= rmse[("fragile", 2, n)] <= hi
    ok = a_ok and b_ok and c_ok and d_ok and e_ok and f_ok and res.elapsed < 1800.0
    report(
        capsys,
        3,
        ok,
        f"a={a_ok} b={b_ok} c={c_ok} (spread {spread:.3f}) d={d_ok} "
        f"(fragile {dec_f:.3f}, stosag {dec_s:.3f}) e={e_ok} f={f_ok}, "
        f"{res.elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_4_bias_suite(full_bench, capsys):
    cfg, res = full_bench["cfg"], full_bench["res"]
    best_bias = full_bench["best_bias"]

    row = full_bench["best_rmse"][("fragile", 3, 100)]
    share = row.bias**2 / row.rmse**2

    # paired and stosag share an expectation at lam=0 (the baseline term is
    # independent of the controls and the anomaly pinv has zero mean), so the
    # bias comparison is a z-test on per-block signed mean differences; the
    # |mean| statistic itself never drops below paired's noise floor
    worst_z = 0.0
    for n in cfg.ensemble_sizes:
        sp, _, np_ = block_arrays(res, "paired", 3, n, 0.0)
        ss, _, _ = block_arrays(res, "stosag", 3, n, 0.0)
        means = (sp - ss) / np_[:, None]
        se = means.std(axis=0, ddof=1) / np.sqrt(means.shape[0])
        worst_z = max(worst_z, float(np.max(np.abs(means.mean(axis=0)) / se)))

    dec_ok = all(
        best_bias[("decorr", 3, n)].bias >= best_bias[("stosag", 3, n)].bias
        for n in cfg.ensemble_sizes
    )
    ok = share > 0.8 and worst_z <= 3.0 and dec_ok
    report(
        capsys,
        4,
        ok,
        f"fragile bias share {share:.3f}, paired-vs-stosag max z {worst_z:.2f}, "
        f"decorr>=stosag {dec_ok}",
    )


@pytest.mark.slow
@pytest.mark.skipif(_platform() != PIN_PLATFORM,
                    reason="digest recorded with numpy 2.4.6 on x86_64 with AVX512_SPR")
def test_full_grid_digest_pinned(full_bench):
    # the hash `python3 perfbench/full_grid.py` prints for the serial run: 50
    # blocks per cell, 10^4 trials; the stats bits hold for any worker count
    digest = _load("checks").stats_sha256(full_bench["res"].stats)
    assert digest == "ffa176448526a947ab490ca17a1e6bf72226bcbab39233ef8501a842ac018ce1"


def test_criterion_5_unbiased_preconditioned(capsys):
    d, dx, n_members = 5, 4, 16
    rng = np.random.default_rng(314159)
    a = rng.normal(size=(7, dx))
    b = rng.normal(size=(7, d))
    ell = rng.normal(size=(d, d)) * 0.4 + np.eye(d)
    c_u = ell @ ell.T
    target = bilinear_grad(b) @ c_u

    obj = bilinear_objective(a, b)
    u_spec = GaussianSpec(np.zeros(d), c_u)
    x_spec = GaussianSpec(np.zeros(dx), 1.0)
    specs = {k: EstimatorSpec(kind=k, precondition=True) for k in ("paired", "stosag")}

    n_seeds = 10000
    sums = {k: np.zeros(d) for k in specs}
    sqs = {k: np.zeros(d) for k in specs}
    for s in range(n_seeds):
        u = recenter(draw_ensemble(u_spec, n_members, child_seed(77, s, 0)))
        x = draw_ensemble(x_spec, n_members, child_seed(77, s, 1))
        for kind, spec in specs.items():
            g = estimate(obj, x, u, spec).grad
            sums[kind] += g
            sqs[kind] += g * g
    zs = {}
    for kind in specs:
        mean = sums[kind] / n_seeds
        se = np.sqrt((sqs[kind] / n_seeds - mean**2) / n_seeds)
        zs[kind] = float(np.max(np.abs(mean - target) / se))
    ok = all(z <= 3.0 for z in zs.values())
    report(
        capsys,
        5,
        ok,
        f"max |z| paired {zs['paired']:.2f}, stosag {zs['stosag']:.2f} "
        f"over {n_seeds} seeds",
    )


def test_criterion_6_variance_reduction_law(capsys):
    worst = 0.0
    for i, rho in enumerate((0.4, 0.7, 0.9)):
        for j, r in enumerate((0.3, 0.6, 0.9)):
            pred = r * (2.0 * rho - r)
            got = variance_improvement(rho, r, n_samples=4_000_000, seed=1000 + 10 * i + j)
            worst = max(worst, abs(got - pred) / abs(pred))
    ok = worst <= 0.05
    report(capsys, 6, ok, f"worst relative error {worst:.4f} on the 3x3 grid")


def test_criterion_7_consistency_slope(capsys):
    cfg = BenchConfig(
        base_seed=2026,
        n_trials=2000,
        hermite_orders=(3,),
        ensemble_sizes=(25, 50, 100, 200, 400),
        lambda_grid=(0.0,),
        estimators=("plain_lls",),
    )
    rows = sorted(aggregate(run_bench(cfg, workers=1).stats), key=lambda r: r.n)
    slope = float(
        np.polyfit(np.log([r.n for r in rows]), np.log([r.rmse for r in rows]), 1)[0]
    )
    ok = -0.7 <= slope <= -0.3
    report(capsys, 7, ok, f"log-log slope {slope:.3f}")


def test_criterion_8_descent_demo(capsys):
    cfg = DescentConfig()
    pts = [np.asarray(s, float) for s in cfg.starts]
    rng = np.random.default_rng(5150)
    pts += [rng.uniform(-3.0, 3.0, size=2) for _ in range(5)]
    worst_fd = 0.0
    for u in pts:
        for f, g in (
            (rastrigin_eval, rastrigin_grad),
            (rastrigin_blurred, rastrigin_blurred_grad),
        ):
            fd = fd_gradient(f, u, step=1e-5)
            an = np.asarray(g(u), dtype=float)
            worst_fd = max(worst_fd, np.abs(fd - an).max() / max(1.0, np.abs(an).max()))
    fd_ok = worst_fd <= 1e-6

    demo = run_rastrigin_demo(cfg)
    clean = not any(t.aborted for runs in demo.values() for t in runs)
    finals = {
        k: float(np.mean([rastrigin_eval(t.points[-1]) for t in v]))
        for k, v in demo.items()
    }
    ok = fd_ok and clean and finals["blurred"] < finals["exact"]
    report(
        capsys,
        8,
        ok,
        f"FD {worst_fd:.1e}, mean final exact {finals['exact']:.3f} vs "
        f"blurred {finals['blurred']:.3f}",
    )
