"""The estimator family: exactness identities, equivalences, accounting."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ensgrad.errors import DegenerateEnsembleError, DimensionError
from ensgrad import estimators
from ensgrad.estimators import (
    ESTIMATOR_IDS,
    SUBSAMPLED_IDS,
    Batch,
    CountingObjective,
    EstimatorSpec,
    estimate,
    estimate_batch,
)
from ensgrad.harness import DEFAULT_LAMBDAS
from ensgrad.linalg import PinvConfig, damp, sample_cross_cov, svd, tikhonov_pinv
from ensgrad.objectives import (
    ObjectiveSpec,
    bilinear_grad,
    bilinear_objective,
    hermite_objective,
)
from ensgrad.sampling import Ensemble, GaussianSpec, child_seed, draw_ensemble, recenter

D = 4
X_SPEC = GaussianSpec(np.linspace(-2.0, 2.0, D), 0.25)
U_SPEC = GaussianSpec(np.zeros(D), 0.01)


def draw_xu(seed, n=12, m=None, x_spec=X_SPEC, u_spec=U_SPEC):
    m = n if m is None else m
    x = draw_ensemble(x_spec, m, child_seed(seed, 0))
    u = recenter(draw_ensemble(u_spec, n, child_seed(seed, 1)))
    return x, u


def spec_for(kind, lam=0.0, **kw):
    return EstimatorSpec(kind=kind, pinv=PinvConfig(lam), **kw)


def rand_bilinear(seed, d=D):
    g = np.random.default_rng(seed)
    return bilinear_objective(g.standard_normal((3, d)), g.standard_normal((3, d)))


class TestBilinearExactness:
    # with full-rank regressors and lam=0, these land on the exact row 1^T B;
    # paired keeps an x-noise term, hybrid an O(1/M) covariance mismatch, and
    # average_lls is only exact per group when every group has rank d
    EXACT = [e for e in ESTIMATOR_IDS if e not in ("paired", "hybrid")]

    @pytest.mark.parametrize("kind", EXACT)
    def test_exact_gradient(self, kind):
        obj = rand_bilinear(0)
        truth = obj.grad_u(None, None)
        for seed in range(5):
            if kind == "average_lls":
                x, u = draw_xu(seed, n=12, m=2)
                spec = spec_for(kind, subsample_size=6)
            elif kind in SUBSAMPLED_IDS:
                x, u = draw_xu(seed, n=12, m=6)
                spec = spec_for(kind)
            else:
                x, u = draw_xu(seed, n=12)
                spec = spec_for(kind)
            out = estimate(obj, x, u, spec)
            assert np.abs(out.grad - truth).max() < 1e-9

    def test_hybrid_error_shrinks_with_group_count(self):
        # the pooled total covariance only matches the per-group average in
        # the large-M limit, so exactness here is asymptotic
        obj = rand_bilinear(99)
        truth = obj.grad_u(None, None)
        med = {}
        for m in (20, 2000):
            errs = []
            for seed in range(5):
                x, u = draw_xu(500 + seed, n=2 * m, m=m)
                out = estimate(obj, x, u, spec_for("hybrid"))
                errs.append(np.abs(out.grad - truth).max())
            med[m] = np.median(errs)
        assert med[2000] < 0.1
        assert med[2000] < med[20] / 3.0

    def test_paired_error_formula(self):
        # the leftover term is 1^T A X Ut^+; the x-noise does not cancel
        g = np.random.default_rng(1)
        a = g.standard_normal((3, D))
        b = g.standard_normal((3, D))
        obj = bilinear_objective(a, b)
        x, u = draw_xu(3, n=15)
        out = estimate(obj, x, u, spec_for("paired"))
        err = out.grad - bilinear_grad(b)
        predicted = a.sum(axis=0) @ x.members @ tikhonov_pinv(u.anomalies, PinvConfig(0.0))
        assert np.abs(err - predicted).max() < 1e-10
        assert np.abs(err).max() > 1e-3  # genuinely not exact

    def test_constant_loss_gives_zero(self):
        obj = ObjectiveSpec(name="const", value=lambda x, u: 4.2)
        x, u = draw_xu(4, n=8)
        for kind in ("plain_lls", "fragile", "paired", "stosag", "mirrored2s"):
            out = estimate(obj, x, u, spec_for(kind))
            assert np.abs(out.grad).max() < 1e-12


class TestPlainAndFragile:
    def test_fragile_equals_plain_when_loss_ignores_x(self):
        # loss depending on u alone makes the x-average and the mean-x
        # evaluations literally the same row
        obj = ObjectiveSpec(name="uonly", value=lambda x, u: float(np.sum(u**3)))
        x, u = draw_xu(5, n=10)
        a = estimate(obj, x, u, spec_for("plain_lls"))
        b = estimate(obj, x, u, spec_for("fragile"))
        assert np.allclose(a.grad, b.grad, atol=1e-13)

    def test_plain_averages_over_x(self):
        obj = rand_bilinear(6)
        x, u = draw_xu(6, n=10, m=7)
        out = estimate(obj, x, u, spec_for("plain_lls"))
        assert out.evals == 7 * 10
        assert np.abs(out.grad - obj.grad_u(None, None)).max() < 1e-9


class TestStosagFamily:
    def test_stosag_kills_pure_x_noise(self):
        obj = ObjectiveSpec(name="xonly", value=lambda x, u: float(np.sum(x**2)))
        x, u = draw_xu(7, n=9)
        out = estimate(obj, x, u, spec_for("stosag"))
        assert np.array_equal(out.grad, np.zeros(D))

    def test_one_sided_equals_stosag_hundred_cases(self):
        for case in range(100):
            order = (2, 3, 5)[case % 3]
            obj = hermite_objective(order, dims=D)
            lam = (0.0, 1e-3, 1e-1)[case % 3]
            x, u = draw_xu(100 + case, n=6 + case % 7)
            a = estimate(obj, x, u, spec_for("stosag", lam))
            b = estimate(obj, x, u, spec_for("one_sided", lam))
            scale = max(1.0, np.abs(a.grad).max())
            assert np.abs(a.grad - b.grad).max() <= 1e-12 * scale

    def test_requires_recentred_controls(self):
        x, _ = draw_xu(8, n=6)
        u_raw = draw_ensemble(U_SPEC, 6, child_seed(8, 1))
        obj = hermite_objective(2, dims=D)
        for kind in ("stosag", "one_sided", "mirrored2s", "decorr"):
            with pytest.raises(ValueError):
                estimate(obj, x, u_raw, spec_for(kind))

    def test_requires_paired_shapes(self):
        x, u = draw_xu(9, n=8, m=5)
        obj = hermite_objective(2, dims=D)
        for kind in ("paired", "stosag", "one_sided", "mirrored2s", "decorr"):
            with pytest.raises(DimensionError):
                estimate(obj, x, u, spec_for(kind))

    def test_variance_no_worse_than_paired(self):
        # the mean-control subtraction strips x-noise; per-dim spread must
        # drop, markedly so on the benchmark objectives
        for order in (2, 3):
            obj = hermite_objective(order, dims=D)
            pd, st = [], []
            for seed in range(1200):
                x, u = draw_xu(10_000 + seed, n=10)
                pd.append(estimate(obj, x, u, spec_for("paired")).grad)
                st.append(estimate(obj, x, u, spec_for("stosag")).grad)
            var_pd = np.var(np.array(pd), axis=0)
            var_st = np.var(np.array(st), axis=0)
            assert np.all(var_st <= var_pd)


class TestMirrored:
    def test_x_terms_cancel_exactly(self):
        # additive x-only structure drops out of the reflected difference
        g = np.random.default_rng(11)
        b = g.standard_normal((2, D))
        nasty = ObjectiveSpec(
            name="nasty",
            value=lambda x, u: float(np.exp(x).sum() + (b @ u).sum()),
        )
        clean = ObjectiveSpec(
            name="clean", value=lambda x, u: float((b @ u).sum())
        )
        x, u = draw_xu(11, n=9)
        a = estimate(nasty, x, u, spec_for("mirrored2s"))
        c = estimate(clean, x, u, spec_for("mirrored2s"))
        assert np.allclose(a.grad, c.grad, atol=1e-11)

    def test_even_loss_gives_zero(self):
        obj = ObjectiveSpec(
            name="even", value=lambda x, u: float(np.cos(u).sum())
        )
        x, u = draw_xu(12, n=7)
        out = estimate(obj, x, u, spec_for("mirrored2s"))
        assert np.abs(out.grad).max() < 1e-12

    def test_small_n_projects_onto_sampled_subspace(self):
        # with N <= d the estimate is the projection of 1^T B onto the
        # anomaly column space, still exact inside it
        obj = rand_bilinear(13)
        truth = obj.grad_u(None, None)
        x, u = draw_xu(13, n=3)
        out = estimate(obj, x, u, spec_for("mirrored2s"))
        ut = u.anomalies
        proj = truth @ (ut @ tikhonov_pinv(ut, PinvConfig(0.0)))
        assert np.abs(out.grad - proj).max() < 1e-10


class TestDecorr:
    def test_zero_psi_falls_back_to_paired(self):
        # loss independent of x makes the mean-control row constant
        obj = ObjectiveSpec(name="uonly", value=lambda x, u: float(np.sum(u**2)))
        x, u = draw_xu(14, n=8)
        a = estimate(obj, x, u, spec_for("decorr"))
        b = estimate(obj, x, u, spec_for("paired"))
        assert np.array_equal(a.grad, b.grad)

    def test_bilinear_error_eliminated(self):
        # psi is exactly the x-noise row, so projecting it out restores
        # near-exactness where paired fails
        obj = rand_bilinear(15)
        truth = obj.grad_u(None, None)
        x, u = draw_xu(15, n=12)
        out = estimate(obj, x, u, spec_for("decorr"))
        paired = estimate(obj, x, u, spec_for("paired"))
        assert np.abs(out.grad - truth).max() < 1e-6
        assert np.abs(paired.grad - truth).max() > 1e-3


class TestSubsampled:
    def test_groups_recentred_individually(self):
        # each x-member's subsample of nm consecutive controls is centred
        # about its own mean, on one trial and on a stack of trials alike
        x, u = draw_xu(15, n=12, m=4)
        anoms = Batch(rand_bilinear(15), x, u).group_anomalies(3)
        assert anoms.shape == (4, D, 3)
        for m in range(4):
            group = u.members[:, 3 * m:3 * m + 3]
            assert np.array_equal(anoms[m], group - group.mean(axis=1, keepdims=True))
        assert np.abs(anoms.mean(axis=-1)).max() < 1e-15
        stack = Ensemble(np.stack([u.members, 2.0 * u.members]), u.true_mean, recentred=True)
        xs = Ensemble(np.stack([x.members, x.members]), x.true_mean)
        both = Batch(rand_bilinear(15), xs, stack).group_anomalies(3)
        assert np.array_equal(both[0], anoms)
        assert np.array_equal(both[1], 2.0 * anoms)

    def test_two_sided_rejects_equal_pair(self):
        x, _ = draw_xu(16, n=4)
        members = np.repeat(draw_ensemble(U_SPEC, 4, 16).members, 2, axis=1)
        u = Ensemble(members=members, true_mean=np.zeros(D), recentred=False)
        with pytest.raises(DegenerateEnsembleError):
            estimate(rand_bilinear(16), x, u, spec_for("two_sided"))

    def test_two_sided_layout_checked(self):
        x, u = draw_xu(17, n=9, m=4)
        with pytest.raises(DimensionError):
            estimate(rand_bilinear(17), x, u, spec_for("two_sided"))

    def test_gen_stosag_pair_groups_equal_two_sided(self):
        for case in range(100):
            order = (2, 3, 5, None)[case % 4]
            obj = rand_bilinear(case) if order is None else hermite_objective(order, dims=D)
            m = 3 + case % 6
            x, u = draw_xu(300 + case, n=2 * m, m=m)
            a = estimate(obj, x, u, spec_for("two_sided"))
            b = estimate(obj, x, u, spec_for("gen_stosag", subsample_size=2))
            scale = max(1.0, np.abs(a.grad).max())
            assert np.abs(a.grad - b.grad).max() <= 1e-12 * scale

    def test_gen_stosag_unbiased_on_bilinear(self):
        # fresh groups each seed; sample mean of the estimate stays inside
        # a 3-SE band around the exact row (the spread itself is tiny)
        obj = rand_bilinear(18)
        truth = obj.grad_u(None, None)
        grads = []
        for seed in range(1000):
            x, u = draw_xu(20_000 + seed, n=9, m=3)
            out = estimate(obj, x, u, spec_for("gen_stosag", subsample_size=3))
            grads.append(out.grad)
        grads = np.array(grads)
        se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
        assert np.all(np.abs(grads.mean(axis=0) - truth) <= 3.0 * se + 1e-12)

    def test_average_lls_single_group_is_plain_row(self):
        obj = hermite_objective(3, dims=D)
        x, u = draw_xu(19, n=10, m=1)
        a = estimate(obj, x, u, spec_for("average_lls", subsample_size=10))
        b = estimate(obj, x, u, spec_for("plain_lls"))
        assert np.array_equal(a.grad, b.grad)

    def test_average_lls_pair_closed_form_matches_pinv(self):
        # the nm=2 fast path must agree with the generic damped pinv route
        obj = hermite_objective(3, dims=D)
        for lam in (0.0, 1e-2, 0.3):
            x, u = draw_xu(20, n=8, m=4)
            out = estimate(obj, x, u, spec_for("average_lls", lam))
            cfg = PinvConfig(lam)
            grads = []
            for m in range(4):
                g = u.members[:, 2 * m : 2 * m + 2]
                anoms = g - g.mean(axis=1, keepdims=True)
                row = np.array(
                    [obj.value(x.members[:, m], g[:, j]) for j in range(2)]
                )
                grads.append(row @ tikhonov_pinv(anoms, cfg))
            assert np.allclose(out.grad, np.mean(grads, axis=0), atol=1e-12)

    def test_average_lls_rejects_degenerate_pair(self):
        x, _ = draw_xu(21, n=3)
        members = np.repeat(draw_ensemble(U_SPEC, 3, 21).members, 2, axis=1)
        u = Ensemble(members=members, true_mean=np.zeros(D))
        with pytest.raises(DegenerateEnsembleError):
            estimate(rand_bilinear(21), x, u, spec_for("average_lls"))

    def test_group_count_validated(self):
        x, u = draw_xu(22, n=9, m=4)
        for kind in ("average_lls", "gen_stosag", "hybrid"):
            with pytest.raises(DimensionError):
                estimate(rand_bilinear(22), x, u, spec_for(kind))

    def test_hybrid_pooling_numerator_too_recovers_paired(self):
        # collapsing the per-group split entirely (one pooled cross-cov
        # against the pooled covariance) is algebraically the paired
        # estimator; guards the pooled-denominator code against drifting
        # into that
        obj = hermite_objective(3, dims=D)
        x, u = draw_xu(23, n=14, m=2)
        # each group's x repeated along its block turns the group layout
        # into a plain paired layout
        x_rep = Ensemble(
            members=np.repeat(x.members, 7, axis=1), true_mean=x.true_mean
        )
        row = np.array(
            [obj.value(x_rep.members[:, n], u.members[:, n]) for n in range(14)]
        )
        anoms = u.anomalies
        pooled_num = sample_cross_cov(row, anoms)
        pooled_cov = anoms @ anoms.T / (14 - 1)
        collapsed = pooled_num @ tikhonov_pinv(pooled_cov, PinvConfig(0.0))
        paired = estimate(obj, x_rep, u, spec_for("paired"))
        assert np.abs(collapsed - paired.grad).max() < 1e-9
        hybrid = estimate(obj, x, u, spec_for("hybrid", subsample_size=7))
        assert np.abs(hybrid.grad - paired.grad).max() > 1e-6


class TestAvgGrad:
    def test_exact_on_linear(self):
        obj = hermite_objective(1, dims=D)
        x, u = draw_xu(24, n=8, m=5)
        out = estimate(obj, x, u, spec_for("avg_grad"))
        assert np.allclose(out.grad, np.ones(D), atol=1e-14)
        assert out.evals == 5 * 8

    def test_zero_on_constant(self):
        obj = hermite_objective(0, dims=D)
        x, u = draw_xu(25, n=8)
        out = estimate(obj, x, u, spec_for("avg_grad"))
        assert np.array_equal(out.grad, np.zeros(D))

    def test_diagonal_pairing_flag(self):
        obj = hermite_objective(3, dims=D)
        x, u = draw_xu(26, n=8)
        full = estimate(obj, x, u, spec_for("avg_grad"))
        diag = estimate(obj, x, u, spec_for("avg_grad", avg_grad_diagonal=True))
        assert full.evals == 64 and diag.evals == 8
        assert not np.allclose(full.grad, diag.grad, atol=1e-12)
        pairs = [obj.grad_u(x.members[:, n], u.members[:, n]) for n in range(8)]
        assert np.allclose(diag.grad, np.mean(pairs, axis=0))


class TestAccounting:
    CONTRACTS = {
        "plain_lls": lambda m, n: (m * n, 0),
        "fragile": lambda m, n: (n, 0),
        "paired": lambda m, n: (n, 0),
        "stosag": lambda m, n: (n, m),
        "one_sided": lambda m, n: (n, m),
        "decorr": lambda m, n: (n, m),
        "mirrored2s": lambda m, n: (2 * n, 0),
        "average_lls": lambda m, n: (n, 0),
        "gen_stosag": lambda m, n: (n, 0),
        "hybrid": lambda m, n: (n, 0),
        "two_sided": lambda m, n: (n, 0),
    }

    @pytest.mark.parametrize("kind", sorted(CONTRACTS))
    def test_eval_and_cache_counts(self, kind):
        m, n = (5, 10) if kind in SUBSAMPLED_IDS else (10, 10)
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(27, n=n, m=m)
        out = estimate(obj, x, u, spec_for(kind))
        evals, cached = self.CONTRACTS[kind](m, n)
        assert (out.evals, out.cached) == (evals, cached)
        assert obj.evals == evals + cached

    def test_charge_cached_folds_into_evals(self):
        x, u = draw_xu(28, n=10)
        obj = hermite_objective(3, dims=D)
        out = estimate(obj, x, u, spec_for("stosag", charge_cached=True))
        assert (out.evals, out.cached) == (20, 0)

    @pytest.mark.parametrize("kind", ESTIMATOR_IDS)
    def test_lambda_sweep_reuses_values(self, kind):
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(29, n=10, m=5 if kind in SUBSAMPLED_IDS else 10)
        first = estimate(obj, x, u, spec_for(kind, 0.0))
        before = (obj.evals, obj.grad_evals)
        out = estimate(obj, x, u, spec_for(kind, 0.1))
        assert (obj.evals, obj.grad_evals) == before
        assert (out.evals, out.cached) == (first.evals, first.cached)

    @pytest.mark.parametrize("kind", ESTIMATOR_IDS)
    def test_ensemble_edited_in_place_is_evaluated_again(self, kind):
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(34, n=10, m=5 if kind in SUBSAMPLED_IDS else 10)
        estimate(obj, x, u, spec_for(kind))
        x.members[:, 0] += 0.5
        got = estimate(obj, x, u, spec_for(kind))
        fresh = estimate(CountingObjective(hermite_objective(3, dims=D)), x, u, spec_for(kind))
        assert np.array_equal(got.grad, fresh.grad)

    def test_lambda_sweep_has_the_bits_of_fresh_calls(self):
        # a sweep's order: each estimator at every default lambda, all through
        # one objective, paired and pooled controls alternating
        x, u = draw_xu(37, n=6)
        vw = recenter(draw_ensemble(U_SPEC, 12, child_seed(37, 2)))
        obj = CountingObjective(hermite_objective(3, dims=D))
        for kind in ESTIMATOR_IDS:
            ens = vw if kind in SUBSAMPLED_IDS else u
            for lam in DEFAULT_LAMBDAS:
                got = estimate(obj, x, ens, spec_for(kind, lam))
                fresh = estimate(CountingObjective(hermite_objective(3, dims=D)), x, ens,
                                 spec_for(kind, lam))
                assert got.grad.tobytes() == fresh.grad.tobytes(), (kind, lam)
                assert (got.evals, got.cached) == (fresh.evals, fresh.cached)

    def test_lambda_sweep_projects_each_row_once(self):
        x, u = draw_xu(39, n=6)
        obj = CountingObjective(hermite_objective(3, dims=D))
        estimate(obj, x, u, spec_for("paired", 0.0))
        memo = obj._memos[0][1]
        projected = memo[("projected", "values", "U")]
        estimate(obj, x, u, spec_for("paired", 0.1))
        assert memo[("projected", "values", "U")] is projected

    def test_degenerate_pair_raises_at_every_lambda_of_a_sweep(self):
        # the pair check is memoised with the pair differences, so a pair
        # with v == w must fail on every call, not only on the first
        x, _ = draw_xu(38, n=3)
        members = np.repeat(draw_ensemble(U_SPEC, 3, 38).members, 2, axis=1)
        vw = Ensemble(members=members, true_mean=np.zeros(D))
        obj = CountingObjective(hermite_objective(3, dims=D))
        for lam in DEFAULT_LAMBDAS:
            for kind in ("two_sided", "average_lls"):
                with pytest.raises(DegenerateEnsembleError):
                    estimate(obj, x, vw, spec_for(kind, lam))

    def test_memo_holds_no_reference_cycle(self):
        obj = CountingObjective(hermite_objective(3, dims=D))
        ref = weakref.ref(obj)
        gc.disable()
        try:
            for kind in ESTIMATOR_IDS:
                x, u = draw_xu(35, n=10, m=5 if kind in SUBSAMPLED_IDS else 10)
                estimate(obj, x, u, spec_for(kind))
            del obj
            assert ref() is None
        finally:
            gc.enable()

    def test_memos_stay_bounded_over_fresh_ensembles(self):
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(36, n=3)
        for step in range(10_000):
            estimate(obj, Ensemble(x.members + step, x.true_mean), u, spec_for("stosag"))
        assert len(obj._memos) <= 2
        # a sweep alternating (X, U) and (X, VW) still reuses both pairs
        vw = recenter(draw_ensemble(U_SPEC, 6, child_seed(36, 2)))
        for lam in (0.0, 0.1):
            before = obj.evals
            estimate(obj, x, u, spec_for("stosag", lam))
            estimate(obj, x, vw, spec_for("two_sided", lam))
        assert obj.evals == before

    def test_stacked_controls_are_charged_per_trial(self):
        # a 2-D X against a stack of T controls is T trials of N pairs
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(31, n=6)
        obj.pairs(x.members, np.stack([u.members] * 3))
        assert obj.evals == 6 * 3

    def test_grad_evals_separate_counter(self):
        obj = CountingObjective(hermite_objective(3, dims=D))
        x, u = draw_xu(30, n=6, m=4)
        estimate(obj, x, u, spec_for("avg_grad"))
        assert obj.grad_evals == 24 and obj.evals == 0


class TestPlans:
    """Each estimator's body builds a lambda-free plan once per Batch and
    spec; lambdas are applied to the kept plan."""

    @staticmethod
    def count_bodies(monkeypatch):
        calls = dict.fromkeys(ESTIMATOR_IDS, 0)
        for kind, body in estimators._DISPATCH.items():
            def counted(*args, kind=kind, body=body):
                calls[kind] += 1
                return body(*args)
            monkeypatch.setitem(estimators._DISPATCH, kind, counted)
        return calls

    def test_lambda_sweep_runs_each_body_once(self, monkeypatch):
        calls = self.count_bodies(monkeypatch)
        counts = {"svd": 0, "damp": 0}
        for name in counts:
            def counted(*args, name=name, fn=getattr(estimators, name)):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(estimators, name, counted)
        x, u = draw_xu(40, n=6)
        vw = recenter(draw_ensemble(U_SPEC, 12, child_seed(40, 2)))
        obj = CountingObjective(hermite_objective(3, dims=D))
        for kind in ESTIMATOR_IDS:
            for lam in DEFAULT_LAMBDAS:
                estimate(obj, x, vw if kind in SUBSAMPLED_IDS else u, spec_for(kind, lam))
        assert calls == dict.fromkeys(ESTIMATOR_IDS, 1)
        # paired controls, decorr's own, two_sided's differences and the two
        # covariances of gen_stosag and hybrid, each damped at every lambda
        assert counts == {"svd": 5, "damp": 5 * len(DEFAULT_LAMBDAS)}

    # a second value of each field the plan key reads; `avg_grad` reads them all
    OTHER = {"kind": "paired", "precondition": True, "subsample_size": 3,
             "avg_grad_diagonal": True}

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EstimatorSpec)])
    def test_specs_differing_in_a_keyed_field_get_two_plans(self, field, monkeypatch):
        calls = self.count_bodies(monkeypatch)
        other = self.OTHER | {"pinv": PinvConfig(0.1), "charge_cached": True}
        x, u = draw_xu(43, n=6)
        batch = Batch(hermite_objective(3, dims=D), x, u)
        first = EstimatorSpec(kind="avg_grad")
        for spec in (first, dataclasses.replace(first, **{field: other[field]}), first):
            estimate_batch(batch, spec)
        keyed = field not in ("pinv", "charge_cached")
        assert sum(calls.values()) == (2 if keyed else 1)


class TestSharedMemo:
    """Batches of two objectives on the same controls share one memo of the
    controls' factorisations, with the bits of separate Batches."""

    GRID = (0.0, 1e-2)
    OBJECTIVES = (hermite_objective(2, dims=D), hermite_objective(5, dims=D))

    @staticmethod
    def stacked(seed, m, n, k=3):
        draws = [draw_xu(seed + t, n=n, m=m) for t in range(k)]
        X = Ensemble(np.stack([x.members for x, _ in draws]), X_SPEC.mean)
        U = Ensemble(np.stack([u.members for _, u in draws]), U_SPEC.mean, recentred=True)
        return X, U

    @pytest.mark.parametrize("subsampled", [False, True], ids=["paired", "subsampled"])
    def test_shared_memo_gives_the_bits_of_separate_batches(self, subsampled):
        X, U = self.stacked(41, 6, 12 if subsampled else 6)
        shared, keys = {}, []
        for obj in self.OBJECTIVES:
            batch = Batch(obj, X, U, shared=shared)
            for kind in ESTIMATOR_IDS:
                if (kind in SUBSAMPLED_IDS) != subsampled:
                    continue
                spec = EstimatorSpec(kind=kind)
                got = estimate_batch(batch, spec, self.GRID)
                alone = estimate_batch(Batch(obj, X, U), spec, self.GRID)
                assert np.array_equal(got[0], alone[0]), kind
                assert got[1:] == alone[1:], kind
            keys.append(set(shared))
        # the second objective found every factorisation in the memo
        assert keys[0] == keys[1] and keys[0]

    def test_decorr_svd_stays_out_of_the_shared_memo(self):
        # decorr's controls depend on the objective, so their SVD must not
        # be found by a Batch of another objective
        X, U = self.stacked(42, 6, 6)
        shared = {}
        for obj in self.OBJECTIVES:
            estimate_batch(Batch(obj, X, U, shared=shared), EstimatorSpec(kind="decorr"),
                           self.GRID)
        assert shared == {}
        estimate_batch(Batch(self.OBJECTIVES[0], X, U, shared=shared),
                       EstimatorSpec(kind="paired"), self.GRID)
        _, s, _ = shared[("svd", "U")]
        assert np.array_equal(s, svd(U.anomalies)[1])


class TestOneLambda:
    """`estimate()` asks `damp` for one lambda, which it takes as a float on a
    branch of its own; that branch gives the bits of the grid's row."""

    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("precondition", [False, True], ids=["plain", "preconditioned"])
    def test_estimate_is_its_row_of_the_grid(self, n, precondition):
        x, u = draw_xu(44, n=n)
        vw = recenter(draw_ensemble(U_SPEC, 2 * n, child_seed(44, 2)))
        obj = hermite_objective(3, dims=D)
        for kind in ESTIMATOR_IDS:
            ens = vw if kind in SUBSAMPLED_IDS else u
            grid = estimate_batch(Batch(obj, x, ens), spec_for(kind, precondition=precondition),
                                  DEFAULT_LAMBDAS)[0]
            for row, lam in zip(grid, DEFAULT_LAMBDAS):
                got = estimate(obj, x, ens, spec_for(kind, lam, precondition=precondition))
                assert np.array_equal(got.grad, row), (kind, lam)

    @pytest.mark.parametrize("s", [np.array([3.0, 1.0, 2e-12, 1e-13, 0.0, 0.0]),
                                   np.array([[2.0, 1.0, 0.5], [0.0, 0.0, 0.0]]),
                                   np.array([[1.0, 1e-300], [1e-300, 1e-301]])],
                             ids=["zero-tail", "zero-row", "1e-300"])
    def test_damp_one_lambda_is_its_row_of_the_grid(self, s):
        grid = damp(s, DEFAULT_LAMBDAS)
        for row, lam in zip(grid, DEFAULT_LAMBDAS):
            assert np.array_equal(damp(s, (lam,))[0], row), lam


class TestPreconditioned:
    def test_row_estimators_use_cross_cov(self):
        obj = hermite_objective(3, dims=D)
        x, u = draw_xu(31, n=12)
        for kind in ("plain_lls", "fragile", "paired", "stosag", "mirrored2s"):
            out = estimate(obj, x, u, spec_for(kind, precondition=True))
            damped = estimate(obj, x, u, spec_for(kind))
            cov = u.anomalies @ u.anomalies.T / (u.n - 1)
            assert np.abs(out.grad @ tikhonov_pinv(cov, PinvConfig(0.0))
                          - damped.grad).max() < 1e-9

    def test_two_sided_preconditioned_form(self):
        obj = hermite_objective(2, dims=D)
        x, u = draw_xu(32, n=8, m=4)
        out = estimate(obj, x, u, spec_for("two_sided", precondition=True))
        v, w = u.members[:, 0::2], u.members[:, 1::2]
        row = np.array(
            [obj.value(x.members[:, m], v[:, m])
             - obj.value(x.members[:, m], w[:, m]) for m in range(4)]
        )
        assert np.allclose(out.grad, row @ (v - w).T / 8.0, atol=1e-13)

    def test_group_estimators_return_mean_cross_cov(self):
        obj = hermite_objective(2, dims=D)
        x, u = draw_xu(33, n=12, m=4)
        a = estimate(obj, x, u, spec_for("gen_stosag", subsample_size=3,
                                         precondition=True))
        b = estimate(obj, x, u, spec_for("hybrid", subsample_size=3,
                                         precondition=True))
        assert np.array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("field, value", [
        ("subsample_size", 3.0), ("subsample_size", True), ("subsample_size", "3"),
        ("charge_cached", "no"), ("precondition", "no"), ("avg_grad_diagonal", "no"),
        ("precondition", 1)])
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EstimatorSpec(kind="average_lls", **{field: value})

    def test_numpy_scalars_accepted(self):
        obj = hermite_objective(3, dims=D)
        x, u = draw_xu(45, n=9, m=3)
        spec = EstimatorSpec(kind="average_lls", subsample_size=np.int64(3),
                             precondition=np.bool_(True))
        want = estimate(obj, x, u, spec_for("average_lls", subsample_size=3, precondition=True))
        assert np.array_equal(estimate(obj, x, u, spec).grad, want.grad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec(kind="nope")
        with pytest.raises(ValueError):
            EstimatorSpec(kind="stosag", subsample_size=1)
