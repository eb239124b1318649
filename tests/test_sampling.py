"""Ensemble draws, reshaping, and the decorrelation transform."""

import re
import warnings

import numpy as np
import pytest

from ensgrad.errors import DimensionError, InsufficientSampleError
from ensgrad.sampling import (
    COLLAPSE_RTOL,
    Ensemble,
    GaussianSpec,
    child_seed,
    decorrelate,
    draw_ensemble,
    mirror,
    read_ensemble_csv,
    read_values_csv,
    recenter,
    rng_from,
    write_ensemble_csv,
)

SPEC3 = GaussianSpec(mean=np.array([1.0, -2.0, 0.5]), cov=0.25)


class TestDraws:
    def test_replay_is_bitwise(self):
        a = draw_ensemble(SPEC3, 11, child_seed(42, 0))
        b = draw_ensemble(SPEC3, 11, child_seed(42, 0))
        assert np.array_equal(a.members, b.members)

    def test_sibling_streams_differ(self):
        a = draw_ensemble(SPEC3, 11, child_seed(42, 0))
        b = draw_ensemble(SPEC3, 11, child_seed(42, 1))
        assert not np.array_equal(a.members, b.members)

    def test_spawn_key_independent_of_consumption_order(self):
        late = draw_ensemble(SPEC3, 5, child_seed(7, 3))
        _ = rng_from(child_seed(7, 0)).standard_normal(1000)
        again = draw_ensemble(SPEC3, 5, child_seed(7, 3))
        assert np.array_equal(late.members, again.members)

    def test_scalar_cov_scale(self):
        e = draw_ensemble(GaussianSpec(np.zeros(2), cov=4.0), 200_000, 3)
        assert np.allclose(e.members.var(axis=1), 4.0, rtol=0.02)

    def test_zero_scalar_cov_draws_the_mean(self):
        spec = GaussianSpec(np.array([1.0, -2.0, 0.5]), 0.0)
        assert np.array_equal(spec.factor(), np.zeros((3, 3)))
        members = draw_ensemble(spec, 4, 9).members
        assert np.array_equal(members, np.repeat(spec.mean[:, None], 4, axis=1))

    def test_diagonal_and_full_cov_factor(self):
        diag = GaussianSpec(np.zeros(2), cov=np.array([4.0, 9.0]))
        l = diag.factor()
        assert np.allclose(l @ l.T, np.diag([4.0, 9.0]))
        full = np.array([[2.0, 0.6], [0.6, 1.0]])
        l = GaussianSpec(np.zeros(2), cov=full).factor()
        assert np.allclose(l @ l.T, full)

    def test_variances_of_each_cov_shape(self):
        full = np.array([[2.0, 0.3, 0.0], [0.3, 0.5, -0.1], [0.0, -0.1, 1.5]])
        for cov, want in ((0.25, np.full(3, 0.25)), (np.diag(full), np.diag(full)),
                          (full, np.diag(full))):
            assert np.array_equal(GaussianSpec(SPEC3.mean, cov).variances, want)

    @pytest.mark.parametrize("cov", [np.array([0.5]), np.ones((2, 2)), np.ones((3, 2))],
                             ids=["diag-1", "full-2", "full-3x2"])
    def test_variances_reject_a_covariance_of_another_dim(self, cov):
        with pytest.raises(DimensionError, match=re.escape(
                f"covariance shape {cov.shape} does not match dim 3")):
            GaussianSpec(SPEC3.mean, cov)

    def test_semidefinite_cov_ok_indefinite_raises(self):
        psd = np.array([[1.0, 1.0], [1.0, 1.0]])
        l = GaussianSpec(np.zeros(2), cov=psd).factor()
        assert np.allclose(l @ l.T, psd, atol=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            GaussianSpec(np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]])).factor()

    @staticmethod
    def factor_per_call(cov, d):
        """Each covariance shape's factor formula, computed afresh: the
        reference for the factor a spec keeps."""
        if np.isscalar(cov):
            return np.sqrt(float(cov)) * np.eye(d)
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 1:
            return np.diag(np.sqrt(cov))
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(cov)
            return v * np.sqrt(np.clip(w, 0.0, None))

    @pytest.mark.parametrize("cov", [
        0.25, np.array([0.5, 0.1, 2.0]),
        np.array([[2.0, 0.3, 0.0], [0.3, 0.5, -0.1], [0.0, -0.1, 1.5]]),
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]]),
    ], ids=["scalar", "diagonal", "full", "semidefinite"])
    def test_factor_is_kept_read_only_with_the_per_call_bits(self, cov):
        spec = GaussianSpec(SPEC3.mean, cov)
        l = spec.factor()
        assert l is spec.factor()
        assert np.array_equal(l, self.factor_per_call(cov, 3))
        for a in (l, spec.variances):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_array_covariance_is_a_read_only_copy(self):
        cov = np.array([0.5, 0.1, 2.0])
        spec = GaussianSpec(SPEC3.mean, cov)
        cov[0] = 9.0  # the caller's array stays theirs
        assert spec.cov[0] == 0.5 and spec.variances[0] == 0.5
        assert not spec.cov.flags.writeable

    @pytest.mark.parametrize("cov,error,msg", [
        (-1.0, np.linalg.LinAlgError, "negative covariance scale"),
        (np.array([0.5, -0.1, 2.0]), np.linalg.LinAlgError, "invalid diagonal covariance"),
        (np.diag([1.0, -1.0, 1.0]), np.linalg.LinAlgError, "not positive semidefinite"),
        (np.ones((3, 3, 3)), DimensionError, "scalar, 1-D or 2-D, got 3-D"),
    ], ids=["negative", "negative-diagonal", "indefinite", "3-D"])
    def test_bad_covariance_raises_when_built(self, cov, error, msg):
        with pytest.raises(error, match=msg):
            GaussianSpec(SPEC3.mean, cov)

    def test_n_validation(self):
        with pytest.raises(InsufficientSampleError):
            draw_ensemble(SPEC3, 0, 1)


class TestRecenter:
    def test_sample_mean_hits_true_mean_exactly(self):
        e = recenter(draw_ensemble(SPEC3, 7, 5))
        assert np.abs(e.members.mean(axis=1) - e.true_mean).max() < 1e-15

    def test_idempotent(self):
        e = recenter(draw_ensemble(SPEC3, 7, 5))
        again = recenter(e)
        assert np.array_equal(e.members, again.members)

    def test_stack_recentred_per_trial(self):
        trials = [draw_ensemble(SPEC3, 7, child_seed(5, t)) for t in range(4)]
        stack = recenter(Ensemble(np.stack([e.members for e in trials]), SPEC3.mean))
        assert stack.recentred
        assert np.array_equal(stack.members, np.stack([recenter(e).members for e in trials]))

    def test_needs_two_members(self):
        with pytest.raises(InsufficientSampleError):
            recenter(draw_ensemble(SPEC3, 1, 5))


class TestMirror:
    def test_requires_recentred(self):
        with pytest.raises(ValueError):
            mirror(draw_ensemble(SPEC3, 6, 1))

    def test_reflection_sums_to_two_mu(self):
        e = recenter(draw_ensemble(SPEC3, 6, 1))
        assert np.abs(e.members + mirror(e) - 2.0 * e.true_mean[:, None]).max() < 1e-15

    def test_stack_mirrored_per_trial(self):
        trials = [recenter(draw_ensemble(SPEC3, 5, child_seed(8, t))) for t in range(3)]
        stack = Ensemble(np.stack([e.members for e in trials]), SPEC3.mean, recentred=True)
        assert np.array_equal(mirror(stack), np.stack([mirror(e) for e in trials]))

    def test_pooled_covariance_identity_zero_mean(self):
        # with mu = 0 the reflection is an exact negation, so the pooled
        # second moment over 2N members equals Ut Ut^T / N bitwise-tight
        e = recenter(draw_ensemble(GaussianSpec(np.zeros(3), 1.0), 9, 2))
        pooled = np.concatenate([e.members, mirror(e)], axis=1)
        lhs = pooled @ pooled.T / pooled.shape[1]
        ut = e.members - e.true_mean[:, None]
        assert np.abs(lhs - ut @ ut.T / e.n).max() < 1e-15

    def test_pooled_covariance_identity_general_mean(self):
        e = recenter(draw_ensemble(SPEC3, 9, 2))
        pooled = np.concatenate([e.members, mirror(e)], axis=1)
        anoms = pooled - pooled.mean(axis=1, keepdims=True)
        ut = e.members - e.true_mean[:, None]
        assert np.abs(anoms @ anoms.T / pooled.shape[1] - ut @ ut.T / e.n).max() < 1e-13


class TestDecorrelate:
    def _ens(self, n=12, seed=6):
        return recenter(draw_ensemble(SPEC3, n, seed))

    def test_orthogonal_to_psi(self):
        e = self._ens()
        psi = rng_from(9).standard_normal(e.n)
        psi -= psi.mean()
        out = decorrelate(e, psi)
        anoms = out.members - out.true_mean[:, None]
        scale = np.linalg.norm(anoms, axis=1) * np.linalg.norm(psi)
        assert np.abs(anoms @ psi).max() <= 1e-10 * scale.max()

    def test_row_variances_restored(self):
        e = self._ens()
        psi = rng_from(10).standard_normal(e.n)
        out = decorrelate(e, psi - psi.mean())
        s_in = np.linalg.norm(e.members - e.true_mean[:, None], axis=1)
        s_out = np.linalg.norm(out.members - out.true_mean[:, None], axis=1)
        assert np.abs(s_out - s_in).max() <= 1e-10 * s_in.max()

    def test_still_recentred(self):
        e = self._ens()
        psi = rng_from(11).standard_normal(e.n)
        out = decorrelate(e, psi - psi.mean())
        assert out.recentred
        assert np.abs(out.members.mean(axis=1) - out.true_mean).max() < 1e-13

    def test_uncentred_psi_handled(self):
        # the projection must act on the centred part of psi
        e = self._ens()
        psi = rng_from(12).standard_normal(e.n)
        a = decorrelate(e, psi)
        b = decorrelate(e, psi - psi.mean())
        assert np.allclose(a.members, b.members)

    def test_zero_psi_warns_and_passes_through(self):
        # the note is the one report of a zero psi; no warning is raised
        e = self._ens()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decorrelate(e, np.zeros(e.n))
        assert out.note == "psi-zero"
        assert np.array_equal(out.members, e.members)

    def test_rank_collapse_flagged(self):
        # a row proportional to psi is annihilated by the projection
        e = self._ens(n=8, seed=13)
        psi = e.members[0] - e.true_mean[0]
        out = decorrelate(e, psi)
        assert out.note == "rank-collapse"
        assert np.all(np.isfinite(out.members))

    def test_requires_recentred(self):
        e = draw_ensemble(SPEC3, 8, 14)
        with pytest.raises(ValueError):
            decorrelate(e, np.zeros(8))

    def test_psi_shape_checked(self):
        e = self._ens()
        with pytest.raises(DimensionError):
            decorrelate(e, np.zeros(e.n + 1))


# Ensemble.anomalies, recenter and decorrelate as written with numpy's `mean`
# and `linalg.norm`. The package calls the ufuncs under those wrappers
# directly (a sum, then a divide by the count; the root of a sum of squares),
# which must leave every bit where the wrappers put it.


def anomalies_by_mean(e):
    return e.members - e.members.mean(axis=-1, keepdims=True)


def recenter_by_mean(e):
    return e.members + (e.true_mean - e.members.mean(axis=-1))[..., None]


def decorrelate_by_norm(e, psi):
    psi = psi - psi.mean(axis=-1, keepdims=True)
    nrm2 = psi[..., None, :] @ psi[..., :, None]
    zero = nrm2 == 0.0
    a0 = e.members - e.true_mean[:, None]
    a1 = a0 - (a0 @ psi[..., None]) * psi[..., None, :] / np.where(zero, 1.0, nrm2)
    s0, s1 = np.linalg.norm(a0, axis=-1), np.linalg.norm(a1, axis=-1)
    collapsed = (s1 <= COLLAPSE_RTOL * s0) & (s0 > 0.0)
    scale = np.where(collapsed | (s0 == 0.0), 1.0, s0 / np.where(s1 > 0, s1, 1.0))
    return np.where(zero, e.members, e.true_mean[:, None] + a1 * scale[..., None])


def stacked_draws(n, seed, k):
    members = [draw_ensemble(SPEC3, n, child_seed(seed, t)).members for t in range(k)]
    return Ensemble(np.stack(members), SPEC3.mean)


class TestWrapperForms:
    # 12 and 200 members are past the 8 below which numpy's pairwise sum is
    # a plain loop, and 200 past its 128-wide blocks
    @pytest.mark.parametrize("n", [3, 12, 200])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_anomalies_and_recenter(self, n, stacked):
        e = stacked_draws(n, 15, k=4) if stacked else draw_ensemble(SPEC3, n, 15)
        assert np.array_equal(e.anomalies, anomalies_by_mean(e))
        assert np.array_equal(recenter(e).members, recenter_by_mean(e))

    @pytest.mark.parametrize("n", [8, 12, 200])
    def test_decorrelate(self, n):
        one = recenter(draw_ensemble(SPEC3, n, 16))
        g = rng_from(17)
        cases = ((g.standard_normal(n) + 3.0, ""), (np.zeros(n), "psi-zero"),
                 (one.members[0] - one.true_mean[0], "rank-collapse"))
        for psi, note in cases:
            out = decorrelate(one, psi)
            assert out.note == note
            assert np.array_equal(out.members, decorrelate_by_norm(one, psi))
        stack = recenter(stacked_draws(n, 16, k=3))
        psi = np.stack([g.standard_normal(n), np.zeros(n), stack.members[2, 1] - SPEC3.mean[1]])
        out = decorrelate(stack, psi)
        assert out.note == "rank-collapse"
        assert np.array_equal(out.members, decorrelate_by_norm(stack, psi))


# the two layouts of the CSV readers: (reader, the text before the first row)
LAYOUTS = pytest.mark.parametrize("read,head", [(read_ensemble_csv, "dim_0,dim_1\n"),
                                                (read_values_csv, "")],
                                  ids=["ensemble", "headerless"])


class TestEnsembleCsv:
    # the edge members: an int zero, a signed zero, the smallest subnormal, a
    # large and an inexact float, with their exact text on disk
    @pytest.mark.parametrize("members,text", [
        (rng_from(15).standard_normal((4, 7)) * 1e-3, None),
        ([[0, -0.0, 5e-324, 1e16, 0.1]], "dim_0\n0.0\n-0.0\n5e-324\n1e+16\n0.1\n"),
    ])
    def test_round_trip_exact(self, tmp_path, members, text):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, members)
        back = read_ensemble_csv(path)
        assert np.array_equal(back, members)
        assert np.array_equal(np.signbit(back), np.signbit(members))
        assert back.flags.c_contiguous  # the layout of a drawn ensemble
        if text is not None:
            assert path.read_text() == text

    def test_header_layout(self, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, np.zeros((2, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "dim_0,dim_1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DimensionError):
            read_ensemble_csv(path)

    def assert_fault(self, path, read, error, line=None):
        with pytest.raises(error) as info:
            read(path)
        assert type(info.value) is error  # the same class in both layouts
        if line is not None:
            assert str(info.value).startswith(f"{path}:{line}: ")

    @LAYOUTS
    def test_ragged_rows_rejected(self, tmp_path, read, head):
        path = tmp_path / "ragged.csv"
        path.write_text(head + "1.0,2.0\n3.0\n")
        self.assert_fault(path, read, DimensionError, 2 + bool(head))

    @LAYOUTS
    def test_empty_rejected(self, tmp_path, read, head):
        path = tmp_path / "empty.csv"
        path.write_text(head)
        self.assert_fault(path, read, InsufficientSampleError)

    @LAYOUTS
    def test_non_numeric_cell_rejected(self, tmp_path, read, head):
        path = tmp_path / "text.csv"
        path.write_text(head + "1.0,2.0\n3.0,oops\n")
        self.assert_fault(path, read, ValueError, 2 + bool(head))

    @LAYOUTS
    def test_non_finite_cell_rejected(self, tmp_path, read, head):
        path = tmp_path / "nan.csv"  # a blank line counts as a line
        path.write_text(head + "1.0,2.0\n\n3.0,nan\n")
        self.assert_fault(path, read, ValueError, 3 + bool(head))
