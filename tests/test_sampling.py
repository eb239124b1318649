"""Ensemble draws, reshaping, and the decorrelation transform."""

import warnings

import numpy as np
import pytest

from ensgrad.errors import DimensionError, InsufficientSampleError
from ensgrad.sampling import (
    Ensemble,
    GaussianSpec,
    child_seed,
    decorrelate,
    draw_ensemble,
    mirror,
    read_ensemble_csv,
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

    def test_diagonal_and_full_cov_factor(self):
        diag = GaussianSpec(np.zeros(2), cov=np.array([4.0, 9.0]))
        l = diag.factor()
        assert np.allclose(l @ l.T, np.diag([4.0, 9.0]))
        full = np.array([[2.0, 0.6], [0.6, 1.0]])
        l = GaussianSpec(np.zeros(2), cov=full).factor()
        assert np.allclose(l @ l.T, full)

    def test_semidefinite_cov_ok_indefinite_raises(self):
        psd = np.array([[1.0, 1.0], [1.0, 1.0]])
        l = GaussianSpec(np.zeros(2), cov=psd).factor()
        assert np.allclose(l @ l.T, psd, atol=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            GaussianSpec(np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]])).factor()

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


class TestEnsembleCsv:
    def test_round_trip_exact(self, tmp_path):
        members = rng_from(15).standard_normal((4, 7)) * 1e-3
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, members)
        back = read_ensemble_csv(path)
        assert np.array_equal(back, members)

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

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("dim_0,dim_1\n1.0,2.0\n3.0\n")
        with pytest.raises(DimensionError):
            read_ensemble_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("dim_0\n")
        with pytest.raises(InsufficientSampleError):
            read_ensemble_csv(path)
