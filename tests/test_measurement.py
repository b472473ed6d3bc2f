import math

import numpy as np
import pytest
from scipy.linalg import expm

from photon_transistor import measurement
from photon_transistor.errors import CutoffError, DegenerateDataError
from photon_transistor.hilbert import coherent_state, destroy, fock_state, pure_state
from photon_transistor.measurement import (
    DetectionModel,
    detect,
    displacement_operator,
    histogram,
    kmeans_1d,
    wigner,
    wigner_grid,
)


class TestDetect:
    def test_noiseless_zero(self):
        m = DetectionModel(efficiency=1.0, added_noise_photons=0.0, baseline_sigma=0.0)
        assert detect(0.0, m, 0) == 0.0

    def test_noiseless_passthrough(self):
        m = DetectionModel(efficiency=1.0, added_noise_photons=0.0, baseline_sigma=0.0)
        assert detect(100.0, m, 0) == pytest.approx(100.0)

    def test_sample_mean(self):
        m = DetectionModel(efficiency=0.5, added_noise_photons=2.0, baseline_sigma=1.0)
        rng = np.random.default_rng(5)
        n = 100_000
        vals = [detect(27.9, m, rng) for _ in range(n)]
        sigma = math.sqrt(1.0 + 2.0 * 0.5 * 27.9)
        assert abs(np.mean(vals) - 0.5 * 27.9) < 4 * sigma / math.sqrt(n)

    def test_expectation_monotone_in_true_photons(self):
        m = DetectionModel(efficiency=0.7, added_noise_photons=1.0, baseline_sigma=0.5)
        means = [0.7 * t for t in (0.0, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            detect(-1.0, DetectionModel(), 0)
        with pytest.raises(ValueError):
            detect(np.array([3.0, -1e-9, 5.0]), DetectionModel(), 0)

    def test_array_matches_scalar_draws(self):
        # one normal per photon number, taken from the stream in order
        m = DetectionModel(efficiency=0.5, added_noise_photons=2.0, baseline_sigma=1.0)
        true = np.array([0.0, 3.0, 27.9])
        rng = np.random.default_rng(8)
        scalar = [detect(t, m, rng) for t in true]
        np.testing.assert_array_equal(detect(true, m, np.random.default_rng(8)), scalar)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DetectionModel(efficiency=0.0)
        with pytest.raises(ValueError):
            DetectionModel(added_noise_photons=-1.0)


class TestKmeans:
    def test_two_delta_clusters(self):
        readings = [0.0] * 40 + [100.0] * 60
        thr, on, counts = kmeans_1d(readings)[:3]
        assert thr == pytest.approx(50.0)
        assert counts == {"on": 60, "off": 40}
        assert not on[:40].any()

    def test_well_separated_gaussians(self):
        rng = np.random.default_rng(11)
        lo = rng.normal(5.0, 1.0, 5000)
        hi = rng.normal(50.0, 3.0, 5000)
        readings = np.concatenate([lo, hi])
        thr = kmeans_1d(readings).threshold
        wrong = np.sum(lo >= thr) + np.sum(hi < thr)
        assert wrong / readings.size < 1e-4

    def test_reports_convergence(self, monkeypatch):
        data = np.concatenate([np.zeros(40), np.full(60, 100.0), [30.0, 70.0]])
        fit = kmeans_1d(data)
        assert fit.converged and 1 <= fit.iterations < measurement.KMEANS_MAX_ITER
        monkeypatch.setattr(measurement, "KMEANS_MAX_ITER", 1)
        capped = kmeans_1d(data)
        assert not capped.converged and capped.iterations == 1

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kmeans_1d([3.0, 3.0, 3.0])

    def test_deterministic_and_permutation_invariant_counts(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0, 1, 500), rng.normal(20, 2, 300)])
        thr1, _, counts1 = kmeans_1d(data)[:3]
        thr2, _, counts2 = kmeans_1d(data[::-1])[:3]
        assert thr1 == thr2
        assert counts1 == counts2

    def test_threshold_between_centers(self):
        rng = np.random.default_rng(9)
        data = np.concatenate([rng.normal(-4, 1, 400), rng.normal(9, 1, 400)])
        thr = kmeans_1d(data).threshold
        lo_center = data[data < thr].mean()
        hi_center = data[data >= thr].mean()
        assert lo_center < thr < hi_center


class TestHistogram:
    def test_single_bin_totals(self):
        assert histogram([1.0, 2.0, 3.0], 1) == [(2.0, 3)]

    def test_counts_preserved(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=1000)
        bins = histogram(data, 37)
        assert sum(c for _, c in bins) == 1000

    def test_degenerate_range_guard(self):
        assert histogram([5.0, 5.0], 10) == [(5.0, 2)]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0)


class TestDisplacement:
    @pytest.mark.parametrize("alpha", [0.3, -0.5j, 0.4 + 0.2j])
    def test_matches_scipy_expm(self, alpha):
        d = 12
        a = destroy(d)
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        np.testing.assert_allclose(displacement_operator(alpha, d), ref, atol=1e-10)

    def test_unitary_in_adequate_cutoff(self):
        dop = displacement_operator(0.5, 30)
        np.testing.assert_allclose(dop @ dop.conj().T, np.eye(30), atol=1e-10)


class TestWigner:
    def test_vacuum_center(self):
        w = wigner(fock_state(0, 10), [0.0])
        assert w[0] == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_fock_one_center_negative(self):
        w = wigner(fock_state(1, 10), [0.0])
        assert w[0] == pytest.approx(-2.0 / math.pi, abs=1e-12)

    def test_coherent_peak_displaced(self):
        s = coherent_state(1.0, 40)
        w = wigner(s, [1.0, 0.0])
        assert w[0] == pytest.approx(2.0 / math.pi, abs=1e-6)
        assert w[1] == pytest.approx((2.0 / math.pi) * math.exp(-2.0), abs=1e-6)

    def test_vacuum_profile_is_gaussian(self):
        pts = [0.2, 0.5 + 0.5j, -1.0j]
        w = wigner(fock_state(0, 24), pts)
        ref = [(2.0 / math.pi) * math.exp(-2.0 * abs(a) ** 2) for a in pts]
        np.testing.assert_allclose(w, ref, atol=1e-10)

    def test_bounded_by_two_over_pi(self):
        rng = np.random.default_rng(2)
        vec = np.zeros(24, dtype=complex)
        vec[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = pure_state(vec, (24,))
        _, _, pts = wigner_grid(1.4, 21)
        w = wigner(s, pts)
        assert np.max(np.abs(w)) <= 2.0 / math.pi + 1e-9

    def test_normalization_integral(self):
        xs, ps, pts = wigner_grid(4.0, 81)
        cell = (xs[1] - xs[0]) * (ps[1] - ps[0])
        for state in (fock_state(0, 130), fock_state(1, 130)):
            total = wigner(state, pts).sum() * cell
            assert total == pytest.approx(1.0, rel=0.02)

    def test_cutoff_error(self):
        with pytest.raises(CutoffError):
            wigner(fock_state(0, 8), [2.0])  # |alpha|^2 = 4 > 8/4

    def test_phase_symmetric_state_symmetric_w(self):
        s = fock_state(1, 16)
        w1 = wigner(s, [0.7 + 0.4j])
        w2 = wigner(s, [0.7 - 0.4j])
        assert w1[0] == pytest.approx(w2[0], abs=1e-12)
