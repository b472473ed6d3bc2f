import decimal
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from photon_transistor import device as device_mod
from photon_transistor import measurement
from photon_transistor.cli import load_protocol
from photon_transistor.errors import DegenerateDataError, NumericsError
from photon_transistor.hilbert import QuantumState, coherent_state, fock_state, pure_state
from photon_transistor.measurement import (
    DetectionModel,
    detect,
    histogram,
    kmeans_1d,
    wigner,
    wigner_grid,
)
from photon_transistor.protocol import conditional_gate_field, label_records, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["efficiency", "added_noise_photons", "baseline_sigma"])
    def test_model_rejects_a_value_that_is_not_a_finite_number(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got"):
            DetectionModel(**{name: value})


def kmeans_1d_unique_check(readings) -> measurement.KMeansFit:
    """measurement.kmeans_1d as it was when np.unique decided degeneracy: the reference."""
    x = np.asarray(readings, dtype=float)
    if x.size < 2 or np.unique(x).size < 2:
        raise DegenerateDataError("need at least 2 distinct readings to classify")
    span = float(x.max() - x.min())
    c_lo, c_hi = np.percentile(x, [10.0, 90.0])
    if c_lo == c_hi:
        c_lo, c_hi = float(x.min()), float(x.max())
    converged = False
    for iterations in range(1, measurement.KMEANS_MAX_ITER + 1):
        mid = 0.5 * (c_lo + c_hi)
        lo = x[x < mid]
        hi = x[x >= mid]
        if lo.size == 0 or hi.size == 0:
            lo = x[x <= x.min()]
            hi = x[x > x.min()]
        n_lo, n_hi = float(lo.mean()), float(hi.mean())
        motion = abs(n_lo - c_lo) + abs(n_hi - c_hi)
        c_lo, c_hi = n_lo, n_hi
        if motion < 1e-9 * span:
            converged = True
            break
    threshold = 0.5 * (c_lo + c_hi)
    on = x >= threshold
    return measurement.KMeansFit(threshold, on, measurement.label_counts(on), iterations, converged)


def lloyd_kmeans(readings) -> measurement.KMeansFit:
    """measurement.kmeans_1d as it was before it ran on sorted prefix sums: each pass copies
    both clusters out of the readings and takes their means.  The reference."""
    x = np.asarray(readings, dtype=float)
    if not np.isfinite(x).all():
        raise DegenerateDataError("readings must be finite to classify")
    if x.size < 2 or (span := float(x.max() - x.min())) == 0.0:
        raise DegenerateDataError("need at least 2 distinct readings to classify")
    c_lo, c_hi = np.percentile(x, [10.0, 90.0])
    if c_lo == c_hi:
        c_lo, c_hi = float(x.min()), float(x.max())
    converged = False
    for iterations in range(1, measurement.KMEANS_MAX_ITER + 1):
        mid = 0.5 * (c_lo + c_hi)
        lo = x[x < mid]
        hi = x[x >= mid]
        if lo.size == 0 or hi.size == 0:
            lo = x[x <= x.min()]
            hi = x[x > x.min()]
        n_lo, n_hi = float(lo.mean()), float(hi.mean())
        motion = abs(n_lo - c_lo) + abs(n_hi - c_hi)
        c_lo, c_hi = n_lo, n_hi
        if motion < 1e-9 * span:
            converged = True
            break
    threshold = 0.5 * (c_lo + c_hi)
    on = x >= threshold
    return measurement.KMeansFit(threshold, on, measurement.label_counts(on), iterations, converged)


def assert_same_fit(readings):
    """kmeans_1d and the Lloyd reference agree bit for bit, or both reject the readings."""
    try:
        want = lloyd_kmeans(readings)
    except DegenerateDataError as exc:
        with pytest.raises(DegenerateDataError, match=str(exc)):
            kmeans_1d(readings)
        return
    got = kmeans_1d(readings)
    assert np.float64(got.threshold).tobytes() == np.float64(want.threshold).tobytes()
    assert np.array_equal(got.on, want.on)
    assert (got.counts, got.iterations, got.converged) == (want.counts, want.iterations, want.converged)


@st.composite
def gaussian_mixtures(draw):
    """Two Gaussian clusters of any sizes, spreads and overlap, in random order, some of them
    rounded so that readings repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.tuples(st.integers(0, 3000), st.integers(1, 3000)))
    centers = draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
    spreads = draw(st.tuples(st.floats(1e-3, 20.0), st.floats(1e-3, 20.0)))
    x = np.concatenate([rng.normal(c, s, n) for c, s, n in zip(centers, spreads, sizes)])
    rng.shuffle(x)
    decimals = draw(st.sampled_from([None, 0, 1, 3]))
    return x if decimals is None else np.round(x, decimals)


class TestKmeansOnSortedReadings:
    @settings(max_examples=300, deadline=None)
    @given(readings=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0, 7.5])),
                             min_size=1, max_size=200),
           q=st.one_of(st.sampled_from([0.0, 10.0, 90.0, 100.0]), st.floats(0.0, 100.0)))
    def test_percentile_of_sorted_readings_is_numpys(self, readings, q):
        # equal as numbers: a sort may put -0.0 and 0.0 in either order
        assert measurement._percentile(np.sort(readings), q) == np.percentile(readings, q)

    @settings(max_examples=200, deadline=None)
    @given(readings=gaussian_mixtures())
    def test_gaussian_mixtures_match_lloyd_reference(self, readings):
        assert_same_fit(readings)

    @settings(max_examples=300, deadline=None)
    @given(readings=st.lists(st.sampled_from([-3.0, -0.0, 0.0, 1.0, 1.0 + 2**-52, 2.5, 7.0, 1e6]), max_size=80))
    @example(readings=[5.0] * 9 + [6.0])  # the midpoint falls below every reading but one
    @example(readings=[1.0, 1.0, 1.0])
    @example(readings=[])
    def test_tied_and_degenerate_data_match_lloyd_reference(self, readings):
        assert_same_fit(readings)

    def test_capped_iterations_match_lloyd_reference(self, monkeypatch):
        # overlapping clusters of unequal size: the midpoint creeps over many passes
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.normal(0.0, 3.0, 900), rng.normal(5.0, 3.0, 100)])
        passes = kmeans_1d(data).iterations
        assert passes == 10
        for cap in range(1, passes):
            monkeypatch.setattr(measurement, "KMEANS_MAX_ITER", cap)
            assert not kmeans_1d(data).converged
            assert_same_fit(data)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_degenerate(self, bad):
        data = np.concatenate([np.zeros(40), np.full(60, 100.0), [bad]])
        with pytest.raises(DegenerateDataError, match="finite"):
            kmeans_1d(data)

    @settings(max_examples=300, deadline=None)
    @given(readings=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, 1.0, 7.5])),
                             max_size=60))
    @example(readings=[0.0] * 40 + [100.0] * 60 + [30.0, 70.0])
    @example(readings=[0.0, -0.0, 0.0])
    def test_finite_fit_equals_distinct_value_check(self, readings):
        """On finite readings the fit is the one of the np.unique degeneracy check, bit for bit."""
        try:
            want = kmeans_1d_unique_check(readings)
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                kmeans_1d(readings)
            return
        got = kmeans_1d(readings)
        assert np.float64(got.threshold).tobytes() == np.float64(want.threshold).tobytes()
        assert np.array_equal(got.on, want.on)
        assert (got.counts, got.iterations, got.converged) == (want.counts, want.iterations, want.converged)

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


def tuple_histogram(readings, bins: int):
    """The histogram as it was written before it returned columns: [(bin_center, count), ...]."""
    x = np.asarray(readings, dtype=float)
    if x.size == 0:
        return []
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return [(lo, int(x.size))]
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), counts.astype(int).tolist()))


class TestHistogram:
    def test_single_bin_totals(self):
        centers, counts = histogram([1.0, 2.0, 3.0], 1)
        assert centers.tolist() == [2.0] and counts.tolist() == [3]

    def test_counts_preserved(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=1000)
        centers, counts = histogram(data, 37)
        assert centers.shape == counts.shape == (37,)
        assert counts.sum() == 1000

    def test_degenerate_range_guard(self):
        centers, counts = histogram([5.0, 5.0], 10)
        assert centers.tolist() == [5.0] and counts.tolist() == [2]

    def test_empty_readings_give_empty_columns(self):
        centers, counts = histogram([], 10)
        assert centers.shape == counts.shape == (0,)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0)

    @given(
        n=st.integers(0, 3000),
        bins=st.integers(1, 120),
        repeat=st.booleans(),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_columns_print_as_tuple_histogram(self, n, bins, repeat, scale, seed):
        # the same arithmetic as the tuple list it replaces, so no boundary values: the
        # histogram.csv text of the columns is the text of the tuples
        rng = np.random.default_rng(seed)
        readings = np.full(n, scale) if repeat else scale * rng.normal(size=n)
        centers, counts = histogram(readings, bins)
        assert [f"{c:.12g},{k}" for c, k in zip(centers.tolist(), counts.tolist())] == [
            f"{c:.12g},{k}" for c, k in tuple_histogram(readings, bins)
        ]


#: Fock cutoff of the Royer reference: |alpha|^2 <= 72, a corner of extent 6, stays below d/4
REFERENCE_CUTOFF = 300


@functools.cache
def displacement_eigensystem(d: int):
    """Eigendecomposition of H = -i(a^dag - a) in d levels: exp(x (a^dag - a)) = V diag(e^{i lam x}) V^dag."""
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    return np.linalg.eigh(-1j * (a.conj().T - a))


def displacement_operator(alpha: complex, d: int) -> np.ndarray:
    """Truncated D(alpha) = exp(alpha a^dag - conj(alpha) a) from the eigensystem; a phase
    rotation maps the real displacement onto an arbitrary complex alpha."""
    lam, v = displacement_eigensystem(d)
    mag, phi = abs(alpha), np.angle(alpha)
    core = (v * np.exp(1j * lam * mag)) @ v.conj().T
    phase = np.exp(1j * phi * np.arange(d))
    return (core * phase[:, None]) * phase.conj()[None, :]


def padded(state: QuantumState, d: int) -> QuantumState:
    """A single-mode state zero-padded into a d-level cutoff."""
    return QuantumState((d,), np.pad(state.rho, (0, d - state.dims[0])))


def loop_wigner(field: QuantumState, grid, d: int = REFERENCE_CUTOFF) -> np.ndarray:
    """Royer's displaced parity (Phys. Rev. A 15, 449 (1977)), the form measurement.wigner
    replaced, one point at a time in the field padded into d levels.

    W(alpha) = (2/pi) sum_k w_k <psi_k| D(alpha) P D(alpha)^dag |psi_k> over every
    eigenpair of rho, tiny or rounded-negative weights included, so that no dropped weight
    shows as an error.  Exact only inside the truncated space, so |alpha|^2 must stay well
    below d/4.
    """
    pts = np.asarray(grid, dtype=complex).ravel()
    lam, v = displacement_eigensystem(d)
    vd = v.conj().T
    parity = (-1.0) ** np.arange(d)
    weights, evecs = np.linalg.eigh(field.rho)
    vecs = np.zeros((d, weights.size), dtype=complex)
    vecs[: weights.size] = evecs
    n_idx = np.arange(d)
    out = np.empty(pts.size, dtype=float)
    for i, alpha in enumerate(pts):
        mag, phi = abs(alpha), np.angle(alpha)
        phase = np.exp(-1j * phi * n_idx)
        rot = np.exp(-1j * lam * mag)
        # y = D(alpha)^dag psi, via the eigensystem
        y = (phase.conj()[:, None]) * (v @ (rot[:, None] * (vd @ (phase[:, None] * vecs))))
        out[i] = (2.0 / np.pi) * float(np.real(np.sum(weights * (parity @ (np.abs(y) ** 2)))))
    return out


def banded_density(rng, s: int, b: int) -> QuantumState:
    """An s-level density matrix whose nonzero rho[n, m] have |m - n| <= b, b reached.

    A random lower factor with its entries at n - m > b or m > n zeroed gives
    rho = a a^dag, positive by construction and of band exactly b.
    """
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    n, m = np.indices((s, s))
    a[(n - m > b) | (m > n)] = 0.0
    rho = a @ a.conj().T
    return QuantumState((s,), rho / np.trace(rho).real)


def images(x: float, y: float) -> list[complex]:
    """The 8 sign/swap images of x + iy, all of one radius."""
    return [s * complex(u, t * v) for u, v in ((x, y), (y, x)) for s in (1, -1) for t in (1, -1)]


def decimal_fock_wigner(n: int, r: float) -> float:
    """W of the Fock state |n> at |alpha| = r, (2/pi) (-1)^n e^{-x/2} L_n(x) with x = 4 r^2,
    by the three-term Laguerre recurrence in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = 4 * decimal.Decimal(r) ** 2
        prev, cur = decimal.Decimal(0), decimal.Decimal(1)
        for j in range(1, n + 1):
            prev, cur = cur, ((2 * j - 1 - x) * cur - (j - 1) * prev) / j
        value = (-1) ** n * cur * (-x / 2).exp()
    return (2.0 / math.pi) * float(value)


class TestDisplacement:
    """The reference's truncated displacement is the matrix exponential."""

    @pytest.mark.parametrize("alpha", [0.3, -0.5j, 0.4 + 0.2j])
    def test_matches_scipy_expm(self, alpha):
        d = 12
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        np.testing.assert_allclose(displacement_operator(alpha, d), ref, atol=1e-10)

    def test_unitary_in_adequate_cutoff(self):
        dop = displacement_operator(0.5, 30)
        np.testing.assert_allclose(dop @ dop.conj().T, np.eye(30), atol=1e-10)


class TestWigner:
    def test_vacuum_center(self):
        w = wigner(fock_state(0, 10), [0.0])
        assert w[0] == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_non_finite_w_is_a_numerics_error(self):
        # x = 4 |alpha|^2 overflows past |alpha| of about 6.7e153, and W came out NaN
        w = wigner(fock_state(2, 10), [6e153, -6e153j])
        assert np.isfinite(w).all()
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match=r"^W is not finite at \|alpha\| = 1e\+155"):
            wigner(fock_state(2, 10), [0.5, 1e155, -1e200j])

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

    def test_no_limit_at_a_quarter_of_the_cutoff(self):
        # |alpha|^2 = 4 > 8/4, where a truncated displacement is no longer trustworthy
        w = wigner(fock_state(0, 8), [2.0])
        assert w[0] == pytest.approx((2.0 / math.pi) * math.exp(-8.0), rel=1e-15, abs=0)

    def test_phase_symmetric_state_symmetric_w(self):
        s = fock_state(1, 16)
        w1 = wigner(s, [0.7 + 0.4j])
        w2 = wigner(s, [0.7 - 0.4j])
        assert w1[0] == pytest.approx(w2[0], abs=1e-12)


def loop_test_points(rng, extent: float) -> np.ndarray:
    """Random points in the square of half-width extent, the 8 images of one point and the axes."""
    square = extent * (2.0 * rng.random((2, 24)) - 1.0)
    x, y = extent * rng.random(2)
    # sign flips and the x <-> y swap repeat the radius exactly; the corner is the largest |alpha|
    axes = [0.0, extent, -1j * extent, extent * (1 + 1j)]
    return np.concatenate([square[0] + 1j * square[1], images(x, y), axes])


class TestWignerAgainstLoop:
    @given(st.integers(1, 40), st.floats(0.5, 6.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_point_loop(self, support, extent, seed):
        # full density: every coherence rho[n, m] may be nonzero
        rng = np.random.default_rng(seed)
        state = banded_density(rng, support, support - 1)
        pts = loop_test_points(rng, extent)
        np.testing.assert_allclose(wigner(state, pts), loop_wigner(state, pts), rtol=0, atol=1e-13)

    def test_empty_grid(self):
        assert wigner(fock_state(1, 10), []).shape == (0,)
        assert wigner(fock_state(1, 10), np.zeros((0, 3))).shape == (0,)


class TestWignerBeyondTruncation:
    """Where a truncated displacement needed matrices of thousands of levels."""

    @pytest.mark.parametrize("scale", [1.0, 0.99])
    def test_fock_500_matches_decimal_laguerre(self, scale):
        r = scale * math.sqrt(500.0)
        assert abs(wigner(fock_state(500, 501), [r])[0] - decimal_fock_wigner(500, r)) <= 1e-12

    def test_coherent_peak_at_large_amplitude(self):
        # support 1000 and band 999 at x = 4 |alpha|^2 = 2500: e^{-x/2} and sqrt(x^k/k!) lie far
        # outside the double range, so they enter only as logs
        state = coherent_state(25.0, 1000)
        with np.errstate(over="raise"):
            w = wigner(state, [25.0])
        assert w[0] == pytest.approx(2.0 / math.pi, abs=1e-9)

    @given(st.integers(1, 12), st.data(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_padding_gives_bit_identical_map(self, support, data, extra, seed):
        band = data.draw(st.integers(0, support - 1), label="band")
        state = banded_density(np.random.default_rng(seed), support, band)
        _, _, pts = wigner_grid(3.0, 15)
        np.testing.assert_array_equal(wigner(padded(state, support + extra), pts), wigner(state, pts))


def laguerre_wigner(p, pts):
    """W = (2/pi) sum_n p_n (-1)^n e^{-2|alpha|^2} L_n(4|alpha|^2) of a Fock-diagonal state."""
    r2 = np.abs(np.asarray(pts)) ** 2
    n = np.arange(len(p))
    terms = (-1.0) ** n * np.asarray(p) * eval_laguerre(n, 4.0 * r2[:, None])
    return (2.0 / np.pi) * np.exp(-2.0 * r2) * terms.sum(axis=1)


def cli_wigner_map(state, extent):
    """measurement.wigner on the wigner command's 41 x 41 grid."""
    _, _, pts = wigner_grid(extent, 41)
    return wigner(state, pts), pts


@pytest.fixture(scope="module")
def paper_off_field():
    dev = device_mod.load(CONFIGS / "device_paper.json")
    cfg = load_protocol(CONFIGS / "protocol_paper_point.json")
    shots, _, _ = label_records(run_experiment(cfg, dev))
    return conditional_gate_field(shots, "off", cfg, dev)


class TestWignerAgainstLaguerre:
    @pytest.mark.parametrize("extent", [2.5, 3.0, 1.0, 1.5, 2.0])
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_diagonal_state(self, extent, seed):
        p = np.random.default_rng(seed).random(8)
        p /= p.sum()
        w, pts = cli_wigner_map(QuantumState((8,), np.diag(p)), extent)
        np.testing.assert_allclose(w, laguerre_wigner(p, pts), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("extent", [2.5, 3.0, 1.0, 1.5, 2.0])
    def test_paper_point_off_field(self, paper_off_field, extent):
        rho = paper_off_field.rho
        np.testing.assert_array_equal(rho, np.diag(np.diag(rho)))
        w, pts = cli_wigner_map(paper_off_field, extent)
        np.testing.assert_allclose(w, laguerre_wigner(np.real(np.diag(rho)), pts), rtol=0, atol=1e-13)


class TestBandedWigner:
    @given(st.integers(1, 40), st.data(), st.integers(0, 60), st.floats(0.5, 6.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_point_loop(self, support, data, extra, extent, seed):
        # band b < support - 1 leaves only b + 1 phase terms; extra zero-padded levels must not matter
        band = data.draw(st.integers(0, support - 1), label="band")
        rng = np.random.default_rng(seed)
        state = padded(banded_density(rng, support, band), support + extra)
        pts = loop_test_points(rng, extent)
        np.testing.assert_allclose(wigner(state, pts), loop_wigner(state, pts), rtol=0, atol=1e-13)

    @given(st.integers(1, 20), st.integers(0, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fock_diagonal_images_bit_equal(self, support, extra, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(support)
        state = padded(QuantumState((support,), np.diag(p / p.sum())), support + extra)
        x, y = math.sqrt(0.99 * state.dims[0] / 4.0) * rng.random(2) / math.sqrt(2.0)
        w = wigner(state, images(x, y))
        assert np.all(w == w[0])

    def test_fock_diagonal_map_mirrors_exactly(self, paper_off_field):
        # the command's default grid: extent 2.5, 41 points per axis
        w, _ = cli_wigner_map(paper_off_field, 2.5)
        w = w.reshape(41, 41)
        np.testing.assert_array_equal(w, w[::-1, :])
        np.testing.assert_array_equal(w, w[:, ::-1])


class TestWignerGrid:
    @given(st.floats(0.5, 6.0), st.integers(1, 101), st.integers(0, 2**32 - 1))
    # np.linspace's axis at extent 2.0 and 41 points is not sign-symmetric bit for bit
    @example(2.0, 41, 0)
    @example(1.0, 2, 0)  # a two-point axis is (-extent, extent)
    @settings(max_examples=40, deadline=None)
    def test_axes_and_fock_diagonal_map_mirror_exactly(self, extent, points, seed):
        xs, ps, pts = wigner_grid(extent, points)
        assert xs.shape == (points,) and xs[-1] == (extent if points > 1 else 0.0)
        np.testing.assert_array_equal(xs, -xs[::-1])
        np.testing.assert_array_equal(ps, xs)
        p = np.random.default_rng(seed).random(8)
        state = QuantumState((8,), np.diag(p / p.sum()))
        w = wigner(state, pts).reshape(points, points)
        np.testing.assert_array_equal(w, w[::-1, :])
        np.testing.assert_array_equal(w, w[:, ::-1])

    def test_one_point_grid_sits_at_the_origin(self):
        xs, ps, pts = wigner_grid(2.0, 1)
        assert xs.tolist() == ps.tolist() == [0.0] and pts.tolist() == [0j]
