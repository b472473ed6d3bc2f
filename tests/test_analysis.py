import math
import re

import numpy as np
import pytest

from photon_transistor.analysis import (
    CalibrationInputs,
    CalibrationResult,
    extinction_db,
    fit_eta,
    gain_db,
    predict_single_photon,
    solve_calibration,
    switching_probability,
    synthesize_intensities,
)
from photon_transistor.errors import Breach, UnphysicalInputError, UnsolvableCalibrationError
from photon_transistor.protocol import coherent_flip_probability


class TestFitEta:
    N_GRID = (0.05, 0.1, 0.18, 0.3, 0.4, 0.5)

    def test_noiseless_round_trip(self):
        pts = [(n, coherent_flip_probability(n, 0.80, 0.04)) for n in self.N_GRID]
        eta, dark = fit_eta(pts)
        assert eta == pytest.approx(0.80, abs=1e-6)
        assert dark == pytest.approx(0.04, abs=1e-6)

    def test_ideal_parity_curve(self):
        pts = [(n, coherent_flip_probability(n, 1.0, 0.0)) for n in self.N_GRID]
        eta, dark = fit_eta(pts)
        assert eta == pytest.approx(1.0, abs=1e-9)
        assert dark == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_over_parameter_grid(self):
        for true_eta in (0.3, 0.6, 0.95):
            for true_dark in (0.0, 0.05, 0.2):
                if true_eta <= true_dark:
                    continue
                pts = [(n, coherent_flip_probability(n, true_eta, true_dark))
                       for n in self.N_GRID]
                eta, dark = fit_eta(pts)
                assert eta == pytest.approx(true_eta, abs=1e-6)
                assert dark == pytest.approx(true_dark, abs=1e-6)

    def test_anchored_through_measured_beta_yields_published_band(self):
        # model curve at eta = 0.80 everywhere except the measured (0.18, 0.13)
        pts = [(n, coherent_flip_probability(n, 0.80, 0.04)) for n in self.N_GRID]
        pts[2] = (0.18, 0.13)
        eta, _ = fit_eta(pts)
        assert 0.7 <= eta <= 0.9

    def test_singular_design(self):
        with pytest.raises(ValueError):
            fit_eta([(0.2, 0.1), (0.2, 0.12)])

    @pytest.mark.parametrize("pair, message", [
        ((math.nan, 0.1), "points[1].n_g must be a finite number, got nan"),
        ((math.inf, 0.1), "points[1].n_g must be a finite number, got inf"),
        ((0.2, math.nan), "points[1].beta must be a finite number, got nan"),
        ((0.2, math.inf), "points[1].beta must be a finite number, got inf"),
        ((0.2, -math.inf), "points[1].beta must be a finite number, got -inf"),
        ((-0.2, 0.05), "points[1].n_g must be >= 0, got -0.2"),
        (("0.05", 0.03), "points[1].n_g must be a finite number, got '0.05'"),
        ((False, 0.04), "points[1].n_g must be a finite number, got False"),
        ((0.2, True), "points[1].beta must be a finite number, got True"),
    ])
    def test_bad_pair_named(self, pair, message, capfd):
        with pytest.raises(Breach, match=rf"^{re.escape(message)}$"):
            fit_eta([(0.1, 0.08), pair, (0.3, 0.2)])
        assert capfd.readouterr().err == ""  # nothing reaches LAPACK

    def test_first_bad_pair_named(self):
        # strings and bools are not numbers, however float() reads them
        with pytest.raises(Breach, match=r"^points\[0\]\.n_g must be a finite number, got '0\.05'$"):
            fit_eta([("0.05", "0.03"), (False, 0.04), (0.2, 0.17)])

    @pytest.mark.parametrize("points, key, message", [
        (5, "points", "points must be a list of [n_g, beta] pairs, got 5"),
        ([[0.1], [0.3, 0.2]], "points[0]", "points[0] must be an [n_g, beta] pair, got [0.1]"),
        ([[0.1, 0.09], {"n_g": 0.3}], "points[1]", "points[1] must be an [n_g, beta] pair, got {'n_g': 0.3}"),
    ])
    def test_malformed_table_named(self, points, key, message):
        with pytest.raises(Breach) as raised:
            fit_eta(points)
        assert (raised.value.key, str(raised.value)) == (key, message)

    def test_tuples_and_an_array_fit_alike(self):
        pts = [(n, coherent_flip_probability(n, 0.80, 0.04)) for n in self.N_GRID]
        assert fit_eta(np.array(pts)) == fit_eta(pts) == fit_eta([list(p) for p in pts])

    def test_outside_linear_regime(self):
        with pytest.raises(ValueError):
            fit_eta([(0.2, 0.1), (0.7, 0.3)])


class TestSolveCalibration:
    def test_round_trip_exact(self):
        truth = dict(p_g_open=0.05, n_g_state=1.0, n_e_state=28.0, beta=0.13)
        inputs = synthesize_intensities(**truth)
        out = solve_calibration(inputs)
        assert out.P_g_open == pytest.approx(0.05, abs=1e-9)
        assert out.P_g_close == pytest.approx(0.95, abs=1e-9)
        assert out.n_g_state == pytest.approx(1.0, abs=1e-9)
        assert out.n_e_state == pytest.approx(28.0, abs=1e-9)
        assert out.consistency_residual == pytest.approx(0.0, abs=1e-12)
        assert out.is_physical

    def test_beta_is_the_gate_induced_change_not_the_total_flip(self):
        inputs = synthesize_intensities(0.925, 30.0, 2.0, 0.1149)
        assert solve_calibration(inputs).P_g_open == pytest.approx(0.925, abs=1e-12)
        total = coherent_flip_probability(0.18, 0.80, 0.04)
        assert total == pytest.approx(0.1549, abs=5e-5)
        with pytest.raises(UnphysicalInputError, match="P_g_open = 1.07"):
            solve_calibration(CalibrationInputs(inputs.n0_open, inputs.na_open, inputs.n0_close,
                                                inputs.na_close, total))

    def test_thousand_random_tuples(self):
        # physical tuples keep both arms' flipped fractions inside [0, 1]
        rng = np.random.default_rng(4242)
        for _ in range(1000):
            p = rng.uniform(0.0, 0.9)
            hi = rng.uniform(5.0, 100.0)
            lo = rng.uniform(0.0, hi - 1.0)
            beta = rng.uniform(0.01, 1.0 - p)
            out = solve_calibration(synthesize_intensities(p, lo, hi, beta))
            assert abs(out.P_g_open - p) < 1e-9
            assert abs(out.n_g_state - lo) < 1e-9
            assert abs(out.n_e_state - hi) < 1e-9
            assert out.consistency_residual < 1e-9

    def test_degenerate_intensities(self):
        with pytest.raises(UnsolvableCalibrationError):
            solve_calibration(synthesize_intensities(0.2, 10.0, 10.0, 0.13))

    def test_beta_zero(self):
        with pytest.raises(UnsolvableCalibrationError):
            solve_calibration(CalibrationInputs(10.0, 10.0, 10.0, 10.0, 0.0))

    def test_unphysical_probability(self):
        # corrupt the gated-open intensity so the recovered probability
        # escapes [-0.05, 1.05]
        inputs = synthesize_intensities(0.05, 1.0, 28.0, 0.13)
        bad = CalibrationInputs(
            n0_open=inputs.n0_open,
            na_open=inputs.n0_open - 0.13 * 5.0,  # open difference shrunk 5x
            n0_close=inputs.n0_close,
            na_close=inputs.na_close,
            beta=0.13,
        )
        with pytest.raises(UnphysicalInputError):
            solve_calibration(bad)

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            CalibrationInputs(-1.0, 1.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            CalibrationInputs(1.0, 1.0, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index, name", enumerate(["n0_open", "na_open", "n0_close", "na_close", "beta"]))
    def test_inputs_reject_a_value_that_is_not_a_finite_number(self, index, name, value):
        # a NaN intensity was once accepted here and failed later, as a nan P_g_open
        args = [26.65, 23.14, 2.35, 5.86, 0.13]
        args[index] = value
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got {value!r}$"):
            CalibrationInputs(*args)


class TestPredictSinglePhoton:
    CAL = CalibrationResult(0.05, 0.95, 1.0, 28.0, 0.0)

    def test_eta_zero_reproduces_ungated(self):
        n1, n0 = predict_single_photon(self.CAL, 0.0)
        assert n1 == n0

    def test_perfect_flip_from_e(self):
        cal = CalibrationResult(0.0, 1.0, 1.0, 28.0, 0.0)
        n1, _ = predict_single_photon(cal, 1.0)
        assert n1 == pytest.approx(1.0)

    def test_worked_example(self):
        n1, n0 = predict_single_photon(self.CAL, 0.80)
        assert n1 == pytest.approx(0.85 * 1.0 + 0.15 * 28.0, abs=1e-12)
        assert n1 == pytest.approx(5.05, abs=1e-12)
        assert n0 == pytest.approx(0.05 * 1.0 + 0.95 * 28.0, abs=1e-12)

    def test_overflow_clamped_with_warning(self):
        cal = CalibrationResult(0.5, 0.5, 1.0, 28.0, 0.0)
        with pytest.warns(UserWarning):
            n1, _ = predict_single_photon(cal, 0.8)
        assert n1 == pytest.approx(1.0)  # fully flipped


class TestFiguresOfMerit:
    def test_gain_examples(self):
        assert gain_db(11.0, 1.0) == pytest.approx(10.0)
        assert gain_db(46.8, 1.0) == pytest.approx(10 * math.log10(45.8), abs=1e-12)
        assert 10 * math.log10(45.8) == pytest.approx(16.6, abs=0.05)
        assert 10 * math.log10(2.19e5) == pytest.approx(53.4, abs=0.05)

    def test_gain_symmetric(self):
        assert gain_db(3.0, 10.0) == gain_db(10.0, 3.0)

    def test_gain_sentinel(self):
        assert gain_db(5.0, 5.0) == -math.inf

    def test_extinction_examples(self):
        assert extinction_db(7.0, 7.0) == 0.0
        assert extinction_db(100.0, 1.0) == pytest.approx(20.0)
        assert extinction_db(1.0, 100.0) == pytest.approx(20.0)  # normalized positive

    def test_extinction_sentinel(self):
        assert extinction_db(1.0, 0.0) == math.inf

    def test_sentinels_for_scalars_and_arrays(self):
        for x in (0.0, 2.5):
            assert gain_db(x, x) == -math.inf
        assert extinction_db(0.0, 0.0) == math.inf
        assert np.ndim(gain_db(2.5, 2.5)) == np.ndim(extinction_db(0.0, 0.0)) == 0
        np.testing.assert_array_equal(gain_db(np.array([0.0, 2.5, 3.0]), np.array([0.0, 2.5, 2.0])),
                                      [-math.inf, -math.inf, 0.0])
        np.testing.assert_array_equal(extinction_db(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
                                      [math.inf, math.inf, math.inf])

    def test_extinction_rejects_a_negative_intensity(self):
        with pytest.raises(ValueError):
            extinction_db(np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_extinction_spectral_bound(self):
        # cavity-II closed-form contrast sits within 3 dB of the quoted 20 dB bound
        t2_on = (0.13 / 0.15) ** 2
        t2_off = 0.13**2 / (0.15**2 + 1.894**2)
        r = extinction_db(t2_on, t2_off)
        assert r == pytest.approx(22.0, abs=0.1)
        assert abs(r - 20.0) <= 3.0

    def test_switching_probability(self):
        assert switching_probability(1.0, 1.0) == 1.0
        assert switching_probability(0.80, 0.925) == pytest.approx(0.74, abs=1e-15)
        assert switching_probability(0.93, 0.925) == pytest.approx(0.86, abs=0.005)

    def test_switching_probability_validation(self):
        with pytest.raises(ValueError):
            switching_probability(1.2, 0.5)
