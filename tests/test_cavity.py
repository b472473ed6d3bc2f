import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from photon_transistor import cavity
from photon_transistor.cavity import (
    CavityParams,
    PulseShape,
    energy_budget,
    gate_carrier_frequency,
    gating_efficiency,
    internal_loss_for_efficiency,
    pulse_amplitude_spectrum,
    pulse_survival,
    reflection_coeff,
    shifted_frequency,
    spectrum,
    transmission_coeff,
)
from photon_transistor.errors import NumericsError


def cavity_one(kappa_ext=1.81, kappa_int=0.0, chi_ge=-0.865):
    return CavityParams(
        f0=7000.0,
        kappa_ext_in=kappa_ext,
        kappa_ext_out=0.0,
        kappa_int=kappa_int,
        chi_ge=chi_ge,
        chi_gf=2 * chi_ge,
    )


def cavity_two(kappa_int=0.04):
    return CavityParams(
        f0=9000.0,
        kappa_ext_in=0.13,
        kappa_ext_out=0.13,
        kappa_int=kappa_int,
        chi_ge=-0.947,
        chi_gf=-1.759,
    )


class TestShiftedFrequency:
    def test_ground_is_f0(self):
        assert shifted_frequency(cavity_two(), "g") == 9000.0

    def test_e_pull_is_full_spacing(self):
        # 2|chi_ge| = 1.894 MHz below the g resonance
        assert shifted_frequency(cavity_two(), "e") == pytest.approx(9000.0 - 1.894)

    def test_f_pull(self):
        assert shifted_frequency(cavity_two(), "f") == pytest.approx(9000.0 - 3.518)


class TestReflection:
    def test_lossless_on_resonance(self):
        c = cavity_one()
        assert reflection_coeff(c, c.f0, "g") == pytest.approx(1.0)

    def test_critical_coupling_vanishes(self):
        c = cavity_one(kappa_ext=1.0, kappa_int=1.0)
        assert abs(reflection_coeff(c, c.f0, "g")) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_phases_matched_condition(self):
        # kappa_ext = 2|chi|, lossless: r_g and r_e are -i and +i at the midpoint
        c = cavity_one(kappa_ext=1.73, chi_ge=-0.865)
        f_mid = c.f0 - 0.865
        r_g = reflection_coeff(c, f_mid, "g")
        r_e = reflection_coeff(c, f_mid, "e")
        assert r_g == pytest.approx(-1j, abs=1e-12)
        assert r_e == pytest.approx(1j, abs=1e-12)
        assert abs(cmath.phase(r_g) - cmath.phase(r_e)) == pytest.approx(math.pi, abs=1e-12)
        assert r_g * r_e.conjugate() == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_two_sided(self):
        with pytest.raises(ValueError):
            reflection_coeff(cavity_two(), 9000.0, "g")

    @given(
        st.floats(0.01, 10.0),
        st.floats(0.0, 10.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_magnitude_bounded(self, k_ext, k_int, delta):
        c = cavity_one(kappa_ext=k_ext, kappa_int=k_int)
        assert abs(reflection_coeff(c, c.f0 + delta, "g")) <= 1.0 + 1e-12

    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_lossless_is_pure_phase(self, delta):
        c = cavity_one(kappa_int=0.0)
        assert abs(reflection_coeff(c, c.f0 + delta, "g")) == pytest.approx(1.0, abs=1e-12)


class TestTransmission:
    def test_symmetric_lossless_peak(self):
        c = cavity_two(kappa_int=0.0)
        assert abs(transmission_coeff(c, c.f0, "g")) == pytest.approx(1.0)

    def test_on_resonance_intensity(self):
        # (0.13/0.15)^2 with the quoted port and total rates
        c = cavity_two()
        t2 = abs(transmission_coeff(c, c.f0, "g")) ** 2
        assert t2 == pytest.approx((0.13 / 0.15) ** 2, abs=1e-12)
        assert t2 == pytest.approx(0.7511, abs=1e-4)

    def test_detuned_intensity_and_contrast(self):
        c = cavity_two()
        t2_on = abs(transmission_coeff(c, c.f0, "g")) ** 2
        t2_off = abs(transmission_coeff(c, c.f0 + 1.894, "g")) ** 2
        assert t2_off == pytest.approx(0.13**2 / (0.15**2 + 1.894**2), rel=1e-12)
        assert t2_off == pytest.approx(4.68e-3, abs=1e-5)
        assert 10 * math.log10(t2_on / t2_off) == pytest.approx(22.0, abs=0.1)

    def test_rejects_single_sided(self):
        with pytest.raises(ValueError):
            transmission_coeff(cavity_one(), 7000.0, "g")

    @given(st.floats(-30.0, 30.0), st.floats(0.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_energy_conservation(self, delta, k_int):
        c = cavity_two(kappa_int=k_int)
        t2, r2, loss = energy_budget(c, c.f0 + delta, "g")
        assert t2 + r2 + loss == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 5.0),
        st.floats(-80.0, 80.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_magnitude_bounded(self, k_in, k_out, k_int, delta):
        c = CavityParams(9000.0, k_in, k_out, k_int, -0.947, -1.759)
        assert abs(transmission_coeff(c, c.f0 + delta, "g")) <= 1.0 + 1e-12


class TestSpectrum:
    def test_matches_pointwise(self):
        c = cavity_two()
        grid = [8998.0, 9000.0, 9002.0]
        samples = spectrum(c, grid, "e", "transmit")
        assert len(samples) == 3
        for f, amp in samples:
            assert amp == transmission_coeff(c, f, "e")

    def test_lossless_reflection_flat_magnitude(self):
        c = cavity_one(kappa_int=0.0)
        for _, amp in spectrum(c, np.linspace(6990, 7010, 101), "g", "reflect"):
            assert abs(amp) == pytest.approx(1.0, abs=1e-12)

    def test_peak_positions_separated_by_full_pull(self):
        c = cavity_two()
        grid = np.linspace(8995.0, 9002.0, 14001)
        t_g = np.array([abs(a) for _, a in spectrum(c, grid, "g", "transmit")])
        t_e = np.array([abs(a) for _, a in spectrum(c, grid, "e", "transmit")])
        spacing = grid[np.argmax(t_g)] - grid[np.argmax(t_e)]
        assert spacing == pytest.approx(1.894, abs=1e-3)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            spectrum(cavity_two(), [], "g", "transmit")


GATE_PULSE = PulseShape("gaussian", 960.0)


def riemann_overlap(c, p, n=200001):
    """Dense-grid trapezoid oracle for the pulse-weighted reflection overlap."""
    f_c = gate_carrier_frequency(c, p)
    half = 10.0 * c.kappa_tot
    f = np.linspace(f_c - half, f_c + half, n)
    w = pulse_amplitude_spectrum(p, f - f_c) ** 2
    kern = reflection_coeff(c, f, "g") * np.conj(reflection_coeff(c, f, "e"))
    num = np.trapezoid(w * kern, f)
    den = np.trapezoid(w, f)
    return (1.0 - float(np.real(num / den))) / 2.0


class TestGatingEfficiency:
    def test_narrowband_lossless_limit(self):
        c = cavity_one(kappa_ext=1.73, kappa_int=0.0)
        eta = gating_efficiency(c, PulseShape("gaussian", 1.0e6))  # 1 ms pulse
        assert eta == pytest.approx(1.0, abs=1e-6)

    def test_against_riemann_oracle(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.0)
        eta = gating_efficiency(c, GATE_PULSE)
        assert eta == pytest.approx(riemann_overlap(c, GATE_PULSE), abs=1e-6)

    def test_against_riemann_oracle_with_loss(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.3)
        eta = gating_efficiency(c, GATE_PULSE)
        assert eta == pytest.approx(riemann_overlap(c, GATE_PULSE), abs=1e-6)

    def test_monotone_in_internal_loss(self):
        base = cavity_one(kappa_ext=1.81)
        etas = [gating_efficiency(replace(base, kappa_int=k), GATE_PULSE)
                for k in (0.0, 0.05, 0.15, 0.4, 0.9, 1.8)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_monotone_in_bandwidth(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.0)
        # shorter pulses mean wider bandwidth and lower efficiency
        etas = [gating_efficiency(c, PulseShape("gaussian", t))
                for t in (240.0, 480.0, 960.0, 1920.0, 3840.0)]
        assert all(a < b for a, b in zip(etas, etas[1:]))

    def test_internal_loss_root_find(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.0)
        k_int = internal_loss_for_efficiency(c, GATE_PULSE, 0.80)
        eta = gating_efficiency(replace(c, kappa_int=k_int), GATE_PULSE)
        assert eta == pytest.approx(0.80, abs=1e-9)

    def test_survival_below_one_with_loss(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.16)
        s = pulse_survival(c, GATE_PULSE)
        assert 0.5 < s < 1.0
        assert pulse_survival(replace(c, kappa_int=0.0), GATE_PULSE) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rejects_two_sided(self):
        with pytest.raises(ValueError):
            gating_efficiency(cavity_two(), GATE_PULSE)


class TestPulseShape:
    def test_gaussian_sigma_default(self):
        p = PulseShape("gaussian", 960.0)
        assert p.sigma == pytest.approx(160.0)

    def test_square_spectrum_is_sinc(self):
        p = PulseShape("square", 10_000.0)  # 10 us
        # zero crossings at multiples of 1/T = 0.1 MHz
        assert pulse_amplitude_spectrum(p, 0.1) == pytest.approx(0.0, abs=1e-12)
        assert pulse_amplitude_spectrum(p, 0.0) == pytest.approx(10.0)

    def test_gaussian_spectrum_matches_time_domain_fft(self):
        p = PulseShape("gaussian", 960.0)
        t = np.linspace(-p.duration / 2000.0, p.duration / 2000.0, 40001)
        env = np.exp(-(t**2) / (2 * (p.sigma / 1000.0) ** 2))
        for nu in (0.0, 0.5, 1.0, 2.0, 5.0):
            direct = np.trapezoid(env * np.exp(-2j * np.pi * nu * t), t)
            assert pulse_amplitude_spectrum(p, nu) == pytest.approx(
                float(np.real(direct)), abs=1e-9
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseShape("triangle", 100.0)
        with pytest.raises(ValueError):
            PulseShape("gaussian", -1.0)


def simpson_reference(c, p, n=200_001):
    """Dense-grid scipy Simpson oracle for (eta, survival) over the quadrature window."""
    f_c = gate_carrier_frequency(c, p)
    half = 10.0 * c.kappa_tot
    f = np.linspace(f_c - half, f_c + half, n)
    w = pulse_amplitude_spectrum(p, f - f_c) ** 2
    r_g, r_e = reflection_coeff(c, f, "g"), reflection_coeff(c, f, "e")
    norm = simpson(w, x=f)
    eta = (1.0 - simpson(w * np.real(r_g * np.conj(r_e)), x=f) / norm) / 2.0
    return eta, simpson(w * np.abs(r_g) * np.abs(r_e), x=f) / norm


@given(
    kind=st.sampled_from(["gaussian", "square"]),
    duration=st.floats(150.0, 1500.0),
    kappa_int=st.floats(0.0, 0.4),
    detuning=st.floats(-0.5, 0.5),
)
@settings(max_examples=25, deadline=None)
def test_quad_matches_dense_simpson(kind, duration, kappa_int, detuning):
    c = cavity_one(kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    eta_ref, survival_ref = simpson_reference(c, p)
    assert gating_efficiency(c, p) == pytest.approx(eta_ref, abs=1e-8)
    assert pulse_survival(c, p) == pytest.approx(survival_ref, abs=1e-8)


def test_quadrature_over_tolerance_raises(monkeypatch):
    # a quad result whose error estimate is far above the requested tolerance
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kw: (1.0, 1e-3, {}))
    c = cavity_one(kappa_int=0.123)  # a pair no other test memoises
    with pytest.raises(NumericsError):
        gating_efficiency(c, PulseShape("square", 1234.0))
    with pytest.raises(NumericsError):
        pulse_survival(c, PulseShape("square", 1234.0))


def test_gate_stage_scalars_memoised_per_pair():
    c = cavity_one(kappa_int=0.0789)
    p = PulseShape("gaussian", 777.0)
    before = cavity._gating_efficiency.cache_info().misses
    first = gating_efficiency(c, p)
    assert gating_efficiency(replace(c), PulseShape("gaussian", 777.0)) == first
    assert cavity._gating_efficiency.cache_info().misses == before + 1


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(9000.0, -0.1, 0.0, 0.0, -1.0, -2.0)
    with pytest.raises(ValueError):
        CavityParams(9000.0, 0.0, 0.0, 0.0, -1.0, -2.0)
