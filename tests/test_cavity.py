import cmath
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import wofz

from photon_transistor import cavity
from photon_transistor.errors import NumericsError, number
from photon_transistor.cavity import (
    CavityParams,
    PulseShape,
    gate_carrier_frequency,
    gating_efficiency,
    internal_loss_for_efficiency,
    pulse_survival,
    reflection_coeff,
    shifted_frequency,
    spectrum,
    transmission_coeff,
)

from printed_text import boundary_values


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


def input_port_reflection(c, f, qubit_level):
    """Reflection back out of the input port of any cavity, same conventions."""
    delta = f - shifted_frequency(c, qubit_level)
    k_rest = c.kappa_ext_out + c.kappa_int
    return ((c.kappa_ext_in - k_rest) / 2.0 + 1j * delta) / (c.kappa_tot / 2.0 - 1j * delta)


def energy_budget(c, f, qubit_level):
    """(|t|^2, |r_back|^2, loss fraction) for a two-sided cavity; sums to 1."""
    t2 = abs(transmission_coeff(c, f, qubit_level)) ** 2
    r2 = abs(input_port_reflection(c, f, qubit_level)) ** 2
    delta = f - shifted_frequency(c, qubit_level)
    loss = c.kappa_int * c.kappa_ext_in / ((c.kappa_tot / 2.0) ** 2 + delta**2)
    return t2, r2, loss


def pulse_amplitude_spectrum(p, nu):
    """Fourier amplitude of the pulse envelope at offset nu (MHz) from carrier.

    Gaussian case: analytic transform of the truncated envelope, written with
    the Faddeeva function so the huge-cancellation region (|2 pi nu sigma| >> 1)
    stays finite:

        F = sigma*sqrt(pi/2) * (2 e^{-y^2} - 2 Re[e^{-x^2 - 2ixy} w(-y + ix)])

    with x = a/(sigma sqrt2), y = omega sigma/sqrt2, a = T/2.
    Square case: F = T*sinc(nu*T).
    """
    nu = np.asarray(nu, dtype=float)
    T = p.duration / 1000.0  # ns -> us so that MHz*us is dimensionless
    if p.kind == "square":
        return T * np.sinc(nu * T)
    sigma = p.sigma / 1000.0
    x = T / 2.0 / (sigma * np.sqrt(2.0))
    y = 2.0 * np.pi * nu * sigma / np.sqrt(2.0)
    term1 = 2.0 * np.exp(-np.minimum(y * y, 700.0))
    term2 = 2.0 * np.real(np.exp(-x * x - 2j * x * y) * wofz(-y + 1j * x))
    return sigma * np.sqrt(np.pi / 2.0) * (term1 - term2)


def pulse_power(p):
    """Full power C(0) of the pulse envelope, the integral of |F|^2 over all nu."""
    T = p.duration / 1000.0
    if p.kind == "square":
        return T
    sigma = p.sigma / 1000.0
    return sigma * math.sqrt(math.pi) * math.erf(T / (2.0 * sigma))


def full_power_scalars(c, p, half, n, rule):
    """Frequency-domain (eta, survival) over f_c +/- half, normalised by the full power.

    The kernels enter as their deficits 1 - Re r_g conj(r_e) and 1 - |r_l|^2,
    which vanish far from the cavity, so the spectral tails cut off by the
    window only cost their tiny deficit, not their power.
    """
    f_c = gate_carrier_frequency(c, p)
    f = np.linspace(f_c - half, f_c + half, n)
    w = pulse_amplitude_spectrum(p, f - f_c) ** 2 / pulse_power(p)
    r_g, r_e = reflection_coeff(c, f, "g"), reflection_coeff(c, f, "e")
    eta = rule(w * (1.0 - np.real(r_g * np.conj(r_e))), x=f) / 2.0
    loss = rule(w * (1.0 - (np.abs(r_g) ** 2 + np.abs(r_e) ** 2) / 2.0), x=f)
    return eta, 1.0 - loss


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
        amps = spectrum(c, grid, "e")
        assert amps.shape == (3,)
        for f, amp in zip(grid, amps):
            assert amp == transmission_coeff(c, f, "e")

    def test_lossless_reflection_flat_magnitude(self):
        c = cavity_one(kappa_int=0.0)
        amps = spectrum(c, np.linspace(6990, 7010, 101), "g")
        np.testing.assert_allclose(np.abs(amps), 1.0, rtol=0, atol=1e-12)

    def test_peak_positions_separated_by_full_pull(self):
        c = cavity_two()
        grid = np.linspace(8995.0, 9002.0, 14001)
        t_g = np.abs(spectrum(c, grid, "g"))
        t_e = np.abs(spectrum(c, grid, "e"))
        spacing = grid[np.argmax(t_g)] - grid[np.argmax(t_e)]
        assert spacing == pytest.approx(1.894, abs=1e-3)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            spectrum(cavity_two(), [], "g")

    def test_mode_follows_the_sidedness(self):
        grid = np.linspace(6995.0, 7005.0, 11)
        c = cavity_one(kappa_int=0.1)
        assert spectrum(c, grid, "e").tolist() == reflection_coeff(c, grid, "e").tolist()
        # an output port without an input port: neither reflects nor transmits
        with pytest.raises(ValueError, match="two-sided"):
            spectrum(CavityParams(9000.0, 0.0, 0.13, 0.04, -0.947, -1.759), grid, "g")

    @given(
        two_sided=st.booleans(),
        k_ext=st.floats(0.05, 3.0),
        k_int=st.floats(0.0, 0.5),
        chi=st.floats(-2.0, -0.1),
        center=st.floats(-10.0, 10.0),
        half=st.floats(0.01, 30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_print_as_per_element_abs_and_angle(self, two_sided, k_ext, k_int, chi, center, half):
        # the spectra command once took |amp| and arg(amp) one Python complex at a time.
        # np.angle agrees bit for bit.  np.abs differs from abs(complex) by up to 2 ulp in
        # 20-45 % of the values, depending on the host, which moves the %.12g text of about
        # 1 value in 20,000 (20 of 360,300 over 100 random windows of 1201 points on both
        # paper cavities, numpy 2.4.6).  So a window of 3603 values expects 0.2 boundary
        # values; at most 7 are allowed.
        c = CavityParams(9000.0, k_ext, k_ext if two_sided else 0.0, k_int, chi, 2.0 * chi)
        grid = np.linspace(c.f0 + center - half, c.f0 + center + half, 1201)
        moved = 0
        for level in ("g", "e", "f"):
            amps = spectrum(c, grid, level)
            old = [complex(a) for a in amps]
            assert np.angle(amps).tolist() == [float(np.angle(a)) for a in old]
            moved += boundary_values(np.abs(amps), [abs(a) for a in old], ulps=2)
        assert moved <= 7


GATE_PULSE = PulseShape("gaussian", 960.0)


def riemann_overlap(c, p, n=200001):
    """Dense-grid trapezoid oracle for eta over f_c +/- 10 kappa, full-power normalised."""
    return full_power_scalars(c, p, 10.0 * c.kappa_tot, n, np.trapezoid)[0]


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

    def test_internal_loss_target_below_the_bracket_end(self):
        c = cavity_one(kappa_ext=1.81, kappa_int=0.0)
        assert gating_efficiency(replace(c, kappa_int=3.62), GATE_PULSE) > 0.05
        with pytest.raises(NumericsError, match=r"eta\(3\.62\) still above target 0\.05 at the bracket end"):
            internal_loss_for_efficiency(c, GATE_PULSE, 0.05)

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

    @pytest.mark.parametrize(
        "pulse",
        [PulseShape("gaussian", 960.0, sigma=0.0037), PulseShape("square", 960.0, carrier_detuning=68_000.0)],
        ids=["narrow-gaussian", "detuned-square"],
    )
    def test_moment_rule_over_budget_raises_before_allocating(self, pulse):
        # each pulse asks for about 2 * 2**20 nodes; the rule must refuse before building any
        c = cavity_one(kappa_ext=1.81, kappa_int=0.16)
        for fn in (gating_efficiency, pulse_survival):
            with mock.patch.object(cavity.np, "arange", side_effect=AssertionError("allocated")):
                with pytest.raises(NumericsError, match=r"2\.\d+e\+06 quadrature nodes, over the budget of 2\*\*20"):
                    fn(c, pulse)
        with pytest.raises(NumericsError, match="over the budget"):
            internal_loss_for_efficiency(c, pulse, 0.5)


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
    """Dense-grid scipy Simpson oracle for (eta, survival) over f_c +/- 2000 MHz."""
    return full_power_scalars(c, p, 2000.0, n, simpson)


PULSE_RANGE = dict(
    kind=st.sampled_from(["gaussian", "square"]),
    duration=st.floats(150.0, 1500.0),
    kappa_int=st.floats(0.0, 0.4),
    detuning=st.floats(-0.5, 0.5),
)


@given(**PULSE_RANGE)
@settings(max_examples=25, deadline=None)
def test_quad_matches_dense_simpson(kind, duration, kappa_int, detuning):
    c = cavity_one(kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    eta_ref, survival_ref = simpson_reference(c, p)
    assert gating_efficiency(c, p) == pytest.approx(eta_ref, abs=1e-8)
    assert pulse_survival(c, p) == pytest.approx(survival_ref, abs=1e-8)


@given(**PULSE_RANGE)
@settings(max_examples=25, deadline=None)
def test_gate_scalars_match_full_power_spectrum(kind, duration, kappa_int, detuning):
    # trapezoid sums of the smooth spectral integrand converge geometrically
    # once the step is far below 1/T; the deficits beyond +/- 2000 MHz are < 1e-11
    c = cavity_one(kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    eta_ref, survival_ref = full_power_scalars(c, p, 2000.0, 80_001, np.trapezoid)
    assert gating_efficiency(c, p) == pytest.approx(eta_ref, abs=1e-9)
    assert pulse_survival(c, p) == pytest.approx(survival_ref, abs=1e-9)


@given(**PULSE_RANGE)
@settings(max_examples=50, deadline=None)
def test_eta_within_cauchy_schwarz_bound(kind, duration, kappa_int, detuning):
    # |<r_g conj(r_e)>| <= sqrt(<|r_g|^2><|r_e|^2>) <= survival
    c = cavity_one(kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    eta, s = gating_efficiency(c, p), pulse_survival(c, p)
    assert (1.0 - s) / 2.0 - 1e-12 <= eta <= (1.0 + s) / 2.0 + 1e-12


@given(duration=PULSE_RANGE["duration"], kappa_int=PULSE_RANGE["kappa_int"], detuning=PULSE_RANGE["detuning"])
@settings(max_examples=50, deadline=None)
def test_square_pulse_moments_exact(duration, kappa_int, detuning):
    # C(tau) = T - tau integrates in closed form: T/a - (1 - e^{-aT})/a^2
    c = cavity_one(kappa_int=kappa_int)
    p = PulseShape("square", duration, carrier_detuning=detuning)
    T = duration / 1000.0
    f_c = gate_carrier_frequency(c, p)
    for level, moment in zip("ge", cavity._pulse_moments(c, p)):
        a = 2.0 * math.pi * (c.kappa_tot / 2.0 - 1j * (f_c - shifted_frequency(c, level)))
        exact = (2.0 * math.pi / T) * (T / a - (1.0 - cmath.exp(-a * T)) / a**2)
        assert moment == pytest.approx(exact, abs=1e-12)


def old_moment_rule(c, p, kappa_lo, kappa_hi):
    """_moment_rule with one math.erf call per numpy node, the oracle for its list-map erf column."""
    T = p.duration / 1000.0
    tau_max = min(T, 80.0 / (math.pi * kappa_lo))
    d = gate_carrier_frequency(c, p) - np.array([shifted_frequency(c, "g"), shifted_frequency(c, "e")])
    fastest = kappa_hi / 2.0 + float(np.abs(d).max())
    if p.kind == "gaussian":
        fastest += 250.0 / p.sigma
    panels = 1 + int(tau_max * fastest)
    h = tau_max / panels
    tau = (h * (np.arange(panels)[:, None] + (cavity._GL_NODES + 1.0) / 2.0)).ravel()
    weights = np.tile(cavity._GL_WEIGHTS * (h / 2.0), panels)
    if p.kind == "square":
        corr, corr0 = T - tau, T
    else:
        two_sigma = 2.0 * p.sigma / 1000.0
        erfs = np.array([math.erf((T - t) / two_sigma) for t in tau])
        corr, corr0 = np.exp(-((tau / two_sigma) ** 2)) * erfs, math.erf(T / two_sigma)
    return tau, weights * corr, 2.0 * math.pi / corr0, d


def per_kappa_moments(c, p, rule=None):
    """The pulse moments on a rule fitted to c's own linewidth, as each eta evaluation
    computed them before the root-find shared one rule across its bracket and before
    every moment went through the phase kernel: one complex exponential of the 2 x N
    exponents, built by np.outer.  A given 4-part ``rule`` replaces the own-linewidth one."""
    tau, weighted_corr, scale, d = rule if rule is not None else old_moment_rule(c, p, c.kappa_tot, c.kappa_tot)
    decay = 2.0 * math.pi * (c.kappa_tot / 2.0 - 1j * d)
    a_g, a_e = scale * (np.exp(-np.outer(decay, tau)) @ weighted_corr)
    return complex(a_g), complex(a_e)


def oracle_kernel(rule):
    """_moment_rule's (tau, kernel) built from old_moment_rule's 4-part rule, with the
    phase exponent from np.outer."""
    tau, weighted_corr, scale, d = rule
    return tau, scale * np.exp(np.outer(2j * math.pi * d, tau)) * weighted_corr


ROOT_RANGE = dict(
    kind=PULSE_RANGE["kind"],
    duration=PULSE_RANGE["duration"],
    kappa_ext=st.floats(1.5, 2.0),
    detuning=PULSE_RANGE["detuning"],
)


#: how far the phase-kernel sums may sit from the complex-exponential sums on one rule
#: (up to 3.4e-15 over 1500 random cavities and pulses)
ONE_PATH_BOUND = 1e-14


@given(**ROOT_RANGE, kappa_int=PULSE_RANGE["kappa_int"])
@settings(max_examples=50, deadline=None)
def test_own_rule_moments_match_per_kappa_oracle(kind, duration, kappa_ext, detuning, kappa_int):
    # the own-rule moments sum the phase kernel, the oracle one complex exponential per node;
    # eta and the survival, rational in the moments, stay as close
    c = cavity_one(kappa_ext=kappa_ext, kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    for moment, oracle in zip(cavity._pulse_moments(c, p), per_kappa_moments(c, p)):
        assert abs(moment - oracle) <= ONE_PATH_BOUND
    eta, survival = gating_efficiency(c, p), pulse_survival(c, p)
    with mock.patch.object(cavity, "_pulse_moments", per_kappa_moments):
        assert abs(gating_efficiency(c, p) - eta) <= ONE_PATH_BOUND
        assert abs(pulse_survival(c, p) - survival) <= ONE_PATH_BOUND


@given(**ROOT_RANGE, kappa_int=PULSE_RANGE["kappa_int"])
@settings(max_examples=50, deadline=None)
def test_moment_trims_keep_every_bit(kind, duration, kappa_ext, detuning, kappa_int):
    # the erf column from one list-map and the exponents from a broadcast give the same IEEE
    # results, on the root-find's bracket and on the cavity's own linewidth
    c = cavity_one(kappa_ext=kappa_ext, kappa_int=kappa_int)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    # kappa_tot over the root-find's [0, 2 kappa_ext], then the own rule
    for bracket in ((kappa_ext, 3.0 * kappa_ext), (c.kappa_tot, c.kappa_tot)):
        rule, oracle = cavity._moment_rule(c, p, *bracket), oracle_kernel(old_moment_rule(c, p, *bracket))
        for part, oracle_part in zip(rule, oracle):
            assert part.tobytes() == oracle_part.tobytes()  # -0.0 and 0.0 told apart


@given(**ROOT_RANGE)
@settings(max_examples=50, deadline=None)
@example(kind="gaussian", duration=20_000.0, kappa_ext=1.5, detuning=0.0)
@example(kind="square", duration=20_000.0, kappa_ext=2.0, detuning=0.5)
def test_shared_rule_eta_matches_per_kappa_eta_across_bracket(kind, duration, kappa_ext, detuning):
    # the 20 us examples are cut at tau_max = 80/(pi kappa) < T, which the bracket's smallest kappa must set.
    # The root's own eta is the f it hands the solver, plus the target.  A target between the bracket
    # ends' eta reaches the solver; where eta(2 kappa_ext) > eta(0) (gaussians near 150 ns) none does
    c = cavity_one(kappa_ext=kappa_ext)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    hi = 2.0 * kappa_ext
    eta_lo, eta_hi = gating_efficiency(c, p), gating_efficiency(replace(c, kappa_int=hi), p)
    assume(eta_hi <= eta_lo)
    target = (eta_lo + eta_hi) / 2.0
    with mock.patch.object(cavity, "_brentq", return_value=0.0) as solver:
        internal_loss_for_efficiency(c, p, target)
    (f, _, _), = (call.args for call in solver.call_args_list)
    for k in np.linspace(0.0, hi, 9):
        eta = gating_efficiency(replace(c, kappa_int=float(k)), p)
        assert abs(f(float(k)) + target - eta) <= ONE_PATH_BOUND


@given(**ROOT_RANGE, share=st.floats(0.02, 0.98))
@settings(max_examples=50, deadline=None)
def test_root_meets_target_through_public_eta(kind, duration, kappa_ext, detuning, share):
    c = cavity_one(kappa_ext=kappa_ext)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    hi = 2.0 * kappa_ext
    target = gating_efficiency(replace(c, kappa_int=share * hi), p)
    if not gating_efficiency(replace(c, kappa_int=hi), p) <= target <= gating_efficiency(c, p):
        # broadband gaussians: eta(kappa_int) dips and rises again inside the bracket,
        # so a target can lie outside [eta(hi), eta(0)]
        with pytest.raises(NumericsError):
            internal_loss_for_efficiency(c, p, target)
        return
    root = internal_loss_for_efficiency(c, p, target)
    assert abs(gating_efficiency(replace(c, kappa_int=root), p) - target) <= 1e-12


def test_root_not_unique_for_broadband_gaussian():
    # eta falls to a minimum near kappa_int = 0.9, peaks near 2.7 and falls again,
    # so the target eta(0.355) is met three times; brentq lands on the last crossing
    c = cavity_one(kappa_ext=1.795)
    p = PulseShape("gaussian", 163.0)
    target = gating_efficiency(replace(c, kappa_int=0.355), p)
    root = internal_loss_for_efficiency(c, p, target)
    assert abs(gating_efficiency(replace(c, kappa_int=root), p) - target) <= 1e-12
    assert root == pytest.approx(3.534, abs=1e-3)


def shared_rule_root(c, p, eta_target):
    """The root-find as it stood before the phase kernel: each brentq step sums its
    moments on the bracket's 4-part rule and writes eta out in full, the oracle for the
    kernel's roots."""
    from scipy.optimize import brentq

    lo, hi = 0.0, 2.0 * c.kappa_ext_in
    rule = old_moment_rule(c, p, replace(c, kappa_int=lo).kappa_tot, replace(c, kappa_int=hi).kappa_tot)
    pull = shifted_frequency(c, "e") - shifted_frequency(c, "g")

    def eta_of(k):
        at_k = replace(c, kappa_int=k)
        a_g, a_e = per_kappa_moments(at_k, p, rule)
        s = a_g + a_e.conjugate()
        overlap = 1.0 - c.kappa_ext_in * s + c.kappa_ext_in**2 * s / (at_k.kappa_tot - 1j * pull)
        return min(max((1.0 - overlap.real) / 2.0, 0.0), 1.0)

    e_lo = eta_of(lo)
    if e_lo < eta_target:
        raise NumericsError(
            f"eta({lo}) = {e_lo:.4f} already below target {eta_target}; "
            "no internal-loss solution"
        )
    if eta_of(hi) > eta_target:
        raise NumericsError(f"eta({hi}) still above target {eta_target} at the bracket end 2 kappa_ext")
    return float(brentq(lambda k: eta_of(k) - eta_target, lo, hi, xtol=1e-12))


@given(**ROOT_RANGE, share=st.floats(0.02, 0.98))
@settings(max_examples=50, deadline=None)
def test_kernel_root_matches_shared_rule_root(kind, duration, kappa_ext, detuning, share):
    c = cavity_one(kappa_ext=kappa_ext)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    target = gating_efficiency(replace(c, kappa_int=share * 2.0 * kappa_ext), p)
    try:
        expected = shared_rule_root(c, p, target)
    except NumericsError as exc:
        with pytest.raises(NumericsError) as raised:
            internal_loss_for_efficiency(c, p, target)
        assert str(raised.value) == str(exc)
        return
    assert abs(internal_loss_for_efficiency(c, p, target) - expected) <= 2e-12


@pytest.mark.parametrize("kind, duration", [("gaussian", 960.0), ("square", 230.0)])
def test_root_builds_one_rule_and_steps_on_one_kernel(kind, duration):
    # each step takes eta at a plain linewidth on the bracket's one kernel: no cavity record, no public eta
    c, p = cavity_one(kappa_ext=1.81), PulseShape(kind, duration)
    target = gating_efficiency(replace(c, kappa_int=0.16), p)
    with (mock.patch.object(cavity, "_moment_rule", wraps=cavity._moment_rule) as rules,
          mock.patch.object(cavity, "_eta", wraps=cavity._eta) as steps,
          mock.patch.object(cavity, "gating_efficiency", wraps=gating_efficiency) as etas,
          mock.patch.object(CavityParams, "__post_init__", autospec=True,
                            side_effect=CavityParams.__post_init__) as records):
        internal_loss_for_efficiency(c, p, target)
    assert rules.call_count == 1
    # the bracket checks' eta at kappa_ext and 3 kappa_ext are Brent's first two evaluations, not repeats
    kappas = [call.args[1] for call in steps.call_args_list]
    assert kappas[:2] == [1.81, 1.81 + 2 * 1.81]
    assert len(set(kappas)) == len(kappas) == 9
    assert etas.call_count == 0
    assert records.call_count == 0


@pytest.mark.parametrize("kind, duration", [("gaussian", 960.0), ("square", 230.0)])
def test_eta_and_survival_of_one_pair_build_one_rule(kind, duration):
    # the memo serves the survival from eta's rule; the root-find builds its own bracket rule
    c, p = cavity_one(kappa_int=0.16), PulseShape(kind, duration)
    with mock.patch.object(cavity, "_moment_rule", wraps=cavity._moment_rule) as rules:
        eta = gating_efficiency(c, p)
        pulse_survival(c, p)
        assert rules.call_count == 1
        internal_loss_for_efficiency(c, p, eta)
        assert rules.call_count == 2


def flip_zeros(record):
    """``record`` with the sign of each zero float field flipped: an equal key with other bits."""
    return replace(record, **{f.name: -v for f in fields(record) if isinstance(v := getattr(record, f.name), float)
                              and v == 0.0})


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@given(kind=PULSE_RANGE["kind"], duration=PULSE_RANGE["duration"],
       kappa_int=st.one_of(SIGNED_ZERO, PULSE_RANGE["kappa_int"]),
       detuning=st.one_of(SIGNED_ZERO, PULSE_RANGE["detuning"]),
       f0=st.one_of(SIGNED_ZERO, st.just(7000.0)), chi_ge=st.one_of(SIGNED_ZERO, st.floats(-2.0, 2.0)))
@settings(max_examples=50, deadline=None)
@example(kind="gaussian", duration=960.0, kappa_int=-0.0, detuning=-0.0, f0=-0.0, chi_ge=-0.0)
@example(kind="square", duration=230.0, kappa_int=0.0, detuning=0.0, f0=0.0, chi_ge=0.0)
def test_memoised_eta_and_survival_match_cold_calls(kind, duration, kappa_int, detuning, f0, chi_ge):
    # the memo answers for the twin whose zeros carry the other sign; eta and the survival keep every bit
    c = replace(cavity_one(kappa_int=kappa_int, chi_ge=chi_ge), f0=f0)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    cold = []
    for fn in (gating_efficiency, pulse_survival):
        cavity._pulse_moments.cache_clear()
        cold.append(fn(c, p).hex())
    twin_c, twin_p = flip_zeros(c), flip_zeros(p)
    assert (twin_c, twin_p) == (c, p)
    cavity._pulse_moments.cache_clear()
    gating_efficiency(twin_c, twin_p)
    assert [fn(c, p).hex() for fn in (gating_efficiency, pulse_survival)] == cold
    assert cavity._pulse_moments.cache_info()[:2] == (2, 1)  # hits, misses


def record_per_step_root(c, p, eta_target):
    """The root-find as it stood before it stepped on numbers: a new CavityParams by ``replace`` at
    each step, and eta written out as gating_efficiency took it on the bracket's _moment_rule kernel.
    The oracle for the root on plain linewidths."""
    number("eta_target", eta_target)

    lo, hi = 0.0, 2.0 * c.kappa_ext_in
    tau, kernel = cavity._moment_rule(c, p, replace(c, kappa_int=lo).kappa_tot, replace(c, kappa_int=hi).kappa_tot)

    def eta_of(k):
        at_k = replace(c, kappa_int=k)
        if not at_k.single_sided:
            raise ValueError("gating_efficiency requires a single-sided cavity")
        a_g, a_e = kernel @ np.exp(-math.pi * at_k.kappa_tot * tau)
        a_g, a_e = complex(a_g), complex(a_e)
        k_ext = at_k.kappa_ext_in
        s = a_g + a_e.conjugate()
        pull = shifted_frequency(at_k, "e") - shifted_frequency(at_k, "g")
        overlap = 1.0 - k_ext * s + k_ext**2 * s / (at_k.kappa_tot - 1j * pull)
        return cavity._unit_interval("eta", (1.0 - overlap.real) / 2.0)

    e_lo = eta_of(lo)
    if e_lo < eta_target:
        raise NumericsError(
            f"eta({lo}) = {e_lo:.4f} already below target {eta_target}; "
            "no internal-loss solution"
        )
    if eta_of(hi) > eta_target:
        raise NumericsError(f"eta({hi}) still above target {eta_target} at the bracket end 2 kappa_ext")
    return cavity._brentq(lambda k: eta_of(k) - eta_target, lo, hi)


@given(**ROOT_RANGE, share=st.floats(0.02, 0.98))
@example(kind="gaussian", duration=163.0, kappa_ext=1.795, detuning=0.0, share=0.355 / 3.59)  # met three times
# a numpy-scalar tolerance once leaked into the steps, and numpy's complex division left eta 2 ulp low
@example(kind="gaussian", duration=150.0, kappa_ext=1.5486985780947808, detuning=0.15188654216330771,
         share=0.5662534535450134)
@settings(max_examples=200, deadline=None)
def test_root_on_numbers_matches_the_per_step_record_root(kind, duration, kappa_ext, detuning, share):
    c = cavity_one(kappa_ext=kappa_ext)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    target = gating_efficiency(replace(c, kappa_int=share * 2.0 * kappa_ext), p)
    try:
        expected = record_per_step_root(c, p, target)
    except NumericsError as exc:
        with pytest.raises(NumericsError) as raised:
            internal_loss_for_efficiency(c, p, target)
        assert str(raised.value) == str(exc)
        return
    root = internal_loss_for_efficiency(c, p, target)
    assert type(root) is float
    assert root.hex() == expected.hex()


@pytest.mark.parametrize(
    "c, message",
    [(CavityParams(7000.0, 1.81, 0.1, 0.0, -0.865, -1.73), "gating_efficiency requires a single-sided cavity"),
     (CavityParams(7000.0, 0.0, 0.0, 0.16, -0.865, -1.73), "total linewidth must be positive")],
    ids=["two-sided", "no-external-coupling"],
)
def test_root_rejects_a_cavity_without_a_bracket(c, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        internal_loss_for_efficiency(c, GATE_PULSE, 0.8)
    # and before it builds any moment rule
    with mock.patch.object(cavity, "_moment_rule", side_effect=AssertionError("a moment rule was built")):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            internal_loss_for_efficiency(c, GATE_PULSE, 0.8)


def counted(f):
    """f, counting its calls in ``.calls``."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def same_root_as_scipy(f, lo, hi):
    """cavity._brentq's root of f in [lo, hi], after checking that scipy's brentq at xtol=1e-12
    returns the same float bit for bit after the same number of calls of f."""
    expected, info = brentq(f, lo, hi, xtol=1e-12, full_output=True)
    ours = counted(f)
    root = cavity._brentq(ours, lo, hi)
    assert root.hex() == float(expected).hex()
    assert ours.calls == info.function_calls
    return root


@given(**ROOT_RANGE, share=st.floats(0.02, 0.98))
@example(kind="gaussian", duration=163.0, kappa_ext=1.795, detuning=0.0, share=0.355 / 3.59)  # met three times
@settings(max_examples=50, deadline=None)
def test_brentq_port_matches_scipy_on_the_root_finds_own_f(kind, duration, kappa_ext, detuning, share):
    c = cavity_one(kappa_ext=kappa_ext)
    p = PulseShape(kind, duration, carrier_detuning=detuning)
    target = gating_efficiency(replace(c, kappa_int=share * 2.0 * kappa_ext), p)
    with mock.patch.object(cavity, "_brentq", wraps=cavity._brentq) as solver:
        try:
            root = internal_loss_for_efficiency(c, p, target)
        except NumericsError:
            assert solver.call_count == 0  # a target outside [eta(hi), eta(0)] stops before the solver
            return
    (f, lo, hi), = (call.args for call in solver.call_args_list)
    assert same_root_as_scipy(f, lo, hi) == root


@given(roots=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3, unique=True).map(sorted),
       inside=st.sampled_from([1, 3]), margin=st.floats(1e-3, 5.0))
@settings(max_examples=200, deadline=None)
def test_brentq_port_matches_scipy_on_cubics(roots, inside, margin):
    r1, r2, r3 = roots
    assume(min(r2 - r1, r3 - r2) > 1e-6)
    # three roots inside the bracket, or only the middle one, between the midpoints of its neighbours
    lo, hi = (r1 - margin, r3 + margin) if inside == 3 else ((r1 + r2) / 2, (r2 + r3) / 2)
    def f(x):
        return (x - r1) * (x - r2) * (x - r3)
    assume(f(lo) != 0 and f(hi) != 0 and (f(lo) < 0) != (f(hi) < 0))
    root = same_root_as_scipy(f, lo, hi)
    assert lo <= root <= hi


@pytest.mark.parametrize("lo, hi, end", [(1.0, 3.0, 1.0), (-1.0, 1.0, 1.0)])
def test_brentq_port_returns_an_end_where_f_is_zero(lo, hi, end):
    assert same_root_as_scipy(lambda x: x - 1.0, lo, hi) == end


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -x * x - 1.0])
def test_brentq_port_raises_on_ends_of_one_sign(f):
    with pytest.raises(NumericsError, match=r"have one sign; no root is bracketed$"):
        cavity._brentq(f, -1.0, 1.0)


def test_brentq_port_raises_at_the_step_cap():
    # a step function defeats every interpolation, so each step bisects, and 100 halvings of
    # [-1e300, 1e300] stay far wider than the tolerance.  The root-find cannot get here:
    # bisecting [0, 2 kappa_ext] reaches 1e-12 in about 42 steps.
    def step(x):
        return 1.0 if x > 0.3 else -1.0
    ours = counted(step)
    with pytest.raises(NumericsError, match=r"^Brent's method did not converge in 100 steps"):
        cavity._brentq(ours, -1e300, 1e300)
    _, info = brentq(step, -1e300, 1e300, xtol=1e-12, full_output=True, disp=False)
    assert not info.converged
    assert ours.calls == info.function_calls == 2 + cavity._MAXITER


@pytest.mark.parametrize("moments", [(10.0, 10.0), (-10.0, -10.0), (math.nan, math.nan)])
def test_eta_and_survival_out_of_range_raise(moments):
    # both scalars are linear in the moments, so moments far from any pulse's push them out of [0, 1]
    c = cavity_one(kappa_int=0.2)
    with mock.patch.object(cavity, "_pulse_moments", return_value=tuple(map(complex, moments))):
        with pytest.raises(NumericsError, match=r"^eta = \S+ lies outside \[0, 1\] beyond rounding$"):
            gating_efficiency(c, GATE_PULSE)
        with pytest.raises(NumericsError, match=r"^survival = \S+ lies outside \[0, 1\] beyond rounding$"):
            pulse_survival(c, GATE_PULSE)


@pytest.mark.parametrize(
    "value, clipped",
    [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (-1e-12, 0.0), (1.0 + 1e-12, 1.0), (-3e-13, 0.0), (1.0 + 3e-13, 1.0),
     (-2e-12, None), (1.0 + 2e-12, None), (math.inf, None), (math.nan, None)],
)
def test_unit_interval_clips_rounding_and_rejects_the_rest(value, clipped):
    if clipped is None:
        with pytest.raises(NumericsError, match=rf"^eta = {value!r} lies outside"):
            cavity._unit_interval("eta", value)
    else:
        assert cavity._unit_interval("eta", value) == clipped


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, True, "0.8", None])
def test_root_rejects_a_target_that_is_not_a_finite_number(target):
    with mock.patch.object(cavity, "_moment_rule", wraps=cavity._moment_rule) as rules:
        with pytest.raises(ValueError, match=r"^eta_target must be a finite number"):
            internal_loss_for_efficiency(cavity_one(), GATE_PULSE, target)
    assert rules.call_count == 0


def test_root_keeps_an_integer_target_in_its_message():
    with pytest.raises(NumericsError, match=r"already below target 1; no internal-loss solution"):
        internal_loss_for_efficiency(cavity_one(), GATE_PULSE, 1)


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(9000.0, -0.1, 0.0, 0.0, -1.0, -2.0)
    with pytest.raises(ValueError):
        CavityParams(9000.0, 0.0, 0.0, 0.0, -1.0, -2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["f0", "kappa_ext_in", "kappa_ext_out", "kappa_int", "chi_ge", "chi_gf"])
def test_cavity_params_reject_a_value_that_is_not_a_finite_number(name, value):
    with pytest.raises(ValueError, match=rf"^{name}_mhz must be a finite number, got"):
        replace(cavity_one(kappa_int=0.16), **{name: value})
