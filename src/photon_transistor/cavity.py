"""Frequency-domain input-output response of the two cavities.

Conventions (pinned once, referenced by every phase test):

* steady state of  a' = (i*Delta - kappa_tot/2) a + sqrt(kappa_ext) a_in,
  with the output relation  a_out = sqrt(kappa_ext) a - a_in;
* Delta = probe frequency - qubit-state-shifted resonance;
* the level-dependent resonance pull equals 2*chi relative to the g-state
  resonance (chi is an input, never derived from a coupling strength);
* all frequencies and rates are ordinary (non-angular) MHz.  The closed
  forms below are ratio-invariant, so no 2*pi conversion appears except in
  the pulse moments, which integrate over time (us) rather than frequency.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, bounded, check, number, spec

QUBIT_LEVELS = ("g", "e", "f")


@dataclass(frozen=True)
class CavityParams:
    """One cavity: bare/g resonance, port couplings, loss and dispersive shifts.

    All quantities in MHz.  ``kappa_ext_out = 0`` marks a single-sided
    (reflection) cavity; both external rates > 0 marks a two-sided
    (transmission) cavity.  ``chi_ge``/``chi_gf`` are signed; the e/f
    resonances sit at f0 + 2*chi_ge and f0 + 2*chi_gf.
    """

    f0: float = spec("mhz")
    kappa_ext_in: float = spec("mhz", ">= 0")
    kappa_ext_out: float = spec("mhz", ">= 0")
    kappa_int: float = spec("mhz", ">= 0")
    chi_ge: float = spec("mhz")
    chi_gf: float = spec("mhz")

    def __post_init__(self):
        check(self)
        if self.kappa_tot <= 0:
            raise ValueError("total linewidth must be positive")

    @property
    def kappa_tot(self) -> float:
        return self.kappa_ext_in + self.kappa_ext_out + self.kappa_int

    @property
    def single_sided(self) -> bool:
        return self.kappa_ext_out == 0.0

    @property
    def two_sided(self) -> bool:
        return self.kappa_ext_in > 0.0 and self.kappa_ext_out > 0.0


@dataclass(frozen=True)
class PulseShape:
    """Pulse envelope for the gate photon.

    duration/sigma in ns; gaussian envelopes are truncated at +/- duration/2
    with sigma = duration/6 unless given.  carrier_detuning (MHz) offsets the
    carrier from the g/e midpoint frequency.
    """

    kind: str = spec(choices=("gaussian", "square"))
    duration: float = spec("ns", "> 0")
    sigma: float | None = spec("ns", "> 0", default=None)
    carrier_detuning: float = spec("mhz", default=0.0)

    def __post_init__(self):
        check(self)
        if self.kind == "gaussian" and self.sigma is None:
            object.__setattr__(self, "sigma", bounded("sigma_ns", self.duration / 6.0, "> 0"))


def shifted_frequency(c: CavityParams, qubit_level: str) -> float:
    """Cavity resonance (MHz) for a given qubit level; pull = 2*chi from f0."""
    if qubit_level == "g":
        return c.f0
    if qubit_level == "e":
        return c.f0 + 2.0 * c.chi_ge
    if qubit_level == "f":
        return c.f0 + 2.0 * c.chi_gf
    raise ValueError(f"unknown qubit level {qubit_level!r}")


def reflection_coeff(c: CavityParams, f, qubit_level: str):
    """Reflection amplitude r(Delta) of a single-sided cavity.

    r = [(k_ext - k_int)/2 + i*Delta] / [(k_ext + k_int)/2 - i*Delta]
    """
    if not c.single_sided:
        raise ValueError("reflection_coeff requires a single-sided cavity (kappa_ext_out = 0)")
    delta = np.asarray(f, dtype=float) - shifted_frequency(c, qubit_level)
    r = ((c.kappa_ext_in - c.kappa_int) / 2.0 + 1j * delta) / (c.kappa_tot / 2.0 - 1j * delta)
    return complex(r) if np.isscalar(f) else r


def transmission_coeff(c: CavityParams, f, qubit_level: str):
    """Transmission amplitude t(Delta) = sqrt(k_in k_out) / (k_tot/2 - i*Delta)."""
    if not c.two_sided:
        raise ValueError("transmission_coeff requires a two-sided cavity")
    delta = np.asarray(f, dtype=float) - shifted_frequency(c, qubit_level)
    t = np.sqrt(c.kappa_ext_in * c.kappa_ext_out) / (c.kappa_tot / 2.0 - 1j * delta)
    return complex(t) if np.isscalar(f) else t


def spectrum(c: CavityParams, f_grid, qubit_level: str) -> np.ndarray:
    """Complex amplitudes over a sorted frequency grid, one per grid point: the
    reflection of a single-sided cavity, the transmission of a two-sided one."""
    grid = np.asarray(f_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("frequency grid must be sorted ascending")
    if c.single_sided:
        return reflection_coeff(c, grid, qubit_level)
    return transmission_coeff(c, grid, qubit_level)


# ---------------------------------------------------------------------------
# pulse moments and the single-photon gating efficiency
#
# A photon reflected off a single-sided cavity with the qubit in level l leaves
# with r_l = -1 + kappa_ext * A_l, where A_l = 1/(kappa_tot/2 - i(f - f_l))
# (Gardiner & Collett, PRA 31, 3761 (1985)).  Every gate-stage kernel is
# rational in A_g and A_e, so its average over the pulse's intensity spectrum
# follows from the two pulse moments <A_g> and <A_e>.

#: 32-node Gauss-Legendre rule on [-1, 1], applied panel by panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
#: panels a moment rule may take: 2**20 nodes, whose complex 2 x N kernel alone is 32 MB
_MAX_PANELS = 2**20 // _GL_NODES.size


def gate_carrier_frequency(c: CavityParams, p: PulseShape) -> float:
    """Gate carrier: midpoint of the g/e-shifted resonances plus any detuning."""
    return 0.5 * (shifted_frequency(c, "g") + shifted_frequency(c, "e")) + p.carrier_detuning


def _moment_rule(c: CavityParams, p: PulseShape, kappa_lo: float, kappa_hi: float):
    """The kappa-free half of the pulse moments, for every total linewidth in [kappa_lo, kappa_hi]:
    the nodes tau and the 2 x N phase kernel K_l(tau) = (2 pi / C(0)) * weights * C(tau) * exp(2 pi i d_l tau).

    The decay factorises, exp(-2 pi (kappa/2 - i d_l) tau) = exp(-pi kappa tau) exp(2 pi i d_l tau),
    so each linewidth costs one real exponential of the tau nodes and one mat-vec.  The
    integrand has decayed below e^-80 by tau = 80/(pi kappa), so tau_max = min(T, 80/(pi kappa_lo)).
    Each panel spans about one unit of the integrand's fastest rate at kappa_hi (decay, carrier
    offset and gaussian width), which keeps the fixed 32-node rule at double precision.
    A rule of more than 2**20 nodes is a NumericsError, raised before anything is allocated.
    """
    T = p.duration / 1000.0  # ns -> us, so that MHz * us counts cycles
    tau_max = min(T, 80.0 / (math.pi * kappa_lo))
    d = gate_carrier_frequency(c, p) - np.array([shifted_frequency(c, "g"), shifted_frequency(c, "e")])
    fastest = kappa_hi / 2.0 + float(np.abs(d).max())  # 1/us
    if p.kind == "gaussian":
        fastest += 250.0 / p.sigma  # 1/(4 sigma) in 1/us, sigma in ns
    if not tau_max * fastest < _MAX_PANELS:
        raise NumericsError(f"the pulse moments need {_GL_NODES.size * (1 + tau_max * fastest):.3g} quadrature "
                            f"nodes, over the budget of 2**20: sigma_ns = {p.sigma} and carrier_detuning_mhz = "
                            f"{p.carrier_detuning} vary too fast to resolve")
    panels = 1 + int(tau_max * fastest)
    h = tau_max / panels
    tau = (h * (np.arange(panels)[:, None] + (_GL_NODES + 1.0) / 2.0)).ravel()
    weights = np.tile(_GL_WEIGHTS * (h / 2.0), panels)
    if p.kind == "square":
        corr, corr0 = T - tau, T
    else:
        two_sigma = 2.0 * p.sigma / 1000.0
        erfs = list(map(math.erf, ((T - tau) / two_sigma).tolist()))
        corr, corr0 = np.exp(-((tau / two_sigma) ** 2)) * erfs, math.erf(T / two_sigma)
    return tau, 2.0 * math.pi / corr0 * np.exp(2j * math.pi * d[:, None] * tau) * (weights * corr)


def _pulse_moments(c: CavityParams, p: PulseShape) -> tuple[complex, complex]:
    """<A_g> and <A_e> over the pulse's intensity spectrum, normalised to its full power.

    By Wiener-Khinchin, with d_l = f_c - f_l and C the envelope autocorrelation,

        <A_l> = (2 pi / C(0)) * int_0^tau_max exp(-2 pi (kappa/2 - i d_l) tau) C(tau) dtau,

    where C(tau) = T - tau for a square pulse and
    exp(-tau^2/4 sigma^2) * erf((T - tau)/(2 sigma)) for the truncated gaussian
    (up to a constant): :func:`_moment_sum` on the rule of this cavity's own linewidth.
    """
    return _moment_sum(*_moment_rule(c, p, c.kappa_tot, c.kappa_tot), c.kappa_tot)


def _moment_sum(tau, kernel, kappa: float) -> tuple[complex, complex]:
    """<A_g> and <A_e> at total linewidth kappa from a :func:`_moment_rule`: kernel @ exp(-pi kappa tau)."""
    a_g, a_e = kernel @ np.exp(-math.pi * kappa * tau)
    return complex(a_g), complex(a_e)


def _unit_interval(name: str, value: float) -> float:
    """A probability clipped to [0, 1]; a value beyond rounding of that range is a NumericsError."""
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise NumericsError(f"{name} = {value!r} lies outside [0, 1] beyond rounding")
    return min(max(value, 0.0), 1.0)


def _eta(c: CavityParams, kappa_tot: float, a_g: complex, a_e: complex) -> float:
    """:func:`gating_efficiency` of the single-sided cavity c at total linewidth kappa_tot, from its pulse moments."""
    k_ext = c.kappa_ext_in
    s = a_g + a_e.conjugate()
    pull = shifted_frequency(c, "e") - shifted_frequency(c, "g")
    overlap = 1.0 - k_ext * s + k_ext**2 * s / (kappa_tot - 1j * pull)
    return _unit_interval("eta", (1.0 - overlap.real) / 2.0)


def gating_efficiency(c: CavityParams, p: PulseShape) -> float:
    """Probability that one reflected gate photon flips the qubit superposition.

    eta = (1 - Re <r_g(f) conj(r_e(f))>) / 2, averaged over the pulse's whole
    intensity spectrum normalised to its full power C(0); no frequency window
    is cut.  With S = <A_g> + conj(<A_e>),

        <r_g conj(r_e)> = 1 - k_ext S + k_ext^2 S / (k_tot - i (f_e - f_g)).

    Approaches 1 for a narrowband pulse on a lossless cavity with
    kappa_ext = 2|chi|.  A value outside [0, 1] beyond rounding is a NumericsError.
    """
    if not c.single_sided:
        raise ValueError("gating_efficiency requires a single-sided cavity")
    return _eta(c, c.kappa_tot, *_pulse_moments(c, p))


def pulse_survival(c: CavityParams, p: PulseShape) -> float:
    """Per-photon intensity survival on reflection, (<|r_g|^2> + <|r_e|^2>) / 2.

    Averaged over the pulse's whole intensity spectrum normalised to its full
    power C(0); only the internal loss port removes the photon:

        <|r_l|^2> = 1 - (2 k_ext k_int / k_tot) Re <A_l>.

    A value outside [0, 1] beyond rounding is a NumericsError.
    """
    if not c.single_sided:
        raise ValueError("pulse_survival requires a single-sided cavity")
    a_g, a_e = _pulse_moments(c, p)
    loss = 2.0 * c.kappa_ext_in * c.kappa_int / c.kappa_tot
    return _unit_interval("survival", 1.0 - loss * (a_g.real + a_e.real) / 2.0)


#: Brent's absolute and relative x tolerances and step budget: the root-find's 1e-12, then scipy's
#: defaults.  Each is a Python number: a numpy scalar here would reach f's argument through the
#: step, and numpy's complex division rounds otherwise than CPython's
_XTOL, _RTOL, _MAXITER = 1e-12, 4.0 * sys.float_info.epsilon, 100


def _brentq(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), step for step as scipy's brentq.c takes it, so it evaluates f
    at the same points and returns the same root as brentq(f, lo, hi, xtol=1e-12).

    An end where f is exactly zero is returned as it is.  Ends where f has one sign, or no
    convergence within _MAXITER steps, are a NumericsError.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericsError(f"f({lo!r}) = {fpre!r} and f({hi!r}) = {fcur!r} have one sign; no root is bracketed")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is taken below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero denominator gives C an infinite step, which bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                if denom := dblk * dpre * (fblk - fpre):
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericsError(f"Brent's method did not converge in {_MAXITER} steps; last value {xcur!r}")


def internal_loss_for_efficiency(c: CavityParams, p: PulseShape, eta_target: float) -> float:
    """Root-find the internal loss rate at which gating_efficiency hits a target.

    One moment rule and its kappa-free phase kernel serve the whole bracket
    [0, 2 kappa_ext], so each step of the Brent solver :func:`_brentq` is
    :func:`_eta` on that kernel: one real exponential of the tau nodes and one
    mat-vec, the moment path every other caller takes on its own rule.  Each kappa is
    evaluated once: the bracket checks' two values serve Brent's first two steps.  The root need
    not be unique: for gaussians under about 200 ns eta(kappa_int) dips and rises again
    inside the bracket, so the solver may return another loss than the one that
    produced the target.
    A target that is not a finite number, a two-sided cavity or kappa_ext = 0 is a
    ValueError; targets outside [eta(2 kappa_ext), eta(0)] raise NumericsError.
    """
    number("eta_target", eta_target)
    if not c.single_sided:
        raise ValueError("gating_efficiency requires a single-sided cavity")
    k_ext = c.kappa_ext_in  # single-sided: kappa_tot = k_ext + kappa_int
    if not k_ext > 0:
        raise ValueError("total linewidth must be positive")

    lo, hi = 0.0, 2.0 * k_ext
    tau, kernel = _moment_rule(c, p, k_ext, k_ext + hi)

    @functools.cache
    def eta_of(k):
        return _eta(c, k_ext + k, *_moment_sum(tau, kernel, k_ext + k))

    if (e_lo := eta_of(lo)) < eta_target:
        raise NumericsError(f"eta({lo}) = {e_lo:.4f} already below target {eta_target}; no internal-loss solution")
    if eta_of(hi) > eta_target:
        raise NumericsError(f"eta({hi}) still above target {eta_target} at the bracket end 2 kappa_ext")
    return _brentq(lambda k: eta_of(k) - eta_target, lo, hi)
