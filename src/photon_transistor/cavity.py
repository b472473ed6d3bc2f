"""Frequency-domain input-output response of the two cavities.

Conventions (pinned once, referenced by every phase test):

* steady state of  a' = (i*Delta - kappa_tot/2) a + sqrt(kappa_ext) a_in,
  with the output relation  a_out = sqrt(kappa_ext) a - a_in;
* Delta = probe frequency - qubit-state-shifted resonance;
* the level-dependent resonance pull equals 2*chi relative to the g-state
  resonance (chi is an input, never derived from a coupling strength);
* all frequencies and rates are ordinary (non-angular) MHz.  The closed
  forms below are ratio-invariant, so no 2*pi conversion ever appears.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import wofz

from .errors import NumericsError

QUBIT_LEVELS = ("g", "e", "f")


@dataclass(frozen=True)
class CavityParams:
    """One cavity: bare/g resonance, port couplings, loss and dispersive shifts.

    All quantities in MHz.  ``kappa_ext_out = 0`` marks a single-sided
    (reflection) cavity; both external rates > 0 marks a two-sided
    (transmission) cavity.  ``chi_ge``/``chi_gf`` are signed; the e/f
    resonances sit at f0 + 2*chi_ge and f0 + 2*chi_gf.
    """

    f0: float
    kappa_ext_in: float
    kappa_ext_out: float
    kappa_int: float
    chi_ge: float
    chi_gf: float

    def __post_init__(self):
        for name in ("kappa_ext_in", "kappa_ext_out", "kappa_int"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
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

    kind: str
    duration: float
    sigma: float | None = None
    carrier_detuning: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "square"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        if self.kind == "gaussian" and self.sigma is None:
            object.__setattr__(self, "sigma", self.duration / 6.0)
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("pulse sigma must be positive")


def shifted_frequency(c: CavityParams, qubit_level: str) -> float:
    """Cavity resonance (MHz) for a given qubit level; pull = 2*chi from f0."""
    if qubit_level == "g":
        return c.f0
    if qubit_level == "e":
        return c.f0 + 2.0 * c.chi_ge
    if qubit_level == "f":
        return c.f0 + 2.0 * c.chi_gf
    raise ValueError(f"unknown qubit level {qubit_level!r}")


def _port_reflection(kappa_port, kappa_rest, delta):
    return ((kappa_port - kappa_rest) / 2.0 + 1j * delta) / (
        (kappa_port + kappa_rest) / 2.0 - 1j * delta
    )


def reflection_coeff(c: CavityParams, f, qubit_level: str):
    """Reflection amplitude r(Delta) of a single-sided cavity.

    r = [(k_ext - k_int)/2 + i*Delta] / [(k_ext + k_int)/2 - i*Delta]
    """
    if not c.single_sided:
        raise ValueError("reflection_coeff requires a single-sided cavity (kappa_ext_out = 0)")
    delta = np.asarray(f, dtype=float) - shifted_frequency(c, qubit_level)
    r = _port_reflection(c.kappa_ext_in, c.kappa_int, delta)
    return complex(r) if np.isscalar(f) else r


def transmission_coeff(c: CavityParams, f, qubit_level: str):
    """Transmission amplitude t(Delta) = sqrt(k_in k_out) / (k_tot/2 - i*Delta)."""
    if not c.two_sided:
        raise ValueError("transmission_coeff requires a two-sided cavity")
    delta = np.asarray(f, dtype=float) - shifted_frequency(c, qubit_level)
    t = np.sqrt(c.kappa_ext_in * c.kappa_ext_out) / (c.kappa_tot / 2.0 - 1j * delta)
    return complex(t) if np.isscalar(f) else t


def input_port_reflection(c: CavityParams, f, qubit_level: str):
    """Reflection back out of the input port (any cavity, same conventions)."""
    delta = np.asarray(f, dtype=float) - shifted_frequency(c, qubit_level)
    r = _port_reflection(c.kappa_ext_in, c.kappa_ext_out + c.kappa_int, delta)
    return complex(r) if np.isscalar(f) else r


def energy_budget(c: CavityParams, f: float, qubit_level: str):
    """(|t|^2, |r_back|^2, loss fraction) for a two-sided cavity; sums to 1."""
    t2 = abs(transmission_coeff(c, f, qubit_level)) ** 2
    r2 = abs(input_port_reflection(c, f, qubit_level)) ** 2
    delta = f - shifted_frequency(c, qubit_level)
    loss = c.kappa_int * c.kappa_ext_in / ((c.kappa_tot / 2.0) ** 2 + delta**2)
    return t2, r2, loss


def spectrum(c: CavityParams, f_grid, qubit_level: str, mode: str):
    """Pointwise (frequency, complex amplitude) samples over a sorted grid."""
    grid = np.asarray(f_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("frequency grid must be sorted ascending")
    if mode == "reflect":
        amps = reflection_coeff(c, grid, qubit_level)
    elif mode == "transmit":
        amps = transmission_coeff(c, grid, qubit_level)
    else:
        raise ValueError(f"unknown spectrum mode {mode!r}")
    amps = np.atleast_1d(amps)
    return list(zip(grid.tolist(), [complex(a) for a in amps]))


# ---------------------------------------------------------------------------
# pulse spectra and the single-photon gating efficiency


def pulse_amplitude_spectrum(p: PulseShape, nu):
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
    a = T / 2.0
    om = 2.0 * np.pi * nu
    x = a / (sigma * np.sqrt(2.0))
    y = om * sigma / np.sqrt(2.0)
    term1 = 2.0 * np.exp(-np.minimum(y * y, 700.0))
    term2 = 2.0 * np.real(np.exp(-x * x - 2j * x * y) * wofz(-y + 1j * x))
    return sigma * np.sqrt(np.pi / 2.0) * (term1 - term2)


def gate_carrier_frequency(c: CavityParams, p: PulseShape) -> float:
    """Gate carrier: midpoint of the g/e-shifted resonances plus any detuning."""
    return 0.5 * (shifted_frequency(c, "g") + shifted_frequency(c, "e")) + p.carrier_detuning


def _pulse_weighted(c: CavityParams, p: PulseShape, kernel, tol=1e-9):
    """Average of a real kernel over the unit-normalized pulse intensity spectrum.

    Both integrals go through ``scipy.integrate.quad`` at relative tolerance
    ``tol``; an error estimate above it raises instead of warning.
    """
    # imported on first use: scipy.integrate adds about 50 ms and 2.5 MB to the
    # start-up of every command, and only the gate-stage scalars need it
    from scipy.integrate import quad

    f_c = gate_carrier_frequency(c, p)
    half = 10.0 * c.kappa_tot
    lo, hi = f_c - half, f_c + half
    # breakpoints 4, 16, 64, ... spectral widths from the carrier let quad find
    # a peak far narrower than the window and resolve its 1/T-wide side lobes
    width = 1000.0 / p.duration if p.kind == "square" else 1000.0 / (2.0 * math.pi * p.sigma)
    steps = width * 4.0 ** np.arange(1, 40)
    steps = steps[steps < half]
    points = list(f_c + np.concatenate([-steps, steps])) or None

    def wfun(f):
        return float(pulse_amplitude_spectrum(p, f - f_c)) ** 2

    def integrate(f, eps):
        # full_output keeps quad from warning; the error check below decides.
        # 5000 subintervals cover a 1 ms pulse's ~35 000 side lobes.
        val, err = quad(f, lo, hi, epsabs=eps, epsrel=tol, limit=5000, points=points, full_output=1)[:2]
        if not err <= max(eps, tol * abs(val)):
            raise NumericsError(f"quadrature error estimate {err:.3e} exceeds the tolerance")
        return val

    norm = integrate(wfun, 0.0)
    if not np.isfinite(norm) or norm <= 0:
        raise NumericsError("pulse spectrum is not normalizable over the quadrature range")
    return integrate(lambda f: wfun(f) * kernel(f), tol * norm) / norm


def gating_efficiency(c: CavityParams, p: PulseShape) -> float:
    """Probability that one reflected gate photon flips the qubit superposition.

    eta = (1 - Re < r_g(f) conj(r_e(f)) >_pulse) / 2, averaged over the
    unit-normalized pulse intensity spectrum.  Approaches 1 for a narrowband
    pulse on a lossless cavity with kappa_ext = 2|chi|.
    """
    if not c.single_sided:
        raise ValueError("gating_efficiency requires a single-sided cavity")
    return _gating_efficiency(c, p)


def pulse_survival(c: CavityParams, p: PulseShape) -> float:
    """Pulse-averaged per-photon intensity survival |r_g||r_e| on reflection."""
    if not c.single_sided:
        raise ValueError("pulse_survival requires a single-sided cavity")
    return _pulse_survival(c, p)


# Both scalars are memoised per (cavity, pulse) pair; the memo sits on these
# helpers so that the public names above stay plain functions, which
# bench/tracer.py can wrap and time.  64 pairs outlast an internal-loss root-find.
@functools.lru_cache(maxsize=64)
def _gating_efficiency(c: CavityParams, p: PulseShape) -> float:
    def kernel(f):
        return (reflection_coeff(c, f, "g") * reflection_coeff(c, f, "e").conjugate()).real

    eta = (1.0 - _pulse_weighted(c, p, kernel)) / 2.0
    return min(max(eta, 0.0), 1.0)


@functools.lru_cache(maxsize=64)
def _pulse_survival(c: CavityParams, p: PulseShape) -> float:
    def kernel(f):
        return abs(reflection_coeff(c, f, "g")) * abs(reflection_coeff(c, f, "e"))

    return _pulse_weighted(c, p, kernel)


def internal_loss_for_efficiency(
    c: CavityParams, p: PulseShape, eta_target: float, kappa_max: float | None = None
) -> float:
    """Root-find the internal loss rate at which gating_efficiency hits a target."""

    def eta_of(k):
        return gating_efficiency(replace(c, kappa_int=k), p)

    lo = 0.0
    hi = kappa_max if kappa_max is not None else 2.0 * c.kappa_ext_in
    e_lo = eta_of(lo)
    if e_lo < eta_target:
        raise NumericsError(
            f"eta({lo}) = {e_lo:.4f} already below target {eta_target}; "
            "no internal-loss solution"
        )
    if eta_of(hi) > eta_target:
        raise NumericsError(f"eta({hi}) still above target {eta_target}; widen kappa_max")
    return float(brentq(lambda k: eta_of(k) - eta_target, lo, hi, xtol=1e-12))
