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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, number

QUBIT_LEVELS = ("g", "e", "f")
#: protocol-file key -> PulseShape field; the numeric keys carry their units
PULSE_KEYS = {"kind": "kind", "duration_ns": "duration", "sigma_ns": "sigma",
              "carrier_detuning_mhz": "carrier_detuning"}


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
        for key, attr in PULSE_KEYS.items():
            if attr != "kind" and (value := getattr(self, attr)) is not None:
                object.__setattr__(self, attr, number(key, value))
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


def gate_carrier_frequency(c: CavityParams, p: PulseShape) -> float:
    """Gate carrier: midpoint of the g/e-shifted resonances plus any detuning."""
    return 0.5 * (shifted_frequency(c, "g") + shifted_frequency(c, "e")) + p.carrier_detuning


def _moment_rule(c: CavityParams, p: PulseShape, kappa_lo: float, kappa_hi: float):
    """The kappa-free half of the pulse moments, for every total linewidth in [kappa_lo, kappa_hi].

    Returns the nodes tau, weights * C(tau), 2 pi / C(0) and the d_l.  The
    integrand has decayed below e^-80 by tau = 80/(pi kappa), so tau_max =
    min(T, 80/(pi kappa_lo)).  Each panel spans about one unit of the
    integrand's fastest rate at kappa_hi (decay, carrier offset and gaussian
    width), which keeps the fixed 32-node rule at double precision.
    """
    T = p.duration / 1000.0  # ns -> us, so that MHz * us counts cycles
    tau_max = min(T, 80.0 / (math.pi * kappa_lo))
    d = gate_carrier_frequency(c, p) - np.array([shifted_frequency(c, "g"), shifted_frequency(c, "e")])
    fastest = kappa_hi / 2.0 + float(np.abs(d).max())  # 1/us
    if p.kind == "gaussian":
        fastest += 250.0 / p.sigma  # 1/(4 sigma) in 1/us, sigma in ns
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
    return tau, weights * corr, 2.0 * math.pi / corr0, d


def _pulse_moments(c: CavityParams, p: PulseShape, rule=None) -> tuple[complex, complex]:
    """<A_g> and <A_e> over the pulse's intensity spectrum, normalised to its full power.

    By Wiener-Khinchin, with d_l = f_c - f_l and C the envelope autocorrelation,

        <A_l> = (2 pi / C(0)) * int_0^tau_max exp(-2 pi (kappa/2 - i d_l) tau) C(tau) dtau,

    where C(tau) = T - tau for a square pulse and
    exp(-tau^2/4 sigma^2) * erf((T - tau)/(2 sigma)) for the truncated gaussian
    (up to a constant).  The sum runs over ``rule`` (see :func:`_moment_rule`),
    by default the rule of this cavity's own linewidth.
    """
    tau, weighted_corr, scale, d = rule if rule is not None else _moment_rule(c, p, c.kappa_tot, c.kappa_tot)
    decay = 2.0 * math.pi * (c.kappa_tot / 2.0 - 1j * d)
    a_g, a_e = scale * (np.exp(-decay[:, None] * tau) @ weighted_corr)
    return complex(a_g), complex(a_e)


def gating_efficiency(c: CavityParams, p: PulseShape, *, rule=None) -> float:
    """Probability that one reflected gate photon flips the qubit superposition.

    eta = (1 - Re <r_g(f) conj(r_e(f))>) / 2, averaged over the pulse's whole
    intensity spectrum normalised to its full power C(0); no frequency window
    is cut.  With S = <A_g> + conj(<A_e>),

        <r_g conj(r_e)> = 1 - k_ext S + k_ext^2 S / (k_tot - i (f_e - f_g)).

    Approaches 1 for a narrowband pulse on a lossless cavity with
    kappa_ext = 2|chi|.  Only the internal-loss root-find passes a shared ``rule``.
    """
    if not c.single_sided:
        raise ValueError("gating_efficiency requires a single-sided cavity")
    a_g, a_e = _pulse_moments(c, p, rule)
    k_ext = c.kappa_ext_in
    s = a_g + a_e.conjugate()
    pull = shifted_frequency(c, "e") - shifted_frequency(c, "g")
    overlap = 1.0 - k_ext * s + k_ext**2 * s / (c.kappa_tot - 1j * pull)
    return min(max((1.0 - overlap.real) / 2.0, 0.0), 1.0)


def pulse_survival(c: CavityParams, p: PulseShape) -> float:
    """Per-photon intensity survival on reflection, (<|r_g|^2> + <|r_e|^2>) / 2.

    Averaged over the pulse's whole intensity spectrum normalised to its full
    power C(0); only the internal loss port removes the photon:

        <|r_l|^2> = 1 - (2 k_ext k_int / k_tot) Re <A_l>.
    """
    if not c.single_sided:
        raise ValueError("pulse_survival requires a single-sided cavity")
    a_g, a_e = _pulse_moments(c, p)
    loss = 2.0 * c.kappa_ext_in * c.kappa_int / c.kappa_tot
    return 1.0 - loss * (a_g.real + a_e.real) / 2.0


def internal_loss_for_efficiency(c: CavityParams, p: PulseShape, eta_target: float) -> float:
    """Root-find the internal loss rate at which gating_efficiency hits a target.

    One moment rule serves the whole bracket [0, 2 kappa_ext], so each brentq
    step costs one exponential and one mat-vec.  The root need not be unique:
    for gaussians under about 200 ns eta(kappa_int) dips and rises again inside
    the bracket, so brentq may return another loss than the one that produced
    the target.  Targets outside [eta(2 kappa_ext), eta(0)] raise NumericsError.
    """
    from scipy.optimize import brentq  # imported on use: scipy adds ~0.5 s to every start-up

    lo, hi = 0.0, 2.0 * c.kappa_ext_in
    rule = _moment_rule(c, p, replace(c, kappa_int=lo).kappa_tot, replace(c, kappa_int=hi).kappa_tot)

    def eta_of(k):
        return gating_efficiency(replace(c, kappa_int=k), p, rule=rule)

    e_lo = eta_of(lo)
    if e_lo < eta_target:
        raise NumericsError(
            f"eta({lo}) = {e_lo:.4f} already below target {eta_target}; "
            "no internal-loss solution"
        )
    if eta_of(hi) > eta_target:
        raise NumericsError(f"eta({hi}) still above target {eta_target} at the bracket end 2 kappa_ext")
    return float(brentq(lambda k: eta_of(k) - eta_target, lo, hi, xtol=1e-12))
