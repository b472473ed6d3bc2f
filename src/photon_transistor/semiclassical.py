"""Mean-field model of cavity II at medium and high photon numbers.

The qubit-state-dependent dispersive pull saturates with intracavity
population,

    f_res(level, n) = f_bare + pull_level / (1 + n / n_crit_level),

which reproduces photon blockade (the pulled resonance self-limits the
population) at moderate drive and the bright-state transition (the cavity
re-centers on its bare frequency and recovers a linear, qubit-independent
response) at strong drive.  Dressed zero-power resonances match the
closed-form module exactly: f_res(level, 0) = shifted_frequency(level).

This module is qualitative by design; critical photon numbers, the bare-
frequency offset and the drive conversion constant are configuration values,
not measured device properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import CalibrationResult, extinction_db, gain_db, predict_single_photon, switching_probability
from .cavity import CavityParams, shifted_frequency, transmission_coeff
from .errors import NumericsError, check, spec


@dataclass(frozen=True)
class SemiclassicalSettings:
    """Saturation parameters detached from any particular cavity/drive."""

    n_crit_g: float = spec(bound="> 0", default=1.0e4)
    n_crit_e: float = spec(bound="> 0", default=2.0e5)
    n_crit_f: float = spec(bound="> 0", default=4.0e4)
    bare_offset: float = spec("mhz", default=5.0)  # bare resonance sits this far above f0
    photon_flux_conversion: float = spec(bound="> 0", default=11.0)  # model flux units per (photon/us)
    signal_window_us: float = spec(bound="> 0", default=10.0)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class SaturableCavityModel:
    base: CavityParams
    settings: SemiclassicalSettings

    @property
    def f_bare(self) -> float:
        return self.base.f0 + self.settings.bare_offset

    def n_crit(self, level: str) -> float:
        s = self.settings
        return {"g": s.n_crit_g, "e": s.n_crit_e, "f": s.n_crit_f}[level]

    def pull(self, level: str) -> float:
        """Dressed-resonance pull from bare; vanishes as n >> n_crit."""
        return shifted_frequency(self.base, level) - self.f_bare


#: the model's former builder name, kept for callers that import it
build_model = SaturableCavityModel


#: the trigonometric form's angle offsets, for ascending roots, and the slots of one real root
_THIRDS = np.array([2.0, -2.0, 0.0]) * np.pi / 3.0
_ONE_ROOT = np.array([0.0, np.nan, np.nan])


@np.errstate(all="ignore")  # an overflow leaves NaN slots, which the callers check
def _steady_states(m: SaturableCavityModel, f, level, rhs):
    """Steady-state populations and stability, broadcast over f, rhs and level: a name, or arrays (n_crit, pull).

    With u = n/n_crit, a = (k/2)^2 and d = f - f_bare, the flux balance times
    (1+u)^2 is the dispersive-bistability cubic (Drummond & Walls, J. Phys. A
    13, 725 (1980)) G(u) = n_crit*u*[a(1+u)^2 + (d*u + d - pull)^2] - rhs*(1+u)^2.
    For rhs > 0 the leading coefficient is positive and G(0) = -rhs < 0, so
    there are one or three positive roots.  In t = u + b2/3 the monic cubic
    u^3 + b2 u^2 + b1 u + b0 is t^3 + p t + q, whose roots come in closed form:
    Cardano's where the discriminant is positive (one real root), the
    trigonometric form where it is not (three).  Four Newton steps on the cubic
    polish each, and a root is kept only if it is non-negative and the last step
    moved it by at most 1e-9 of itself.  The multiplication by (1+u)^2 can add
    negative roots (a zero pull gives G = (1+u)^2 * (n_crit*u*(a + d^2) - rhs),
    a double root u = -1), and at strong drive the trigonometric form can place
    them at u >= 0, where Newton does not settle.  At a root G' = (1+u)^2 *
    n_crit * (flux balance)', so a root is stable where G' > 0.

    Returns ``(n, stable)`` of shape broadcast(f, rhs, level) + (3,): ascending roots,
    NaN in the slots of complex, negative and dropped ones.  At zero drive the
    only population is G's factor u, so n = 0 is set exactly.
    """
    n_c, pull = (m.n_crit(level), m.pull(level)) if isinstance(level, str) else level
    a = (m.base.kappa_tot / 2.0) ** 2
    # laid out whole: numpy's loops run faster on contiguous operands than on broadcast views
    d, rhs, n_c, pull = (np.array(x, dtype=float, order="C")
                         for x in np.broadcast_arrays(np.subtract(f, m.f_bare), rhs, n_c, pull))
    c = d - pull
    lead = n_c * (a + d * d)
    # monic G / lead = u^3 + b2 u^2 + b1 u + b0
    b2 = (2.0 * n_c * (a + d * c) - rhs) / lead
    b1 = (n_c * (a + c * c) - 2.0 * rhs) / lead
    b0 = -rhs / lead
    s = b2 / 3.0
    p, q = b1 - b2 * s, s * (2.0 * s * s - b1) + b0
    disc = 0.25 * q * q + p * p * p / 27.0
    w = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))  # the Cardano term free of cancellation
    r = np.sqrt(-p / 3.0)
    angle = np.arccos(np.minimum(np.maximum(-0.5 * q / r**3, -1.0), 1.0))[..., None] / 3.0
    trig = 2.0 * r[..., None] * np.cos(angle + _THIRDS)
    u = np.where((disc > 0.0)[..., None], (w - p / (3.0 * w))[..., None] + _ONE_ROOT, trig) - s[..., None]
    b2, b1, b0 = b2[..., None], b1[..., None], b0[..., None]
    for _ in range(4):
        step = (((u + b2) * u + b1) * u + b0) / ((3.0 * u + 2.0 * b2) * u + b1)
        u = u - step
    u = np.where((u >= 0.0) & (np.abs(step) <= 1e-9 * u), u, np.nan)
    u = np.where(rhs[..., None] == 0.0, _ONE_ROOT, np.sort(u, axis=-1))  # NaN slots last
    n = n_c[..., None] * u
    stable = (3.0 * u + 2.0 * b2) * u + b1 > 0.0
    return n, stable


def _dim_root(m, f, level, rhs):
    """Lowest stable population (the dim branch), broadcast over f, rhs and level."""
    n, stable = _steady_states(m, f, level, rhs)
    return np.where(stable, n, np.inf).min(axis=-1)


class SweepPoint(NamedTuple):
    n_s: float
    gain_db: float
    extinction_db: float
    regime: str


def _classify(m, f, excited, n_exc_root, n_g_root, flux) -> np.ndarray:
    """Regime label per ([subspace,] n_s, candidate) from the dim-branch roots, f a row per level of ``excited``."""
    # compare actual excited-branch output with the unsaturated closed form
    lin = np.abs([transmission_coeff(m.base, row, x) for row, x in zip(np.atleast_2d(f), excited)]) ** 2
    n_lin = lin.reshape(np.shape(f))[..., None, :] * flux[:, None] / m.base.kappa_ext_out
    with np.errstate(divide="ignore", invalid="ignore"):
        blockade = (n_lin > 0) & (np.abs(n_exc_root - n_lin) / n_lin > 0.05)
    bright = n_g_root / m.n_crit("g") > 1.0
    return np.where(bright, "bright", np.where(blockade, "blockade", "linear"))


def _sweep(m: SaturableCavityModel, eta: float, p_s: float, n_s_grid, subspaces):
    """``gain_sweep`` of each of ``subspaces`` as columns: the grid, and gain, extinction and regime of
    shape (subspace, n_s).  One ``_steady_states`` call solves on axes (level: excited, g; subspace; n_s;
    candidate), each element as a one-level solve would.  The NumericsError names the first subspace's."""
    p_sg = switching_probability(eta, p_s)
    if unknown := [subspace for subspace in subspaces if subspace not in ("ge", "gf")]:
        raise ValueError(f"unknown subspace {unknown[0]!r}")
    grid = np.asarray(n_s_grid, dtype=float)
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("n_s_grid must hold finite photon numbers >= 0")
    if np.any(np.diff(grid) < 0):
        raise ValueError("n_s grid must be ascending")
    excited = "".join(subspace[1] for subspace in subspaces)  # "ge" -> "e"
    f_cand = np.array([[shifted_frequency(m.base, x), m.f_bare] for x in excited])
    conv, window = m.settings.photon_flux_conversion, m.settings.signal_window_us
    flux = conv * grid / window
    n_crit, pull = (np.array([[get(x) for x in excited], [get("g")] * len(excited)])[..., None, None]
                    for get in (m.n_crit, m.pull))
    dim = _dim_root(m, f_cand[:, None, :], (n_crit, pull), (m.base.kappa_ext_in * flux)[:, None])
    for row in np.isfinite(dim).all(axis=(0, 3)):
        if not row.all():
            raise NumericsError(f"no finite dim-branch population at n_s = {float(grid[np.argmin(row)])!r}: "
                                "the mean-field cubic overflows")
    regimes = _classify(m, f_cand, excited, *dim, flux)
    n_exc, n_g = dim * m.base.kappa_ext_out * window / conv
    n1, n0 = predict_single_photon(CalibrationResult(0.0, 1.0, n_g, n_exc, 0.0), p_sg)
    gains = gain_db(n1, n0)
    # argmax picks the first candidate among equal gains
    pick = (*np.indices(gains.shape[:-1], sparse=True), np.argmax(gains, axis=-1))
    return grid, gains[pick], extinction_db(n0[pick], n1[pick]), regimes[pick]


def gain_sweep(m: SaturableCavityModel, eta: float, p_s: float, n_s_grid, subspace: str = "ge") -> list[SweepPoint]:
    """Gain/extinction versus signal photon number, with regime labels, as ``_sweep`` of one subspace.

    Per grid point the drive is evaluated at two candidate signal frequencies (the dressed excited-state
    resonance and the bare resonance); the better-gain candidate is reported, mirroring the best-measured-point
    policy of a frequency-optimized experiment.  Gain folds through the ideal-single-photon prediction with the
    effective switching probability eta * p_s.  The steady states of every grid point, qubit level and candidate
    come from one vectorised pass.  A grid point without a finite dim-branch population (the cubic overflows,
    for the paper's device from n_s of about 1e107 on) is a NumericsError naming the first.
    """
    grid, gains, extinctions, regimes = _sweep(m, eta, p_s, n_s_grid, (subspace,))
    return [SweepPoint(*row) for row in zip(grid.tolist(), *(c[0].tolist() for c in (gains, extinctions, regimes)))]
