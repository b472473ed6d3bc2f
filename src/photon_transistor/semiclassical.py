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

from .analysis import CalibrationResult, extinction_db, gain_db, predict_single_photon
from .cavity import CavityParams, shifted_frequency, transmission_coeff


@dataclass(frozen=True)
class SemiclassicalSettings:
    """Saturation parameters detached from any particular cavity/drive."""

    n_crit_g: float = 1.0e4
    n_crit_e: float = 2.0e5
    n_crit_f: float = 4.0e4
    bare_offset: float = 5.0  # MHz; bare resonance sits this far above f0
    photon_flux_conversion: float = 11.0  # model flux units per (photon/us)
    signal_window_us: float = 10.0

    def __post_init__(self):
        if min(self.n_crit_g, self.n_crit_e, self.n_crit_f) <= 0:
            raise ValueError("critical photon numbers must be positive")
        if self.photon_flux_conversion <= 0 or self.signal_window_us <= 0:
            raise ValueError("conversion constant and window must be positive")


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


def _steady_states(m: SaturableCavityModel, f, level: str, rhs):
    """Steady-state populations and their stability, broadcast over f and rhs.

    With u = n/n_crit, a = (k/2)^2 and d = f - f_bare, the flux balance times
    (1+u)^2 is the dispersive-bistability cubic (Drummond & Walls, J. Phys. A
    13, 725 (1980)) G(u) = n_crit*u*[a(1+u)^2 + (d*u + d - pull)^2] - rhs*(1+u)^2.
    For rhs > 0 the leading coefficient is positive and G(0) = -rhs < 0, so
    there are one or three positive roots.  They are the eigenvalues of stacked
    companion matrices.  The multiplication by (1+u)^2 can add negative ones:
    with a zero pull G = (1+u)^2 * (n_crit*u*(a + d^2) - rhs), and u = -1 comes
    back as a double root, which LAPACK may split into two nearby reals.  Only
    the non-negative real eigenvalues are populations.  At a root G' = (1+u)^2 *
    n_crit * (flux balance)', so a root is stable where G' > 0.

    Returns ``(n, stable)`` of shape broadcast(f, rhs) + (3,): ascending roots,
    NaN in the slots of complex and negative ones.  At zero drive the companion
    matrix has a zero column, which LAPACK's balancing isolates as the exact
    root n = 0.
    """
    n_c = m.n_crit(level)
    a = (m.base.kappa_tot / 2.0) ** 2
    d, rhs = np.broadcast_arrays(np.asarray(f, dtype=float) - m.f_bare, np.asarray(rhs, dtype=float))
    c = d - m.pull(level)
    lead = n_c * (a + d * d)
    # monic G / lead = u^3 + b2 u^2 + b1 u + b0
    b2 = (2.0 * n_c * (a + d * c) - rhs) / lead
    b1 = (n_c * (a + c * c) - 2.0 * rhs) / lead
    b0 = -rhs / lead
    companion = np.zeros(d.shape + (3, 3))
    companion[..., 0, :] = -np.stack([b2, b1, b0], axis=-1)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    lam = np.linalg.eigvals(companion)
    # LAPACK returns the real eigenvalues of a real matrix with zero imaginary part
    populations = (lam.imag == 0.0) & (lam.real >= 0.0)
    u = np.sort(np.where(populations, lam.real, np.nan), axis=-1)  # NaN slots last
    n = n_c * u
    stable = (3.0 * u + 2.0 * b2[..., None]) * u + b1[..., None] > 0.0
    return n, stable


def _dim_root(m, f, level, rhs):
    """Lowest stable population (the dim branch), broadcast over f and rhs."""
    n, stable = _steady_states(m, f, level, rhs)
    return np.where(stable, n, np.inf).min(axis=-1)


class SweepPoint(NamedTuple):
    n_s: float
    gain_db: float
    extinction_db: float
    regime: str


def _classify(m, f, excited, n_exc_root, n_g_root, flux) -> np.ndarray:
    """Regime label per (n_s, candidate frequency) from the dim-branch roots."""
    # compare actual excited-branch output with the unsaturated closed form
    lin = np.abs(transmission_coeff(m.base, f, excited)) ** 2
    n_lin = lin * flux[:, None] / m.base.kappa_ext_out
    with np.errstate(divide="ignore", invalid="ignore"):
        blockade = (n_lin > 0) & (np.abs(n_exc_root - n_lin) / n_lin > 0.05)
    bright = n_g_root / m.n_crit("g") > 1.0
    return np.where(bright, "bright", np.where(blockade, "blockade", "linear"))


def gain_sweep(
    m: SaturableCavityModel,
    eta: float,
    p_s: float,
    n_s_grid,
    subspace: str = "ge",
) -> list[SweepPoint]:
    """Gain/extinction versus signal photon number, with regime labels.

    Per grid point the drive is evaluated at two candidate signal frequencies
    (the dressed excited-state resonance and the bare resonance); the
    better-gain candidate is reported, mirroring the best-measured-point
    policy of a frequency-optimized experiment.  Gain folds through the
    ideal-single-photon prediction with the effective switching probability
    eta * p_s.  The steady states of the whole grid are solved in one batch
    per qubit level.
    """
    if subspace not in ("ge", "gf"):
        raise ValueError(f"unknown subspace {subspace!r}")
    grid = np.asarray(n_s_grid, dtype=float)
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("n_s_grid must hold finite photon numbers >= 0")
    if np.any(np.diff(grid) < 0):
        raise ValueError("n_s grid must be ascending")
    excited = "e" if subspace == "ge" else "f"
    eta_eff = eta * p_s
    f_cand = np.array([shifted_frequency(m.base, excited), m.f_bare])
    conv, window = m.settings.photon_flux_conversion, m.settings.signal_window_us
    flux = conv * grid / window
    rhs = (m.base.kappa_ext_in * flux)[:, None]
    n_exc_root = _dim_root(m, f_cand, excited, rhs)
    n_g_root = _dim_root(m, f_cand, "g", rhs)
    regimes = _classify(m, f_cand, excited, n_exc_root, n_g_root, flux)
    n_exc = n_exc_root * m.base.kappa_ext_out * window / conv
    n_g = n_g_root * m.base.kappa_ext_out * window / conv
    n1, n0 = predict_single_photon(CalibrationResult(0.0, 1.0, n_g, n_exc, 0.0), eta_eff)
    gains = gain_db(n1, n0)
    # argmax picks the first candidate among equal gains
    pick = (np.arange(grid.size), np.argmax(gains, axis=1))
    columns = (grid, gains[pick], extinction_db(n0[pick], n1[pick]), regimes[pick])
    return [SweepPoint(*row) for row in zip(*(c.tolist() for c in columns))]
