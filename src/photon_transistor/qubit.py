"""Three-level qubit: relaxation rates, open-system evolution and jump sampling.

The qubit is always subsystem 0 of a :class:`~photon_transistor.hilbert.QuantumState`
with dimension 3 (levels g, e, f).  Dissipation is a Lindblad equation with
relaxation ladders |g><e| and |e><f| plus pure dephasing fitted to the
measured T2 times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import QuantumState


@dataclass(frozen=True)
class QubitRates:
    """Relaxation/coherence times in us (rates in 1/us).

    Physicality requires T2_ge <= 2*T1_ge and T2_gf <= 2*T1_ef so the fitted
    pure-dephasing rates stay nonnegative.
    """

    T1_ge: float
    T1_ef: float
    T2_ge: float
    T2_gf: float
    thermal_excitation_rate: float = 0.0

    _PHYS_TOL = 1e-9

    def __post_init__(self):
        for name in ("T1_ge", "T1_ef", "T2_ge", "T2_gf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.thermal_excitation_rate < 0:
            raise ValueError("thermal_excitation_rate must be >= 0")
        if self.T2_ge > 2.0 * self.T1_ge * (1.0 + self._PHYS_TOL):
            raise ValueError("T2_ge exceeds 2*T1_ge (unphysical dephasing)")
        if self.T2_gf > 2.0 * self.T1_ef * (1.0 + self._PHYS_TOL):
            raise ValueError("T2_gf exceeds 2*T1_ef (unphysical dephasing)")

    def dephasing_ge(self) -> float:
        return max(1.0 / self.T2_ge - 0.5 / self.T1_ge, 0.0)

    def dephasing_gf(self) -> float:
        return max(1.0 / self.T2_gf - 0.5 / self.T1_ef, 0.0)


def _apply_qutrit_map(s: QuantumState, kernel: np.ndarray) -> QuantumState:
    """Apply a 9x9 row-major superoperator on the qutrit; the other subsystems are spectators.

    With rho reshaped to (3, n, 3, n), out[i, a, j, b] = sum_kl K[i, j, k, l] rho[k, a, l, b].
    """
    if s.dims[0] != 3:
        raise ValueError(f"state must have the 3-level qubit as subsystem 0, dims={s.dims}")
    n = s.dim // 3
    rho = np.einsum("ijkl,kalb->iajb", kernel.reshape(3, 3, 3, 3), s.rho.reshape(3, n, 3, n))
    return QuantumState(s.dims, rho.reshape(s.dim, s.dim))


def _liouvillian(r: QubitRates) -> np.ndarray:
    """9x9 superoperator of the qutrit dissipator in row-major vec convention.

    Each collapse operator (|g><e|, |e><f|, |e><e|, |f><f|, thermal |e><g|) is
    one matrix unit, so rho_ij decays at (G_i + G_j)/2 with G = diag(sum L^dag L)
    and five entries move population: e->g, f->e, g->e and the dephasing refills.
    """
    relax_e, relax_f = 1.0 / r.T1_ge, 1.0 / r.T1_ef
    dephase_e, dephase_f = 2.0 * r.dephasing_ge(), 2.0 * r.dephasing_gf()
    thermal = r.thermal_excitation_rate
    g = np.array([thermal, relax_e + dephase_e, relax_f + dephase_f])
    sup = np.diag(-0.5 * np.add.outer(g, g).ravel())
    # vec index 3i + j holds rho_ij, so 0, 4 and 8 are the g, e and f populations
    sup[[0, 4, 4, 4, 8], [4, 8, 0, 4, 8]] += (relax_e, relax_f, thermal, dephase_e, dephase_f)
    return sup


def evolve_lindblad(s: QuantumState, dt: float, r: QubitRates) -> QuantumState:
    """Exact evolution under the dissipative Lindblad equation for a time dt.

    The Hamiltonian vanishes in the rotating frame used here and every
    collapse channel acts on the qutrit alone, so the other subsystems are
    spectators: one 9x9 propagator expm(dt*L) of the qutrit dissipator is
    applied to the state reshaped to (3, n, 3, n).  There is no step size and
    no renormalisation; the QuantumState checks on trace, Hermiticity and
    positivity guard the result.

    The trace error of expm's rounding grows with dt * max|L|: near
    dt * max|L| = 4e7 it reaches 1.2e-9, above the trace tolerance, and the
    result raises StateInvariantError.  Physical runs (dt * max|L| <~ 1e3)
    are far from this.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0:
        return s
    from scipy.linalg import expm  # imported on use: scipy adds ~0.5 s to every start-up

    return _apply_qutrit_map(s, expm(dt * _liouvillian(r)))


def exponential_time(rate, gen: np.random.Generator):
    """Inverse-CDF exponential samples, a float for a scalar rate; rate 0 maps to +inf.

    Always consumes exactly one uniform draw per rate, so switching a channel
    off does not shift the draws that follow it in the stream.
    """
    r = np.asarray(rate, dtype=float)
    u = gen.random(r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(r > 0.0, -np.log(1.0 - u) / r, np.inf)
    return float(t) if t.ndim == 0 else t
