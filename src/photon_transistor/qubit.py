"""Three-level qubit: relaxation rates, open-system evolution and jump sampling.

The qubit is always subsystem 0 of a :class:`~photon_transistor.hilbert.QuantumState`
with dimension 3 (levels g, e, f).  Dissipation is a Lindblad equation with
relaxation ladders |g><e| and |e><f| plus pure dephasing fitted to the
measured T2 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check, spec
from .hilbert import QuantumState


@dataclass(frozen=True)
class QubitRates:
    """Relaxation/coherence times in us (rates in 1/us), each a finite number.

    Physicality requires T2_ge <= 2*T1_ge and T2_gf <= 2*T1_ef so the fitted
    pure-dephasing rates stay nonnegative.
    """

    T1_ge: float = spec("us", "> 0")
    T1_ef: float = spec("us", "> 0")
    T2_ge: float = spec("us", "> 0")
    T2_gf: float = spec("us", "> 0")
    thermal_excitation_rate: float = spec("per_us", ">= 0", default=0.0)

    _PHYS_TOL = 1e-9

    def __post_init__(self):
        check(self)
        if self.T2_ge > 2.0 * self.T1_ge * (1.0 + self._PHYS_TOL):
            raise ValueError("T2_ge exceeds 2*T1_ge (unphysical dephasing)")
        if self.T2_gf > 2.0 * self.T1_ef * (1.0 + self._PHYS_TOL):
            raise ValueError("T2_gf exceeds 2*T1_ef (unphysical dephasing)")

    def dephasing_ge(self) -> float:
        return max(1.0 / self.T2_ge - 0.5 / self.T1_ge, 0.0)

    def dephasing_gf(self) -> float:
        return max(1.0 / self.T2_gf - 0.5 / self.T1_ef, 0.0)


def _propagator_blocks(dt: float, r: QubitRates) -> tuple[np.ndarray, np.ndarray]:
    """The qutrit's exp(dt*L) in closed form: population map P[to, from] and coherence factors F.

    Populations follow the cascade g <-> e <- f at rates a (g->e), b (e->g) and c (f->e):
    with s = a + b, x = e^(-s dt), y = e^(-c dt) and D = (y - x)/(s - c), or dt*y at s = c,
    P[g, f] = (b/s)(1 - y - c D).  rho_ij (i != j) decays by F_ij = exp(-dt (G_i + G_j)/2).
    """
    a, b, c = r.thermal_excitation_rate, 1.0 / r.T1_ge, 1.0 / r.T1_ef
    s = a + b
    x, one_minus_x = math.exp(-s * dt), -math.expm1(-s * dt)
    y, one_minus_y = math.exp(-c * dt), -math.expm1(-c * dt)
    # D = dt e^(-min(s, c) dt) (1 - e^-z)/z with z = |s - c| dt >= 0, so nothing overflows
    z = abs(s - c) * dt
    d = dt * max(x, y) * (-math.expm1(-z) / z if z > 0.0 else 1.0)
    p_gf = b / s * (one_minus_y - c * d)
    pop = np.array([
        [(b + a * x) / s, b * one_minus_x / s, p_gf],
        [a * one_minus_x / s, (a + b * x) / s, one_minus_y - p_gf],
        [0.0, 0.0, y],
    ])
    g = np.array([a, b + 2.0 * r.dephasing_ge(), c + 2.0 * r.dephasing_gf()])
    return pop, np.exp(-0.5 * dt * np.add.outer(g, g))


def evolve_lindblad(s: QuantumState, dt: float, r: QubitRates) -> QuantumState:
    """Exact evolution under the dissipative Lindblad equation for a time dt.

    No Hamiltonian acts in this rotating frame and every collapse channel acts
    on the qutrit alone, so with rho viewed as (3, n, 3, n) the closed-form
    blocks of exp(dt*L) (see :func:`_propagator_blocks`) scale each
    rho[i, :, j, :] (i != j) by F_ij and map the diagonal blocks by P.  No step
    size, no renormalisation: the QuantumState checks on trace, Hermiticity and
    positivity guard the result.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0:
        return s
    if s.dims[0] != 3:
        raise ValueError(f"state must have the 3-level qubit as subsystem 0, dims={s.dims}")
    pop, coh = _propagator_blocks(dt, r)
    n = s.dim // 3
    rho = s.rho.reshape(3, n, 3, n)
    out = coh[:, None, :, None] * rho
    levels = np.arange(3)
    out[levels, :, levels, :] = (pop @ rho[levels, :, levels, :].reshape(3, -1)).reshape(3, n, n)
    return QuantumState(s.dims, out.reshape(s.dim, s.dim))


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
