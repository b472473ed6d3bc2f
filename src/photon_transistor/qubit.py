"""Three-level qubit: ideal control rotations and open-system evolution.

The qubit is always subsystem 0 of a :class:`~photon_transistor.hilbert.QuantumState`
with dimension 3 (levels g, e, f).  Control pulses are instantaneous ideal
rotations; dissipation is a Lindblad equation with relaxation ladders
|g><e| and |e><f| plus pure dephasing fitted to the measured T2 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
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


def _embed(op3: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    rest = int(np.prod(dims[1:])) if len(dims) > 1 else 1
    return np.kron(op3, np.eye(rest, dtype=complex))


def _require_qutrit_first(s: QuantumState):
    if s.dims[0] != 3:
        raise ValueError(f"state must have the 3-level qubit as subsystem 0, dims={s.dims}")


def apply_rotation(s: QuantumState, subspace: str, angle: float, phase: float = 0.0) -> QuantumState:
    """Unitary exp(-i*angle/2*(cos(phase) X + sin(phase) Y)) on a 2-level subspace.

    ``subspace`` is "ge" or "ef"; the third level is untouched.
    """
    _require_qutrit_first(s)
    if subspace == "ge":
        i, j = 0, 1
    elif subspace == "ef":
        i, j = 1, 2
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    c = math.cos(angle / 2.0)
    sn = math.sin(angle / 2.0)
    r = np.eye(3, dtype=complex)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -1j * sn * np.exp(-1j * phase)
    r[j, i] = -1j * sn * np.exp(1j * phase)
    u = _embed(r, s.dims)
    return QuantumState(s.dims, u @ s.rho @ u.conj().T)


def _collapse_ops(dims: tuple[int, ...], r: QubitRates) -> list[np.ndarray]:
    ket = np.eye(3, dtype=complex)
    ops = []
    ops.append(math.sqrt(1.0 / r.T1_ge) * np.outer(ket[0], ket[1]))  # |g><e|
    ops.append(math.sqrt(1.0 / r.T1_ef) * np.outer(ket[1], ket[2]))  # |e><f|
    g_e = r.dephasing_ge()
    if g_e > 0:
        ops.append(math.sqrt(2.0 * g_e) * np.outer(ket[1], ket[1]))
    g_f = r.dephasing_gf()
    if g_f > 0:
        ops.append(math.sqrt(2.0 * g_f) * np.outer(ket[2], ket[2]))
    if r.thermal_excitation_rate > 0:
        ops.append(math.sqrt(r.thermal_excitation_rate) * np.outer(ket[1], ket[0]))
    return [_embed(op, dims) for op in ops]


def _liouvillian(dims: tuple[int, ...], r: QubitRates) -> np.ndarray:
    """Superoperator of the dissipator in row-major vec convention."""
    n = int(np.prod(dims))
    eye = np.eye(n, dtype=complex)
    sup = np.zeros((n * n, n * n), dtype=complex)
    for L in _collapse_ops(dims, r):
        ldl = L.conj().T @ L
        sup += np.kron(L, L.conj())
        sup -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def evolve_lindblad(s: QuantumState, dt: float, r: QubitRates) -> QuantumState:
    """Fixed-step RK4 integration of the dissipative Lindblad equation.

    The Hamiltonian vanishes in the rotating frame used here, so only the
    collapse channels act.  Step size is min(dt, T_min/200), which keeps the
    trace drift below ~1e-12.  The generator is constant, so the n-step RK4
    propagator is the n-th power of the single-step polynomial
    I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, evaluated by binary
    exponentiation instead of a step loop.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0:
        return s
    _require_qutrit_first(s)
    t_min = min(r.T1_ge, r.T1_ef, r.T2_ge, r.T2_gf)
    if r.thermal_excitation_rate > 0:
        t_min = min(t_min, 1.0 / r.thermal_excitation_rate)
    n_steps = max(1, math.ceil(dt / (t_min / 200.0)))
    h = dt / n_steps
    m = h * _liouvillian(s.dims, r)
    step = np.eye(m.shape[0], dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    for k in (1.0, 2.0, 3.0, 4.0):
        acc = acc @ m / k
        step = step + acc
    n = s.dim
    rho = (np.linalg.matrix_power(step, n_steps) @ s.rho.reshape(-1)).reshape(n, n)
    drift = abs(np.trace(rho) - 1.0)
    if drift > 1e-6:
        raise NumericsError(
            f"Lindblad trace drift {drift:.3e} exceeds 1e-6; reduce the step size"
        )
    rho = 0.5 * (rho + rho.conj().T)  # scrub accumulated asymmetry at roundoff level
    return QuantumState(s.dims, rho / np.real(np.trace(rho)))


def downward_rate(level: str, r: QubitRates) -> float:
    if level == "e":
        return 1.0 / r.T1_ge
    if level == "f":
        return 1.0 / r.T1_ef
    raise ValueError(f"sample_jump_time expects level 'e' or 'f', got {level!r}")


def sample_jump_time(level: str, window: float, r: QubitRates, rng) -> float | None:
    """Exponential relaxation-time sample; None when no jump occurs in-window.

    ``rng`` is a numpy Generator or an int seed; results are deterministic
    given the seed.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    rate = downward_rate(level, r)
    t = exponential_time(rate, gen)
    return t if t < window else None


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
