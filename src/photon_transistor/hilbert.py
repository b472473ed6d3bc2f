"""Dense complex linear algebra over small, explicitly dimensioned Hilbert spaces.

Density matrices are plain numpy complex arrays wrapped in a :class:`QuantumState`
that records the subsystem dimensions.  All Hilbert spaces in this package are
small (a 3-level qubit and a truncated bosonic mode, whose cutoff no Wigner map
has to raise), so everything is dense and eager.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, CutoffWarning, StateInvariantError

TRACE_TOL = 1e-9
HERM_TOL = 1e-12
EIG_FLOOR = -1e-10

#: default Fock cutoff for the gate field; truncated weight < 1e-8 for n_g <= 0.5
DEFAULT_FOCK_CUTOFF = 8


@dataclass(frozen=True)
class QuantumState:
    """Density matrix over a tensor product of subsystems.

    dims: ordered subsystem dimensions, e.g. (3, 8) for qubit (x) field.
    rho:  density matrix, trace 1, Hermitian, positive semidefinite
          (within TRACE_TOL / HERM_TOL / EIG_FLOOR).
    """

    dims: tuple[int, ...]
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise StateInvariantError(f"subsystem dimensions must be >= 1, got {dims}")
        rho = np.array(self.rho, dtype=complex)
        n = math.prod(dims)
        if rho.shape != (n, n):
            raise StateInvariantError(
                f"rho shape {rho.shape} does not match prod(dims) = {n}"
            )
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace(rho) = {tr:.12g}, expected 1 within {TRACE_TOL}")
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise StateInvariantError("rho is not Hermitian within tolerance")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < EIG_FLOOR:
            raise StateInvariantError(
                f"rho has eigenvalue {evals.min():.3e} below floor {EIG_FLOOR}"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def pure_state(vec, dims) -> QuantumState:
    """Density matrix |v><v| of a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise StateInvariantError("zero state vector")
    v = v / norm
    return QuantumState(tuple(dims), np.outer(v, v.conj()))


def fock_state(n: int, d: int) -> QuantumState:
    """Fock state |n><n| in a d-dimensional truncated mode."""
    if not 0 <= n < d:
        raise CutoffError(f"Fock index n={n} outside cutoff d={d}")
    rho = np.zeros((d, d), dtype=complex)
    rho[n, n] = 1.0
    return QuantumState((d,), rho)


def coherent_state(alpha: complex, d: int) -> QuantumState:
    """Truncated coherent state, renormalized to unit trace.

    Warns (CutoffWarning) when |alpha|^2 > d/4, the cutoff adequacy heuristic.
    """
    nbar = abs(alpha) ** 2
    if nbar > d / 4:
        warnings.warn(
            f"coherent amplitude |alpha|^2 = {nbar:.3g} exceeds d/4 = {d / 4:.3g}; "
            "truncation error may be significant",
            CutoffWarning,
            stacklevel=2,
        )
    if alpha == 0:
        return fock_state(0, d)
    log_alpha = cmath.log(alpha)
    # log-space amplitudes keep large cutoffs free of factorial overflow
    amps = np.array(
        [cmath.exp(n * log_alpha - 0.5 * math.lgamma(n + 1) - nbar / 2.0) for n in range(d)],
        dtype=complex,
    )
    return pure_state(amps, (d,))


def qutrit_state(level: str) -> QuantumState:
    """Qubit basis state |g>, |e> or |f> in the 3-level space."""
    idx = {"g": 0, "e": 1, "f": 2}[level]
    rho = np.zeros((3, 3), dtype=complex)
    rho[idx, idx] = 1.0
    return QuantumState((3,), rho)


def mean_photon(s: QuantumState, mode: int) -> float:
    """Tr[rho n_hat] of one bosonic subsystem: the diagonal summed over the others."""
    if mode not in range(len(s.dims)):
        raise ValueError(f"mode {mode} invalid for dims {s.dims}")
    diag = np.real(np.diag(s.rho))
    if len(s.dims) > 1:
        diag = diag.reshape(s.dims).sum(axis=tuple(i for i in range(len(s.dims)) if i != mode))
    return float(np.dot(np.arange(s.dims[mode]), diag))
