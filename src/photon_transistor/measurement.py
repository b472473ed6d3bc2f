"""Single-shot detection, on/off classification and Wigner functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CutoffError, DegenerateDataError
from .hilbert import QuantumState, destroy

ON, OFF = "on", "off"


@dataclass(frozen=True)
class DetectionModel:
    """Linear-amplifier readout of the transmitted photon number.

    reading ~ Normal(efficiency*true, baseline_sigma^2
                     + added_noise_photons*efficiency*true).
    Readings may be negative and are never clipped.
    """

    efficiency: float = 0.5
    added_noise_photons: float = 2.0
    baseline_sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.added_noise_photons < 0:
            raise ValueError("added_noise_photons must be >= 0")
        if self.baseline_sigma < 0:
            raise ValueError("baseline_sigma must be >= 0")


def detect(true_photons, m: DetectionModel, rng):
    """One noisy reading per true transmitted photon number; a scalar gives a float."""
    x = np.asarray(true_photons, dtype=float)
    if np.any(x < 0):
        raise ValueError("true_photons must be >= 0")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    mean = m.efficiency * x
    var = m.baseline_sigma**2 + m.added_noise_photons * m.efficiency * x
    out = mean + np.sqrt(var) * gen.standard_normal(x.shape)
    return float(out) if out.ndim == 0 else out


class KMeansFit(NamedTuple):
    """Two-cluster split of 1-D readings; ``on`` marks readings at or above the threshold."""

    threshold: float
    on: np.ndarray
    counts: dict
    iterations: int
    converged: bool


#: Lloyd iterations before kmeans_1d gives up and reports converged = False
KMEANS_MAX_ITER = 1000


def label_counts(on: np.ndarray) -> dict:
    """{"on": n_on, "off": n_off} for a boolean label array."""
    n_on = int(np.count_nonzero(on))
    return {ON: n_on, OFF: int(np.size(on)) - n_on}


def kmeans_1d(readings, k: int = 2) -> KMeansFit:
    """Two-cluster Lloyd iteration with deterministic percentile initialization.

    Centers start at the 10th/90th percentiles, so classification is
    reproducible by construction; the threshold is the midpoint of the final
    centers.  Stops when the centers move by less than 1e-9 of the data span,
    or after KMEANS_MAX_ITER iterations with ``converged`` False.
    """
    if k != 2:
        raise ValueError("only k=2 is supported")
    x = np.asarray(readings, dtype=float)
    if x.size < 2 or np.unique(x).size < 2:
        raise DegenerateDataError("need at least 2 distinct readings to classify")
    span = float(x.max() - x.min())
    c_lo, c_hi = np.percentile(x, [10.0, 90.0])
    if c_lo == c_hi:
        c_lo, c_hi = float(x.min()), float(x.max())
    converged = False
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        mid = 0.5 * (c_lo + c_hi)
        lo = x[x < mid]
        hi = x[x >= mid]
        if lo.size == 0 or hi.size == 0:
            # midpoint fell outside the data; fall back to extreme centers
            lo = x[x <= x.min()]
            hi = x[x > x.min()]
        n_lo, n_hi = float(lo.mean()), float(hi.mean())
        motion = abs(n_lo - c_lo) + abs(n_hi - c_hi)
        c_lo, c_hi = n_lo, n_hi
        if motion < 1e-9 * span:
            converged = True
            break
    threshold = 0.5 * (c_lo + c_hi)
    on = x >= threshold
    return KMeansFit(threshold, on, label_counts(on), iterations, converged)


def histogram(readings, bins: int):
    """Uniform binning over [min, max]; returns [(bin_center, count), ...]."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    x = np.asarray(readings, dtype=float)
    if x.size == 0:
        return []
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return [(lo, int(x.size))]
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), counts.astype(int).tolist()))


# ---------------------------------------------------------------------------
# Wigner function via displaced parity

_DISP_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _displacement_eigensystem(d: int):
    """Eigendecomposition of H = -i(a^dag - a), cached per dimension.

    exp(x*(a^dag - a)) = V diag(e^{i*lam*x}) V^dag, and a phase rotation maps
    the real displacement onto an arbitrary complex alpha.
    """
    if d not in _DISP_CACHE:
        a = destroy(d)
        h = -1j * (a.conj().T - a)
        lam, v = np.linalg.eigh(h)
        _DISP_CACHE[d] = (lam, v)
    return _DISP_CACHE[d]


def displacement_operator(alpha: complex, d: int) -> np.ndarray:
    """Truncated D(alpha) = exp(alpha a^dag - conj(alpha) a)."""
    lam, v = _displacement_eigensystem(d)
    mag, phi = abs(alpha), np.angle(alpha)
    core = (v * np.exp(1j * lam * mag)) @ v.conj().T
    phase = np.exp(1j * phi * np.arange(d))
    return (core * phase[:, None]) * phase.conj()[None, :]


def wigner(field: QuantumState, grid) -> np.ndarray:
    """W(alpha) = (2/pi) Tr[rho D(alpha) P D(alpha)^dag] on a list of points.

    Raises CutoffError when any |alpha|^2 exceeds d/4 (truncated displacement
    no longer trustworthy); embed the state in a larger cutoff first.
    """
    if len(field.dims) != 1:
        raise ValueError("wigner expects a single bosonic mode")
    d = field.dims[0]
    pts = np.asarray(grid, dtype=complex).ravel()
    max_n = float(np.max(np.abs(pts) ** 2)) if pts.size else 0.0
    if max_n > d / 4.0:
        raise CutoffError(
            f"|alpha|^2 up to {max_n:.3g} exceeds d/4 = {d / 4:.3g}; increase the cutoff"
        )
    lam, v = _displacement_eigensystem(d)
    vd = v.conj().T
    parity = (-1.0) ** np.arange(d)
    evals, evecs = np.linalg.eigh(field.rho)
    keep = evals > 1e-13
    weights = evals[keep]
    vecs = evecs[:, keep]
    n_idx = np.arange(d)
    out = np.empty(pts.size, dtype=float)
    for i, alpha in enumerate(pts):
        mag, phi = abs(alpha), np.angle(alpha)
        phase = np.exp(-1j * phi * n_idx)
        rot = np.exp(-1j * lam * mag)
        # y = D(alpha)^dag psi, via the cached eigensystem
        y = (phase.conj()[:, None]) * (v @ (rot[:, None] * (vd @ (phase[:, None] * vecs))))
        out[i] = (2.0 / np.pi) * float(np.real(np.sum(weights * (parity @ (np.abs(y) ** 2)))))
    return out


def wigner_grid(extent: float, points: int):
    """Square phase-space grid alpha = x + i p, |x|,|p| <= extent."""
    xs = np.linspace(-extent, extent, points)
    ps = np.linspace(-extent, extent, points)
    return xs, ps, (xs[None, :] + 1j * ps[:, None]).ravel()
