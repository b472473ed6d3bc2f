"""Single-shot detection, on/off classification and Wigner functions."""

from __future__ import annotations

import functools
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


def kmeans_1d(readings) -> KMeansFit:
    """Two-cluster Lloyd iteration with deterministic percentile initialization.

    Centers start at the 10th/90th percentiles, so classification is
    reproducible by construction; the threshold is the midpoint of the final
    centers.  Stops when the centers move by less than 1e-9 of the data span,
    or after KMEANS_MAX_ITER iterations with ``converged`` False.
    """
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


def histogram(readings, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform binning over [min, max]; returns the columns (bin_centers, counts)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    x = np.asarray(readings, dtype=float)
    if x.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    lo, hi = x.min(), x.max()
    if lo == hi:
        return x[:1], np.array([x.size])
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts


# ---------------------------------------------------------------------------
# Wigner function via Royer's displaced parity

#: grid points per chunk of the per-point phase sum, and distinct radii per chunk of the radial sum
_WIGNER_CHUNK = 512


@functools.cache
def _displacement_eigensystem(d: int):
    """Eigendecomposition of H = -i(a^dag - a), cached per dimension.

    exp(x*(a^dag - a)) = V diag(e^{i*lam*x}) V^dag, and a phase rotation maps
    the real displacement onto an arbitrary complex alpha.
    """
    a = destroy(d)
    return np.linalg.eigh(-1j * (a.conj().T - a))


def wigner(field: QuantumState, grid) -> np.ndarray:
    """W(alpha) = (2/pi) Tr[rho D(alpha) P D(alpha)^dag] on a list of points.

    Parity anticommutes with the truncated generator a^dag - a, so
    D(alpha) P D(alpha)^dag = D(2 alpha) P holds exactly in the truncated space
    (Royer, Phys. Rev. A 15, 449 (1977)).  With D(2 alpha) = Phi V e^{2i lam r} V^dag Phi^dag,
    alpha = r e^{i phi}, the map is W = (2/pi) Re sum_q e^{i q phi} sum_j F[q, j] e^{2i lam_j r},
    F[q, j] = sum_n (-1)^n rho[n, n+q] V[n+q, j] conj(V[n, j]), built once over the
    state's Fock support s (zero padding adds nothing) and its band b = max |m - n| over
    the nonzero rho[n, m], so |q| <= b.  The sum over j is taken once per distinct |alpha|
    (per chunk of points sorted by radius), leaving 2b + 1 terms per point.  A
    Fock-diagonal state (b = 0) has a real F[0], as rho's diagonal is real, and a
    radial map W(r) = (2/pi) sum_j F[0, j] cos(2 lam_j r) with no per-point phase work,
    so points of equal |alpha| get bit-equal W.

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
    rows, cols = np.nonzero(field.rho)
    s = int(max(rows.max(), cols.max())) + 1
    b = int(np.max(np.abs(cols - rows)))
    rho, vs = field.rho[:s, :s], v[:s]
    # row k = q + b of F; state row n contributes to q = m - n for |m - n| <= b, m < s
    f = np.zeros((2 * b + 1, d), dtype=complex)
    for n in range(s):
        lo, hi = max(n - b, 0), min(n + b + 1, s)
        f[lo - n + b : hi - n + b] += ((-1) ** n * rho[n, lo:hi])[:, None] * vs[lo:hi] * vs[n].conj()
    radii, inverse = np.unique(np.abs(pts), return_inverse=True)
    if b == 0:
        w = np.empty(radii.size, dtype=float)
        for start in range(0, radii.size, _WIGNER_CHUNK):
            chunk = radii[start : start + _WIGNER_CHUNK]
            w[start : start + chunk.size] = np.cos(2.0 * np.outer(chunk, lam)) @ f[0].real
        return (2.0 / np.pi) * w[inverse]
    phi = np.angle(pts)
    order = np.argsort(inverse)
    out = np.empty(pts.size, dtype=float)
    for start in range(0, pts.size, _WIGNER_CHUNK):
        idx = order[start : start + _WIGNER_CHUNK]
        lo, hi = inverse[idx[0]], inverse[idx[-1]] + 1
        g = (f @ np.exp(2j * np.outer(lam, radii[lo:hi])))[:, inverse[idx] - lo]
        # Horner in z = e^{i phi} over q = b ... -b, then the factor e^{-i b phi}
        z = np.exp(1j * phi[idx])
        acc = g[-1]
        for row in g[-2::-1]:
            acc = acc * z + row
        out[idx] = (2.0 / np.pi) * (acc * np.exp(-1j * b * phi[idx])).real
    return out


def wigner_grid(extent: float, points: int):
    """Square grid alpha = x + i p, |x|,|p| <= extent, as (xs, ps, alphas); the axis is built
    from integer offsets about 0, so xs == -xs[::-1] bit for bit (one point sits at 0)."""
    half = (points - 1) / 2.0
    xs = extent * ((np.arange(points) - half) / (half or 1.0))
    return xs, xs, (xs[None, :] + 1j * xs[:, None]).ravel()
