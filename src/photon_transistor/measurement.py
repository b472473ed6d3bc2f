"""Single-shot detection, on/off classification and Wigner functions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, NumericsError, bounded, check, spec
from .hilbert import QuantumState

ON, OFF = "on", "off"


@dataclass(frozen=True)
class DetectionModel:
    """Linear-amplifier readout of the transmitted photon number.

    reading ~ Normal(efficiency*true, baseline_sigma^2
                     + added_noise_photons*efficiency*true).
    Readings may be negative and are never clipped.
    """

    efficiency: float = spec(bound="in (0, 1]", default=0.5)
    added_noise_photons: float = spec(bound=">= 0", default=2.0)
    baseline_sigma: float = spec(bound=">= 0", default=1.0)

    def __post_init__(self):
        check(self)


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


def _percentile(s, q: float) -> float:
    """``np.percentile(s, q)`` of sorted readings ``s``, bit for bit: numpy's default linear
    rule, read off ``s`` with no copy or partition."""
    v = (len(s) - 1) * (q / 100)
    i = int(v)
    a, b = float(s[i]), float(s[min(i + 1, len(s) - 1)])
    g = v - i
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def kmeans_1d(readings) -> KMeansFit:
    """Two-cluster Lloyd iteration with deterministic percentile initialization.

    Centers start at the 10th/90th percentiles, so classification is
    reproducible by construction; the threshold is the midpoint of the final
    centers.  Stops when the centers move by less than 1e-9 of the data span,
    or after KMEANS_MAX_ITER iterations with ``converged`` False.

    The readings are sorted once (Lloyd, IEEE Trans. Inf. Theory 28, 129
    (1982); sorted 1-D data as in Wang & Song, The R Journal 3(2), 29 (2011)).
    A partition at a midpoint is then the k smallest readings, found by one
    binary search, and each cluster is a slice of the sorted copy, summed in
    place.  Those means differ from the masked means of the clusters, copied
    out of the readings in their own order, in the last bits only.  Where a
    reading lies within that slack of a midpoint, or the centers' motion within
    it of the tolerance, the pass takes the masked means instead; so do the
    final centers.  Every partition, the pass count and the threshold's bits
    are then those of the masked means alone.
    """
    x = np.asarray(readings, dtype=float)
    if not np.isfinite(x).all():
        raise DegenerateDataError("readings must be finite to classify")
    with np.errstate(over="ignore"):  # the absolute sum bounds every cluster's sum, twice it every motion
        if not np.isfinite(2.0 * np.abs(x).sum()):
            raise NumericsError("the readings' cluster means overflow a double")
    if x.size < 2 or (span := float(x.max() - x.min())) == 0.0:
        raise DegenerateDataError("need at least 2 distinct readings to classify")
    s = np.sort(x)
    n = s.size
    c_lo, c_hi = _percentile(s, 10.0), _percentile(s, 90.0)
    if c_lo == c_hi:
        c_lo, c_hi = float(s[0]), float(s[-1])
    # a mean of k readings summed in any order is off by under (k + 1) ulp of the largest
    # |reading|; a midpoint or a motion adds up at most four such errors
    slack = 4.0 * (n + 64) * np.finfo(float).eps * max(-s[0], s[-1])
    tolerance = 1e-9 * span

    def masked_means(k):
        lo = x <= s[k - 1]
        return float(x[lo].mean()), float(x[~lo].mean())

    k = 0  # no partition yet: the first centers are exact
    converged = False
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        mid = 0.5 * (c_lo + c_hi)
        if k and np.searchsorted(s, mid - slack) < np.searchsorted(s, mid + slack, side="right"):
            c_lo, c_hi = masked_means(k)
            mid = 0.5 * (c_lo + c_hi)
        last, k = k, int(np.searchsorted(s, mid))  # the readings below the midpoint
        if k in (0, n):
            # midpoint fell outside the data; fall back to extreme centers
            k = int(np.searchsorted(s, s[0], side="right"))
        n_lo, n_hi = float(s[:k].mean()), float(s[k:].mean())
        motion = abs(n_lo - c_lo) + abs(n_hi - c_hi)
        if abs(motion - tolerance) <= slack:
            if last:
                c_lo, c_hi = masked_means(last)
            n_lo, n_hi = masked_means(k)
            motion = abs(n_lo - c_lo) + abs(n_hi - c_hi)
        c_lo, c_hi = n_lo, n_hi
        if motion < tolerance:
            converged = True
            break
    c_lo, c_hi = masked_means(k)
    threshold = 0.5 * (c_lo + c_hi)
    on = x >= threshold
    return KMeansFit(threshold, on, label_counts(on), iterations, converged)


def histogram(readings, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform binning over [min, max]; returns the columns (bin_centers, counts)."""
    bounded("bins", bins, ">= 1")
    x = np.asarray(readings, dtype=float)
    if x.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    lo, hi = x.min(), x.max()
    if lo == hi:
        return x[:1], np.array([x.size])
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts


# ---------------------------------------------------------------------------
# Wigner function in closed form

#: a recurrence entry above this is scaled down, its factor moved into the entry's log scale
_RESCALE = 1e100


@np.errstate(all="ignore")  # a W the arithmetic leaves non-finite is the NumericsError at the end
def wigner(field: QuantumState, grid) -> np.ndarray:
    """W(alpha) = (2/pi) Tr[rho D(2 alpha) P] on a list of points, exact for any single-mode rho.

    With alpha = r e^{i phi} and x = 4 r^2 (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)),
    W = (2/pi) Re sum_{k=0..b} c_k e^{i k phi} g_k(r), c_0 = 1 and c_k = 2 for k >= 1, where
    g_k = sum_n (-1)^n rho[n, n+k] l_n^k(x) and l_n^k = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^{(k)}(x)
    = <n+k| D(2 alpha) |n> e^{-i k phi}, so |l| <= 1.  The sums run over the state's Fock support
    s and its band b = max |m - n| over the nonzero rho[n, m] (zero padding adds nothing), once
    per distinct |alpha|, by the recurrence
    l_n = [(2n - 1 + k - x) l_{n-1} - sqrt((n-1)(n-1+k)) l_{n-2}] / sqrt(n(n+k)) from
    l_0^k = sqrt(x^k/k!) e^{-x/2}; row k leaves once n + k reaches s.  Each entry carries its
    factor e^{-x/2} sqrt(x^k/k!) and every later rescaling as a log scale, so nothing under- or
    overflows on the way.  What is left per point is a Horner sum in e^{i phi} of b terms; a
    Fock-diagonal state (b = 0) skips it and gives a radial map, bit-equal at equal |alpha|.
    A W that is not finite (x overflows from |alpha| of about 6.7e153 on) is a NumericsError.
    """
    if len(field.dims) != 1:
        raise ValueError("wigner expects a single bosonic mode")
    pts = np.asarray(grid, dtype=complex).ravel()
    rows, cols = np.nonzero(field.rho)
    s = int(max(rows.max(), cols.max())) + 1
    b = int(np.max(np.abs(cols - rows)))
    radii, inverse = np.unique(np.abs(pts), return_inverse=True)
    x = 4.0 * radii[:, None] ** 2
    k = np.arange(b + 1)
    log_fact = np.array([math.lgamma(j + 1.0) for j in k])
    log_scale = 0.5 * (k * np.log(np.where(x > 0, x, 1.0)) - log_fact - x)
    log_scale[(x == 0) & (k > 0)] = -np.inf  # l_n^k(0) = 0 for k >= 1
    prev, cur = np.zeros_like(log_scale), np.ones_like(log_scale)
    g = np.zeros(log_scale.shape, dtype=complex)  # g_k in units of its entry's scale
    for n in range(s):
        w = min(b + 1, s - n)  # rows k with n + k < s
        if n:
            kk = k[:w]
            prev, cur = cur[:, :w], ((2 * n - 1 + kk - x) * cur[:, :w]
                                     - np.sqrt((n - 1) * (n - 1 + kk)) * prev[:, :w]) / np.sqrt(n * (n + kk))
            big = np.abs(cur) > _RESCALE
            if big.any():
                m = np.where(big, np.abs(cur), 1.0)
                cur, prev = cur / m, prev / m
                g[:, :w] /= m
                log_scale[:, :w] += np.log(m)
        g[:, :w] += ((-1) ** n * field.rho[n, n : n + w]) * cur
    g *= np.exp(log_scale)
    g[:, 1:] *= 2.0
    acc = g[inverse, b]
    if b:
        # sum_k c_k g_k z^k with z = e^{i phi}, by Horner from k = b down
        z = np.exp(1j * np.angle(pts))
        for j in range(b - 1, -1, -1):
            acc = acc * z + g[inverse, j]
    w = (2.0 / np.pi) * acc.real
    if not np.isfinite(w).all():
        r = float(np.abs(pts[~np.isfinite(w)]).min())
        raise NumericsError(f"W is not finite at |alpha| = {r!r}: x = 4 |alpha|^2 overflows")
    return w


def wigner_grid(extent: float, points: int):
    """Square grid alpha = x + i p, |x|,|p| <= extent, as (xs, ps, alphas); the axis is built
    from integer offsets about 0, so xs == -xs[::-1] bit for bit (one point sits at 0)."""
    half = (points - 1) / 2.0
    xs = extent * ((np.arange(points) - half) / (half or 1.0))
    return xs, xs, (xs[None, :] + 1j * xs[:, None]).ravel()
