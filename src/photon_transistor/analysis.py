"""Calibration solve, ideal-single-photon prediction, gain and extinction.

The four measured intensities (normally open / normally closed, each gated
and ungated) form a rank-deficient linear system in (P_g_open, P_g_close,
n_g_state, n_e_state): the two gated-ungated differences are redundant.  The
system is closed with the protocol symmetry P_g_close = 1 - P_g_open, and the
redundancy is surfaced as ``consistency_residual`` instead of being silently
absorbed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalInputError, UnsolvableCalibrationError, bounded, check, number, spec


@dataclass(frozen=True)
class CalibrationInputs:
    """Mean transmitted intensities (photons) for the four switch settings, and beta: the
    gate-induced change of P_g, gated minus ungated (+beta open, -beta closed), not the total
    flip probability.  Intensities synthesized with beta = 0.1149 give P_g_open = 0.925 back;
    with the total coherent_flip_probability(0.18, 0.80, 0.04) = 0.1549 it is 1.073, unphysical."""

    n0_open: float = spec(bound=">= 0")
    na_open: float = spec(bound=">= 0")
    n0_close: float = spec(bound=">= 0")
    na_close: float = spec(bound=">= 0")
    beta: float = spec(bound="in [0, 1]")

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class CalibrationResult:
    P_g_open: float
    P_g_close: float
    n_g_state: float
    n_e_state: float
    consistency_residual: float

    @property
    def is_physical(self) -> bool:
        return 0.0 <= self.P_g_open <= 1.0 and 0.0 <= self.P_g_close <= 1.0


def fit_eta(points) -> tuple[float, float]:
    """Least-squares (eta, dark_flip) from measured (n_g, beta) pairs.

    The parity model is linear in (eta, dark): beta = eta*(1-e^{-2n})/2
    + dark*(1+e^{-2n})/2, so the fit is one linear least-squares solve (SVD,
    via ``np.linalg.lstsq``) on the two-column design matrix.
    """
    pts = [(float(n), float(b)) for n, b in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    for i, (n, b) in enumerate(pts):
        if not (math.isfinite(b) and math.isfinite(n) and n >= 0.0):
            raise ValueError(f"pair {i} (n_g={n}, beta={b}) needs a finite beta and a finite n_g >= 0")
    n_vals = np.array([p[0] for p in pts])
    b_vals = np.array([p[1] for p in pts])
    if (n_vals == n_vals[0]).all():
        raise ValueError("fit is singular: all n_g values are equal")
    if np.any(n_vals > 0.5):
        raise ValueError("fit restricted to the linear regime n_g <= 0.5")
    odd = (1.0 - np.exp(-2.0 * n_vals)) / 2.0
    even = (1.0 + np.exp(-2.0 * n_vals)) / 2.0
    design = np.column_stack([odd, even])
    coef, *_ = np.linalg.lstsq(design, b_vals, rcond=None)
    eta, dark = float(coef[0]), float(coef[1])
    return eta, dark


def synthesize_intensities(
    p_g_open: float, n_g_state: float, n_e_state: float, beta: float
) -> CalibrationInputs:
    """Forward model of the four intensities under the symmetry closure."""
    p_open = p_g_open
    p_close = 1.0 - p_g_open
    return CalibrationInputs(
        n0_open=p_open * n_g_state + (1.0 - p_open) * n_e_state,
        na_open=(p_open + beta) * n_g_state + (1.0 - p_open - beta) * n_e_state,
        n0_close=p_close * n_g_state + (1.0 - p_close) * n_e_state,
        na_close=(p_close - beta) * n_g_state + (1.0 - p_close + beta) * n_e_state,
        beta=beta,
    )


def solve_calibration(c: CalibrationInputs) -> CalibrationResult:
    """Invert the four-intensity system under P_g_close = 1 - P_g_open."""
    if c.beta <= 0:
        raise UnsolvableCalibrationError("beta = 0: gated and ungated runs are identical")
    d1 = (c.na_open - c.n0_open) / c.beta
    d2 = (c.n0_close - c.na_close) / c.beta
    delta = 0.5 * (d1 + d2)
    residual = 0.5 * abs(d1 - d2)
    scale = max(abs(c.n0_open), abs(c.n0_close), 1.0)
    if abs(delta) < 1e-12 * scale:
        raise UnsolvableCalibrationError(
            "gated-ungated differences vanish (n_g_state = n_e_state)"
        )
    total = c.n0_open + c.n0_close  # = n_g_state + n_e_state under the closure
    n_e_state = 0.5 * (total - delta)
    n_g_state = 0.5 * (total + delta)
    p_open = (c.n0_open - n_e_state) / delta
    if not -0.05 <= p_open <= 1.05:
        raise UnphysicalInputError(
            f"recovered P_g_open = {p_open:.4f} outside [-0.05, 1.05]"
        )
    return CalibrationResult(
        P_g_open=p_open,
        P_g_close=1.0 - p_open,
        n_g_state=n_g_state,
        n_e_state=n_e_state,
        consistency_residual=residual,
    )


def predict_single_photon(r: CalibrationResult, eta: float) -> tuple[float, float]:
    """(n1_open, n0_open): transmissions gated by an ideal single photon vs vacuum."""
    eta = bounded("eta", number("eta", eta), "in [0, 1]")
    p = r.P_g_open
    if p + eta > 1.0:
        warnings.warn(
            f"P_g_open + eta = {p + eta:.3f} > 1; clamping the flipped fraction",
            stacklevel=2,
        )
        eta = 1.0 - p
    n0 = p * r.n_g_state + (1.0 - p) * r.n_e_state
    n1 = (p + eta) * r.n_g_state + (1.0 - p - eta) * r.n_e_state
    return n1, n0


def gain_db(n1, n0):
    """G = 10 log10 |n1 - n0|, elementwise: signal photons controlled by one gate photon
    (-inf where n1 = n0)."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.abs(n1 - n0))


def extinction_db(n_on, n_off):
    """R = 10 log10 (max/min), elementwise: on/off contrast, reported as a positive ratio
    (inf where the smaller intensity is 0)."""
    hi, lo = np.maximum(n_on, n_off), np.minimum(n_on, n_off)
    if np.any(lo < 0):
        raise ValueError("intensities must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo == 0.0, np.inf, 10.0 * np.log10(hi / lo))[()]


def switching_probability(eta: float, p_s: float) -> float:
    """P_sg = eta * P_s: single-photon gating times conditional switching."""
    return bounded("eta", number("eta", eta), "in [0, 1]") * bounded("p_s", number("p_s", p_s), "in [0, 1]")
