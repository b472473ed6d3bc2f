"""Shot-level execution of the transistor pulse sequence.

One shot: prepare the qubit in (|g>+|e>)/sqrt2, reflect the gate pulse off
cavity I (conditional phase per photon), close the Ramsey loop with a second
pi/2 of phase theta (plus an optional pi_ef), then transmit the signal window
through cavity II with possible qubit jumps, and read out the transmitted
photon number through the linear detection chain.

The gate stage is one parity surrogate: an odd number of gate photons flips
the qubit with probability eta, an even number with probability dark_flip.
:func:`run_experiment` resolves eta once per run, from the pulse moments of
:mod:`photon_transistor.cavity` unless overridden, and records it on its :class:`Shots`;
the conditional gate field, a Bayesian photon-number posterior passed through one
binomial-loss matrix of the per-photon survival, reads it there.  The survival reads
the same memoised pulse moments, so a run integrates the gate pulse's spectrum once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import measurement
from .cavity import (
    QUBIT_LEVELS,
    PulseShape,
    gating_efficiency,
    pulse_survival,
    shifted_frequency,
    transmission_coeff,
)
from .errors import InsufficientDataError, bounded, check, number, spec
from .hilbert import DEFAULT_FOCK_CUTOFF, QuantumState
from .qubit import exponential_time

if TYPE_CHECKING:  # pragma: no cover
    from .device import DeviceParams

GATE_SOURCES = ("coherent", "single_photon")
SIGNAL_TARGETS = ("resonant_with_e", "resonant_with_f", "bare")


@dataclass(frozen=True)
class ProtocolConfig:
    """Pulse-sequence settings for one experiment.

    theta: phase of the second pi/2 pulse (0 = normally open, pi = normally
    closed).  subspace "gf" adds the pi_ef pulse after the second pi/2, so the
    signal stage sees the larger |f>-state dispersive shift.  ``gate_source``
    selects Poissonian weak-coherent statistics or an ideal 0/1 single-photon
    source emitting one photon with probability n_g.
    """

    theta: float = 0.0
    subspace: str = spec(choices=("ge", "gf"), default="ge")
    n_g: float = spec(bound=">= 0", default=0.18)
    gate_pulse: PulseShape = field(default_factory=lambda: PulseShape("gaussian", 960.0))
    n_s: float = spec(bound=">= 0", default=37.2)
    signal_duration: float = spec("us", "> 0", default=10.0)
    signal_detuning_target: str = spec(choices=SIGNAL_TARGETS, default="resonant_with_e")
    eta_override: float | None = spec(bound="in [0, 1]", default=None)
    dark_flip: float = spec(bound="in [0, 1]", default=0.04)
    n_shots: int = spec(bound="in [1, 4194304]", default=10000)  # 2**22, the CLI's grid budget
    seed: int = spec(bound=">= 0", default=12345)
    gate_source: str = spec(choices=GATE_SOURCES, default="coherent")
    signal_flip_rate_per_photon: float = spec(bound=">= 0", default=1e-7)  # 1/(us * signal photon)
    # C(n, n // 2) of the binomial-loss matrix, n < fock_cutoff, overflows a double from n = 1030
    fock_cutoff: int = spec(bound="in [2, 1030]", default=DEFAULT_FOCK_CUTOFF)

    def __post_init__(self):
        check(self)
        if self.gate_source == "single_photon" and self.n_g > 1.0:
            raise ValueError("single_photon source needs n_g <= 1")


@dataclass(frozen=True, eq=False)
class Shots:
    """Outcomes of a batch of Monte Carlo trials: one numpy column per per-shot quantity, plus the run's eta.

    Row i of every column belongs to shot i.  ``flip``: the gate flipped the
    qubit superposition; ``level``: qubit level ("g", "e" or "f") at the start
    of the signal window; ``jump_time``: time of the in-window qubit jump in us,
    NaN when there is none; ``true_photons``: transmitted signal photons;
    ``reading``: detected reading; ``on``: the on/off label (True = on), None
    until :func:`label_records` has run; ``eta``: the one-photon flip probability the flips were drawn with.
    """

    flip: np.ndarray
    level: np.ndarray
    jump_time: np.ndarray
    true_photons: np.ndarray
    reading: np.ndarray
    eta: float
    on: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.flip)


# ---------------------------------------------------------------------------
# gate stage


def _binomial_loss(s: float, d: int) -> np.ndarray:
    """Binomial loss matrix [n, m] = C(n, m) s^m (1 - s)^(n - m): n photons in, m survive.

    Each photon survives independently with probability s, so row n is the
    binomial distribution of the survivors (entries m > n are zero).  C(n, m) comes from Pascal's rule
    on exact integers, each rounded once to a double, as ``float(math.comb(n, m))`` is.
    """
    comb, row = np.zeros((d, d)), [1]
    for n in range(d):
        comb[n, : n + 1], row = row, [1, *map(operator.add, row, row[1:]), 1]
    m, n = np.triu_indices(d)
    comb[n, m] = comb[n, m] * s**m * (1.0 - s) ** (n - m)
    return comb


def coherent_flip_probability(n_g: float, eta: float, dark_flip: float = 0.0) -> float:
    """Qubit flip probability under a weak coherent gate pulse.

    beta = sum_n Poisson(n; n_g) q(n) with q(odd) = eta and q(even) = dark_flip
    (flip-per-photon parity model).  The odd Poisson weights sum to
    (1 - e^{-2 n_g}) / 2, the model analysis.fit_eta inverts.
    """
    eta = bounded("eta", number("eta", eta), "in [0, 1]")
    dark_flip = bounded("dark_flip", number("dark_flip", dark_flip), "in [0, 1]")
    n_g = bounded("n_g", number("n_g", n_g), ">= 0")
    odd = (1.0 - math.exp(-2.0 * n_g)) / 2.0
    return eta * odd + dark_flip * (1.0 - odd)


# ---------------------------------------------------------------------------
# shot sampling


def _signal_frequency(cfg: ProtocolConfig, device: "DeviceParams") -> float:
    c = device.cavity_II
    if cfg.signal_detuning_target == "resonant_with_e":
        return shifted_frequency(c, "e")
    if cfg.signal_detuning_target == "resonant_with_f":
        return shifted_frequency(c, "f")
    return c.f0 + device.semiclassical.bare_offset


def _flip_probability(photons, eta: float, dark_flip: float):
    """Parity model per shot: odd photon numbers flip with prob eta, even with dark_flip."""
    return np.where(photons % 2 == 1, eta, dark_flip)


def run_experiment(cfg: ProtocolConfig, device: "DeviceParams") -> Shots:
    """n_shots independent trials of the full sequence, drawn as columns.

    One ``default_rng(cfg.seed)`` stream supplies, in this order, an array of
    n_shots each of gate photon numbers, flip uniforms, level uniforms, jump
    uniforms and detector noise, so the outcome depends only on the seed.  The flips are
    drawn with, and the shots carry, eta = ``cfg.eta_override`` or else cavity I's gating efficiency.
    """
    n = cfg.n_shots
    rng = np.random.default_rng(cfg.seed)
    eta = cfg.eta_override if cfg.eta_override is not None else gating_efficiency(device.cavity_I, cfg.gate_pulse)

    if cfg.gate_source == "single_photon":
        photons = (rng.random(n) < cfg.n_g).astype(np.int64)
    else:
        photons = rng.poisson(cfg.n_g, n)
    flip = rng.random(n) < _flip_probability(photons, eta, cfg.dark_flip)

    # second pi/2 with phase theta closes the Ramsey loop; the gate photon's
    # conditional pi phase swaps the interference port
    p_ground = np.where(flip, math.cos(cfg.theta / 2.0) ** 2, math.sin(cfg.theta / 2.0) ** 2)
    excited = 2 if cfg.subspace == "gf" else 1
    level = np.where(rng.random(n) < p_ground, 0, excited)  # index into QUBIT_LEVELS

    # in-window jump: g -> e (thermal), e -> g and f -> e (relaxation), each
    # plus the signal-induced flip rate
    rates = device.qubit_rates
    extra = cfg.signal_flip_rate_per_photon * cfg.n_s
    rate = np.array(
        [rates.thermal_excitation_rate, 1.0 / rates.T1_ge, 1.0 / rates.T1_ef]
    )[level] + extra
    dest = np.array([1, 0, 1])[level]
    t_jump = exponential_time(rate, rng)
    jumped = t_jump < cfg.signal_duration

    f_sig = _signal_frequency(cfg, device)
    t2 = np.array([abs(transmission_coeff(device.cavity_II, f_sig, lev)) ** 2 for lev in QUBIT_LEVELS])
    frac = np.where(jumped, t_jump / cfg.signal_duration, 1.0)
    true_tx = cfg.n_s * (frac * t2[level] + (1.0 - frac) * t2[dest])

    return Shots(
        flip=flip,
        level=np.array(QUBIT_LEVELS)[level],
        jump_time=np.where(jumped, t_jump, np.nan),
        true_photons=true_tx,
        reading=measurement.detect(true_tx, device.detection, rng),
        eta=eta,
    )


def label_records(shots: Shots, threshold: float | None = None):
    """Classify detected readings into on/off; returns (shots, threshold, counts).

    The returned shots carry the ``on`` column.  Without a threshold the
    readings are split by :func:`measurement.kmeans_1d`.
    """
    if threshold is None:
        threshold = measurement.kmeans_1d(shots.reading).threshold
    on = shots.reading >= threshold
    return replace(shots, on=on), threshold, measurement.label_counts(on)


# ---------------------------------------------------------------------------
# conditional gate-field reconstruction


def _photon_prior(cfg: ProtocolConfig, n_max: int) -> np.ndarray:
    prior = np.zeros(n_max)
    if cfg.gate_source == "single_photon":
        prior[0] = 1.0 - cfg.n_g
        if n_max > 1:
            prior[1] = cfg.n_g
        return prior
    if cfg.n_g == 0.0:
        prior[0] = 1.0
        return prior
    n = np.arange(n_max, dtype=float)
    lgam = np.array([math.lgamma(k + 1) for k in range(n_max)])
    return np.exp(-cfg.n_g + n * math.log(cfg.n_g) - lgam)


def conditional_gate_field(
    shots: Shots,
    condition: str,
    cfg: ProtocolConfig,
    device: "DeviceParams",
) -> QuantumState:
    """Reflected gate-field state conditioned on the transistor label.

    Bayesian mixture over the source photon-number distribution: the label
    likelihood P(label | n) combines the parity flip model at the run's ``shots.eta`` with the
    empirical per-branch label rates P(label | flip) estimated from the shots, and the
    per-Fock reflected states carry the pulse-averaged reflection loss.
    """
    if condition not in (measurement.ON, measurement.OFF):
        raise ValueError("condition must be 'on' or 'off'")
    if shots.on is None:
        raise InsufficientDataError("no labeled shots; classify the shots first")
    match = shots.on if condition == measurement.ON else ~shots.on
    if not match.any():
        raise InsufficientDataError(f"no shots labeled {condition!r}")

    n_flip = int(np.count_nonzero(shots.flip))
    n_noflip = len(shots) - n_flip
    match_flip = int(np.count_nonzero(match & shots.flip))
    match_noflip = int(np.count_nonzero(match)) - match_flip
    p_cond_flip = match_flip / n_flip if n_flip else 0.0
    p_cond_noflip = match_noflip / n_noflip if n_noflip else 0.0

    d = cfg.fock_cutoff
    prior = _photon_prior(cfg, d)
    q = _flip_probability(np.arange(d), shots.eta, cfg.dark_flip)
    likelihood = q * p_cond_flip + (1.0 - q) * p_cond_noflip
    post = prior * likelihood
    total = post.sum()
    if total <= 0:
        raise InsufficientDataError("condition has zero posterior probability")
    post /= total

    s = pulse_survival(device.cavity_I, cfg.gate_pulse)
    # binomial loss P(m | n), stored [n, m] so that the posterior mix adds its
    # rows one by one in order of n, as a running sum would
    loss = _binomial_loss(s, d)
    diag = (post[:, None] * loss).sum(axis=0)
    rho = np.diag(diag.astype(complex))
    return QuantumState((d,), rho / np.trace(rho))
