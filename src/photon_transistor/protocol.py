"""Shot-level execution of the transistor pulse sequence.

One shot: prepare the qubit in (|g>+|e>)/sqrt2, reflect the gate pulse off
cavity I (conditional phase per photon), close the Ramsey loop with a second
pi/2 of phase theta (plus an optional pi_ef), then transmit the signal window
through cavity II with possible qubit jumps, and read out the transmitted
photon number through the linear detection chain: the stages :func:`_gate`,
:func:`_qubit` and :func:`_signal` of :func:`run_experiment`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

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
from .errors import CutoffError, InsufficientDataError, bounded, check, number, spec
from .hilbert import TRACE_TOL, QuantumState
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
    source of probability n_g; with n_g it sets the gate field's Fock levels.
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

    def __post_init__(self):
        check(self)
        if self.gate_source == "single_photon" and self.n_g > 1.0:
            raise ValueError("single_photon source needs n_g <= 1")


class Run(NamedTuple):
    """The scalars a run derives once, before its first draw (see :func:`_run`)."""

    eta: float  # one-photon flip probability
    survival: float  # cavity I's per-photon survival of the gate pulse
    f_sig: float  # signal frequency, MHz
    t2: np.ndarray  # cavity II's |t(f_sig, level)|^2 per level of QUBIT_LEVELS
    n_g: float  # the gate settings the shots were drawn at, as in ProtocolConfig
    gate_source: str
    dark_flip: float


@dataclass(frozen=True, eq=False)
class Shots:
    """Outcomes of a batch of Monte Carlo trials: one numpy column per per-shot quantity, plus the run's record.

    Row i of every column belongs to shot i.  ``flip``: the gate flipped the
    qubit superposition; ``level``: qubit level ("g", "e" or "f") at the start
    of the signal window; ``jump_time``: time of the in-window qubit jump in us,
    NaN when there is none; ``true_photons``: transmitted signal photons;
    ``reading``: detected reading; ``run``: the :class:`Run` the shots were drawn
    with; ``on``: the on/off label (True = on), None until :func:`label_records` has run.
    """

    flip: np.ndarray
    level: np.ndarray
    jump_time: np.ndarray
    true_photons: np.ndarray
    reading: np.ndarray
    run: Run
    on: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.flip)


# ---------------------------------------------------------------------------
# shot engine: the run's record, then the gate, qubit and signal stages


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


def _flip_probability(photons, eta: float, dark_flip: float):
    """Parity model per shot: odd photon numbers flip with prob eta, even with dark_flip."""
    return np.where(photons % 2 == 1, eta, dark_flip)


def _run(cfg: ProtocolConfig, device: "DeviceParams") -> Run:
    """The run's record: eta is ``cfg.eta_override`` or else cavity I's gating efficiency.  The
    survival, needed under an override too, reads the same memoised pulse moments as eta, so a
    run integrates the gate pulse's spectrum once."""
    c = device.cavity_II
    if cfg.signal_detuning_target == "bare":
        f_sig = c.f0 + device.semiclassical.bare_offset
    else:
        f_sig = shifted_frequency(c, cfg.signal_detuning_target.removeprefix("resonant_with_"))
    eta = cfg.eta_override if cfg.eta_override is not None else gating_efficiency(device.cavity_I, cfg.gate_pulse)
    t2 = np.array([abs(transmission_coeff(c, f_sig, lev)) ** 2 for lev in QUBIT_LEVELS])
    return Run(eta, pulse_survival(device.cavity_I, cfg.gate_pulse), f_sig, t2, cfg.n_g, cfg.gate_source, cfg.dark_flip)


def _gate(cfg: ProtocolConfig, run: Run, rng: np.random.Generator) -> np.ndarray:
    """Gate stage: draws the gate photon numbers, then the flip uniforms; returns the flips.  One
    parity surrogate: an odd photon number flips with ``run.eta``, an even one with ``cfg.dark_flip``."""
    n = cfg.n_shots
    if cfg.gate_source == "single_photon":
        photons = (rng.random(n) < cfg.n_g).astype(np.int64)
    else:
        photons = rng.poisson(cfg.n_g, n)
    return rng.random(n) < _flip_probability(photons, run.eta, cfg.dark_flip)


def _qubit(cfg: ProtocolConfig, device: "DeviceParams", flip: np.ndarray, rng: np.random.Generator):
    """Qubit stage: draws the level uniforms, then the jump uniforms; returns (level, dest, jump_time).

    The second pi/2 with phase theta closes the Ramsey loop, and the gate photon's conditional
    pi phase swaps the interference port.  The jump goes g -> e (thermal), e -> g and f -> e
    (relaxation), each plus the signal-induced flip rate.  ``level`` and ``dest`` index
    ``QUBIT_LEVELS``; ``jump_time`` is NaN where the jump falls past the window."""
    p_ground = np.where(flip, math.cos(cfg.theta / 2.0) ** 2, math.sin(cfg.theta / 2.0) ** 2)
    excited = 2 if cfg.subspace == "gf" else 1
    level = np.where(rng.random(cfg.n_shots) < p_ground, 0, excited)
    rates = device.qubit_rates
    extra = cfg.signal_flip_rate_per_photon * cfg.n_s
    rate = np.array(
        [rates.thermal_excitation_rate, 1.0 / rates.T1_ge, 1.0 / rates.T1_ef]
    )[level] + extra
    t_jump = exponential_time(rate, rng)
    return level, np.array([1, 0, 1])[level], np.where(t_jump < cfg.signal_duration, t_jump, np.nan)


def _signal(cfg: ProtocolConfig, device: "DeviceParams", run: Run, level, dest, jump_time, rng):
    """Signal stage: n_s |t|^2 of ``level`` up to the jump and of ``dest`` after it, then one
    detector normal per shot; returns (true_photons, reading)."""
    frac = np.where(np.isnan(jump_time), 1.0, jump_time / cfg.signal_duration)
    true_tx = cfg.n_s * (frac * run.t2[level] + (1.0 - frac) * run.t2[dest])
    return true_tx, measurement.detect(true_tx, device.detection, rng)


def run_experiment(cfg: ProtocolConfig, device: "DeviceParams") -> Shots:
    """n_shots trials as columns, the three stages drawing in turn from one ``default_rng(cfg.seed)``."""
    rng = np.random.default_rng(cfg.seed)
    run = _run(cfg, device)
    flip = _gate(cfg, run, rng)
    level, dest, jump_time = _qubit(cfg, device, flip, rng)
    true_photons, reading = _signal(cfg, device, run, level, dest, jump_time, rng)
    return Shots(flip, np.array(QUBIT_LEVELS)[level], jump_time, true_photons, reading, run)


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

#: the most Fock levels of the gate field: C(n, n // 2) of the binomial-loss matrix overflows a double from n = 1030
MAX_FOCK_LEVELS = 1030


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


def _photon_prior(run: Run) -> np.ndarray:
    """The run's gate-source photon-number distribution on the fewest levels from 8 that drop at most TRACE_TOL."""
    if run.gate_source == "single_photon" or run.n_g == 0.0:  # a coherent n_g = 0 is the vacuum too
        prior = np.zeros(8)
        prior[0] = 1.0 - run.n_g
        prior[1] = run.n_g
        return prior
    for d in range(8, MAX_FOCK_LEVELS + 1):
        n = np.arange(d, dtype=float)
        lgam = np.array([math.lgamma(k + 1) for k in range(d)])
        prior = np.exp(-run.n_g + n * math.log(run.n_g) - lgam)
        if 1.0 - float(prior.sum()) <= TRACE_TOL:
            return prior
    raise CutoffError(f"the gate field of n_g = {run.n_g!r} needs more than {MAX_FOCK_LEVELS} Fock levels")


def conditional_gate_field(
    shots: Shots,
    condition: str,
    cfg: ProtocolConfig,
    device: "DeviceParams",
) -> QuantumState:
    """Reflected gate-field state conditioned on the transistor label.

    Bayesian mixture over the source photon-number distribution: the label
    likelihood P(label | n) combines the parity flip model at the run's ``shots.run.eta`` with the
    empirical per-branch label rates P(label | flip) estimated from the shots, and the
    per-Fock reflected states carry the run's pulse-averaged survival ``shots.run.survival``.
    ``device`` is unused; ``cfg`` must hold the run's n_g, gate source and dark flip.  Its levels are
    :func:`_photon_prior`'s; a coherent n_g of over about 850 needs more than MAX_FOCK_LEVELS (CutoffError)."""
    if condition not in (measurement.ON, measurement.OFF):
        raise ValueError("condition must be 'on' or 'off'")
    for key in ("n_g", "gate_source", "dark_flip"):
        if (given := getattr(cfg, key)) != (drawn := getattr(shots.run, key)):
            raise ValueError(f"cfg.{key} is {given!r}, but the shots were drawn at {key} = {drawn!r}")
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

    prior = _photon_prior(shots.run)
    d = len(prior)
    q = _flip_probability(np.arange(d), shots.run.eta, cfg.dark_flip)
    likelihood = q * p_cond_flip + (1.0 - q) * p_cond_noflip
    post = prior * likelihood
    total = post.sum()
    if total <= 0:
        raise InsufficientDataError("condition has zero posterior probability")
    post /= total

    # binomial loss P(m | n), stored [n, m] so that the posterior mix adds its
    # rows one by one in order of n, as a running sum would
    loss = _binomial_loss(shots.run.survival, d)
    diag = (post[:, None] * loss).sum(axis=0)
    rho = np.diag(diag.astype(complex))
    return QuantumState((d,), rho / np.trace(rho))
