"""Shot-level execution of the transistor pulse sequence.

One shot: prepare the qubit in (|g>+|e>)/sqrt2, reflect the gate pulse off
cavity I (conditional phase per photon), close the Ramsey loop with a second
pi/2 of phase theta (plus an optional pi_ef), then transmit the signal window
through cavity II with possible qubit jumps, and read out the transmitted
photon number through the linear detection chain.

The gate stage is modeled in the Fock basis: an instantaneous
conditional-phase-plus-loss channel whose scalar statistics (eta, dark flip)
carry the pulse-bandwidth and internal-loss imperfections computed in
:mod:`photon_transistor.cavity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import measurement
from .cavity import (
    QUBIT_LEVELS,
    CavityParams,
    PulseShape,
    gate_carrier_frequency,
    gating_efficiency,
    pulse_survival,
    reflection_coeff,
    shifted_frequency,
    transmission_coeff,
)
from .errors import InsufficientDataError
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
    subspace: str = "ge"
    n_g: float = 0.18
    gate_pulse: PulseShape = field(default_factory=lambda: PulseShape("gaussian", 960.0))
    n_s: float = 37.2
    signal_duration: float = 10.0  # us
    signal_detuning_target: str = "resonant_with_e"
    eta_override: float | None = None
    dark_flip: float = 0.04
    n_shots: int = 10000
    seed: int = 12345
    gate_source: str = "coherent"
    signal_flip_rate_per_photon: float = 1e-7  # 1/(us * signal photon)
    fock_cutoff: int = DEFAULT_FOCK_CUTOFF

    def __post_init__(self):
        if self.n_g < 0 or self.n_s < 0:
            raise ValueError("photon numbers must be >= 0")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.subspace not in ("ge", "gf"):
            raise ValueError(f"unknown subspace {self.subspace!r}")
        if self.gate_source not in GATE_SOURCES:
            raise ValueError(f"unknown gate_source {self.gate_source!r}")
        if self.signal_detuning_target not in SIGNAL_TARGETS:
            raise ValueError(f"unknown signal_detuning_target {self.signal_detuning_target!r}")
        if not 0.0 <= self.dark_flip <= 1.0:
            raise ValueError("dark_flip must be a probability")
        if self.eta_override is not None and not 0.0 <= self.eta_override <= 1.0:
            raise ValueError("eta_override must be a probability")
        if self.gate_source == "single_photon" and self.n_g > 1.0:
            raise ValueError("single_photon source needs n_g <= 1")
        if self.signal_duration <= 0:
            raise ValueError("signal_duration must be positive")


@dataclass(frozen=True, eq=False)
class Shots:
    """Outcomes of a batch of Monte Carlo trials, one numpy column per quantity.

    Row i of every column belongs to shot i.  ``flip``: the gate flipped the
    qubit superposition; ``level``: qubit level ("g", "e" or "f") at the start
    of the signal window; ``jump_time``: time of the in-window qubit jump in us,
    NaN when there is none; ``true_photons``: transmitted signal photons;
    ``reading``: detected reading; ``on``: the on/off label (True = on), None
    until :func:`label_records` has run.
    """

    flip: np.ndarray
    level: np.ndarray
    jump_time: np.ndarray
    true_photons: np.ndarray
    reading: np.ndarray
    on: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.flip)


# ---------------------------------------------------------------------------
# gate stage


def _loss_kraus(r_amp: complex, d: int) -> list[np.ndarray]:
    """Beam-splitter Kraus set for complex transmissivity r (|r| <= 1)."""
    s = abs(r_amp) ** 2
    loss_amp = math.sqrt(max(1.0 - s, 0.0))
    ops = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            e[n - k, n] = math.sqrt(math.comb(n, k)) * r_amp ** (n - k) * loss_amp**k
        ops.append(e)
    return ops


def gate_interaction(qubit_field: QuantumState, c: CavityParams, p: PulseShape) -> QuantumState:
    """Reflect the gate field off cavity I, entangling it with the qubit.

    Each Fock component |n> acquires the branch reflection amplitude r_level^n
    (relative phase (-1)^n between |g> and |e> at the matched operating point)
    and photons survive with probability |r|^2.  For a lossless cavity and a
    |1> input on (|g>+|e>)/sqrt2 this reproduces the maximally entangled
    (|1>|g> - |1>|e>)/sqrt2 up to a global phase.
    """
    if len(qubit_field.dims) != 2 or qubit_field.dims[0] != 3:
        raise ValueError("gate_interaction expects dims = (3, field_cutoff)")
    d = qubit_field.dims[1]
    f_c = gate_carrier_frequency(c, p)
    branch = {lev: reflection_coeff(c, f_c, lev) for lev in ("g", "e", "f")}
    kraus_by_level = {lev: _loss_kraus(r, d) for lev, r in branch.items()}
    proj = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    for i in range(3):
        proj[i][i, i] = 1.0
    rho = np.zeros_like(qubit_field.rho)
    for k in range(d):
        m = sum(
            np.kron(proj[i], kraus_by_level[lev][k])
            for i, lev in enumerate(("g", "e", "f"))
        )
        rho += m @ qubit_field.rho @ m.conj().T
    return QuantumState(qubit_field.dims, rho)


def coherent_flip_probability(n_g: float, eta: float, dark_flip: float = 0.0) -> float:
    """Qubit flip probability under a weak coherent gate pulse.

    beta = sum_n Poisson(n; n_g) q(n) with q(odd) = eta and q(even) = dark_flip
    (flip-per-photon parity model).  The odd Poisson weights sum to
    (1 - e^{-2 n_g}) / 2, the model analysis.fit_eta inverts.
    """
    if not 0.0 <= eta <= 1.0 or not 0.0 <= dark_flip <= 1.0:
        raise ValueError("eta and dark_flip must be probabilities")
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
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


def resolve_eta(cfg: ProtocolConfig, device: "DeviceParams") -> float:
    if cfg.eta_override is not None:
        return cfg.eta_override
    return gating_efficiency(device.cavity_I, cfg.gate_pulse)


def _flip_probability(photons, eta: float, dark_flip: float):
    """Parity model per shot: odd photon numbers flip with prob eta, even with dark_flip."""
    return np.where(photons % 2 == 1, eta, dark_flip)


def run_experiment(cfg: ProtocolConfig, device: "DeviceParams") -> Shots:
    """n_shots independent trials of the full sequence, drawn as columns.

    One ``default_rng(cfg.seed)`` stream supplies, in this order, an array of
    n_shots each of gate photon numbers, flip uniforms, level uniforms, jump
    uniforms and detector noise, so the outcome depends only on the seed.
    """
    n = cfg.n_shots
    rng = np.random.default_rng(cfg.seed)
    eta = resolve_eta(cfg, device)

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
    )


def label_records(shots: Shots, threshold: float | None = None):
    """Classify detected readings into on/off; returns (shots, threshold, counts).

    The returned shots carry the ``on`` column.  Without a threshold the
    readings are split by :func:`measurement.kmeans_1d`.
    """
    if threshold is None:
        threshold, on, counts = measurement.kmeans_1d(shots.reading)[:3]
    else:
        on = shots.reading >= threshold
        counts = measurement.label_counts(on)
    return replace(shots, on=on), threshold, counts


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


def _binomial_loss_diag(n: int, survival: float, d: int) -> np.ndarray:
    """Diagonal Fock weights of |n><n| after per-photon survival s."""
    out = np.zeros(d)
    for k in range(min(n, d - 1) + 1):
        out[k] = math.comb(n, k) * survival**k * (1.0 - survival) ** (n - k)
    return out


def conditional_gate_field(
    shots: Shots,
    condition: str,
    cfg: ProtocolConfig,
    device: "DeviceParams",
) -> QuantumState:
    """Reflected gate-field state conditioned on the transistor label.

    Bayesian mixture over the source photon-number distribution: the label
    likelihood P(label | n) combines the parity flip model with the empirical
    per-branch label rates P(label | flip) estimated from the shots, and the
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

    eta = resolve_eta(cfg, device)
    d = cfg.fock_cutoff
    prior = _photon_prior(cfg, d)
    q = _flip_probability(np.arange(d), eta, cfg.dark_flip)
    likelihood = q * p_cond_flip + (1.0 - q) * p_cond_noflip
    post = prior * likelihood
    total = post.sum()
    if total <= 0:
        raise InsufficientDataError("condition has zero posterior probability")
    post /= total

    s = pulse_survival(device.cavity_I, cfg.gate_pulse)
    diag = np.zeros(d)
    for n, w in enumerate(post):
        if w > 0:
            diag += w * _binomial_loss_diag(n, s, d)
    rho = np.diag(diag.astype(complex))
    return QuantumState((d,), rho / np.trace(rho))
