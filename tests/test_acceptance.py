"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Coherence times, the detection chain and the mean-field saturation
scales are not published quantities, so the Monte Carlo criteria pin them
explicitly here (long T1, a spurious-excitation rate realizing P_s = 0.925,
and a quiet amplifier) rather than relying on the placeholder defaults.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from photon_transistor.analysis import (
    solve_calibration,
    switching_probability,
    synthesize_intensities,
)
from photon_transistor.cavity import (
    CavityParams,
    PulseShape,
    reflection_coeff,
    transmission_coeff,
)
from photon_transistor.device import paper_defaults
from photon_transistor.hilbert import (
    coherent_state,
    fock_state,
    mean_photon,
    pure_state,
    qutrit_state,
)
from photon_transistor.measurement import DetectionModel, kmeans_1d, wigner, wigner_grid
from photon_transistor.protocol import (
    ProtocolConfig,
    coherent_flip_probability,
    conditional_gate_field,
    label_records,
    run_experiment,
)
from photon_transistor.qubit import QubitRates, evolve_lindblad
from photon_transistor.semiclassical import build_model, gain_sweep

P_S_TARGET = 0.925
SIGNAL_WINDOW = 10.0


def announce(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def matched_device():
    """Published device geometry with acceptance-pinned error channels.

    T1 is set long and a spurious g->e excitation rate is chosen so the
    conditional switching probability equals 0.925 over the first half of the
    signal window; the detection chain is quiet enough that classification
    noise is negligible against the binomial tolerances.
    """
    base = paper_defaults()
    gamma_up = -math.log(P_S_TARGET) / (SIGNAL_WINDOW / 2.0)
    rates = QubitRates(
        T1_ge=1e6, T1_ef=1e6, T2_ge=1e6, T2_gf=1e6, thermal_excitation_rate=gamma_up
    )
    return dataclasses.replace(
        base,
        qubit_rates=rates,
        detection=DetectionModel(efficiency=0.5, added_noise_photons=0.25, baseline_sigma=0.25),
    )


def paper_point_config(**kw):
    fields = dict(
        theta=0.0,
        n_g=0.18,
        n_s=37.2,
        dark_flip=0.04,
        n_shots=10_000,
        seed=20_240,
        signal_flip_rate_per_photon=0.0,
    )
    fields.update(kw)
    return ProtocolConfig(**fields)


@pytest.fixture(scope="module")
def paper_run():
    """Shared 1e4-shot gated/ungated runs at the published operating point."""
    dev = matched_device()
    cfg = paper_point_config()
    t0 = time.perf_counter()
    gated = run_experiment(cfg, dev)
    ungated = run_experiment(dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1), dev)
    threshold = kmeans_1d(np.concatenate([gated.reading, ungated.reading])).threshold
    gated, _, _ = label_records(gated, threshold=threshold)
    ungated, _, _ = label_records(ungated, threshold=threshold)
    elapsed = time.perf_counter() - t0
    return dict(
        device=dev,
        config=cfg,
        gated=gated,
        ungated=ungated,
        threshold=threshold,
        elapsed=elapsed,
    )


def test_criterion_1_phase_flip_condition():
    c = CavityParams(7000.0, 1.73, 0.0, 0.0, -0.865, -1.73)
    f_mid = 0.5 * (c.f0 + (c.f0 + 2 * c.chi_ge))
    r_g = reflection_coeff(c, f_mid, "g")
    r_e = reflection_coeff(c, f_mid, "e")
    product = r_g * np.conj(r_e)
    assert abs(product + 1.0) < 1e-12
    phase_diff = abs(np.angle(r_g) - np.angle(r_e))
    assert abs(phase_diff - math.pi) < 1e-12
    announce(1, f"midpoint reflection phase difference = pi (|r_g r_e* + 1| = {abs(product + 1):.2e})")


def test_criterion_2_cavity_ii_spectrum():
    c = paper_defaults().cavity_II
    t2_on = abs(transmission_coeff(c, c.f0, "g")) ** 2
    t2_off = abs(transmission_coeff(c, c.f0 + 1.894, "g")) ** 2
    contrast = 10 * math.log10(t2_on / t2_off)
    assert t2_on == pytest.approx(0.7511, abs=1e-4)
    assert contrast == pytest.approx(22.0, abs=0.1)
    assert abs(contrast - 20.0) <= 3.0
    announce(2, f"|t|^2 = {t2_on:.4f}, contrast = {contrast:.2f} dB (within 3 dB of the 20 dB bound)")


def test_criterion_3_parity_gating():
    def oracle(n_g, eta, dark, n_max=80):
        return sum(
            math.exp(-n_g) * n_g**n / math.factorial(n) * (eta if n % 2 else dark)
            for n in range(n_max)
        )

    ideal = coherent_flip_probability(0.18, 1.0, 0.0)
    assert abs(ideal - oracle(0.18, 1.0, 0.0)) < 1e-6
    assert round(ideal, 4) == 0.1512
    measured_point = coherent_flip_probability(0.18, 0.80, 0.04)
    assert abs(measured_point - 0.13) <= 0.03
    announce(3, f"beta(0.18, 1, 0) = {ideal:.7f} vs oracle; beta(0.18, 0.8, 0.04) = "
                f"{measured_point:.4f} within 0.03 of the measured 0.13")


def test_criterion_4_calibration_round_trip():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst = 0.0
    worst_resid = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 0.9)
        hi = rng.uniform(5.0, 100.0)
        lo = rng.uniform(0.0, hi - 1.0)
        beta = rng.uniform(0.01, 1.0 - p)
        out = solve_calibration(synthesize_intensities(p, lo, hi, beta))
        worst = max(
            worst,
            abs(out.P_g_open - p),
            abs(out.P_g_close - (1 - p)),
            abs(out.n_g_state - lo),
            abs(out.n_e_state - hi),
        )
        worst_resid = max(worst_resid, out.consistency_residual)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert worst_resid < 1e-9
    assert elapsed < 1.0
    announce(4, f"1000 tuples recovered, worst error {worst:.2e}, residual {worst_resid:.2e}, "
                f"{elapsed * 1000:.0f} ms")


def test_criterion_5_switching_probability_chain():
    p_sg = switching_probability(0.80, 0.925)
    assert abs(p_sg - 0.74) < 1e-15
    announce(5, f"P_sg = 0.80 x 0.925 = {p_sg:.15g}")


def test_criterion_6_monte_carlo_switch_statistics(paper_run):
    cfg = paper_run["config"]
    dev = paper_run["device"]
    n = cfg.n_shots
    off_gated = np.count_nonzero(~paper_run["gated"].on) / n
    off_ungated = np.count_nonzero(~paper_run["ungated"].on) / n

    eta = 0.80  # the device's derived internal loss pins gating_efficiency here
    beta = coherent_flip_probability(cfg.n_g, eta, cfg.dark_flip)
    target = beta * P_S_TARGET
    se = math.sqrt(
        off_gated * (1 - off_gated) / n + off_ungated * (1 - off_ungated) / n
    )
    assert off_gated - off_ungated > 3 * se
    assert abs(off_gated - target) <= 0.02
    assert paper_run["elapsed"] < 60.0
    announce(6, f"gated off = {off_gated:.4f} vs beta*P_s = {target:.4f} "
                f"(ungated {off_ungated:.4f}, excess {(off_gated - off_ungated) / se:.1f} sigma, "
                f"{paper_run['elapsed']:.1f} s)")


def test_criterion_7_conditional_gate_field_means(paper_run):
    # ideal arm: 0/1 single-photon source, no error channels, lossless cavity
    base = paper_defaults()
    ideal_dev = dataclasses.replace(
        base,
        cavity_I=CavityParams(7000.0, 1.73, 0.0, 0.0, -0.865, -1.73),
        qubit_rates=QubitRates(1e12, 1e12, 1e12, 1e12),
        detection=DetectionModel(1.0, 0.0, 0.0),
    )
    ideal_cfg = paper_point_config(
        gate_source="single_photon", n_g=0.5, eta_override=1.0, dark_flip=0.0,
        n_shots=4000,
    )
    recs, _, _ = label_records(run_experiment(ideal_cfg, ideal_dev))
    on_mean = mean_photon(conditional_gate_field(recs, "on", ideal_cfg, ideal_dev), 0)
    off_mean = mean_photon(conditional_gate_field(recs, "off", ideal_cfg, ideal_dev), 0)
    assert on_mean == pytest.approx(0.0, abs=1e-12)
    assert off_mean == pytest.approx(1.0, abs=1e-12)  # 1 * P(1|off), P(1|off) = 1

    # measured-device arm: conditional means near the quoted 0.72 / 0.03
    cfg = paper_run["config"]
    dev = paper_run["device"]
    off_cond = mean_photon(conditional_gate_field(paper_run["gated"], "off", cfg, dev), 0)
    on_cond = mean_photon(conditional_gate_field(paper_run["gated"], "on", cfg, dev), 0)
    assert abs(off_cond - 0.72) <= 0.15
    assert abs(on_cond - 0.03) <= 0.15
    announce(7, f"ideal on/off means = {on_mean:.1e}/{off_mean:.6f}; "
                f"measured-device = {on_cond:.3f}/{off_cond:.3f} vs 0.03/0.72 (+-0.15)")


def test_criterion_8_lindblad_suite():
    rates = QubitRates(T1_ge=30.0, T1_ef=15.0, T2_ge=20.0, T2_gf=12.0)
    excited = qutrit_state("e")
    superpos = pure_state([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], (3,))
    worst_pop = worst_coh = worst_drift = 0.0
    floor = 0.0
    for decade in range(-2, 3):  # dt spanning 5 decades around T1/T2
        dt1 = rates.T1_ge * 10.0**decade
        out = evolve_lindblad(excited, dt1, rates)
        worst_drift = max(worst_drift, abs(np.trace(out.rho) - 1.0))
        floor = min(floor, np.linalg.eigvalsh(out.rho).min())
        worst_pop = max(
            worst_pop, abs(np.real(out.rho[1, 1]) - math.exp(-dt1 / rates.T1_ge))
        )
        dt2 = rates.T2_ge * 10.0**decade
        out2 = evolve_lindblad(superpos, dt2, rates)
        worst_drift = max(worst_drift, abs(np.trace(out2.rho) - 1.0))
        floor = min(floor, np.linalg.eigvalsh(out2.rho).min())
        worst_coh = max(
            worst_coh, abs(abs(out2.rho[0, 1]) - 0.5 * math.exp(-dt2 / rates.T2_ge))
        )
    assert worst_drift < 1e-9
    assert floor > -1e-10
    assert worst_pop < 1e-4 and worst_coh < 1e-4
    announce(8, f"trace drift {worst_drift:.1e}, eigen floor {floor:.1e}, "
                f"T1/T2 decay error {max(worst_pop, worst_coh):.1e} over 5 decades")


def test_criterion_9_kmeans_classifier():
    rng = np.random.default_rng(424242)
    # clusters five sigma either side of the midpoint
    lo = rng.normal(0.0, 1.0, 5000)
    hi = rng.normal(10.0, 1.0, 5000)
    readings = np.concatenate([lo, hi])
    thr1, labels1, counts1 = kmeans_1d(readings)[:3]
    thr2, labels2, counts2 = kmeans_1d(readings)[:3]
    assert thr1 == thr2 and np.array_equal(labels1, labels2) and counts1 == counts2
    wrong = int(np.sum(lo >= thr1) + np.sum(hi < thr1))
    assert wrong / readings.size < 1e-4
    announce(9, f"threshold {thr1:.3f}, misclassified {wrong}/{readings.size}, deterministic")


def test_criterion_10_gain_sweep_shape():
    dev = paper_defaults()
    model = build_model(dev.cavity_II, dev.semiclassical)
    t0 = time.perf_counter()
    sweep = gain_sweep(model, 0.80, 0.925, np.geomspace(3.0, 1e8, 48), "ge")
    elapsed = time.perf_counter() - t0

    linear = [(math.log10(p.n_s), p.gain_db / 10.0) for p in sweep if p.n_s < 100]
    slope = np.polyfit(*zip(*linear), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)

    r_linear = min(p.extinction_db for p in sweep if p.regime == "linear")
    r_blockade = min(p.extinction_db for p in sweep if p.regime == "blockade")
    assert r_blockade < r_linear

    plateau = max(p.gain_db for p in sweep if p.regime == "blockade")
    bright = [p for p in sweep if p.regime == "bright"]
    peak = max(p.gain_db for p in bright)
    assert peak > plateau + 20.0
    assert bright[-1].gain_db < peak - 10.0  # switch fails at the highest powers
    assert elapsed < 10.0
    announce(10, f"slope {slope:.3f}; R dips {r_linear:.1f} -> {r_blockade:.1f} dB; "
                 f"bright peak {peak:.1f} dB = plateau {plateau:.1f} + "
                 f"{peak - plateau:.1f} dB, collapse to {bright[-1].gain_db:.1f} dB "
                 f"({elapsed:.1f} s)")


def test_criterion_11_wigner_normalization():
    d = 292  # corner of the 12x12 window has |alpha|^2 = 72 <= d/4
    xs, ps, pts = wigner_grid(6.0, 61)
    cell = (xs[1] - xs[0]) * (ps[1] - ps[0])
    states = {
        "vacuum": fock_state(0, d),
        "fock_1": fock_state(1, d),
        "coherent_1": coherent_state(1.0, d),
    }
    totals = {}
    for name, state in states.items():
        totals[name] = float(wigner(state, pts).sum() * cell)
        assert totals[name] == pytest.approx(1.0, rel=0.02)
    w0_vac = wigner(states["vacuum"], [0.0])[0]
    w0_fock = wigner(states["fock_1"], [0.0])[0]
    assert abs(w0_vac - 2 / math.pi) < 1e-9
    assert abs(w0_fock + 2 / math.pi) < 1e-9
    announce(11, "norms " + ", ".join(f"{k} = {v:.4f}" for k, v in totals.items())
                 + f"; centers {w0_vac:.6f}/{w0_fock:.6f}")
