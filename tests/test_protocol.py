import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from photon_transistor.cavity import (
    CavityParams,
    gating_efficiency,
    shifted_frequency,
    transmission_coeff,
)
from photon_transistor.device import DeviceParams, paper_defaults
from photon_transistor.errors import InsufficientDataError
from photon_transistor.hilbert import QuantumState, mean_photon
from photon_transistor.measurement import DetectionModel, kmeans_1d
from photon_transistor import protocol
from photon_transistor.protocol import (
    ProtocolConfig,
    _binomial_loss,
    coherent_flip_probability,
    conditional_gate_field,
    label_records,
    run_experiment,
)
from photon_transistor.qubit import QubitRates

def matched_cavity_one():
    """Lossless single-sided cavity at the exact kappa_ext = 2|chi| point."""
    return CavityParams(
        f0=7000.0,
        kappa_ext_in=1.73,
        kappa_ext_out=0.0,
        kappa_int=0.0,
        chi_ge=-0.865,
        chi_gf=-1.73,
    )


def ideal_device(**kw) -> DeviceParams:
    """Published device geometry with every error channel switched off."""
    base = paper_defaults()
    rates = QubitRates(T1_ge=1e12, T1_ef=1e12, T2_ge=1e12, T2_gf=1e12)
    detection = DetectionModel(efficiency=1.0, added_noise_photons=0.0, baseline_sigma=0.0)
    fields = dict(
        f_q=base.f_q,
        E_c=base.E_c,
        cavity_I=matched_cavity_one(),
        cavity_II=base.cavity_II,
        qubit_rates=rates,
        detection=detection,
        semiclassical=base.semiclassical,
    )
    fields.update(kw)
    return DeviceParams(**fields)


def ideal_config(**kw) -> ProtocolConfig:
    base = dict(
        theta=0.0,
        n_g=0.18,
        n_s=37.2,
        eta_override=1.0,
        dark_flip=0.0,
        n_shots=2000,
        seed=99,
        signal_flip_rate_per_photon=0.0,
    )
    base.update(kw)
    return ProtocolConfig(**base)


def poisson_parity_sum(n_g, eta, dark, n_max=60):
    """Independent oracle: explicit truncated Poisson sum."""
    total = 0.0
    for n in range(n_max):
        w = math.exp(-n_g) * n_g**n / math.factorial(n)
        total += w * (eta if n % 2 == 1 else dark)
    return total


class TestCoherentFlipProbability:
    def test_zero_photons_gives_dark_flip(self):
        assert coherent_flip_probability(0.0, 0.8, 0.04) == 0.04

    def test_parity_sum_ideal(self):
        val = coherent_flip_probability(0.18, 1.0, 0.0)
        assert val == pytest.approx(poisson_parity_sum(0.18, 1.0, 0.0), abs=1e-10)
        assert val == pytest.approx((1 - math.exp(-0.36)) / 2, abs=1e-10)

    def test_published_operating_point(self):
        val = coherent_flip_probability(0.18, 0.80, 0.04)
        assert val == pytest.approx(0.155, abs=1e-3)
        # the experiment measures 0.13 at this gate setting; the parity
        # model lands within 0.03 of it
        assert abs(val - 0.13) < 0.03

    def test_matches_oracle_over_grid(self):
        for n_g in (0.05, 0.18, 0.4, 1.3):
            for eta, dark in ((1.0, 0.0), (0.8, 0.04), (0.5, 0.2)):
                assert coherent_flip_probability(n_g, eta, dark) == pytest.approx(
                    poisson_parity_sum(n_g, eta, dark), abs=1e-9
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            coherent_flip_probability(0.1, 1.2, 0.0)
        with pytest.raises(ValueError):
            coherent_flip_probability(-0.1, 0.5, 0.0)

    @pytest.mark.parametrize("n_g", [math.nan, math.inf, -math.inf])
    def test_non_finite_photon_number_rejected(self, n_g):
        with pytest.raises(ValueError, match=r"^n_g must be a finite number, got"):
            coherent_flip_probability(n_g, 0.8, 0.04)


class TestRunShot:
    def test_fock_gate_source_switches_off(self):
        # deterministic single photon, eta = 1: qubit ends in g, low transmission
        dev = ideal_device()
        cfg = ideal_config(gate_source="single_photon", n_g=1.0, n_shots=1)
        rec = run_experiment(cfg, dev)
        assert rec.flip[0]
        assert rec.level[0] == "g"
        t2_g = abs(
            __import__("photon_transistor.cavity", fromlist=["transmission_coeff"])
            .transmission_coeff(dev.cavity_II, dev.cavity_II.f0 - 1.894, "g")
        ) ** 2
        assert rec.true_photons[0] == pytest.approx(37.2 * t2_g, rel=1e-9)

    def test_no_gate_photon_stays_on(self):
        dev = ideal_device()
        cfg = ideal_config(n_g=0.0, n_shots=1)
        rec = run_experiment(cfg, dev)
        assert not rec.flip[0]
        assert rec.level[0] == "e"
        assert rec.true_photons[0] == pytest.approx(0.751 * 37.2, rel=1e-2)

    def test_gf_subspace_lands_in_f(self):
        dev = ideal_device()
        cfg = ideal_config(
            n_g=0.0, subspace="gf", signal_detuning_target="resonant_with_f", n_shots=1
        )
        rec = run_experiment(cfg, dev)
        assert rec.level[0] == "f"
        assert rec.true_photons[0] == pytest.approx(0.751 * 37.2, rel=1e-2)


def reference_true_photons(shots, cfg, dev):
    """Scalar per-shot loop: transmitted photons from the level and jump_time columns."""
    c = dev.cavity_II
    f_sig = shifted_frequency(c, "f" if cfg.signal_detuning_target == "resonant_with_f" else "e")
    t2 = {lev: abs(transmission_coeff(c, f_sig, lev)) ** 2 for lev in "gef"}
    dest = {"g": "e", "e": "g", "f": "e"}
    out = []
    for level, jump_time in zip(shots.level.tolist(), shots.jump_time.tolist()):
        if math.isnan(jump_time):
            out.append(cfg.n_s * t2[level])
        else:
            frac = jump_time / cfg.signal_duration
            out.append(cfg.n_s * (frac * t2[level] + (1.0 - frac) * t2[dest[level]]))
    return np.array(out)


class TestRunExperiment:
    def test_single_shot(self):
        recs = run_experiment(ideal_config(n_shots=1), ideal_device())
        assert len(recs) == 1
        for column in (recs.flip, recs.level, recs.jump_time, recs.true_photons, recs.reading):
            assert column.shape == (1,)
        labeled, _, counts = label_records(recs, threshold=0.0)
        assert labeled.on.shape == (1,) and counts["on"] + counts["off"] == 1

    @pytest.mark.parametrize("subspace", ["ge", "gf"])
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_true_photons_match_scalar_loop(self, subspace, theta):
        # short T1s and a thermal rate so that every level jumps in some shots
        dev = ideal_device(
            qubit_rates=QubitRates(T1_ge=8.0, T1_ef=5.0, T2_ge=8.0, T2_gf=5.0,
                                   thermal_excitation_rate=0.05)
        )
        target = "resonant_with_f" if subspace == "gf" else "resonant_with_e"
        cfg = ideal_config(theta=theta, subspace=subspace, signal_detuning_target=target,
                           n_shots=3000)
        shots = run_experiment(cfg, dev)
        jumped = ~np.isnan(shots.jump_time)
        assert 0 < np.count_nonzero(jumped) < len(shots)
        assert set(shots.level.tolist()) == {"g", "f" if subspace == "gf" else "e"}
        np.testing.assert_allclose(
            shots.true_photons, reference_true_photons(shots, cfg, dev), rtol=1e-12, atol=1e-12
        )

    def test_reproducible_from_seed(self):
        cfg = ideal_config(n_shots=50)
        dev = ideal_device()
        a = run_experiment(cfg, dev)
        b = run_experiment(cfg, dev)
        assert a.reading.tolist() == b.reading.tolist()
        np.testing.assert_array_equal(a.jump_time, b.jump_time)  # NaN = no jump

    def test_ungated_ideal_run_all_on(self):
        dev = ideal_device()
        gated = run_experiment(ideal_config(n_shots=400, seed=11), dev)
        ungated = run_experiment(ideal_config(n_g=0.0, n_shots=400, seed=12), dev)
        thr = kmeans_1d(np.concatenate([gated.reading, ungated.reading])).threshold
        ungated, _, _ = label_records(ungated, threshold=thr)
        assert ungated.on.all()

    def test_flip_fraction_matches_model_4sigma(self):
        cfg = ProtocolConfig(
            n_g=0.18, eta_override=0.8, dark_flip=0.04, n_shots=20_000, seed=21,
            signal_flip_rate_per_photon=0.0,
        )
        dev = ideal_device()
        recs = run_experiment(cfg, dev)
        frac = np.mean(recs.flip)
        beta = coherent_flip_probability(0.18, 0.8, 0.04)
        sigma = math.sqrt(beta * (1 - beta) / cfg.n_shots)
        assert abs(frac - beta) < 4 * sigma

    def test_theta_arms_complementary_with_same_seed(self):
        dev = ideal_device()
        open_arm = run_experiment(ideal_config(theta=0.0, n_shots=300), dev)
        closed_arm = run_experiment(ideal_config(theta=math.pi, n_shots=300), dev)
        for flip_a, flip_b, level_a, level_b in zip(
            open_arm.flip, closed_arm.flip, open_arm.level, closed_arm.level
        ):
            assert flip_a == flip_b
            assert {level_a, level_b} == {"g", "e"}

    def test_off_fraction_monotone_in_gate_photon_number(self):
        dev = ideal_device()
        fracs = []
        for n_g in (0.0, 0.1, 0.25, 0.5):
            recs = run_experiment(ideal_config(n_g=n_g, n_shots=4000, seed=31), dev)
            fracs.append(np.mean(recs.level == "g"))
        assert all(b >= a - 0.01 for a, b in zip(fracs, fracs[1:]))

    def test_parity_exact_for_fock_inputs(self):
        # eta = 1, dark = 0: a 0/1 source flips the qubit iff a photon arrived
        dev = ideal_device()
        cfg = ideal_config(gate_source="single_photon", n_g=0.5, n_shots=500)
        shots = run_experiment(cfg, dev)
        for flip, level in zip(shots.flip, shots.level):
            assert level == ("g" if flip else "e")

    def test_strong_signal_induces_extra_wrong_operations(self):
        # ungated, normally open: the default signal-induced flip rate makes
        # jump events far more common at n_s = 2.62e5 than at 37.2
        dev = ideal_device()
        weak = ideal_config(n_g=0.0, n_shots=3000, signal_flip_rate_per_photon=1e-7)
        strong = replace(weak, n_s=2.62e5, signal_detuning_target="bare")
        jumps_weak = np.count_nonzero(~np.isnan(run_experiment(weak, dev).jump_time))
        jumps_strong = np.count_nonzero(~np.isnan(run_experiment(strong, dev).jump_time))
        assert jumps_strong > 10 * max(jumps_weak, 1)
        assert jumps_strong / 3000 > 0.1


class TestOneGateModel:
    """eta from the pulse moments is the one-photon flip probability the engine draws."""

    def test_single_photon_flip_fraction_is_gating_efficiency(self):
        dev = paper_defaults()
        cfg = ProtocolConfig(gate_source="single_photon", n_g=1.0, n_shots=40_000, seed=5)
        eta = gating_efficiency(dev.cavity_I, cfg.gate_pulse)
        shots = run_experiment(cfg, dev)
        assert shots.eta == eta
        frac = np.mean(shots.flip)
        sigma = math.sqrt(eta * (1 - eta) / cfg.n_shots)
        assert abs(frac - eta) < 4 * sigma

    def test_eta_override_is_the_runs_eta_and_computes_none(self):
        dev = paper_defaults()
        cfg = ProtocolConfig(gate_source="single_photon", n_g=1.0, eta_override=0.3, n_shots=40_000, seed=5)
        with mock.patch.object(protocol, "gating_efficiency", side_effect=AssertionError("eta was computed")):
            shots = run_experiment(cfg, dev)
        assert shots.eta == 0.3
        sigma = math.sqrt(0.3 * 0.7 / cfg.n_shots)
        assert abs(np.mean(shots.flip) - 0.3) < 4 * sigma

    @pytest.mark.parametrize("eta_override", [None, 0.5])
    def test_conditional_gate_field_takes_the_runs_eta(self, eta_override):
        # the field's flip likelihood is the eta the shots were drawn with, whatever the cfg it is handed says
        dev = paper_defaults()
        cfg = ProtocolConfig(n_g=0.5, eta_override=eta_override, n_shots=2000, seed=8)
        shots, _, _ = label_records(run_experiment(cfg, dev))
        other = replace(cfg, eta_override=0.9)
        with mock.patch.object(protocol, "gating_efficiency", wraps=gating_efficiency) as etas:
            states = [conditional_gate_field(shots, "off", c, dev) for c in (cfg, other)]
        assert etas.call_count == 0
        np.testing.assert_array_equal(states[0].rho, states[1].rho)
        moved = conditional_gate_field(replace(shots, eta=0.9), "off", cfg, dev)
        assert not np.array_equal(moved.rho, states[0].rho)


class TestConditionalGateField:
    def test_ideal_single_photon_source_on_is_vacuum(self):
        dev = ideal_device()
        cfg = ideal_config(gate_source="single_photon", n_g=0.5, n_shots=3000)
        recs, _, _ = label_records(run_experiment(cfg, dev))
        state_on = conditional_gate_field(recs, "on", cfg, dev)
        assert mean_photon(state_on, 0) == pytest.approx(0.0, abs=1e-12)

    def test_ideal_single_photon_source_off_is_fock_one(self):
        dev = ideal_device()
        cfg = ideal_config(gate_source="single_photon", n_g=0.5, n_shots=3000)
        recs, _, _ = label_records(run_experiment(cfg, dev))
        state_off = conditional_gate_field(recs, "off", cfg, dev)
        assert mean_photon(state_off, 0) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_coherent_source_parity_projections(self):
        # Bayes over Poisson weights: on-mean = nbar tanh(nbar),
        # off-mean = nbar coth(nbar) for eta = 1, dark = 0, lossless
        dev = ideal_device()
        cfg = ideal_config(n_shots=6000)
        recs, _, _ = label_records(run_experiment(cfg, dev))
        on_mean = mean_photon(conditional_gate_field(recs, "on", cfg, dev), 0)
        off_mean = mean_photon(conditional_gate_field(recs, "off", cfg, dev), 0)
        nbar = 0.18
        assert on_mean == pytest.approx(nbar * math.tanh(nbar), abs=1e-6)
        assert off_mean == pytest.approx(nbar / math.tanh(nbar), abs=1e-4)

    def test_off_state_dominated_by_fock_one(self):
        dev = ideal_device()
        cfg = ideal_config(n_shots=6000)
        recs, _, _ = label_records(run_experiment(cfg, dev))
        state_off = conditional_gate_field(recs, "off", cfg, dev)
        weights = np.real(np.diag(state_off.rho))
        assert np.argmax(weights) == 1

    def test_empty_condition_errors(self):
        dev = ideal_device()
        cfg = ideal_config(n_g=0.0, n_shots=50)
        recs = run_experiment(cfg, dev)
        with pytest.raises(InsufficientDataError):
            conditional_gate_field(recs, "off", cfg, dev)  # unlabeled
        labeled = replace(recs, on=np.ones(len(recs), dtype=bool))
        with pytest.raises(InsufficientDataError):
            conditional_gate_field(labeled, "off", cfg, dev)


class TestConfigValidation:
    def test_bad_subspace(self):
        with pytest.raises(ValueError):
            ProtocolConfig(subspace="xy")

    def test_bad_source(self):
        with pytest.raises(ValueError):
            ProtocolConfig(gate_source="thermal")

    def test_single_photon_needs_probability(self):
        with pytest.raises(ValueError):
            ProtocolConfig(gate_source="single_photon", n_g=1.5)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_g=-0.1)
        with pytest.raises(ValueError):
            ProtocolConfig(n_shots=0)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            ProtocolConfig(seed=-5)
        assert ProtocolConfig(seed=0).seed == 0


# Reference path: the per-Fock-level loop that the binomial-loss matrix replaced.


def _binomial_loss_diag(n: int, survival: float, d: int) -> np.ndarray:
    """Diagonal Fock weights of |n><n| after per-photon survival s."""
    out = np.zeros(d)
    for k in range(min(n, d - 1) + 1):
        out[k] = math.comb(n, k) * survival**k * (1.0 - survival) ** (n - k)
    return out


def loop_conditional_gate_field(shots, condition, cfg, device):
    match = shots.on if condition == "on" else ~shots.on
    if not match.any():
        raise InsufficientDataError(f"no shots labeled {condition!r}")
    n_flip = int(np.count_nonzero(shots.flip))
    n_noflip = len(shots) - n_flip
    match_flip = int(np.count_nonzero(match & shots.flip))
    match_noflip = int(np.count_nonzero(match)) - match_flip
    p_cond_flip = match_flip / n_flip if n_flip else 0.0
    p_cond_noflip = match_noflip / n_noflip if n_noflip else 0.0

    d = cfg.fock_cutoff
    prior = protocol._photon_prior(cfg, d)
    q = np.where(np.arange(d) % 2 == 1, shots.eta, cfg.dark_flip)
    post = prior * (q * p_cond_flip + (1.0 - q) * p_cond_noflip)
    total = post.sum()
    if total <= 0:
        raise InsufficientDataError("condition has zero posterior probability")
    post /= total

    s = protocol.pulse_survival(device.cavity_I, cfg.gate_pulse)
    diag = np.zeros(d)
    for n, w in enumerate(post):
        if w > 0:
            diag += w * _binomial_loss_diag(n, s, d)
    rho = np.diag(diag.astype(complex))
    return QuantumState((d,), rho / np.trace(rho))


class TestFockLossKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        source=hst.sampled_from(["coherent", "single_photon"]),
        n_g=hst.floats(0.0, 1.0),
        theta=hst.sampled_from([0.0, math.pi]),
        d=hst.integers(2, 16),
        seed=hst.integers(0, 2**31 - 1),
    )
    def test_conditional_gate_field_matches_binomial_loop(self, source, n_g, theta, d, seed):
        dev = paper_defaults()
        cfg = ProtocolConfig(theta=theta, n_g=n_g, gate_source=source, n_shots=300, seed=seed, fock_cutoff=d)
        shots, _, _ = label_records(run_experiment(cfg, dev))
        for condition in ("on", "off"):
            try:
                ref = loop_conditional_gate_field(shots, condition, cfg, dev)
            except InsufficientDataError:
                with pytest.raises(InsufficientDataError):
                    conditional_gate_field(shots, condition, cfg, dev)
                continue
            out = conditional_gate_field(shots, condition, cfg, dev)
            # the same sums in the same order over loss weights a few ulp apart (see
            # test_binomial_loss_rows_match_scalar_formula); 600 random fields differed by
            # at most 2 ulp, and 8 are allowed
            np.testing.assert_array_equal(out.rho, np.diag(np.diag(out.rho)))
            np.testing.assert_array_max_ulp(np.diag(out.rho).real, np.diag(ref.rho).real, maxulp=8)

    @settings(max_examples=80, deadline=None)
    @given(s=hst.floats(0.0, 1.0) | hst.sampled_from([0.0, 1.0]), d=hst.integers(2, 16))
    def test_binomial_loss_rows_match_scalar_formula(self, s, d):
        # numpy's vector power and Python's scalar pow differ by 1 ulp in about 5 % of the
        # powers, so the products C(n, m) s^m (1 - s)^(n - m) differ by a few ulp: at most
        # 5 over 9000 survivals at d = 16 (those near 0 give subnormal powers), and 8 are allowed
        loss = _binomial_loss(s, d)
        assert loss.shape == (d, d)
        for n in range(d):
            np.testing.assert_array_max_ulp(loss[n], _binomial_loss_diag(n, s, d), maxulp=8)
        np.testing.assert_allclose(loss.sum(axis=1), np.ones(d), rtol=0, atol=1e-14)

    @staticmethod
    def _comb_rows(s, d, rows):
        """Rows of the loss matrix with each C(n, m) from ``math.comb``, in the kernel's float operations."""
        out = np.zeros((len(rows), d))
        for i, n in enumerate(rows):
            m = np.arange(n + 1)
            comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
            out[i, : n + 1] = comb * s**m * (1.0 - s) ** (n - m)
        return out

    @pytest.mark.parametrize("d", [2, 8, 58, 200])
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.83, 1.0])
    def test_binomial_loss_equals_the_math_comb_build_byte_for_byte(self, s, d):
        assert _binomial_loss(s, d).tobytes() == self._comb_rows(s, d, range(d)).tobytes()

    def test_binomial_loss_at_the_largest_cutoff_keeps_math_comb_rows(self):
        # the whole math.comb build at d = 1030 takes seconds; its first, middle and last rows stand for it
        rows = [0, 514, 1029]
        assert _binomial_loss(0.83, 1030)[rows].tobytes() == self._comb_rows(0.83, 1030, rows).tobytes()

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.8278, 1.0])
    def test_intensity_kernel_is_squared_amplitude(self, s):
        # the binomial loss probabilities are |K|^2 of the loss Kraus amplitudes
        # sqrt(C(n, m)) r^m l^(n - m) at r = sqrt(s), l = sqrt(1 - s)
        d = 10
        r, l = math.sqrt(s), math.sqrt(1.0 - s)
        amp = np.zeros((d, d))
        for n in range(d):
            for m in range(n + 1):
                amp[n, m] = math.sqrt(math.comb(n, m)) * r**m * l ** (n - m)
        probs = _binomial_loss(s, d)
        np.testing.assert_allclose(probs, amp**2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(d), rtol=0, atol=1e-14)
