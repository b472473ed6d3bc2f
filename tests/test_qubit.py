import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from photon_transistor.errors import NumericsError
from photon_transistor.hilbert import QuantumState, pure_state, qutrit_state
from photon_transistor.qubit import (
    QubitRates,
    _propagator_blocks,
    evolve_lindblad,
    exponential_time,
)

RATES = QubitRates(T1_ge=30.0, T1_ef=15.0, T2_ge=20.0, T2_gf=12.0)


def populations(s):
    return np.real(np.diag(s.rho))[:3]


# Reference paths: the full-space RK4 superoperator that evolve_lindblad replaced,
# and the kron sum over collapse operators, exponentiated with expm.


def _embed(op3, dims):
    rest = int(np.prod(dims[1:])) if len(dims) > 1 else 1
    return np.kron(op3, np.eye(rest, dtype=complex))


def _full_collapse_ops(dims, r):
    ket = np.eye(3, dtype=complex)
    ops = [
        math.sqrt(1.0 / r.T1_ge) * np.outer(ket[0], ket[1]),
        math.sqrt(1.0 / r.T1_ef) * np.outer(ket[1], ket[2]),
    ]
    if r.dephasing_ge() > 0:
        ops.append(math.sqrt(2.0 * r.dephasing_ge()) * np.outer(ket[1], ket[1]))
    if r.dephasing_gf() > 0:
        ops.append(math.sqrt(2.0 * r.dephasing_gf()) * np.outer(ket[2], ket[2]))
    if r.thermal_excitation_rate > 0:
        ops.append(math.sqrt(r.thermal_excitation_rate) * np.outer(ket[1], ket[0]))
    return [_embed(op, dims) for op in ops]


def _full_liouvillian(dims, r):
    n = int(np.prod(dims))
    eye = np.eye(n, dtype=complex)
    sup = np.zeros((n * n, n * n), dtype=complex)
    for L in _full_collapse_ops(dims, r):
        ldl = L.conj().T @ L
        sup += np.kron(L, L.conj())
        sup -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def rk4_evolve_lindblad(s, dt, r):
    """Steps of min(dt, T_min/200), the RK4 step polynomial I + D raised to the step count,
    a 1e-6 trace-drift check, then symmetrisation and division by the trace.

    The power is taken by squaring in the form I + D_k, as (I + A)(I + B) = I + (A + B + AB),
    so that D's small entries are never rounded against the identity: over 1e7 steps a
    plain ``matrix_power`` of I + D drifts 1e-10 from the expm of the Liouvillian."""
    t_min = min(r.T1_ge, r.T1_ef, r.T2_ge, r.T2_gf)
    if r.thermal_excitation_rate > 0:
        t_min = min(t_min, 1.0 / r.thermal_excitation_rate)
    n_steps = max(1, math.ceil(dt / (t_min / 200.0)))
    m = (dt / n_steps) * _full_liouvillian(s.dims, r)
    step = np.zeros_like(m)
    acc = np.eye(m.shape[0], dtype=complex)
    for k in (1.0, 2.0, 3.0, 4.0):
        acc = acc @ m / k
        step = step + acc
    power, k = np.zeros_like(m), n_steps
    while k:
        if k & 1:
            power = power + step + power @ step
        step = 2.0 * step + step @ step
        k >>= 1
    n = s.dim
    rho = (s.rho.reshape(-1) + power @ s.rho.reshape(-1)).reshape(n, n)
    drift = abs(np.trace(rho) - 1.0)
    if drift > 1e-6:
        raise NumericsError(f"Lindblad trace drift {drift:.3e} exceeds 1e-6")
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(s.dims, rho / np.real(np.trace(rho)))


def random_state(dims, seed):
    """Full-rank density matrix from a seeded Ginibre draw."""
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return QuantumState(dims, rho / np.real(np.trace(rho)))


@st.composite
def physical_rates(draw):
    t1_ge = draw(st.floats(1.0, 100.0))
    t1_ef = draw(st.floats(1.0, 100.0))
    thermal = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    return QubitRates(
        T1_ge=t1_ge,
        T1_ef=t1_ef,
        T2_ge=draw(st.floats(0.05, 2.0)) * t1_ge,
        T2_gf=draw(st.floats(0.05, 2.0)) * t1_ef,
        thermal_excitation_rate=thermal,
    )


JOINT_DIMS = st.one_of(
    st.just((3,)),
    st.integers(1, 8).map(lambda d: (3, d)),
    st.just((3, 2, 2)),
)


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


class TestAgainstRK4:
    @given(JOINT_DIMS, physical_rates(), st.floats(-3.0, 2.0), st.integers(0, 10_000))
    # 1.3e7 RK4 steps: a plain matrix_power of the step missed the expm here by 1.0013e-10
    @example((3, 2, 2), QubitRates(T1_ge=42.0, T1_ef=1.0, T2_ge=42.0, T2_gf=0.0625, thermal_excitation_rate=1.0),
             2.0, 0)
    @settings(max_examples=60, deadline=None)
    def test_matches_superoperator_path(self, dims, rates, log_dt, seed):
        s = random_state(dims, seed)
        dt = 10.0**log_dt * rates.T1_ge
        out = evolve_lindblad(s, dt, rates)
        assert out.dims == s.dims
        np.testing.assert_allclose(out.rho, rk4_evolve_lindblad(s, dt, rates).rho, rtol=0, atol=1e-10)


@st.composite
def wide_rates(draw):
    """T1 over 0.1-1e6 us; T2 in (0, 2 T1], exactly 2 T1 (no dephasing) included; thermal rate 0 or > 0."""
    t1_ge = draw(st.floats(0.1, 1e6))
    t1_ef = draw(st.floats(0.1, 1e6))
    t2_share = st.one_of(st.just(2.0), st.floats(1e-6, 2.0))
    return QubitRates(
        T1_ge=t1_ge,
        T1_ef=t1_ef,
        T2_ge=draw(t2_share) * t1_ge,
        T2_gf=draw(t2_share) * t1_ef,
        thermal_excitation_rate=draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0))),
    )


def _blocks_from_expm(dt, r):
    """P[to, from] over (g, e, f) and the factors F_ij, read off expm(dt * L) of the kron sum on (3,)."""
    prop = expm(dt * _full_liouvillian((3,), r))
    return prop[np.ix_([0, 4, 8], [0, 4, 8])], np.diag(prop).reshape(3, 3)


def assert_blocks_match_expm(dt, r, atol):
    pop, coh = _propagator_blocks(dt, r)
    pop_oracle, coh_oracle = _blocks_from_expm(dt, r)
    np.testing.assert_allclose(pop, pop_oracle, rtol=0, atol=atol)
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(coh[off], coh_oracle[off], rtol=0, atol=atol)


class TestDissipatorByIndex:
    @given(wide_rates(), st.floats(-3.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_kron_sum(self, rates, log_dt):
        # the closed-form blocks against the expm of the kron sum over collapse operators
        dt = 10.0**log_dt / np.abs(_full_liouvillian((3,), rates)).max()
        assert_blocks_match_expm(dt, rates, 1e-13)

    @pytest.mark.parametrize("rates", [
        QubitRates(T1_ge=7.0, T1_ef=7.0, T2_ge=9.0, T2_gf=3.0),  # s = c: D takes its limit dt * y
        QubitRates(T1_ge=2.0, T1_ef=50.0, T2_ge=4.0, T2_gf=100.0),  # a = 0, c < s
        QubitRates(T1_ge=50.0, T1_ef=2.0, T2_ge=1.0, T2_gf=4.0, thermal_excitation_rate=0.3),
    ])
    @pytest.mark.parametrize("dt", [1e-14, 1e-9, 0.5, 20.0])
    def test_blocks_at_degenerate_and_tiny_rates(self, rates, dt):
        # dt = 1e-14 puts s * dt below 1e-12 for every rate set here
        assert_blocks_match_expm(dt, rates, 1e-15)

    @given(wide_rates(), st.integers(1, 10), st.floats(-3.0, 2.0), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_evolution_matches_kron_expm_path(self, rates, d, log_dt, seed):
        s = random_state((3, d), seed)
        full = _full_liouvillian(s.dims, rates).real  # every collapse operator is real
        # up to 100 of the fastest decay times: expm's own rounding grows like
        # eps * dt * max|L|, so far past that the oracle drifts from the exact map
        dt = 10.0**log_dt / np.abs(full).max()
        oracle = (expm(dt * full) @ s.rho.reshape(-1)).reshape(s.dim, s.dim)
        np.testing.assert_allclose(evolve_lindblad(s, dt, rates).rho, oracle, rtol=0, atol=1e-13)

    def test_stationary_state_far_past_every_decay_time(self):
        # dt * max|L| = 4.2e7, where the rounding of a numerical expm(dt * L) leaves the trace 1.2e-9 off
        a, b = 10.0, 1.0 / 421348.0
        rates = QubitRates(T1_ge=421348.0, T1_ef=1.0, T2_ge=842696.0, T2_gf=2.0, thermal_excitation_rate=a)
        out = evolve_lindblad(random_state((3, 4), 11), 4.2e6, rates)
        assert abs(np.trace(out.rho) - 1.0) <= 1e-15
        pops = np.real(np.diag(out.rho)).reshape(3, 4).sum(axis=1)
        np.testing.assert_allclose(pops, [b / (a + b), a / (a + b), 0.0], rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("name", ["T1_ge", "T1_ef", "T2_ge", "T2_gf", "thermal_excitation_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        fields = dict(T1_ge=10.0, T1_ef=10.0, T2_ge=10.0, T2_gf=10.0, thermal_excitation_rate=0.0)
        key = {"thermal_excitation_rate": "thermal_excitation_rate_per_us"}.get(name, f"{name.lower()}_us")
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            QubitRates(**{**fields, name: value})


class TestJumpSampling:
    def test_infinite_t1_never_jumps(self):
        calm = QubitRates(T1_ge=1e12, T1_ef=1e12, T2_ge=1e12, T2_gf=1e12)
        rng = np.random.default_rng(0)
        assert all(
            exponential_time(1.0 / calm.T1_ge, rng) >= 10.0 for _ in range(1000)
        )

    def test_jump_probability_matches_exponential(self):
        # window = T1 gives P(jump) = 1 - 1/e; check at 3 sigma over 1e5 draws
        rng = np.random.default_rng(1234)
        n = 100_000
        hits = np.count_nonzero(exponential_time(np.full(n, 1.0 / RATES.T1_ge), rng) < RATES.T1_ge)
        p = 1.0 - math.exp(-1.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    def test_deterministic_given_seed(self):
        a = [exponential_time(1.0 / RATES.T1_ef, np.random.default_rng(7)) for _ in range(3)]
        b = [exponential_time(1.0 / RATES.T1_ef, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_array_rates_one_draw_each_zero_is_inf(self):
        rates = np.array([0.5, 0.0, 2.0, 0.0])
        times = exponential_time(rates, np.random.default_rng(4))
        scalar_rng = np.random.default_rng(4)
        expected = [exponential_time(float(r), scalar_rng) for r in rates]
        np.testing.assert_array_equal(times, expected)
        assert np.isinf(times[[1, 3]]).all() and np.isfinite(times[[0, 2]]).all()


def test_unstable_step_raises():
    # artificially tiny trace tolerance cannot be triggered by RK4 here, so
    # drive the guard directly with an absurd dt on nearly-degenerate rates
    s = qutrit_state("e")
    out = evolve_lindblad(s, 1e4, RATES)  # fully decayed, still well-behaved
    assert abs(np.trace(out.rho) - 1.0) < 1e-9
    assert isinstance(NumericsError(), RuntimeError)
