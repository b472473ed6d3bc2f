import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_transistor.errors import CutoffError, CutoffWarning, StateInvariantError
from photon_transistor.hilbert import (
    QuantumState,
    coherent_state,
    fock_state,
    mean_photon,
    pure_state,
    qutrit_state,
)


def poisson_weight(nbar, k):
    return math.exp(-nbar) * nbar**k / math.factorial(k)


class TestFockState:
    def test_vacuum(self):
        s = fock_state(0, 5)
        assert s.rho[0, 0] == 1.0
        assert np.trace(s.rho) == pytest.approx(1.0)

    def test_fock_one(self):
        s = fock_state(1, 5)
        assert s.rho[1, 1] == 1.0
        assert np.count_nonzero(s.rho) == 1

    def test_cutoff_violation(self):
        with pytest.raises(CutoffError):
            fock_state(5, 5)


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self):
        s = coherent_state(0.0, 8)
        np.testing.assert_allclose(s.rho, fock_state(0, 8).rho, atol=1e-15)

    def test_mean_photon_number(self):
        s = coherent_state(math.sqrt(0.18), 8)
        assert mean_photon(s, 0) == pytest.approx(0.18, abs=1e-6)

    def test_poisson_weights(self):
        # P(0) = 0.8353, P(1) = 0.1503 for nbar = 0.18
        s = coherent_state(math.sqrt(0.18), 8)
        assert np.real(s.rho[0, 0]) == pytest.approx(poisson_weight(0.18, 0), abs=1e-4)
        assert np.real(s.rho[1, 1]) == pytest.approx(poisson_weight(0.18, 1), abs=1e-4)
        assert np.real(s.rho[0, 0]) == pytest.approx(0.8353, abs=1e-4)
        assert np.real(s.rho[1, 1]) == pytest.approx(0.1503, abs=1e-4)

    def test_cutoff_adequacy_warning(self):
        with pytest.warns(CutoffWarning):
            coherent_state(2.0, 8)  # |alpha|^2 = 4 > 8/4

    @given(st.floats(0.05, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_mean_matches_nbar_within_truncation(self, nbar):
        d = 8
        s = coherent_state(math.sqrt(nbar), d)
        bound = math.exp(-d) * d**d / math.factorial(d) + 1e-9
        assert abs(mean_photon(s, 0) - nbar) < bound


def product(a: QuantumState, b: QuantumState) -> QuantumState:
    return QuantumState(a.dims + b.dims, np.kron(a.rho, b.rho))


class TestTensorAndPartialTrace:
    """``mean_photon`` on states over tensor products: the diagonal summed over the other subsystems."""

    def test_round_trip_product_state(self):
        a = coherent_state(0.3 + 0.2j, 6)
        b = qutrit_state("e")
        joint = product(a, b)
        assert mean_photon(joint, 0) == pytest.approx(mean_photon(a, 0), abs=1e-12)
        assert mean_photon(joint, 1) == pytest.approx(mean_photon(b, 0), abs=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 1 / math.sqrt(2)  # (|00> + |11>)/sqrt2
        s = pure_state(vec, (2, 2))
        assert mean_photon(s, 0) == pytest.approx(0.5, abs=1e-12)
        assert mean_photon(s, 1) == pytest.approx(0.5, abs=1e-12)

    def test_gate_qubit_entangled_state_reduces_to_fock_one(self):
        # (|g>|1> - |e>|1>)/sqrt2: the field is |1> whatever the qubit, and the
        # qubit's level index averages to 1/2
        vec = np.zeros(3 * 4, dtype=complex)
        vec[0 * 4 + 1] = 1 / math.sqrt(2)
        vec[1 * 4 + 1] = -1 / math.sqrt(2)
        s = pure_state(vec, (3, 4))
        assert mean_photon(s, 1) == pytest.approx(1.0, abs=1e-12)
        assert mean_photon(s, 0) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_keep_index(self):
        s = product(qutrit_state("g"), fock_state(0, 2))
        for mode in (2, -1):
            with pytest.raises(ValueError, match="mode"):
                mean_photon(s, mode)
        with pytest.raises(ValueError, match="mode"):
            mean_photon(fock_state(0, 2), 1)

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_reduced_density_matrix(self, d0, d1, seed):
        # oracle: trace the other mode out of rho, then Tr[rho_red n_hat]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(d0 * d1, d0 * d1)) + 1j * rng.normal(size=(d0 * d1, d0 * d1))
        rho = x @ x.conj().T
        s = QuantumState((d0, d1), rho / np.trace(rho))
        r = s.rho.reshape(d0, d1, d0, d1)
        for mode, red in ((0, np.einsum("ajbj->ab", r)), (1, np.einsum("iaib->ab", r))):
            expected = float(np.dot(np.arange(red.shape[0]), np.real(np.diag(red))))
            assert mean_photon(s, mode) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert mean_photon(fock_state(0, 6), 0) == 0.0

    def test_fock_one(self):
        assert mean_photon(fock_state(1, 6), 0) == pytest.approx(1.0, abs=1e-12)

    def test_mode_selection_in_product(self):
        s = product(qutrit_state("g"), fock_state(2, 5))
        assert mean_photon(s, 1) == pytest.approx(2.0, abs=1e-12)


class TestInvariants:
    def test_trace_enforced(self):
        with pytest.raises(StateInvariantError):
            QuantumState((2,), np.diag([0.7, 0.7]))

    def test_hermiticity_enforced(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(StateInvariantError):
            QuantumState((2,), rho)

    def test_positivity_enforced(self):
        rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(StateInvariantError):
            QuantumState((2,), rho)

    def test_rho_is_immutable(self):
        s = fock_state(0, 3)
        with pytest.raises(ValueError):
            s.rho[0, 0] = 0.5

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_pure_states_valid(self, d, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = pure_state(vec, (d,))
        assert np.trace(s.rho) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(s.rho).min() > -1e-10

