from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from pauliframe import CliffordCircuit, CliffordGate, parse_pauli
from pauliframe.oracle import (
    MAX_QUBITS,
    OracleGuardError,
    amplitudes_squared,
    apply_pauli,
    dense_conjugation_check,
    dense_state_from_circuit,
    fidelity,
    mc_frame_potential,
    pauli_matrix,
    unitary_from_circuit,
)

from conftest import random_clifford_circuit, random_commuting_set


class TestDenseState:
    def test_empty_circuit(self):
        state = dense_state_from_circuit(CliffordCircuit(2))
        assert state[0] == 1 and not state[1:].any()

    def test_hadamard(self):
        state = dense_state_from_circuit(CliffordCircuit(1, (CliffordGate.h(0),)))
        assert np.allclose(state, [1 / math.sqrt(2)] * 2)

    def test_bell_state(self):
        w = CliffordCircuit(2, (CliffordGate.h(0), CliffordGate.cnot(0, 1)))
        state = dense_state_from_circuit(w)
        assert np.allclose(state, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            dense_state_from_circuit(CliffordCircuit(MAX_QUBITS + 1))

    def test_normalized_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            state = dense_state_from_circuit(random_clifford_circuit(n, 30, rng))
            assert abs(np.vdot(state, state).real - 1) < 1e-10

    def test_unitary_matches_state(self):
        rng = np.random.default_rng(43)
        w = random_clifford_circuit(3, 20, rng)
        wm = unitary_from_circuit(w)
        assert np.allclose(wm[:, 0], dense_state_from_circuit(w))
        assert np.allclose(wm @ wm.conj().T, np.eye(8), atol=1e-10)


class TestAmplitudes:
    def test_uniform(self):
        n = 3
        w = CliffordCircuit(n, tuple(CliffordGate.h(q) for q in range(n)))
        probs = amplitudes_squared(dense_state_from_circuit(w))
        assert np.allclose(probs, 2.0**-n)

    def test_basis_state(self):
        probs = amplitudes_squared(dense_state_from_circuit(CliffordCircuit(2)))
        assert probs.tolist() == [1, 0, 0, 0]


class TestPauliMatrices:
    def test_single_qubit_matrices(self):
        X = np.array([[0, 1], [1, 0]])
        Y = np.array([[0, -1j], [1j, 0]])
        Z = np.array([[1, 0], [0, -1]])
        assert np.allclose(pauli_matrix(parse_pauli("X")), X)
        assert np.allclose(pauli_matrix(parse_pauli("Y")), Y)
        assert np.allclose(pauli_matrix(parse_pauli("Z")), Z)
        assert np.allclose(pauli_matrix(parse_pauli("-Y")), -Y)

    def test_tensor_structure(self):
        XZ = np.kron(
            np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])
        )
        assert np.allclose(pauli_matrix(parse_pauli("XZ")), XZ)

    def test_hermitian_and_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            x = rng.integers(0, 2, n).astype(np.uint8)
            z = rng.integers(0, 2, n).astype(np.uint8)
            from pauliframe import PauliString

            m = pauli_matrix(PauliString(n, x, z, -1 if rng.random() < 0.5 else 1))
            assert np.allclose(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(2**n))

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(5)
        p = parse_pauli("-XYZ")
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(apply_pauli(p, v), pauli_matrix(p) @ v)


class TestConjugationCheck:
    def test_h_conjugates_x_to_z(self):
        m = dense_conjugation_check(
            parse_pauli("X"), CliffordCircuit(1, (CliffordGate.h(0),))
        )
        assert np.allclose(m, np.diag([1, -1]))

    def test_empty_circuit_z(self):
        m = dense_conjugation_check(parse_pauli("Z"), CliffordCircuit(1))
        assert np.allclose(m, np.diag([1, -1]))


class TestFidelity:
    def test_equal_parameters(self):
        ops = [parse_pauli("XZ"), parse_pauli("ZX")]
        theta = [0.3, -1.1]
        assert fidelity(ops, theta, theta) == pytest.approx(1.0, abs=1e-12)

    def test_single_z_identically_one(self):
        rng = np.random.default_rng(6)
        ops = [parse_pauli("Z")]
        for _ in range(20):
            a, b = rng.uniform(-math.pi, math.pi, 2)
            assert fidelity(ops, [a], [b]) == pytest.approx(1.0, abs=1e-12)

    def test_single_x_cosine(self):
        ops = [parse_pauli("X")]
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.uniform(-math.pi, math.pi, 2)
            assert fidelity(ops, [a], [b]) == pytest.approx(
                math.cos(a - b) ** 2, abs=1e-12
            )

    def test_shift_invariance_for_commuting_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 4))
            ops = random_commuting_set(n, N, rng)
            theta = rng.uniform(-math.pi, math.pi, N)
            theta_p = rng.uniform(-math.pi, math.pi, N)
            assert fidelity(ops, theta, theta_p) == pytest.approx(
                fidelity(ops, theta - theta_p, np.zeros(N)), abs=1e-10
            )


class TestMonteCarlo:
    def test_single_z_exactly_one(self):
        est, err = mc_frame_potential([parse_pauli("Z")], 3, 10_000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_single_x_cos4(self):
        est, err = mc_frame_potential([parse_pauli("X")], 2, 400_000, seed=2)
        assert abs(est - 3 / 8) < 3 * err

    def test_seed_reproducibility(self):
        ops = [parse_pauli("XX"), parse_pauli("ZZ")]
        a = mc_frame_potential(ops, 2, 50_000, seed=99)
        b = mc_frame_potential(ops, 2, 50_000, seed=99)
        assert a == b

    def test_zero_samples(self):
        with pytest.raises(ValueError):
            mc_frame_potential([parse_pauli("X")], 1, 0, seed=0)

    def test_batch_memory_bounded_at_max_qubits(self):
        # At n = 10 a batch holds 2**22 amplitudes (64 MiB of complex128);
        # the two state batches and one rotation step's temporaries stay
        # under eight of those.  A 2**13-sample batch would need twice that.
        ops = [parse_pauli("X" + "I" * (MAX_QUBITS - 1))]
        tracemalloc.start()
        try:
            est, err = mc_frame_potential(ops, 1, 1 << 13, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << 22) * 16
        assert abs(est - 1 / 2) < 3 * err  # F(1) = E cos^2 = 1/2
