from __future__ import annotations

import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliframe import (
    CliffordCircuit,
    CliffordGate,
    PauliString,
    build_distribution,
    check_commuting_set,
    gf2,
    multiply,
    parse_pauli,
    simultaneous_diagonalize,
)
from pauliframe.oracle import (
    MAX_QUBITS,
    OracleGuardError,
    _BLOCK,
    _apply_gate,
    _plan,
    bits_to_index,
    dense_diagonal,
    fidelity,
    mc_frame_potential,
    pauli_permutation,
    unitary_from_circuit,
)

from conftest import (
    apply_pauli,
    conjugate_ops,
    dense_conjugation_check,
    mc_frame_potential_dense,
    pauli_matrix,
    random_clifford_circuit,
    random_commuting_set,
    sets_with_dependent_rows,
)


def ranked_commuting_set(n: int, rho: int, extra: int, rng) -> list[PauliString]:
    """rho + extra commuting signed strings on n qubits, X-block of rank rho.

    Z-type rows whose first rho are Z on qubit q < rho (plus Z letters on
    qubits >= rho) become X letters on the qubits < rho under H there; a
    random {CNOT, CZ, S} circuit then mixes in Y and Z letters and keeps
    the rank of the X-block.
    """
    z = rng.integers(0, 2, size=(rho + extra, n)).astype(np.uint8)
    z[:rho, :rho] = np.eye(rho, dtype=np.uint8)
    for row in z:
        if not row.any():
            row[rng.integers(n)] = 1
    gates = [CliffordGate("H", (q,)) for q in range(rho)]
    for _ in range(3 * n):
        a, b = (int(q) for q in rng.integers(n, size=2))
        if a == b:
            gates.append(CliffordGate("S", (a,)))
        else:
            gates.append(CliffordGate(("CNOT", "CZ")[rng.integers(2)], (a, b)))
    w = CliffordCircuit(n, tuple(gates))
    signs = rng.choice([-1, 1], size=len(z))
    zeros = np.zeros(n, dtype=np.uint8)
    return conjugate_ops(
        [PauliString(n, zeros, row, int(sign)) for row, sign in zip(z, signs)], w
    )


def mc_terms(engine, *args):
    """engine(*args) and every list it hands to math.fsum.

    The lists hold each sample's |overlap|**(2t) and its square, so two
    engines compared this way agree sample by sample, not only after the
    rounding of the mean.
    """
    terms = []
    fsum = math.fsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(math, "fsum", lambda xs: terms.append(xs) or fsum(xs))
        return engine(*args), terms


@st.composite
def commuting_sets(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    rho = draw(st.integers(0, n))
    extra = draw(st.integers(0 if rho else 1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ranked_commuting_set(n, rho, extra, rng)


def dense_state(w: CliffordCircuit) -> np.ndarray:
    """W|0...0>, the first column of the unitary of W."""
    return unitary_from_circuit(w)[:, 0]


class TestDenseState:
    def test_empty_circuit(self):
        state = dense_state(CliffordCircuit(2))
        assert state[0] == 1 and not state[1:].any()

    def test_hadamard(self):
        state = dense_state(CliffordCircuit(1, (CliffordGate("H", (0,)),)))
        assert np.allclose(state, [1 / math.sqrt(2)] * 2)

    def test_bell_state(self):
        w = CliffordCircuit(2, (CliffordGate("H", (0,)), CliffordGate("CNOT", (0, 1))))
        state = dense_state(w)
        assert np.allclose(state, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            unitary_from_circuit(CliffordCircuit(MAX_QUBITS + 1))

    def test_normalized_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            state = dense_state(random_clifford_circuit(n, 30, rng))
            assert abs(np.vdot(state, state).real - 1) < 1e-10

    def test_unitary_matches_state(self):
        # The unitary's first column is the state that the same gates,
        # applied to the vector |0...0> alone, produce.
        rng = np.random.default_rng(43)
        w = random_clifford_circuit(3, 20, rng)
        wm = unitary_from_circuit(w)
        vec = np.zeros(8, dtype=np.complex128)
        vec[0] = 1.0
        for g in w.gates:
            _apply_gate(vec, g, w.n)
        assert np.allclose(wm[:, 0], vec)
        assert np.allclose(wm @ wm.conj().T, np.eye(8), atol=1e-10)


class TestAmplitudes:
    def test_uniform(self):
        n = 3
        w = CliffordCircuit(n, tuple(CliffordGate("H", (q,)) for q in range(n)))
        probs = np.abs(dense_state(w)) ** 2
        assert np.allclose(probs, 2.0**-n)

    def test_basis_state(self):
        probs = np.abs(dense_state(CliffordCircuit(2))) ** 2
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
            parse_pauli("X"), CliffordCircuit(1, (CliffordGate("H", (0,)),))
        )
        assert np.allclose(m, np.diag([1, -1]))

    def test_empty_circuit_z(self):
        m = dense_conjugation_check(parse_pauli("Z"), CliffordCircuit(1))
        assert np.allclose(m, np.diag([1, -1]))


class TestDenseDiagonal:
    def test_equals_the_dense_conjugation(self):
        rng = np.random.default_rng(44)
        for _ in range(12):
            n = int(rng.integers(1, 6))
            ops = random_commuting_set(n, int(rng.integers(1, 5)), rng)
            w = simultaneous_diagonalize(ops).circuit
            for op in ops:
                m = dense_conjugation_check(op, w)
                assert dense_diagonal(op, w).tolist() == np.rint(np.diag(m).real).tolist()

    def test_raises_when_the_circuit_does_not_diagonalize(self):
        w = simultaneous_diagonalize([parse_pauli("XX"), parse_pauli("ZZ")]).circuit
        for text in ("XI", "IY", "XZ"):
            with pytest.raises(ValueError, match="not diagonal"):
                dense_diagonal(parse_pauli(text), w)
        with pytest.raises(ValueError, match="not diagonal"):
            dense_diagonal(parse_pauli("X"), CliffordCircuit(1))


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

    def test_seeded_value_is_pinned(self, example_ops_1):
        # Recorded from the out-of-place rotation update; the in-place
        # one performs the same floating-point operations.
        assert mc_frame_potential(example_ops_1, 2, 3000, seed=11) == (
            0.01593529014686682,
            0.0009928495182048695,
        )

    def test_zero_samples(self):
        with pytest.raises(ValueError):
            mc_frame_potential([parse_pauli("X")], 1, 0, seed=0)

    def test_batch_memory_bounded_at_max_qubits(self):
        # At n = 10 a draw batch is 2**12 samples, one state of 2**22
        # amplitudes (64 MiB of complex128) if evolved whole; blocks of
        # _BLOCK amplitudes keep the peak far under five of those.
        ops = [parse_pauli("X" + "I" * (MAX_QUBITS - 1))]
        tracemalloc.start()
        try:
            est, err = mc_frame_potential(ops, 1, 1 << 13, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * (1 << 22) * 16
        assert abs(est - 1 / 2) < 3 * err  # F(1) = E cos^2 = 1/2


def y_heavy_set(n: int, rng) -> list[PauliString]:
    """Y-type strings, which commute pairwise; one with an odd number of Y
    letters has phases +-i."""
    return [
        PauliString(n, y, y, int(rng.choice([-1, 1])))
        for y in rng.integers(0, 2, size=(n + 2, n)).astype(np.uint8)
        if y.any()
    ]


def assert_terms_are_fidelities(ops, samples, seed):
    """The t = 1 terms of mc_frame_potential are fidelity(theta, theta') of
    the seed's Philox draws, sample by sample."""
    num = len(ops)
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.uniform(-math.pi, math.pi, size=(samples, 2 * num))
    terms = mc_terms(mc_frame_potential, ops, 1, samples, seed)[1][0]
    expected = [fidelity(ops, d[:num], d[num:]) for d in draws]
    assert np.abs(np.subtract(terms, expected)).max() < 1e-12


class TestShiftIdentity:
    """Each Monte-Carlo sample is |<0|U(theta' - theta)|0>|^2, which equals
    the two-state fidelity because the H_j commute."""

    @settings(max_examples=100, deadline=None)
    @given(commuting_sets(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_terms_are_two_state_fidelities(self, ops, samples, seed):
        assert_terms_are_fidelities(ops, samples, seed)

    def test_y_heavy_sets(self):
        rng = np.random.default_rng(34)
        for n in (2, 5, 7):
            assert_terms_are_fidelities(y_heavy_set(n, rng), 50, n)

    def test_sets_with_dependent_rows(self):
        for k, ops in enumerate(sets_with_dependent_rows(np.random.default_rng(35), 30)):
            assert_terms_are_fidelities(ops, 20, k)


class TestReachableRows:
    """The Monte-Carlo engine evolves only the basis states U(theta)|0...0>
    reaches, in blocks; it must give the floats of evolving all 2**n rows."""

    def test_ranked_sets_have_the_requested_rank(self):
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            for rho in range(n + 1):
                ops = ranked_commuting_set(n, rho, 2, rng)
                assert gf2.rank(np.stack([op.x for op in ops])) == rho

    @settings(max_examples=200, deadline=None)
    @given(
        commuting_sets(),
        st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 2500)),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_all_rows_engine(self, ops, samples, t, seed):
        args = (ops, t, samples, seed)
        assert mc_terms(mc_frame_potential, *args) == mc_terms(
            mc_frame_potential_dense, *args
        )

    @pytest.mark.parametrize("rho", [2, 5, 7])
    def test_one_sample_past_a_block(self, rho):
        # A block holds _BLOCK / 2**rho samples; a lone leftover sample
        # forms a one-column block, whose floats are those of any other.
        ops = ranked_commuting_set(7, rho, 1, np.random.default_rng(rho))
        for samples in ((_BLOCK >> rho) + 1, 3 * (_BLOCK >> rho) + 1):
            args = (ops, 2, samples, rho)
            assert mc_terms(mc_frame_potential, *args) == mc_terms(
                mc_frame_potential_dense, *args
            )

    def test_z_only_set_reaches_only_zero(self):
        ops = [parse_pauli(s) for s in ("ZII", "-IZI", "ZZZ", "-IIZ")]
        assert _plan([pauli_permutation(op) for op in ops])[0].tolist() == [0]
        for samples in (1, 2, 5, (1 << 14) + 1):
            args = (ops, 3, samples, samples)
            got = mc_terms(mc_frame_potential, *args)
            assert got == mc_terms(mc_frame_potential_dense, *args)
            assert got[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_all_rows_engine_across_a_draw_batch(self):
        # At n = 8 a draw batch is 2**14 samples: this run takes one full
        # batch of 64 blocks and a second batch of 37 samples.
        ops = ranked_commuting_set(8, 6, 2, np.random.default_rng(2024))
        args = (ops, 2, (1 << 14) + 37, 17)
        assert mc_terms(mc_frame_potential, *args) == mc_terms(
            mc_frame_potential_dense, *args
        )

    @settings(max_examples=60, deadline=None)
    @given(commuting_sets(max_n=8))
    def test_rows_are_the_row_space_of_the_x_block(self, ops):
        n = ops[0].n
        rows = np.sort(_plan([pauli_permutation(op) for op in ops])[0])
        basis = gf2.row_space_basis(np.stack([op.x for op in ops]))
        span = bits_to_index(gf2.coset(basis, np.zeros(n, dtype=np.uint8)))
        assert rows.tolist() == np.sort(span).tolist()
        assert len(rows) == build_distribution(ops).support_size

    def test_memory_at_max_qubits_full_rank(self):
        # X on each of 10 qubits: rho = 10 and every row is reachable.  A
        # draw batch is 4096 samples, whose two 2**22-amplitude state
        # batches took 64 MiB each when evolved whole.
        ops = [
            parse_pauli("I" * q + "X" + "I" * (MAX_QUBITS - 1 - q))
            for q in range(MAX_QUBITS)
        ]
        tracemalloc.start()
        try:
            est, err = mc_frame_potential(ops, 1, 4096 + 3, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert abs(est - 2.0**-MAX_QUBITS) < 5 * err  # F(1) = (E cos^2)^10


def assert_same_terms(ops, t, samples, seed):
    args = (ops, t, samples, seed)
    assert mc_terms(mc_frame_potential, *args) == mc_terms(mc_frame_potential_dense, *args)


class TestGrowthOrder:
    """The plan evolves U(theta)|0...0> on the rows spanned so far."""

    @settings(max_examples=60, deadline=None)
    @given(commuting_sets(max_n=8))
    def test_step_j_acts_on_the_span_of_the_first_j_masks(self, ops):
        rows, steps = _plan([pauli_permutation(op) for op in ops])
        x = np.stack([op.x for op in ops])
        for j, (axes, f) in enumerate(steps):
            acted = 2 * len(f) if axes is None else len(f)
            assert acted == 2 ** gf2.rank(x[: j + 1])
        grown = bits_to_index(x)[[axes is None for axes, _ in steps]].tolist()
        for k, row in enumerate(rows.tolist()):
            picked = [m for b, m in enumerate(grown) if k >> b & 1]
            assert row == functools.reduce(operator.xor, picked, 0)

    def test_a_mask_repeated_before_the_span_is_full(self):
        a, b, c, d = ranked_commuting_set(6, 4, 0, np.random.default_rng(31))
        ops = [a, b, multiply(a, b), PauliString(6, a.x, a.z, -a.sign), c, d]
        assert check_commuting_set(ops) is None
        steps = _plan([pauli_permutation(op) for op in ops])[1]
        assert [axes for axes, _ in steps] == [None, None, (1, 0), (1,), None, None]
        for samples in (1, 7, 600):
            assert_same_terms(ops, 2, samples, samples)

    def test_a_z_only_first_operator_adds_no_row(self):
        ops = [parse_pauli(s) for s in ("-ZZI", "XXI", "IIX", "YYX")]
        assert check_commuting_set(ops) is None
        steps = _plan([pauli_permutation(op) for op in ops])[1]
        assert [axes for axes, _ in steps] == [(), None, None, (1, 0)]
        for samples in (1, 2, 900):
            assert_same_terms(ops, 3, samples, samples)

    def test_y_heavy_sets(self):
        # Y-type strings commute pairwise; one with an odd number of Y
        # letters has phases +-i.
        rng = np.random.default_rng(32)
        for n in (2, 5, 7):
            ops = [
                PauliString(n, y, y, int(rng.choice([-1, 1])))
                for y in rng.integers(0, 2, size=(n + 2, n)).astype(np.uint8)
                if y.any()
            ]
            assert_same_terms(ops, 2, 700, n)

    def test_full_rank_at_eight_qubits_across_a_draw_batch(self):
        ops = ranked_commuting_set(8, 8, 0, np.random.default_rng(33))
        assert_same_terms(ops, 2, (1 << 14) + 37, 19)

    def test_a_sequence_of_t_values_shares_one_run(self, example_ops_1):
        together = mc_frame_potential(example_ops_1, [2, 1, 2, 5], 3001, 12)
        alone = [mc_frame_potential(example_ops_1, t, 3001, 12) for t in (2, 1, 2, 5)]
        assert together == alone
