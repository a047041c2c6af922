from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauliframe import (
    CliffordCircuit,
    CliffordGate,
    PauliParseError,
    PauliString,
    check_commuting_set,
    multiply,
    parse_pauli,
)
from pauliframe import gf2
from pauliframe.oracle import pauli_matrix
from pauliframe.pauli import (
    commutes,
    conjugate,
    conjugate_by_circuit,
    conjugate_rows,
    format_pauli,
    multiply_rows,
    pauli_rows,
    row_pauli,
)

from conftest import EXAMPLE_SET_1, inverse_circuit, random_clifford_circuit

pauli_texts = st.builds(
    lambda sign, body: sign + body,
    st.sampled_from(["", "+", "-"]),
    st.text(alphabet="IXYZ", min_size=1, max_size=8),
)


class TestParse:
    def test_worked_h1(self):
        p = parse_pauli("-XXYYY")
        assert p.sign == -1
        assert list(p.x) == [1, 1, 1, 1, 1]
        assert list(p.z) == [0, 0, 1, 1, 1]

    def test_identity_string(self):
        p = parse_pauli("IIIII")
        assert p.sign == 1
        assert not p.x.any() and not p.z.any()
        assert p.is_identity()

    def test_worked_h3(self):
        p = parse_pauli("-IZXXZ")
        assert p.sign == -1
        assert list(p.x) == [0, 0, 1, 1, 0]
        assert list(p.z) == [0, 1, 0, 0, 1]

    def test_unicode_minus(self):
        assert parse_pauli("−Z") == parse_pauli("-Z")

    def test_invalid_character(self):
        with pytest.raises(PauliParseError, match="invalid character"):
            parse_pauli("XQZ")

    def test_empty(self):
        with pytest.raises(PauliParseError, match="empty"):
            parse_pauli("-")

    def test_length_mismatch(self):
        with pytest.raises(PauliParseError, match="expected 3"):
            parse_pauli("XX", n_expected=3)

    @given(pauli_texts)
    def test_round_trip(self, text):
        p = parse_pauli(text)
        assert parse_pauli(format_pauli(p)) == p


class TestCommutes:
    def test_worked_pair(self):
        assert commutes(parse_pauli("XXYYY"), parse_pauli("IYIIX"))

    @given(pauli_texts)
    def test_self_commutation(self, text):
        p = parse_pauli(text)
        assert commutes(p, p)

    def test_x_z_anticommute(self):
        assert not commutes(parse_pauli("X"), parse_pauli("Z"))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            commutes(parse_pauli("X"), parse_pauli("XX"))

    def test_agrees_with_dense_anticommutator(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            p = _random_pauli(n, rng)
            q = _random_pauli(n, rng)
            pm, qm = pauli_matrix(p), pauli_matrix(q)
            dense = np.allclose(pm @ qm - qm @ pm, 0)
            assert commutes(p, q) == dense


class TestCheckCommutingSet:
    def test_worked_set(self, example_ops_1):
        assert check_commuting_set(example_ops_1) is None

    def test_singleton(self):
        assert check_commuting_set([parse_pauli("Z")]) is None

    def test_first_violating_pair(self):
        ops = [parse_pauli(s) for s in ["XX", "ZI", "IZ"]]
        assert check_commuting_set(ops) == (0, 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            check_commuting_set([])

    def test_mixed_lengths(self):
        with pytest.raises(ValueError):
            check_commuting_set([parse_pauli("X"), parse_pauli("XX")])

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=12
    )))
    def test_matches_pairwise_commutes(self, texts):
        ops = [parse_pauli(t) for t in texts]
        first = next(
            ((i, j) for i, j in itertools.combinations(range(len(ops)), 2)
             if not commutes(ops[i], ops[j])),
            None,
        )
        assert check_commuting_set(ops) == first

    def test_first_pair_past_the_first_row_block(self):
        # 2100 operators are checked in several row blocks; the first
        # anticommuting pair is (1200, 1800), in a later block.
        texts = ["IZ"] * 2100
        texts[1200], texts[1800] = "ZI", "XI"
        ops = [parse_pauli(t) for t in texts]
        assert check_commuting_set(ops) == (1200, 1800)


class TestConjugate:
    def test_h_maps_x_to_z(self):
        assert conjugate(parse_pauli("X"), CliffordGate.h(0)) == parse_pauli("Z")

    def test_identity_fixed(self):
        p = parse_pauli("III")
        for g in [CliffordGate.h(1), CliffordGate.s(0), CliffordGate.cnot(0, 2)]:
            assert conjugate(p, g) == p

    def test_x_gate_flips_z(self):
        assert conjugate(parse_pauli("Z"), CliffordGate.x(0)) == parse_pauli("-Z")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            conjugate(parse_pauli("X"), CliffordGate.h(1))

    def test_empty_circuit(self):
        p = parse_pauli("-XYZ")
        assert conjugate_by_circuit(p, CliffordCircuit(3)) == p

    def test_single_h_circuit(self):
        w = CliffordCircuit(1, (CliffordGate.h(0),))
        assert conjugate_by_circuit(parse_pauli("X"), w) == parse_pauli("Z")

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(11)
        from pauliframe.oracle import unitary_from_circuit

        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = _random_pauli(n, rng)
            w = random_clifford_circuit(n, 10, rng)
            got = conjugate_by_circuit(p, w)
            wm = unitary_from_circuit(w)
            dense = wm @ pauli_matrix(p) @ wm.conj().T
            assert np.allclose(pauli_matrix(got), dense, atol=1e-10)

    def test_involution_via_inverse_circuit(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            p = _random_pauli(n, rng)
            w = random_clifford_circuit(n, 15, rng)
            back = conjugate_by_circuit(
                conjugate_by_circuit(p, w), inverse_circuit(w)
            )
            assert back == p

    def test_hermiticity_exhaustive(self):
        # Every signed 2-qubit string under every gate stays sign +-1;
        # PauliString construction rejects anything else.
        n = 2
        gates = [
            CliffordGate.h(0), CliffordGate.h(1),
            CliffordGate.s(0), CliffordGate.s(1),
            CliffordGate.x(0), CliffordGate.z(1),
            CliffordGate.cnot(0, 1), CliffordGate.cnot(1, 0),
            CliffordGate.cz(0, 1),
        ]
        for bits in itertools.product([0, 1], repeat=2 * n):
            for sign in (1, -1):
                p = PauliString(
                    n,
                    np.array(bits[:n], dtype=np.uint8),
                    np.array(bits[n:], dtype=np.uint8),
                    sign,
                )
                for g in gates:
                    out = conjugate(p, g)
                    assert out.sign in (1, -1)
                    assert np.allclose(
                        pauli_matrix(out),
                        pauli_matrix(out).conj().T,
                    )


class TestMultiply:
    def test_zz_is_identity(self):
        p = parse_pauli("Z")
        assert multiply(p, p) == parse_pauli("I")

    def test_commuting_product_matches_dense(self):
        rng = np.random.default_rng(19)
        found = 0
        while found < 30:
            n = int(rng.integers(1, 4))
            p = _random_pauli(n, rng)
            q = _random_pauli(n, rng)
            if not commutes(p, q):
                continue
            found += 1
            prod = multiply(p, q)
            assert np.allclose(
                pauli_matrix(prod), pauli_matrix(p) @ pauli_matrix(q)
            )

    def test_anticommuting_product_raises(self):
        with pytest.raises(ValueError, match="imaginary"):
            multiply(parse_pauli("X"), parse_pauli("Z"))


class TestMultiplyRows:
    def test_many_rows_match_multiply_and_dense_product(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            pivot = _random_pauli(n, rng)
            ops = [pivot]
            while len(ops) < 12:
                q = _random_pauli(n, rng)
                if commutes(q, pivot):
                    ops.append(q)
            x, z, r = pauli_rows(ops)
            rows = np.flatnonzero(rng.random(len(ops) - 1) < 0.7) + 1
            multiply_rows(x, z, r, rows, 0)
            for k, op in enumerate(ops):
                got = row_pauli(x, z, r, k)
                if k in rows:
                    assert got == multiply(op, pivot)
                    assert np.allclose(
                        pauli_matrix(got), pauli_matrix(op) @ pauli_matrix(pivot)
                    )
                else:
                    assert got == op

    def test_anticommuting_row_raises(self):
        x, z, r = pauli_rows([parse_pauli(s) for s in ["XI", "ZZ", "ZI"]])
        with pytest.raises(ValueError, match="imaginary"):
            multiply_rows(x, z, r, [1, 2], 0)


class TestInvariants:
    def test_hold_after_every_gate(self):
        # Rows X_1..X_n, Z_1..Z_n keep full rank and the symplectic form
        # [[0, I], [I, 0]] under conjugate_rows: Clifford conjugation is
        # a symplectic map.
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
            x = np.concatenate([eye, zero])
            z = np.concatenate([zero, eye])
            r = np.zeros(2 * n, dtype=np.uint8)
            form = np.block([[zero, eye], [eye, zero]])
            for g in random_clifford_circuit(n, 25, rng).gates:
                conjugate_rows(x, z, r, g)
                assert gf2.rank(np.concatenate([x, z], axis=1)) == 2 * n
                xi, zi = x.astype(np.int64), z.astype(np.int64)
                assert np.array_equal((xi @ zi.T + zi @ xi.T) % 2, form)


def _random_pauli(n, rng) -> PauliString:
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    z = rng.integers(0, 2, size=n).astype(np.uint8)
    sign = -1 if rng.random() < 0.5 else 1
    return PauliString(n, x, z, sign)
