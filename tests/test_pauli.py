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
    PauliRows,
    PauliString,
    build_distribution,
    check_commuting_set,
    multiply,
    parse_pauli,
    simultaneous_diagonalize,
    verify_diagonalization,
)
from pauliframe.oracle import mc_frame_potential
from pauliframe.pauli import conjugate_rows, format_pauli, multiply_rows

from conftest import (
    EXAMPLE_SET_1,
    EXAMPLE_SET_3,
    commutes,
    conjugate_ops,
    inverse_circuit,
    parse_pauli_reference,
    pauli_matrix,
    random_clifford_circuit,
    rank,
)

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
        assert hash(parse_pauli("−Z")) == hash(parse_pauli("-Z"))

    def test_invalid_character(self):
        with pytest.raises(PauliParseError, match="invalid character"):
            parse_pauli("XQZ")

    def test_empty(self):
        with pytest.raises(PauliParseError, match="empty"):
            parse_pauli("-")

    def test_length_mismatch(self):
        # The first string's length is the one every later string must have.
        with pytest.raises(PauliParseError, match="expected 3 qubits, got 2 in 'XX'") as exc:
            PauliRows.from_strings(["XXX", "ZZZ", "XX"])
        assert exc.value.index == 2

    @given(pauli_texts)
    def test_round_trip(self, text):
        p = parse_pauli(text)
        assert parse_pauli(format_pauli(p)) == p

    @given(st.text(alphabet="IXYZQx +-−\t", max_size=8), st.none() | st.integers(1, 4))
    def test_matches_the_per_character_reference(self, text, n):
        # A first string of n letters sets the length that text must have.
        texts = [text] if n is None else ["I" * n, text]
        try:
            expected = parse_pauli_reference(text, n)
        except PauliParseError as exc:
            with pytest.raises(PauliParseError) as got:
                PauliRows.from_strings(texts)
            assert str(got.value) == str(exc)
        else:
            assert PauliRows.from_strings(texts)[-1] == expected


class TestPauliRows:
    def test_rows_and_items(self):
        ops = PauliRows.from_strings(["-XYZ", "+IZI", "−YYI"])
        assert (ops.n, len(ops)) == (3, 3)
        assert ops.x.tolist() == [[1, 1, 0], [0, 0, 0], [1, 1, 0]]
        assert ops.z.tolist() == [[0, 1, 1], [0, 1, 0], [1, 1, 0]]
        assert ops.r.tolist() == [1, 0, 1]
        assert list(ops) == [parse_pauli(s) for s in ["-XYZ", "IZI", "-YYI"]]
        assert ops[-1] == parse_pauli("-YYI")

    def test_stack_inverts_iteration(self):
        ops = PauliRows.from_strings(EXAMPLE_SET_1)
        again = PauliRows.stack(list(ops))
        for a, b in ((ops.x, again.x), (ops.z, again.z), (ops.r, again.r)):
            assert a.dtype == b.dtype == np.uint8 and np.array_equal(a, b)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty operator list"):
            PauliRows.stack([])
        with pytest.raises(ValueError, match="empty operator list"):
            PauliRows(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def test_no_strings_rejected(self):
        with pytest.raises(ValueError, match="empty operator list"):
            PauliRows.from_strings([])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="mixed qubit counts"):
            PauliRows.stack([parse_pauli("X"), parse_pauli("XX")])
        with pytest.raises(ValueError, match="bad row shapes"):
            PauliRows(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="bad row shapes"):
            PauliRows(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="bad row shapes"):
            PauliRows(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros(2))

    def test_identity_rows_only_where_asked(self):
        assert PauliRows.from_strings(["XX", "II"])[1].is_identity()
        with pytest.raises(PauliParseError, match="global phase") as exc:
            PauliRows.from_strings(["XX", "-II"], identity=False)
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "call",
        [
            check_commuting_set,
            build_distribution,
            simultaneous_diagonalize,
            lambda ops: verify_diagonalization(ops, simultaneous_diagonalize(ops)),
            lambda ops: mc_frame_potential(ops, [1, 2], 50, seed=3),
        ],
        ids=["check", "distribution", "diagonalize", "verify", "monte-carlo"],
    )
    @pytest.mark.parametrize("texts", [EXAMPLE_SET_1, EXAMPLE_SET_3], ids=["set1", "set3"])
    def test_library_functions_leave_the_set_unchanged(self, call, texts):
        # EXAMPLE_SET_3 has rows that the X-block elimination rewrites.
        ops = PauliRows.from_strings(texts)
        before = [a.tobytes() for a in (ops.x, ops.z, ops.r)]
        call(ops)
        assert [a.tobytes() for a in (ops.x, ops.z, ops.r)] == before

    def test_arrays_are_read_only_copies(self):
        x = np.eye(2, dtype=np.uint8)
        ops = PauliRows(x, x, np.zeros(2, dtype=np.uint8))
        x[0, 0] = 0
        assert ops.x[0, 0] == 1 and ops.z[0, 0] == 1
        for a in (ops.x, ops.z, ops.r):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        for a in ops.copies():
            a[0] = 1 - a[0]  # writable copies, apart from the set
        assert ops.x.tolist() == ops.z.tolist() == [[1, 0], [0, 1]] and not ops.r.any()


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
        assert check_commuting_set(PauliRows.from_strings(["Z"])) is None

    def test_first_violating_pair(self):
        ops = PauliRows.from_strings(["XX", "ZI", "IZ"])
        assert check_commuting_set(ops) == (0, 1)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=12
    )))
    def test_matches_pairwise_commutes(self, texts):
        ops = PauliRows.from_strings(texts)
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
        ops = PauliRows.from_strings(texts)
        assert check_commuting_set(ops) == (1200, 1800)


def conjugate(p: PauliString, g: CliffordGate) -> PauliString:
    """g p g† by the row engine, on a circuit of one gate."""
    (out,) = conjugate_ops([p], CliffordCircuit(p.n, (g,)))
    return out


class TestConjugate:
    def test_h_maps_x_to_z(self):
        assert conjugate(parse_pauli("X"), CliffordGate("H", (0,))) == parse_pauli("Z")

    def test_identity_fixed(self):
        p = parse_pauli("III")
        for g in [CliffordGate("H", (1,)), CliffordGate("S", (0,)), CliffordGate("CNOT", (0, 2))]:
            assert conjugate(p, g) == p

    def test_x_gate_flips_z(self):
        assert conjugate(parse_pauli("Z"), CliffordGate("X", (0,))) == parse_pauli("-Z")

    def test_out_of_range(self):
        x, z, r = PauliRows.from_strings(["X"]).copies()
        with pytest.raises(ValueError, match="out of range"):
            conjugate_rows(x, z, r, CliffordGate("H", (1,)))

    def test_empty_circuit(self):
        p = parse_pauli("-XYZ")
        assert list(conjugate_ops([p], CliffordCircuit(3))) == [p]

    def test_single_h_circuit(self):
        w = CliffordCircuit(1, (CliffordGate("H", (0,)),))
        assert list(conjugate_ops([parse_pauli("X")], w)) == [parse_pauli("Z")]

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(11)
        from pauliframe.oracle import unitary_from_circuit

        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = _random_pauli(n, rng)
            w = random_clifford_circuit(n, 10, rng)
            (got,) = conjugate_ops([p], w)
            wm = unitary_from_circuit(w)
            dense = wm @ pauli_matrix(p) @ wm.conj().T
            assert np.allclose(pauli_matrix(got), dense, atol=1e-10)

    def test_involution_via_inverse_circuit(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            p = _random_pauli(n, rng)
            w = random_clifford_circuit(n, 15, rng)
            back = conjugate_ops(conjugate_ops([p], w), inverse_circuit(w))
            assert list(back) == [p]

    def test_hermiticity_exhaustive(self):
        # Every signed 2-qubit string under every gate stays sign +-1;
        # PauliString construction rejects anything else.
        n = 2
        gates = [
            CliffordGate("H", (0,)), CliffordGate("H", (1,)),
            CliffordGate("S", (0,)), CliffordGate("S", (1,)),
            CliffordGate("X", (0,)), CliffordGate("Z", (1,)),
            CliffordGate("CNOT", (0, 1)), CliffordGate("CNOT", (1, 0)),
            CliffordGate("CZ", (0, 1)),
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
            x, z, r = PauliRows.stack(ops).copies()
            rows = np.flatnonzero(rng.random(len(ops) - 1) < 0.7) + 1
            multiply_rows(x, z, r, rows, 0)
            for k, op in enumerate(ops):
                got = PauliRows(x, z, r)[k]
                if k in rows:
                    assert got == multiply(op, pivot)
                    assert np.allclose(
                        pauli_matrix(got), pauli_matrix(op) @ pauli_matrix(pivot)
                    )
                else:
                    assert got == op

    def test_anticommuting_row_raises(self):
        x, z, r = PauliRows.from_strings(["XI", "ZZ", "ZI"]).copies()
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
                assert rank(np.concatenate([x, z], axis=1)) == 2 * n
                xi, zi = x.astype(np.int64), z.astype(np.int64)
                assert np.array_equal((xi @ zi.T + zi @ xi.T) % 2, form)


def _random_pauli(n, rng) -> PauliString:
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    z = rng.integers(0, 2, size=n).astype(np.uint8)
    sign = -1 if rng.random() < 0.5 else 1
    return PauliString(n, x, z, sign)
