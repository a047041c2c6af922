from __future__ import annotations

import numpy as np

from pauliframe import gf2, multiply, parse_pauli, simultaneous_diagonalize
from pauliframe.oracle import unitary_from_circuit
from pauliframe.pauli import conjugate_rows, pauli_rows, row_pauli
from pauliframe.tableau import reduce_x_block

from conftest import (
    hadamard_qubits,
    random_commuting_set,
    sets_with_dependent_rows,
    support_labels,
)


def fresh_stabilizers(w):
    """Rows Z_1..Z_n conjugated by the gates of w: the stabilizers of w|0...0>."""
    x = np.zeros((w.n, w.n), dtype=np.uint8)
    z = np.eye(w.n, dtype=np.uint8)
    r = np.zeros(w.n, dtype=np.uint8)
    for g in w.gates:
        conjugate_rows(x, z, r, g)
    return x, z, r


class TestReduceXBlock:
    def test_rows_left_are_signed_products_of_input_rows(self):
        # A non-pivot row ends with no X part, equal (sign included) to
        # its input operator times the input pivot operators whose x
        # parts sum to its own.
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            ops = random_commuting_set(n, int(rng.integers(1, 9)), rng)
            X = np.stack([op.x for op in ops])
            x, z, r = pauli_rows(ops)
            pivots = reduce_x_block(x, z, r)
            assert len(pivots) == gf2.rank(X)
            assert gf2.rank(X[pivots]) == len(pivots)
            # Every 0/1 combination of the pivot rows, one per row.
            combos = (np.arange(2 ** len(pivots))[:, None] >> np.arange(len(pivots))) & 1
            for k in np.setdiff1d(np.arange(len(ops)), pivots):
                (match,) = np.flatnonzero((combos @ X[pivots] % 2 == X[k]).all(axis=1))
                coeffs = combos[match]
                prod = ops[k]
                for p in pivots[coeffs == 1]:
                    prod = multiply(prod, ops[p])
                assert not prod.x.any()
                assert row_pauli(x, z, r, k) == prod

    def test_first_open_row_pivots(self):
        # Column 0: XX pivots and -XI becomes -IX; column 1: IX pivots
        # and -IX becomes -II.
        ops = [parse_pauli(s) for s in ["IX", "XX", "-XI"]]
        x, z, r = pauli_rows(ops)
        assert reduce_x_block(x, z, r).tolist() == [1, 0]
        assert row_pauli(x, z, r, 2) == parse_pauli("-II")
        assert row_pauli(x, z, r, 0) == parse_pauli("IX")


class TestSupportOfW:
    # W|0...0> is |+> on the Hadamard qubits P of W and |0> elsewhere, so
    # its support is span{e_q : q in P}: the distribution fields are
    # R = (e_q for q in P), t = 0, r = |P|.  ``support`` holds P.

    def test_z_only_set_has_the_zero_state(self):
        diag = simultaneous_diagonalize([parse_pauli(s) for s in ["ZII", "-IZZ"]])
        assert diag.circuit.gates == ()
        assert diag.support == ()

    def test_pivots_not_a_prefix(self):
        rows = ["ZXZIIIIIII", "IIIZXZIIII", "IIIIIIZXZI", "ZIIIIIIIIZ", "-IIZZIIIIII"]
        diag = simultaneous_diagonalize([parse_pauli(s) for s in rows])
        assert hadamard_qubits(diag.circuit) == [1, 4, 7]
        assert diag.support == (1, 4, 7)

    def test_hadamard_qubits_are_first_x_bits_of_pivot_rows(self):
        # W has one block per pivot row of reduce_x_block on the input
        # rows, ending in H on the row's first set X bit, and ``support``
        # lists those qubits.  Repeated, sign-flipped and product rows, a
        # product inserted before both of its factors, never become
        # pivots.
        for ops in sets_with_dependent_rows(np.random.default_rng(53), 200):
            x, z, r = pauli_rows(ops)
            first_x_bits = [int(np.flatnonzero(x[p])[0]) for p in reduce_x_block(x, z, r)]
            diag = simultaneous_diagonalize(ops)
            assert hadamard_qubits(diag.circuit) == first_x_bits
            assert diag.support == tuple(first_x_bits)

    def test_support_matches_dense_oracle(self):
        # The dense state of W is 2^(-|P|/2) on span{e_q : q in P} and 0
        # elsewhere.
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            diag = simultaneous_diagonalize(random_commuting_set(n, int(rng.integers(1, 8)), rng))
            assert diag.support == tuple(hadamard_qubits(diag.circuit))
            expected = np.zeros(2**n)
            expected[support_labels(diag.support, n)] = 2.0 ** (-len(diag.support) / 2)
            assert np.abs(unitary_from_circuit(diag.circuit)[:, 0] - expected).max() <= 1e-12

    def test_r_matches_rank_and_R_full_column_rank(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 17))
            ops = random_commuting_set(n, int(rng.integers(1, 10)), rng, n_gates=3 * n)
            sup = simultaneous_diagonalize(ops).support
            assert len(sup) == gf2.rank(np.stack([op.x for op in ops]))
            assert gf2.rank(np.eye(n, dtype=np.uint8)[list(sup)]) == len(sup)

    def test_fresh_stabilizers_match_the_hadamard_qubits(self):
        # Z_1..Z_n conjugated through W stabilize W|0...0>; they generate
        # the group of |+>^P |0>^(rest) exactly when each has X part inside
        # P, Z part zero on P and sign +1, and their X parts have rank |P|.
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(1, 17))
            ops = random_commuting_set(n, int(rng.integers(1, 10)), rng, n_gates=3 * n)
            w = simultaneous_diagonalize(ops).circuit
            P = hadamard_qubits(w)
            x, z, r = fresh_stabilizers(w)
            rest = np.setdiff1d(np.arange(n), P)
            assert gf2.rank(x) == len(P)
            assert not x[:, rest].any()
            assert not z[:, P].any()
            assert not r.any()
