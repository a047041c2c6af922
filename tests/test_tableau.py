from __future__ import annotations

import numpy as np
import pytest

from pauliframe import (
    CliffordCircuit,
    CliffordGate,
    gf2,
    multiply,
    parse_pauli,
    simultaneous_diagonalize,
)
from pauliframe.oracle import (
    amplitudes_squared,
    bits_to_index,
    dense_state_from_circuit,
)
from pauliframe.pauli import conjugate_rows, pauli_rows, row_pauli
from pauliframe.tableau import extract_support, reduce_x_block

from conftest import random_clifford_circuit, random_commuting_set


def coset_indices(R, t):
    """All basis indices {R z + t} as a set of ints."""
    return set(bits_to_index(gf2.coset(R.T, t)).tolist())


def stabilizers(w: CliffordCircuit):
    """Rows Z_1..Z_n conjugated by the gates of w: the stabilizers of w|0...0>."""
    x = np.zeros((w.n, w.n), dtype=np.uint8)
    z = np.eye(w.n, dtype=np.uint8)
    r = np.zeros(w.n, dtype=np.uint8)
    for g in w.gates:
        conjugate_rows(x, z, r, g)
    return x, z, r


def support_of(w: CliffordCircuit):
    return extract_support(*stabilizers(w))


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
            for k in np.setdiff1d(np.arange(len(ops)), pivots):
                coeffs = gf2.solve(X[pivots].T, X[k])
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


class TestExtractSupport:
    def test_zero_state(self):
        sup = support_of(CliffordCircuit(3))
        assert sup.r == 0
        assert sup.R.shape == (3, 0)
        assert not sup.t.any()

    def test_hh_full_support(self):
        sup = support_of(CliffordCircuit(2, (CliffordGate.h(0), CliffordGate.h(1))))
        assert sup.r == 2
        assert gf2.rank(sup.R) == 2
        assert not sup.t.any()

    def test_support_matches_dense_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            w = random_clifford_circuit(n, 40, rng)
            sup = support_of(w)
            probs = amplitudes_squared(dense_state_from_circuit(w))
            dense = {x for x in range(2**n) if probs[x] > 1e-12}
            assert coset_indices(sup.R, sup.t) == dense
            for x in dense:
                assert probs[x] == pytest.approx(2.0**-sup.r, abs=1e-10)

    def test_r_matches_rank_and_R_full_column_rank(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x, z, r = stabilizers(random_clifford_circuit(n, 25, rng))
            sup = extract_support(x, z, r)
            assert sup.r == gf2.rank(x)
            assert gf2.rank(sup.R) == sup.r

    def test_t_is_smallest_support_index_and_zero_at_pivots(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            w = random_clifford_circuit(n, 40, rng)
            sup = support_of(w)
            probs = amplitudes_squared(dense_state_from_circuit(w))
            assert bits_to_index(sup.t) == int(np.flatnonzero(probs > 1e-12)[0])
            _, pivots = gf2.rref(sup.R.T)
            assert not sup.t[pivots].any()

    def test_leaves_its_input_rows_unchanged(self):
        x, z, r = stabilizers(CliffordCircuit(2, (CliffordGate.h(0), CliffordGate.cnot(0, 1))))
        before = (x.copy(), z.copy(), r.copy())
        extract_support(x, z, r)
        assert all(np.array_equal(a, b) for a, b in zip((x, z, r), before))

    def test_carried_stabilizers_match_a_fresh_gate_pass(self):
        # simultaneous_diagonalize carries Z_1..Z_n through W; its support
        # must be that of the stabilizers from a separate pass over W.
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            diag = simultaneous_diagonalize(random_commuting_set(n, int(rng.integers(1, 8)), rng))
            fresh = support_of(diag.circuit)
            assert diag.support.r == fresh.r
            assert np.array_equal(diag.support.R, fresh.R)
            assert np.array_equal(diag.support.t, fresh.t)
