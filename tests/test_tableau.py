from __future__ import annotations

import numpy as np
import pytest

from pauliframe import CliffordCircuit, CliffordGate, gf2, tableau_from_circuit
from pauliframe.oracle import (
    amplitudes_squared,
    bits_to_index,
    dense_state_from_circuit,
)
from pauliframe.tableau import StabilizerTableau

from conftest import random_clifford_circuit


def coset_indices(R, t):
    """All basis indices {R z + t} as a set of ints."""
    return set(bits_to_index(gf2.coset(R.T, t)).tolist())


class TestConstruction:
    def test_initial_tableau(self):
        tab = StabilizerTableau(2)
        assert np.array_equal(tab.x[:2], np.eye(2, dtype=np.uint8))
        assert not tab.x[2:].any()
        assert np.array_equal(tab.z[2:], np.eye(2, dtype=np.uint8))
        assert not tab.z[:2].any()
        assert not tab.r.any()

    def test_hadamard_gives_plus_state(self):
        tab = tableau_from_circuit(CliffordCircuit(1, (CliffordGate.h(0),)))
        # stabilizer row is now X
        assert tab.x[1, 0] == 1 and tab.z[1, 0] == 0 and tab.r[1] == 0

    def test_gate_out_of_range(self):
        tab = StabilizerTableau(1)
        with pytest.raises(ValueError):
            tab.apply_gate(CliffordGate.h(1))


def tableau_invariants_hold(tab):
    n = tab.n
    full = np.concatenate([tab.x, tab.z], axis=1)
    if gf2.rank(full) != 2 * n:
        return False
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            sp = (int(tab.x[i] @ tab.z[j].astype(np.int64))
                  + int(tab.z[i] @ tab.x[j].astype(np.int64))) % 2
            expect = 1 if j == i + n else 0
            if sp != expect:
                return False
    return True


class TestInvariants:
    def test_hold_after_every_gate(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            tab = StabilizerTableau(n)
            for g in random_clifford_circuit(n, 25, rng).gates:
                tab.apply_gate(g)
                assert tableau_invariants_hold(tab)


class TestExtractSupport:
    def test_zero_state(self):
        sup = StabilizerTableau(3).extract_support()
        assert sup.r == 0
        assert sup.R.shape == (3, 0)
        assert not sup.t.any()

    def test_hh_full_support(self):
        w = CliffordCircuit(2, (CliffordGate.h(0), CliffordGate.h(1)))
        sup = tableau_from_circuit(w).extract_support()
        assert sup.r == 2
        assert gf2.rank(sup.R) == 2
        assert not sup.t.any()

    def test_support_matches_dense_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            w = random_clifford_circuit(n, 40, rng)
            tab = tableau_from_circuit(w)
            sup = tab.extract_support()
            probs = amplitudes_squared(dense_state_from_circuit(w))
            dense = {x for x in range(2**n) if probs[x] > 1e-12}
            assert coset_indices(sup.R, sup.t) == dense
            for x in dense:
                assert probs[x] == pytest.approx(2.0**-sup.r, abs=1e-10)

    def test_r_matches_rank_and_R_full_column_rank(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            tab = tableau_from_circuit(random_clifford_circuit(n, 25, rng))
            sup = tab.extract_support()
            assert sup.r == gf2.rank(tab.xbar())
            assert gf2.rank(sup.R) == sup.r

    def test_t_is_smallest_support_index_and_zero_at_pivots(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            w = random_clifford_circuit(n, 40, rng)
            sup = tableau_from_circuit(w).extract_support()
            probs = amplitudes_squared(dense_state_from_circuit(w))
            assert bits_to_index(sup.t) == int(np.flatnonzero(probs > 1e-12)[0])
            _, pivots = gf2.rref(sup.R.T)
            assert not sup.t[pivots].any()


class TestDump:
    def test_block_layout(self):
        lines = StabilizerTableau(1).dump().splitlines()
        assert lines == ["1 | 0 | 0", "0 | 1 | 0"]
