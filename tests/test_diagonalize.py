from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from pauliframe import (
    NonCommutingSetError,
    check_commuting_set,
    multiply,
    parse_pauli,
    simultaneous_diagonalize,
    verify_diagonalization,
)
from pauliframe.oracle import bits_matrix

from conftest import conjugate_ops, dense_conjugation_check, random_commuting_set


class TestSimultaneousDiagonalize:
    def test_already_diagonal(self):
        result = simultaneous_diagonalize([parse_pauli("Z")])
        assert result.circuit.gates == ()
        assert result.A.tolist() == [[1]]
        assert result.s.tolist() == [0]

    def test_single_x(self):
        result = simultaneous_diagonalize([parse_pauli("X")])
        assert result.A.tolist() == [[1]]
        assert result.s.tolist() == [0]
        (lam,) = conjugate_ops([parse_pauli("X")], result.circuit)
        assert not lam.x.any() and lam.z.tolist() == [1] and lam.sign == 1

    def test_worked_set_diagonalizes(self, example_ops_1):
        result = simultaneous_diagonalize(example_ops_1)
        ok, bad = verify_diagonalization(example_ops_1, result)
        assert ok and bad is None
        for j, lam in enumerate(conjugate_ops(example_ops_1, result.circuit)):
            assert not lam.x.any()
            assert np.array_equal(lam.z, result.A[j])

    def test_noncommuting_reports_pair(self):
        ops = [parse_pauli("XX"), parse_pauli("ZI")]
        with pytest.raises(NonCommutingSetError) as exc:
            simultaneous_diagonalize(ops)
        assert exc.value.pair == (0, 1)

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            simultaneous_diagonalize([parse_pauli("ZI"), parse_pauli("II")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_diagonalize([])

    def test_completeness_random_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            N = int(rng.integers(1, 2 * n + 1))
            ops = random_commuting_set(n, N, rng)
            result = simultaneous_diagonalize(ops)
            ok, bad = verify_diagonalization(ops, result)
            assert ok, f"failed at operator {bad} for n={n}, N={N}"

    def test_gate_count_quadratic(self):
        rng = np.random.default_rng(55)
        # Per pivot: at most n-1 CNOTs + n-1 CZs + S + H, over <= n pivots.
        for _ in range(50):
            n = int(rng.integers(1, 7))
            ops = random_commuting_set(n, n, rng)
            result = simultaneous_diagonalize(ops)
            assert len(result.circuit.gates) <= 2 * n * n

    def test_product_homomorphism(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            ops = random_commuting_set(n, 2, rng)
            prod = multiply(ops[0], ops[1])
            if prod.is_identity():
                continue
            triple = ops + [prod]
            result = simultaneous_diagonalize(triple)
            assert np.array_equal(result.A[2], result.A[0] ^ result.A[1])


class TestVerifyDiagonalization:
    def test_tampered_A_detected(self, example_ops_1):
        result = simultaneous_diagonalize(example_ops_1)
        A = result.A.copy()
        A[2, 3] ^= 1
        bad = replace(result, A=A)
        ok, j = verify_diagonalization(example_ops_1, bad)
        assert not ok and j == 2

    def test_tampered_sign_detected(self, example_ops_1):
        result = simultaneous_diagonalize(example_ops_1)
        s = result.s.copy()
        s[4] ^= 1
        bad = replace(result, s=s)
        ok, j = verify_diagonalization(example_ops_1, bad)
        assert not ok and j == 4

    def test_dense_cross_check_worked_set(self, example_ops_1):
        result = simultaneous_diagonalize(example_ops_1)
        labels = bits_matrix(example_ops_1[0].n)
        for j, op in enumerate(example_ops_1):
            m = dense_conjugation_check(op, result.circuit)
            off = m - np.diag(np.diag(m))
            assert np.abs(off).max() < 1e-10
            diag = np.diag(m)
            assert np.allclose(np.abs(diag.real), 1, atol=1e-10)
            assert np.abs(diag.imag).max() < 1e-10
            # Entry x of the diagonal is (-1)^(s_j ^ A_j . x).
            expected = 1 - 2 * ((labels @ result.A[j] + result.s[j]) % 2)
            assert np.rint(diag.real).tolist() == expected.tolist()
