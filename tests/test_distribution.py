from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from pauliframe import (
    NonCommutingSetError,
    PauliRows,
    PauliString,
    build_distribution,
    gf2,
    moments,
    multiply,
    simultaneous_diagonalize,
    support_points,
)
from pauliframe import distribution
from pauliframe.distribution import SupportTooLargeError
from pauliframe.oracle import dense_diagonal, unitary_from_circuit

from conftest import (
    EXAMPLE_SET_3,
    dense_pmf,
    hadamard_qubits,
    random_commuting_set,
    rank,
    sets_with_dependent_rows,
)


class TestKRow:
    def test_matches_dense_diagonal_worked_set(self, example_ops_1):
        # The K row at basis label x is (-1)^(s ^ A x); it must equal the
        # dense diagonal of W H_j W^dagger, and the rows at the labels the
        # state occupies must be exactly the support points of the law.
        diag = simultaneous_diagonalize(example_ops_1)
        dist = build_distribution(example_ops_1)
        wm = unitary_from_circuit(diag.circuit)
        dense_rows = np.stack(
            [dense_diagonal(op, diag.circuit, wm) for op in example_ops_1]
        )
        n = example_ops_1[0].n
        probs = np.abs(wm[:, 0]) ** 2
        occupied = set()
        for x in range(2**n):
            u = np.array([(x >> (n - 1 - q)) & 1 for q in range(n)], dtype=np.uint8)
            row = 1 - 2 * ((diag.A.astype(np.int64) @ u + diag.s) % 2)
            assert row.tolist() == dense_rows[:, x].tolist()
            if probs[x] > 1e-12:
                occupied.add(tuple(int(v) for v in row))
        assert occupied == {tuple(int(v) for v in p) for p in support_points(dist)}


class TestBuildDistribution:
    def test_worked_example(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        assert dist.rho == 4
        assert dist.support_size == 16
        assert dist.pmf_value == Fraction(1, 16)

    def test_point_mass(self):
        dist = build_distribution(PauliRows.from_strings(["Z"]))
        assert dist.rho == 0
        assert dist.support_size == 1
        assert dist.pmf_value == 1

    def test_noncommuting_names_first_pair(self):
        ops = PauliRows.from_strings(["ZZ", "XX", "ZI", "IZ"])
        with pytest.raises(NonCommutingSetError) as exc:
            build_distribution(ops)
        assert exc.value.pair == (1, 2)

    def test_offset_is_zero_at_pivots_and_sign_elsewhere(self):
        # XX is the only pivot.  -ZZ has no X part and reads -1 on |00>;
        # YY * XX = -ZZ and -XX * XX = -II also read -1.
        ops = PauliRows.from_strings(["XX", "-ZZ", "YY", "-XX"])
        dist = build_distribution(ops)
        assert dist.b0.tolist() == [0, 1, 1, 1]
        assert dist.basis.tolist() == [[1, 0, 1, 1]]

    def test_diagonalized_set_carries_the_same_law(self):
        # simultaneous_diagonalize reads the law off the elimination that
        # builds W; it must be build_distribution's, array for array.
        sets = [PauliRows.from_strings(EXAMPLE_SET_3)]
        sets += sets_with_dependent_rows(np.random.default_rng(71), 200)
        for ops in sets:
            law, dist = simultaneous_diagonalize(ops).law, build_distribution(ops)
            for got, want in ((law.b0, dist.b0), (law.basis, dist.basis)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_matches_brute_force_random_sets(self):
        rng = np.random.default_rng(201)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            N = int(rng.integers(1, 7))
            ops = random_commuting_set(n, N, rng)
            diag = simultaneous_diagonalize(ops)
            dist = build_distribution(ops)
            brute = dense_pmf(ops, diag.circuit)
            built = {
                tuple(int(v) for v in p): dist.pmf_value
                for p in support_points(dist)
            }
            assert brute == built


def left_kernel(X):
    """Basis of {S : S X = 0} over GF(2), one vector per row."""
    N, n = X.shape
    red, pivots = gf2.rref(np.concatenate([X, np.eye(N, dtype=np.uint8)], axis=1))
    rank = sum(1 for c in pivots if c < n)
    return red[rank:, n:]


class TestThreeEngines:
    def test_direct_law_matches_w_and_dense_oracle(self):
        # The law of K read from the input rows must meet every
        # left-kernel parity of X, equal the coset s + colspace(A[:, P])
        # built from W's (A, s) and its Hadamard qubits P (W|0...0> is |+>
        # on P and |0> elsewhere), and equal the dense oracle's tally
        # through W.
        rng = np.random.default_rng(606)
        with_kernel = 0
        for _ in range(150):
            n = int(rng.integers(1, 8))
            ops = list(random_commuting_set(n, int(rng.integers(1, 8)), rng))
            for _ in range(int(rng.integers(0, 3))):
                op = ops[int(rng.integers(len(ops)))]
                ops.append(PauliString(n, op.x, op.z, int(rng.choice([1, -1]))))
            ops = PauliRows.stack(ops)
            dist = build_distribution(ops)
            X = np.stack([op.x for op in ops])
            assert np.array_equal(dist.basis, gf2.row_space_basis(X.T))
            kernel = left_kernel(X)
            with_kernel += len(kernel) > 0
            for S in kernel:
                members = [ops[j] for j in np.flatnonzero(S)]
                prod = members[0]
                for op in members[1:]:
                    prod = multiply(prod, op)
                assert not prod.x.any()
                assert int(dist.b0[S == 1].sum()) % 2 == (prod.sign == -1)
            diag = simultaneous_diagonalize(ops)
            P = hadamard_qubits(diag.circuit)
            assert np.array_equal(dist.basis, gf2.row_space_basis(diag.A[:, P].T))
            assert rank(np.vstack([dist.basis, diag.s ^ dist.b0])) == len(dist.basis)
            built = dict.fromkeys(map(tuple, support_points(dist).tolist()), dist.pmf_value)
            assert dense_pmf(ops, diag.circuit) == built
        assert with_kernel > 100  # sets with a parity constraint on b0


class TestSupportPoints:
    def test_worked_example_16_points(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        pts = support_points(dist)
        assert len(pts) == 16
        as_tuples = {tuple(int(v) for v in p) for p in pts}
        assert len(as_tuples) == 16
        assert all(set(p) <= {-1, 1} for p in as_tuples)

    def test_point_mass_singleton(self):
        dist = build_distribution(PauliRows.from_strings(["Z"]))
        pts = support_points(dist)
        assert len(pts) == 1
        assert pts[0].tolist() == [1]

    def test_single_x_two_points(self):
        dist = build_distribution(PauliRows.from_strings(["X"]))
        pts = {tuple(int(v) for v in p) for p in support_points(dist)}
        assert pts == {(1,), (-1,)}

    def test_cap_exceeded(self, example_ops_1, monkeypatch):
        dist = build_distribution(example_ops_1)
        monkeypatch.setattr(distribution, "ENUMERATION_CAP", 3)
        with pytest.raises(SupportTooLargeError):
            support_points(dist)


class TestMoments:
    def test_worked_covariance_identity(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        mom = moments(dist)
        assert np.array_equal(mom.covariance, np.eye(5, dtype=np.int64))
        assert mom.mean.tolist() == [0] * 5
        assert mom.det_cov == 1
        assert not mom.degenerate

    def test_point_mass_degenerate(self):
        dist = build_distribution(PauliRows.from_strings(["Z"]))
        mom = moments(dist)
        assert mom.mean.tolist() == [1]
        assert not mom.covariance.any()
        assert mom.degenerate

    def test_single_x(self):
        dist = build_distribution(PauliRows.from_strings(["X"]))
        mom = moments(dist)
        assert mom.mean.tolist() == [0]
        assert mom.covariance.tolist() == [[1]]

    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(303)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            N = int(rng.integers(1, 7))
            ops = random_commuting_set(n, N, rng)
            dist = build_distribution(ops)
            mom = moments(dist)
            pts = support_points(dist).astype(np.int64)
            mean = pts.mean(axis=0)
            cov = (pts.T @ pts) / len(pts) - np.outer(mean, mean)
            assert np.allclose(mom.mean, mean)
            assert np.allclose(mom.covariance, cov)

    def test_matches_dense_expectations(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            N = int(rng.integers(1, 6))
            ops = random_commuting_set(n, N, rng)
            diag = simultaneous_diagonalize(ops)
            mom = moments(build_distribution(ops))
            wm = unitary_from_circuit(diag.circuit)
            probs = np.abs(wm[:, 0]) ** 2
            rows = np.stack(
                [dense_diagonal(op, diag.circuit, wm) for op in ops]
            ).astype(np.float64)
            mean = rows @ probs
            second = (rows * probs) @ rows.T
            cov = second - np.outer(mean, mean)
            assert np.allclose(mom.mean, mean, atol=1e-9)
            assert np.allclose(mom.covariance, cov, atol=1e-9)


class TestWInvariance:
    def test_law_is_intrinsic(self):
        # Two valid diagonalizations (original and permuted input order)
        # must give the same support set and moments.
        rng = np.random.default_rng(505)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            N = int(rng.integers(2, 6))
            ops = random_commuting_set(n, N, rng)
            perm = rng.permutation(N)
            d1 = build_distribution(ops)
            d2_p = build_distribution(PauliRows.stack([ops[i] for i in perm]))
            pts1 = {tuple(int(v) for v in p) for p in support_points(d1)}
            # Undo the permutation on each support vector of the variant.
            inv = np.argsort(perm)
            pts2 = {
                tuple(int(p[inv[j]]) for j in range(N))
                for p in support_points(d2_p)
            }
            assert pts1 == pts2
            m1 = moments(d1)
            m2 = moments(d2_p)
            assert np.array_equal(m1.mean, m2.mean[inv])
            assert np.array_equal(m1.covariance, m2.covariance[np.ix_(inv, inv)])
