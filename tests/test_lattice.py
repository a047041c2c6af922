from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pauliframe import (
    PauliString,
    build_distribution,
    clt_coefficient,
    clt_frame_potential,
    exact_frame_potential,
    lattice_volume,
    moments,
    parse_pauli,
    support_points,
)
from pauliframe.lattice import (
    DegenerateLatticeError,
    QuadratureCapError,
    _hnf_diagonal,
)
from pauliframe.oracle import mc_frame_potential

from conftest import random_commuting_set, walk_count_frame_potential


def x_type_set(n: int, N: int, rng: np.random.Generator):
    """N distinct nonzero X-type strings on n qubits (requires N < 2^n)."""
    codes = rng.choice(np.arange(1, 2**n), size=N, replace=False)
    rows = (codes[:, None] >> np.arange(n)) & 1
    signs = rng.choice([1, -1], size=N)
    return [PauliString(n, row, np.zeros(n, np.uint8), int(s)) for row, s in zip(rows, signs)]


def degenerate_x_type_set(n: int, N: int, rng: np.random.Generator):
    """X-type strings on n qubits plus one spare qubit, with degeneracies.

    A zero x-row becomes a signed Z on the spare qubit (K_j is then a
    constant), and some operators repeat an earlier one, possibly negated
    (two equal x-rows).  Every pair commutes.
    """
    ops = []
    for j in range(N):
        if j and rng.random() < 0.3:
            op = ops[int(rng.integers(j))]
            ops.append(PauliString(n + 1, op.x, op.z, int(rng.choice([1, -1]))))
            continue
        x = np.append(rng.integers(0, 2, size=n), 0).astype(np.uint8)
        z = np.zeros(n + 1, dtype=np.uint8)
        if not x.any():
            z[n] = 1
        ops.append(PauliString(n + 1, x, z, int(rng.choice([1, -1]))))
    return ops


class TestHNF:
    def test_identity(self):
        assert _hnf_diagonal([[1, 0], [0, 1]], 2) == [1, 1]

    def test_scaled(self):
        assert _hnf_diagonal([[2, 0], [0, 3]], 2) == [2, 3]

    def test_gcd_reduction(self):
        # rows (4,0) and (6,0) generate 2Z in the first coordinate
        assert _hnf_diagonal([[4, 0], [6, 0], [0, 1]], 2) == [2, 1]

    def test_rank_deficient(self):
        assert _hnf_diagonal([[1, 1], [2, 2]], 2) is None


class TestLatticeVolume:
    def test_worked_example_1(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        assert lattice_volume(support_points(dist)) == 64

    def test_worked_example_2(self, example_ops_2):
        dist = build_distribution(example_ops_2)
        assert lattice_volume(support_points(dist)) == 32

    def test_singleton_degenerate(self):
        assert lattice_volume([np.array([1, -1, 1])]) is None

    def test_empty_support(self):
        with pytest.raises(ValueError):
            lattice_volume([])

    def test_invariant_under_base_point(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        pts = support_points(dist)
        for shift in (1, 5, 11):
            rotated = np.roll(pts, -shift, axis=0)
            assert lattice_volume(rotated) == 64

    def test_invariant_under_operator_permutation(self):
        rng = np.random.default_rng(606)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            N = int(rng.integers(2, 6))
            ops = random_commuting_set(n, N, rng)
            v1 = lattice_volume(support_points(build_distribution(ops)))
            perm = list(rng.permutation(N))
            v2 = lattice_volume(
                support_points(build_distribution([ops[i] for i in perm]))
            )
            assert v1 == v2

    def test_volume_is_multiple_of_2_to_N(self):
        rng = np.random.default_rng(707)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            N = int(rng.integers(1, 6))
            ops = random_commuting_set(n, N, rng)
            v = lattice_volume(support_points(build_distribution(ops)))
            if v is not None:
                assert v % 2**N == 0


class TestCltFramePotential:
    def test_worked_closed_form(self):
        for t in (1.0, 2.5, 7.0):
            assert clt_frame_potential(64, 1, 5, t) == pytest.approx(
                2 * (math.pi * t) ** -2.5, rel=1e-12
            )

    def test_single_x(self):
        assert clt_frame_potential(2, 1, 1, 3.0) == pytest.approx(
            (math.pi * 3.0) ** -0.5, rel=1e-12
        )

    def test_direct_substitution(self):
        for N in (1, 2, 4):
            assert clt_frame_potential(2**N, 1, N, 1.0) == pytest.approx(
                math.pi ** (-N / 2), rel=1e-12
            )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            clt_frame_potential(2, 0, 1, 1.0)

    def test_coefficient_scaling(self):
        c = clt_coefficient(64, 1, 5)
        assert clt_frame_potential(64, 1, 5, 9.0) == pytest.approx(
            c * 9.0**-2.5, rel=1e-12
        )


class TestExactFramePotential:
    def test_single_x_binomial(self):
        dist = build_distribution([parse_pauli("X")])
        for t in range(1, 9):
            expected = math.comb(2 * t, t) / 4**t
            assert exact_frame_potential(dist, t) == pytest.approx(
                expected, abs=1e-12
            )

    def test_point_mass_is_one(self):
        dist = build_distribution([parse_pauli("Z")])
        for t in (1, 3, 10):
            assert exact_frame_potential(dist, t) == 1.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(808)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            ops = random_commuting_set(n, int(rng.integers(1, 4)), rng)
            dist = build_distribution(ops)
            for t in (1, 2, 3):
                v = exact_frame_potential(dist, t)
                assert 0 < v <= 1 + 1e-12

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(909)
        for trial in range(5):
            n = int(rng.integers(1, 4))
            ops = random_commuting_set(n, int(rng.integers(1, 4)), rng)
            dist = build_distribution(ops)
            for t in (1, 2, 3):
                ex = exact_frame_potential(dist, t)
                est, err = mc_frame_potential(ops, t, 200_000, seed=1000 + trial)
                assert abs(est - ex) < max(3 * err, 1e-9)

    def test_matches_integer_walk_counts(self):
        rng = np.random.default_rng(1313)
        cases = [
            [parse_pauli("X")],
            [parse_pauli("-Z")],  # point mass
            [parse_pauli("ZZ"), parse_pauli("IZ")],
            x_type_set(6, 6, rng),
            x_type_set(5, 6, rng),
        ]
        for _ in range(12):
            N = int(rng.integers(1, 7))
            cases.append(random_commuting_set(int(rng.integers(1, 7)), N, rng))
            cases.append(x_type_set(int(rng.integers(3, 7)), N, rng))
            cases.append(degenerate_x_type_set(int(rng.integers(1, 5)), N, rng))
        for ops in cases:
            dist = build_distribution(ops)
            bits = (1 - np.array(support_points(dist))) // 2
            for t in sorted({1, int(rng.integers(2, 9)), 8}):
                expected = walk_count_frame_potential(bits, t)
                got = exact_frame_potential(dist, t)
                assert abs(Fraction(got) - expected) <= 1e-12 * expected, (ops, t)

    def test_memory_stays_below_one_grid_array(self):
        # N = 6 at t = 12: the full grid is 13^6 points, 77 MB as complex128.
        ops = [PauliString(6, x, np.zeros(6, np.uint8)) for x in np.eye(6, dtype=np.uint8)]
        dist = build_distribution(ops)
        tracemalloc.start()
        try:
            value = exact_frame_potential(dist, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13**6 * 16
        # Six independent single-X coordinates: F = (C(24, 12) / 4^12)^6.
        assert value == pytest.approx((math.comb(24, 12) / 4**12) ** 6, rel=1e-12)

    def test_quadrature_cap(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureCapError):
                exact_frame_potential(dist, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The guard fires before any array is allocated.
        assert peak < 1 << 20

    def test_bad_t(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        with pytest.raises(ValueError):
            exact_frame_potential(dist, 0)

    def test_convergence_to_clt(self, example_ops_1):
        dist = build_distribution(example_ops_1)
        mom = moments(dist)
        vol = lattice_volume(support_points(dist))
        errs = []
        for t in (5, 10):
            ratio = exact_frame_potential(dist, t) / clt_frame_potential(
                vol, mom.det_cov, dist.N, t
            )
            errs.append(abs(ratio - 1))
        assert errs[1] < errs[0]
