from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pauliframe import (
    PauliRows,
    PauliString,
    build_distribution,
    clt_coefficient,
    clt_frame_potential,
    exact_frame_potential,
    gf2,
    lattice_volume,
    moments,
    support_points,
)
from pauliframe.lattice import FloatRangeError, QuadratureCapError
from pauliframe.oracle import mc_frame_potential

from conftest import (
    hnf_diagonal,
    hnf_volume,
    random_commuting_set,
    rank,
    walk_count_frame_potential,
)


def x_type_set(n: int, N: int, rng: np.random.Generator):
    """N distinct nonzero X-type strings on n qubits (requires N < 2^n)."""
    codes = rng.choice(np.arange(1, 2**n), size=N, replace=False)
    rows = (codes[:, None] >> np.arange(n)) & 1
    return PauliRows(rows, np.zeros_like(rows), rng.choice([0, 1], size=N))


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
    return PauliRows.stack(ops)


def coset_points(generators, b0) -> np.ndarray:
    """The support of the law uniform on b0 + span(generators), as +-1 rows."""
    return 1 - 2 * gf2.coset(gf2.row_space_basis(generators), b0).astype(np.int8)


def reed_muller_1(m: int) -> np.ndarray:
    """Generator of RM(1, m): the all-ones word and the m coordinate
    functions, evaluated at the 2^m points of GF(2)^m."""
    points = (np.arange(2**m)[None, :] >> np.arange(m)[:, None]) & 1
    return np.vstack([np.ones(2**m, dtype=np.uint8), points.astype(np.uint8)])


def schur_square_dim(basis) -> int:
    """dim C*C from the pairwise products of the rows of ``basis``."""
    basis = np.asarray(basis, dtype=np.uint8)
    return rank((basis[:, None, :] & basis[None, :, :]).reshape(-1, basis.shape[1]))


codes = st.integers(1, 7).flatmap(
    lambda N: st.tuples(
        arrays(np.uint8, st.tuples(st.integers(0, 6), st.just(N)), elements=st.integers(0, 1)),
        arrays(np.uint8, st.just(N), elements=st.integers(0, 1)),
    )
)


class TestHNF:
    def test_identity(self):
        assert hnf_diagonal([[1, 0], [0, 1]], 2) == [1, 1]

    def test_scaled(self):
        assert hnf_diagonal([[2, 0], [0, 3]], 2) == [2, 3]

    def test_gcd_reduction(self):
        # rows (4,0) and (6,0) generate 2Z in the first coordinate
        assert hnf_diagonal([[4, 0], [6, 0], [0, 1]], 2) == [2, 1]

    def test_rank_deficient(self):
        assert hnf_diagonal([[1, 1], [2, 2]], 2) is None


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
                support_points(build_distribution(PauliRows.stack([ops[i] for i in perm])))
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

    @settings(max_examples=150, deadline=None)
    @given(codes)
    def test_matches_hnf_oracle_on_small_codes(self, code):
        generators, b0 = code
        points = coset_points(generators, b0)
        assert lattice_volume(points) == hnf_volume(points)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda m: st.tuples(st.just(m), st.sets(st.integers(0, 2**m - 1), max_size=2**m - 1))
    ))
    @example((2, set()))
    @example((3, set()))
    @example((4, set()))
    def test_matches_hnf_oracle_on_punctured_reed_muller(self, case):
        m, punctured = case
        generators = np.delete(reed_muller_1(m), sorted(punctured), axis=1)
        points = coset_points(generators, np.zeros(generators.shape[1], np.uint8))
        assert lattice_volume(points) == hnf_volume(points)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_reed_muller_closed_form(self, m):
        N = 2**m
        points = coset_points(reed_muller_1(m), np.zeros(N, np.uint8))
        expected = N + sum(math.comb(m, k) * (k - 1) for k in range(1, m + 1))
        assert lattice_volume(points) == 2**expected

    def test_square_criterion(self):
        # V_U = 2^(2N - rho) exactly when dim C*C = N, on the oracle's numbers.
        # Columns are distinct nonzero points of GF(2)^rho, so every code is
        # non-degenerate, and C*C < GF(2)^N needs N > rho (rho + 1) / 2.
        rng = np.random.default_rng(1717)
        seen = set()
        for _ in range(200):
            rho = int(rng.integers(2, 5))
            N = int(rng.integers(1, 2**rho))
            columns = rng.choice(np.arange(1, 2**rho), size=N, replace=False)
            generators = ((columns[None, :] >> np.arange(rho)[:, None]) & 1).astype(np.uint8)
            basis = gf2.row_space_basis(generators)
            points = coset_points(generators, rng.integers(0, 2, size=N, dtype=np.uint8))
            volume = hnf_volume(points)
            square_full = schur_square_dim(basis) == N
            assert (volume == 2 ** (2 * N - len(basis))) == square_full
            assert lattice_volume(points) == volume
            seen.add(square_full)
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "points",
        [
            [[1, 1], [1, -1], [-1, 1]],  # 3 points
            [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]],  # rank 3, 4 points
            [[1, 1], [-1, 1], [1, 1], [-1, 1]],  # repeated points
            [[1, 1], [-1, 1], [1, 1], [-1, -1]],  # right count and rank, one repeat
            [[1, 0], [-1, 0]],  # entries not +-1
            [[2, 2], [-2, 2]],
        ],
    )
    def test_not_a_coset_rejected(self, points):
        with pytest.raises(ValueError):
            lattice_volume(np.array(points))

    def test_degenerate_exactly_when_cov_is_not_identity(self):
        rng = np.random.default_rng(1919)
        seen = set()
        for _ in range(80):
            n = int(rng.integers(1, 6))
            N = int(rng.integers(1, 7))
            for ops in (
                random_commuting_set(n, N, rng),
                x_type_set(n + 1, min(N, 2 ** (n + 1) - 1), rng),
                degenerate_x_type_set(n, N, rng),
            ):
                dist = build_distribution(ops)
                degenerate = moments(dist).degenerate
                assert (lattice_volume(support_points(dist)) is None) == degenerate
                seen.add(degenerate)
        assert seen == {True, False}


class TestCltFramePotential:
    def test_worked_closed_form(self):
        for t in (1.0, 2.5, 7.0):
            assert clt_frame_potential(64, 5, t) == pytest.approx(
                2 * (math.pi * t) ** -2.5, rel=1e-12
            )

    def test_single_x(self):
        assert clt_frame_potential(2, 1, 3.0) == pytest.approx(
            (math.pi * 3.0) ** -0.5, rel=1e-12
        )

    def test_direct_substitution(self):
        for N in (1, 2, 4):
            assert clt_frame_potential(2**N, N, 1.0) == pytest.approx(
                math.pi ** (-N / 2), rel=1e-12
            )

    def test_coefficient_scaling(self):
        c = clt_coefficient(64, 5)
        assert clt_frame_potential(64, 5, 9.0) == pytest.approx(
            c * 9.0**-2.5, rel=1e-12
        )

    def test_direct_form_keeps_its_value(self):
        # Wherever (4 pi t)^N and V fit a float, the direct form is used as is.
        for volume, N, t in [(64, 5, 1.0), (2**40, 30, 3.0), (2**900, 280, 1.0), (2**1000, 1, 2.0)]:
            direct = volume / math.sqrt((4 * math.pi * t) ** N)
            assert clt_frame_potential(volume, N, t) == direct
        assert clt_coefficient(2**900, 280) == 2**900 / math.sqrt((4 * math.pi) ** 280)

    def test_log_form_where_the_direct_form_overflows(self):
        # (4 pi)^300 and 2^1100 both overflow a float; the quotient does not.
        expected = math.exp(1100 * math.log(2) - 150 * math.log(4 * math.pi))
        assert clt_coefficient(2**1100, 300) == pytest.approx(expected, rel=1e-12)
        assert clt_frame_potential(2**1100, 300, 1.0) == pytest.approx(expected, rel=1e-12)
        assert clt_frame_potential(2**1100, 300, 4.0) == pytest.approx(
            expected * 4.0**-150, rel=1e-12
        )
        # V itself overflows a float while (4 pi)^N does not.
        assert clt_coefficient(2**1030, 100) == pytest.approx(
            math.exp(1030 * math.log(2) - 50 * math.log(4 * math.pi)), rel=1e-12
        )

    def test_log_form_where_the_scale_underflows(self):
        # (4 pi t)^2 underflows to 0 at t = 1e-200; V / (4 pi t) is a float.
        assert clt_frame_potential(2, 2, 1e-200) == pytest.approx(
            2 / (4 * math.pi * 1e-200), rel=1e-12
        )

    def test_beyond_float_range_raises(self):
        with pytest.raises(FloatRangeError, match="CLT coefficient"):
            clt_coefficient(2**2000, 300)
        with pytest.raises(FloatRangeError, match="CLT frame potential at t=1"):
            clt_frame_potential(2**2000, 300, 1)


class TestExactFramePotential:
    def test_single_x_binomial(self):
        dist = build_distribution(PauliRows.from_strings(["X"]))
        for t in range(1, 9):
            expected = math.comb(2 * t, t) / 4**t
            assert exact_frame_potential(dist, t) == pytest.approx(
                expected, abs=1e-12
            )

    def test_point_mass_is_one(self):
        dist = build_distribution(PauliRows.from_strings(["Z"]))
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
            PauliRows.from_strings(["X"]),
            PauliRows.from_strings(["-Z"]),  # point mass
            PauliRows.from_strings(["ZZ", "IZ"]),
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
        ops = PauliRows(np.eye(6), np.zeros((6, 6)), np.zeros(6))
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
        assert moments(dist).det_cov == 1
        vol = lattice_volume(support_points(dist))
        errs = []
        for t in (5, 10):
            ratio = exact_frame_potential(dist, t) / clt_frame_potential(vol, dist.N, t)
            errs.append(abs(ratio - 1))
        assert errs[1] < errs[0]
