from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pauliframe import gf2

small_matrices = arrays(
    np.uint8,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(0, 1),
)

tiny_matrices = arrays(
    np.uint8,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 1),
)


def loop_rref(m):
    """Reference RREF: clears each pivot column one row at a time."""
    r = m.copy()
    rows, cols = r.shape
    pivots = []
    for col in range(cols):
        src = next((i for i in range(len(pivots), rows) if r[i, col]), None)
        if src is None:
            continue
        p = len(pivots)
        r[[p, src]] = r[[src, p]]
        for i in range(rows):
            if i != p and r[i, col]:
                r[i] ^= r[p]
        pivots.append(col)
    return r, pivots


class TestRref:
    @given(small_matrices)
    def test_matches_loop_reference(self, m):
        red, pivots = gf2.rref(m)
        ref, ref_pivots = loop_rref(m)
        assert np.array_equal(red, ref)
        assert pivots == ref_pivots

    def test_matches_loop_reference_tall_and_wide(self):
        rng = np.random.default_rng(11)
        for shape in [(192, 96), (40, 7), (7, 40), (64, 64)]:
            m = rng.integers(0, 2, size=shape).astype(np.uint8)
            m[rng.random(shape[0]) < 0.3] = m[0]  # repeated rows lower the rank
            red, pivots = gf2.rref(m)
            ref, ref_pivots = loop_rref(m)
            assert np.array_equal(red, ref)
            assert pivots == ref_pivots

    def test_does_not_mutate_input(self):
        m = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        gf2.rref(m)
        assert m.tolist() == [[1, 1], [1, 0]]


class TestRank:
    def test_zero_matrix(self):
        assert gf2.rank(np.zeros((4, 7), dtype=np.uint8)) == 0

    def test_identity(self):
        for k in (1, 3, 6):
            assert gf2.rank(np.eye(k, dtype=np.uint8)) == k

    @given(small_matrices)
    def test_rank_equals_transpose_rank(self, m):
        assert gf2.rank(m) == gf2.rank(m.T)

    @given(tiny_matrices)
    @settings(max_examples=60)
    def test_image_size_is_two_to_rank(self, m):
        cols = m.shape[1]
        images = {
            gf2.mat_vec(m, np.array([(z >> i) & 1 for i in range(cols)],
                                    dtype=np.uint8)).tobytes()
            for z in range(2**cols)
        }
        assert len(images) == 2 ** gf2.rank(m)


class TestRowSpaceBasis:
    def test_zero_matrix(self):
        basis = gf2.row_space_basis(np.zeros((3, 4), dtype=np.uint8))
        assert basis.shape == (0, 4)

    def test_duplicate_rows(self):
        v = np.array([1, 0, 1], dtype=np.uint8)
        basis = gf2.row_space_basis(np.stack([v, v]))
        assert basis.shape == (1, 3)
        assert np.array_equal(basis[0], v)

    @given(small_matrices)
    def test_spans_same_set(self, m):
        basis = gf2.row_space_basis(m)
        for row in m:
            assert gf2.in_row_span(basis, row)
        for row in basis:
            assert gf2.in_row_span(m, row)

    @given(small_matrices)
    def test_reduced_echelon(self, m):
        basis = gf2.row_space_basis(m)
        again, pivots = gf2.rref(basis)
        assert np.array_equal(basis, again)
        # Each pivot column has a single 1.
        for row, col in enumerate(pivots):
            assert basis[:, col].sum() == 1
            assert basis[row, col] == 1


class TestMulSolve:
    def test_zero_vector(self):
        m = np.ones((3, 5), dtype=np.uint8)
        assert not gf2.mat_vec(m, np.zeros(5, dtype=np.uint8)).any()

    def test_identity_times_vector(self):
        v = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(gf2.mat_vec(np.eye(4, dtype=np.uint8), v), v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    @given(tiny_matrices, st.integers(0, 2**6 - 1))
    @settings(max_examples=80)
    def test_solve_round_trip_or_unreachable(self, m, bval):
        rows, cols = m.shape
        b = np.array([(bval >> i) & 1 for i in range(rows)], dtype=np.uint8)
        x = gf2.solve(m, b)
        if x is not None:
            assert np.array_equal(gf2.mat_vec(m, x), b)
        else:
            # Exhaustive search confirms no solution exists.
            for z in range(2**cols):
                v = np.array([(z >> i) & 1 for i in range(cols)], dtype=np.uint8)
                assert not np.array_equal(gf2.mat_vec(m, v), b)

    def test_solve_outside_range(self):
        # rank-1 matrix: only images are 0 and the column sum
        m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        assert gf2.solve(m, np.array([1, 0], dtype=np.uint8)) is None


class TestInRowSpan:
    def test_empty_basis_only_zero(self):
        basis = np.zeros((0, 3), dtype=np.uint8)
        assert gf2.in_row_span(basis, np.zeros(3, dtype=np.uint8))
        assert not gf2.in_row_span(basis, np.array([1, 0, 0], dtype=np.uint8))

    @given(small_matrices, st.data())
    def test_membership_matches_solve(self, m, data):
        cols = m.shape[1]
        v = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols)),
            dtype=np.uint8,
        )
        # v in row span of M  <=>  M^T y = v has a solution
        assert gf2.in_row_span(m, v) == (gf2.solve(m.T, v) is not None)


class TestCoset:
    @given(small_matrices, st.data())
    def test_binary_counting_order(self, m, data):
        offset = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
            dtype=np.uint8,
        )
        out = gf2.coset(m, offset)
        assert out.shape == (2 ** m.shape[0], m.shape[1])
        for k, row in enumerate(out):
            expected = offset.copy()
            for i in range(m.shape[0]):
                if (k >> i) & 1:
                    expected ^= m[i]
            assert row.tolist() == expected.tolist()

    def test_empty_basis_is_the_offset(self):
        offset = np.array([1, 0, 1], dtype=np.uint8)
        out = gf2.coset(np.zeros((0, 3), dtype=np.uint8), offset)
        assert out.tolist() == [[1, 0, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.coset(np.zeros((2, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
