"""Dense exact linear algebra over GF(2).

All matrices and vectors are numpy ``uint8`` arrays with entries in {0, 1}.
Row operations are XORs; everything is exact Gaussian elimination, no
floating point anywhere.
"""

from __future__ import annotations

import numpy as np


def as_bits(a) -> np.ndarray:
    """Coerce an array-like of 0/1 values to a uint8 array."""
    out = np.asarray(a, dtype=np.uint8) % 2
    return out


def rref(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        (R, pivot_cols): the RREF matrix and the list of pivot column
        indices in increasing order (its length is the rank).
    """
    r = as_bits(m).copy()
    if r.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = r.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        hits = np.nonzero(r[pivot_row:, col])[0]
        if hits.size == 0:
            continue
        src = pivot_row + int(hits[0])
        if src != pivot_row:
            r[[pivot_row, src]] = r[[src, pivot_row]]
        # Eliminate above and below (reduced form).
        mask = r[:, col] == 1
        mask[pivot_row] = False
        r[mask] ^= r[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
    return r, pivot_cols


def rank(m) -> int:
    """GF(2) rank of a binary matrix."""
    _, pivots = rref(m)
    return len(pivots)


def row_space_basis(m) -> np.ndarray:
    """Canonical basis of the row space: the nonzero rows of the RREF.

    Deterministic (pivot columns increasing); an all-zero input yields a
    (0, cols) array.
    """
    r, pivots = rref(m)
    return r[: len(pivots)].copy()


def coset(basis, offset) -> np.ndarray:
    """offset XOR the span of the rows of ``basis``, as a (2**k, n) matrix.

    Row m is offset XOR the basis rows at the set bits of m (binary
    counting), built by doubling: rows [2**i, 2**(i+1)) are rows
    [0, 2**i) XOR basis row i.
    """
    basis = as_bits(basis)
    offset = as_bits(offset)
    if basis.ndim != 2 or basis.shape[1] != offset.shape[0]:
        raise ValueError(f"dimension mismatch: {basis.shape} vs {offset.shape}")
    out = np.empty((2 ** basis.shape[0], offset.shape[0]), dtype=np.uint8)
    out[0] = offset
    for i, row in enumerate(basis):
        np.bitwise_xor(out[: 2**i], row, out=out[2**i : 2 ** (i + 1)])
    return out


def mat_mul(a, b) -> np.ndarray:
    """Matrix product mod 2."""
    a = as_bits(a)
    b = as_bits(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def mat_vec(m, v) -> np.ndarray:
    """Matrix-vector product mod 2."""
    m = as_bits(m)
    v = as_bits(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} x {v.shape}")
    return (m.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)


def solve(m, b) -> np.ndarray | None:
    """Solve M x = b over GF(2); returns one solution or None.

    Free variables are set to zero, so the result is deterministic.
    """
    m = as_bits(m)
    b = as_bits(b)
    if m.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} vs {b.shape}")
    aug = np.concatenate([m, b.reshape(-1, 1)], axis=1)
    r, pivots = rref(aug)
    if pivots and pivots[-1] == m.shape[1]:
        return None  # pivot in the augmented column: inconsistent system
    x = np.zeros(m.shape[1], dtype=np.uint8)
    for row, col in enumerate(pivots):
        x[col] = r[row, -1]
    return x


def in_row_span(basis, v) -> bool:
    """True iff v lies in the span of the rows of ``basis``."""
    basis = as_bits(basis)
    v = as_bits(v).copy()
    if basis.size == 0:
        return not v.any()
    if basis.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {basis.shape} vs {v.shape}")
    red, pivots = rref(basis)
    for row, col in zip(red, pivots):
        if v[col]:
            v ^= row
    return not v.any()
