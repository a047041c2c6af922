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
