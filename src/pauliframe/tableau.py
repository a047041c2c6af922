"""X-block elimination of signed Pauli rows and the support of a stabilizer state.

Rows are signed Pauli strings (-1)^r X^x Z^z held as (x, z, sign-bit)
arrays, as for ``pauli.conjugate_rows``.  ``reduce_x_block`` clears their
X block by row products with sign tracking; every row that is not a
pivot ends as a signed Z string, whose value on a basis label is fixed.
The law of K reads its offset from the input rows this way
(``distribution.build_distribution``), and ``extract_support`` reads the
support of a stabilizer state from its n stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import multiply_rows


@dataclass(frozen=True)
class SupportDescriptor:
    """Affine description {R z + t : z in Z_2^r} of the nonzero-amplitude
    basis labels of a stabilizer state."""

    R: np.ndarray  # n x r, full column rank
    t: np.ndarray  # length n
    r: int


def reduce_x_block(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Eliminate the X block of the rows in place; return the pivot rows.

    For each column q in turn, the first open row with x[q] = 1 becomes
    the pivot of q (and is no longer open) and is multiplied into every
    other open row with x[q] = 1.  A row that never becomes a pivot ends
    with no X part: it is (-1)^r Z^z, the product of its input row and
    input pivot rows.
    """
    is_open = np.ones(len(x), dtype=bool)
    pivots = []
    for q in range(x.shape[1]):
        hits = np.flatnonzero(is_open & (x[:, q] == 1))
        if hits.size:
            multiply_rows(x, z, r, hits[1:], hits[0])
            is_open[hits[0]] = False
            pivots.append(hits[0])
    return np.array(pivots, dtype=np.intp)


def extract_support(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> SupportDescriptor:
    """(R, t, r) of the state stabilized by the n rows (x, z, sign-bit).

    The support directions are the row space of the X block; R holds its
    reduced echelon basis as columns.  The diagonal stabilizers
    (-1)^s Z^z left by ``reduce_x_block`` say z . u = s for every label
    u in the support.  t is the solution with zeros at R's pivots, which
    is the smallest support index with qubit 0 as the most significant
    bit.
    """
    basis, cols = gf2.rref(x)
    R = basis[: len(cols)].T.copy()
    x, z, r = x.copy(), z.copy(), r.copy()
    diag = np.ones(len(x), dtype=bool)
    diag[reduce_x_block(x, z, r)] = False
    t = gf2.solve(z[diag], r[diag])
    assert t is not None, "diagonal stabilizers are inconsistent"
    t ^= gf2.mat_vec(R, t[cols])  # R is the identity at the pivots
    return SupportDescriptor(R=R, t=t, r=len(cols))
