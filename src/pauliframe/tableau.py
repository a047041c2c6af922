"""X-block elimination of signed Pauli rows.

Rows are signed Pauli strings (-1)^r X^x Z^z held as (x, z, sign-bit)
arrays, as for ``pauli.conjugate_rows``.  ``reduce_x_block`` clears their
X block by row products with sign tracking; every row that is not a
pivot ends as a signed Z string, whose value on a basis label is fixed.
One pass serves both the law and W: ``diagonalize.simultaneous_diagonalize``
emits one gate block of W per pivot row and reads the law of K off the
same pass (``distribution.law_from_elimination``), and
``distribution.build_distribution`` runs it for the law alone.
"""

from __future__ import annotations

import numpy as np

from .pauli import multiply_rows


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
