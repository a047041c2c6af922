"""Aaronson-Gottesman stabilizer tableau and the support of its state.

The tableau holds 2n generators (n destabilizers on top, n stabilizers on
the bottom) as a 2n x n X block, a 2n x n Z block and a 2n sign-bit
column.  Gates update it through ``pauli.conjugate_rows``; the support
is read from the stabilizer half by row reduction, with row products
through ``pauli.multiply``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import CliffordCircuit, conjugate_rows, multiply, row_pauli


@dataclass(frozen=True)
class SupportDescriptor:
    """Affine description {R z + t : z in Z_2^r} of the nonzero-amplitude
    basis labels of a stabilizer state."""

    R: np.ndarray  # n x r, full column rank
    t: np.ndarray  # length n
    r: int


class StabilizerTableau:
    """Mutable tableau for one stabilizer state."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("qubit count must be positive")
        self.n = n
        # |0...0>: destabilizers X_i, stabilizers Z_i, all signs 0.
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    def apply_gate(self, gate) -> None:
        conjugate_rows(self.x, self.z, self.r, gate)

    # -- support extraction ----------------------------------------------

    def xbar(self) -> np.ndarray:
        """X block of the stabilizer rows (bottom half)."""
        return self.x[self.n :].copy()

    def extract_support(self) -> SupportDescriptor:
        """(R, t, r) with support {R z + t : z in Z_2^r}.

        Gauss-Jordan elimination of the stabilizers on their X block
        leaves r rows whose X parts are the reduced echelon basis of the
        support directions, and n - r diagonal stabilizers (-1)^s Z^z: a
        label u is in the support iff z . u = s for each of them.  t is
        the solution with zeros at the pivot columns, which is the
        smallest support index with qubit 0 as the most significant bit.
        """
        n = self.n
        rows = [row_pauli(self.x, self.z, self.r, i) for i in range(n, 2 * n)]
        pivots: list[int] = []
        for q in range(n):
            hit = next((k for k in range(len(pivots), n) if rows[k].x[q]), None)
            if hit is None:
                continue
            p = len(pivots)
            rows[p], rows[hit] = rows[hit], rows[p]
            for k in range(n):
                if k != p and rows[k].x[q]:
                    rows[k] = multiply(rows[k], rows[p])
            pivots.append(q)
        r = len(pivots)
        R = np.array([row.x for row in rows[:r]], dtype=np.uint8).reshape(r, n).T.copy()
        diag = rows[r:]
        t = gf2.solve(
            np.array([d.z for d in diag], dtype=np.uint8).reshape(n - r, n),
            np.array([d.sign < 0 for d in diag], dtype=np.uint8),
        )
        assert t is not None, "diagonal stabilizers are inconsistent"
        t ^= gf2.mat_vec(R, t[pivots])  # R is the identity at the pivots
        return SupportDescriptor(R=R, t=t, r=r)

    # -- debug dump --------------------------------------------------------

    def dump(self) -> str:
        """Block layout ``x bits | z bits | sign``, one generator per line."""
        lines = []
        for i in range(2 * self.n):
            xs = " ".join(str(int(b)) for b in self.x[i])
            zs = " ".join(str(int(b)) for b in self.z[i])
            lines.append(f"{xs} | {zs} | {int(self.r[i])}")
        return "\n".join(lines)


def tableau_from_circuit(w: CliffordCircuit) -> StabilizerTableau:
    """Tableau of W|0...0> by gate-by-gate update."""
    tab = StabilizerTableau(w.n)
    for g in w.gates:
        tab.apply_gate(g)
    return tab
