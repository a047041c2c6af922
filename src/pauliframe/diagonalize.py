"""Simultaneous diagonalization of a commuting Pauli set.

Synthesizes a Clifford circuit W (gates H, S, CNOT, CZ) such that every
operator of the input set conjugates under W to a signed {I, Z}-only
string, then reads off the Z-masks (matrix A) and signs.

The algorithm is the law's X-block elimination
(``tableau.reduce_x_block``), run once on a copy of the input rows, then
one gate block per pivot row: with q its first set X bit, CNOTs
controlled on q and CZs on q, then S(q) if needed, make the row +-X_q,
and H(q) makes it +-Z_q.  These are the gates of symplectic Gaussian
elimination that interleaves the row products with the gates, because:

- a row whose X part lies in the span of earlier rows' X parts never
  becomes a pivot, so dependent rows (repeats, sign flips, products)
  change nothing and no independent generators need picking first;
- row products commute with conjugation, W(PQ)W† = (WPW†)(WQW†), so
  eliminating before the first gate hands each block the row that the
  interleaved elimination reduces there.

A later pivot row has x_q = 0, and z_q = 0 as it commutes with +-X_q, so
the block of q leaves it alone.  Every input row is a product of pivot
rows and a signed Z string, so it ends as a signed Z string.

W|0...0> is |+> on the pivot qubits and |0> on the rest (see
``simultaneous_diagonalize``).  The same elimination gives the law of K
(``distribution.law_from_elimination``), so W and the law come from one
pass; ``distribution.build_distribution`` gives the law without W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .distribution import KDistribution, law_from_elimination
from .pauli import (  # noqa: F401  (multiply stays bound: bench/test_bench.py deletes it here)
    CliffordCircuit,
    CliffordGate,
    NonCommutingSetError,
    PauliRows,
    check_commuting_set,
    conjugate_rows,
    multiply,
)
from .tableau import reduce_x_block


@dataclass(frozen=True)
class DiagonalizedSet:
    """Circuit W plus the diagonal encodings of the conjugated set.

    Row j of A is the Z-mask of W H_j W†; s_j is 1 iff that string
    carries sign -1.  ``support`` lists the qubits W applies H to, in
    increasing order; W|0...0> is |+> on them and |0> elsewhere.  ``law``
    is the law of K.
    """

    circuit: CliffordCircuit
    A: np.ndarray  # N x n
    s: np.ndarray  # length N
    support: tuple[int, ...]
    law: KDistribution


def simultaneous_diagonalize(ops: PauliRows) -> DiagonalizedSet:
    """Build W, A, s and the law of K for a pairwise-commuting set
    without identities.

    ``reduce_x_block`` runs on a copy of the input rows, and the law of
    K is read off it.  The N input rows and its rho pivot rows are rows
    of one bit matrix, so every synthesized gate updates all of them at
    once; A, s are the final z-block and sign column of the input rows.

    W|0...0> is |+> on the pivot qubits and |0> on the rest.  By
    induction over the pivots, the state before pivot q's block is |+>
    on the earlier pivots and |0> on the rest.  The block's CNOTs are
    controlled on q and its CZs and S(q) act on q, all while qubit q is
    |0>, so each fixes the state; H(q) then puts qubit q in |+>.
    """
    bad = check_commuting_set(ops)
    if bad is not None:
        raise NonCommutingSetError(bad)
    identities = np.flatnonzero(~(ops.x.any(axis=1) | ops.z.any(axis=1)))
    if identities.size:
        raise ValueError(f"operator {identities[0]} is the identity string")
    N = len(ops)

    gx, gz, gr = ops.copies()
    pivots = reduce_x_block(gx, gz, gr)
    law = law_from_elimination(ops.x, gr, pivots)
    x = np.concatenate([ops.x, gx[pivots]])
    z = np.concatenate([ops.z, gz[pivots]])
    r = np.concatenate([ops.r, gr[pivots]])
    gates: list[CliffordGate] = []
    pivot_qubits: list[int] = []

    def apply(gate: CliffordGate) -> None:
        gates.append(gate)
        conjugate_rows(x, z, r, gate)

    for k in range(N, len(x)):
        q, *targets = np.flatnonzero(x[k]).tolist()
        for q2 in targets:
            apply(CliffordGate("CNOT", (q, q2)))
        for q2 in np.flatnonzero(z[k]).tolist():
            if q2 != q:
                apply(CliffordGate("CZ", (q, q2)))
        if z[k, q]:
            apply(CliffordGate("S", (q,)))
        assert np.flatnonzero(x[k]).tolist() == [q] and not z[k].any()
        apply(CliffordGate("H", (q,)))
        pivot_qubits.append(q)

    assert not x.any(), "elimination left an X component"
    return DiagonalizedSet(
        circuit=CliffordCircuit(ops.n, tuple(gates)),
        A=z[:N].copy(),
        s=r[:N].copy(),
        support=tuple(pivot_qubits),
        law=law,
    )


def verify_diagonalization(
    ops: PauliRows, result: DiagonalizedSet
) -> tuple[bool, int | None]:
    """Re-derive each conjugated operator and compare with (A, s).

    One pass over the gates conjugates all operators.  Returns
    (True, None) on success, else (False, j) for the first operator that
    fails.
    """
    if ops.n != result.circuit.n:
        raise ValueError(f"size mismatch: {ops.n} vs {result.circuit.n}")
    x, z, r = ops.copies()
    for g in result.circuit.gates:
        conjugate_rows(x, z, r, g)
    ok = (
        ~x.any(axis=1)
        & (z == gf2.as_bits(result.A)).all(axis=1)
        & (r == gf2.as_bits(result.s))
    )
    failed = np.flatnonzero(~ok)
    if failed.size:
        return False, int(failed[0])
    return True, None
