"""Simultaneous diagonalization of a commuting Pauli set.

Synthesizes a Clifford circuit W (gates H, S, CNOT, CZ) such that every
operator of the input set conjugates under W to a signed {I, Z}-only
string, then reads off the Z-masks (matrix A) and signs.

The algorithm is symplectic Gaussian elimination on an independent
generator subset: for each pivot qubit, one generator is reduced to
exactly +-X_q (row products clear the x column, CNOTs clear the x row,
CZ/S clear the z row), after which H(q) turns it into +-Z_q.  Because the
generators stay mutually commuting throughout, a generator equal to X_q
forces x_q = z_q = 0 on every other generator, so the Hadamard never
disturbs already-diagonal rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import (
    CliffordCircuit,
    CliffordGate,
    PauliString,
    check_commuting_set,
    conjugate_rows,
    multiply,
    pauli_rows,
    row_pauli,
)


class NonCommutingSetError(ValueError):
    """Input operators do not pairwise commute."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"operators {pair[0]} and {pair[1]} anticommute")


@dataclass(frozen=True)
class DiagonalizedSet:
    """Circuit W plus the diagonal encodings of the conjugated set.

    Row j of A is the Z-mask of W H_j W†; s_j is 1 iff that string
    carries sign -1.
    """

    circuit: CliffordCircuit
    A: np.ndarray  # N x n
    s: np.ndarray  # length N


def simultaneous_diagonalize(ops: list[PauliString]) -> DiagonalizedSet:
    """Build W, A, s for a pairwise-commuting set without identities.

    The N inputs and the independent generators are rows of one bit
    matrix, so every synthesized gate updates all of them at once and A,
    s are the final z-block and sign column of the input rows.
    """
    if not ops:
        raise ValueError("empty operator list")
    bad = check_commuting_set(ops)
    if bad is not None:
        raise NonCommutingSetError(bad)
    for j, op in enumerate(ops):
        if op.is_identity():
            raise ValueError(f"operator {j} is the identity string")
    n = ops[0].n
    N = len(ops)

    x, z, r = pauli_rows(ops)
    # The first operators that raise the rank: pivot columns of the
    # symplectic matrix with one operator per column.
    _, independent = gf2.rref(np.concatenate([x, z], axis=1).T)
    x, z, r = (np.concatenate([a, a[independent]]) for a in (x, z, r))
    gates: list[CliffordGate] = []

    def apply(gate: CliffordGate) -> None:
        gates.append(gate)
        conjugate_rows(x, z, r, gate)

    todo = list(range(N, N + len(independent)))
    for q in range(n):
        pivot = next((k for k in todo if x[k, q]), None)
        if pivot is None:
            continue
        todo.remove(pivot)
        # Clear column q of the x block in the other open generators by
        # row products (the set stays a generating set of the same group).
        for k in todo:
            if x[k, q]:
                prod = multiply(row_pauli(x, z, r, k), row_pauli(x, z, r, pivot))
                x[k], z[k], r[k] = prod.x, prod.z, prod.sign < 0
        # Reduce the pivot generator to exactly +-X_q.
        for q2 in np.flatnonzero(x[pivot]):
            if q2 != q:
                apply(CliffordGate.cnot(q, int(q2)))
        for q2 in np.flatnonzero(z[pivot]):
            if q2 != q:
                apply(CliffordGate.cz(q, int(q2)))
        if z[pivot, q]:
            apply(CliffordGate.s(q))
        assert np.flatnonzero(x[pivot]).tolist() == [q] and not z[pivot].any()
        # Every other generator commutes with +-X_q, hence has z_q = 0,
        # so H(q) only acts on the pivot.
        apply(CliffordGate.h(q))

    assert not x.any(), "elimination left an X component"
    return DiagonalizedSet(
        circuit=CliffordCircuit(n, tuple(gates)), A=z[:N].copy(), s=r[:N].copy()
    )


def verify_diagonalization(
    ops: list[PauliString], result: DiagonalizedSet
) -> tuple[bool, int | None]:
    """Re-derive each conjugated operator and compare with (A, s).

    One pass over the gates conjugates all operators.  Returns
    (True, None) on success, else (False, j) for the first operator that
    fails.
    """
    x, z, r = pauli_rows(ops)
    if x.shape[1] != result.circuit.n:
        raise ValueError(f"size mismatch: {x.shape[1]} vs {result.circuit.n}")
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
