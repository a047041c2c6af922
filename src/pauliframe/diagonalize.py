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

The stabilizers Z_1..Z_n of |0...0> ride along in the same bit matrix,
so they end as the stabilizers of W|0...0>, whose support (R, t, r) is
read from them by ``tableau.extract_support``.  W is a deliverable and a
cross-check: the law of K itself is read from the input rows
(``distribution.build_distribution``) without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import (  # noqa: F401  (multiply stays bound: bench/test_bench.py deletes it here)
    CliffordCircuit,
    CliffordGate,
    NonCommutingSetError,
    PauliString,
    check_commuting_set,
    conjugate_rows,
    multiply,
    multiply_rows,
    pauli_rows,
)
from .tableau import SupportDescriptor, extract_support


@dataclass(frozen=True)
class DiagonalizedSet:
    """Circuit W plus the diagonal encodings of the conjugated set.

    Row j of A is the Z-mask of W H_j W†; s_j is 1 iff that string
    carries sign -1.  ``support`` is the support of W|0...0>.
    """

    circuit: CliffordCircuit
    A: np.ndarray  # N x n
    s: np.ndarray  # length N
    support: SupportDescriptor


def simultaneous_diagonalize(ops: list[PauliString]) -> DiagonalizedSet:
    """Build W, A, s for a pairwise-commuting set without identities.

    The N inputs, the independent generators and the n stabilizers of
    |0...0> are rows of one bit matrix, so every synthesized gate updates
    all of them at once; A, s are the final z-block and sign column of
    the input rows.
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
    stab = N + len(independent)
    zero = np.zeros((n, n), dtype=np.uint8)
    x = np.concatenate([x, x[independent], zero])
    z = np.concatenate([z, z[independent], np.eye(n, dtype=np.uint8)])
    r = np.concatenate([r, r[independent], zero[0]])
    gates: list[CliffordGate] = []

    def apply(gate: CliffordGate) -> None:
        gates.append(gate)
        conjugate_rows(x, z, r, gate)

    todo = list(range(N, stab))
    for q in range(n):
        hits = [k for k in todo if x[k, q]]
        if not hits:
            continue
        pivot = hits[0]
        todo.remove(pivot)
        # Clear column q of the x block in the other open generators by
        # row products (the set stays a generating set of the same group).
        multiply_rows(x, z, r, hits[1:], pivot)
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

    assert not x[:stab].any(), "elimination left an X component"
    return DiagonalizedSet(
        circuit=CliffordCircuit(n, tuple(gates)),
        A=z[:N].copy(),
        s=r[:N].copy(),
        support=extract_support(x[stab:], z[stab:], r[stab:]),
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
