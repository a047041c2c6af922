from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from pauliframe import CliffordCircuit, CliffordGate, PauliString, parse_pauli

EXAMPLE_SET_1 = ["-XXYYY", "IYIIX", "-IZXXZ", "XYIZI", "-XZXYY"]
EXAMPLE_SET_2 = ["YZZIX", "YYXII", "-ZIYIX", "ZXXXY", "ZIYZI"]


@pytest.fixture
def example_ops_1():
    return [parse_pauli(s) for s in EXAMPLE_SET_1]


@pytest.fixture
def example_ops_2():
    return [parse_pauli(s) for s in EXAMPLE_SET_2]


def random_clifford_circuit(n: int, n_gates: int, rng: np.random.Generator) -> CliffordCircuit:
    gates = []
    names_1q = ["H", "S", "X", "Z"]
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            name = "CNOT" if rng.random() < 0.5 else "CZ"
            gates.append(CliffordGate(name, (int(a), int(b))))
        else:
            q = int(rng.integers(n))
            gates.append(CliffordGate(str(rng.choice(names_1q)), (q,)))
    return CliffordCircuit(n, tuple(gates))


def random_commuting_set(
    n: int, N: int, rng: np.random.Generator, n_gates: int = 20
) -> list[PauliString]:
    """Random signed {I,Z} strings conjugated by a random Clifford circuit.

    The result pairwise commutes by construction and contains no identity.
    """
    from pauliframe import conjugate_by_circuit

    w = random_clifford_circuit(n, n_gates, rng)
    ops = []
    for _ in range(N):
        z = rng.integers(0, 2, size=n).astype(np.uint8)
        while not z.any():
            z = rng.integers(0, 2, size=n).astype(np.uint8)
        sign = -1 if rng.random() < 0.5 else 1
        p = PauliString(n, np.zeros(n, dtype=np.uint8), z, sign)
        ops.append(conjugate_by_circuit(p, w))
    return ops


def dense_pmf(ops: list[PauliString], w: CliffordCircuit) -> dict:
    """pmf of K tallied by the dense oracle from the unitary of W."""
    from pauliframe.oracle import (
        brute_pmf_K,
        dense_diagonal,
        dense_state_from_circuit,
        unitary_from_circuit,
    )

    wm = unitary_from_circuit(w)
    diagonals = np.stack([dense_diagonal(op, w, wm) for op in ops])
    return brute_pmf_K(diagonals, dense_state_from_circuit(w))


def inverse_circuit(w: CliffordCircuit) -> CliffordCircuit:
    """Gate-by-gate inverse (S inverts as S^3; the rest are involutions)."""
    inv = []
    for g in reversed(w.gates):
        if g.name == "S":
            inv.extend([g, g, g])
        else:
            inv.append(g)
    return CliffordCircuit(w.n, tuple(inv))


def walk_count_frame_potential(bits, t: int) -> Fraction:
    """F(t) = sum_x count_t(x)^2 / M^(2t) from integer walk counts.

    ``bits`` holds the M support points of K as 0/1 rows b, K = 1 - 2b.
    count_t(x) is the number of t-step sequences of support points whose
    b's sum to x; after k steps every coordinate of x lies in [0, k].
    """
    bits = np.asarray(bits, dtype=np.int64)
    M, N = bits.shape
    assert M**t < 2**63, "walk counts would overflow int64"
    counts = np.ones((1,) * N, dtype=np.int64)
    for k in range(1, t + 1):
        nxt = np.zeros((k + 1,) * N, dtype=np.int64)
        for b in bits:
            nxt[tuple(slice(int(v), int(v) + k) for v in b)] += counts
        counts = nxt
    return Fraction(sum(c * c for c in counts[counts != 0].tolist()), M ** (2 * t))
