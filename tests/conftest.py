from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from pauliframe import CliffordCircuit, CliffordGate, PauliString, parse_pauli

EXAMPLE_SET_1 = ["-XXYYY", "IYIIX", "-IZXXZ", "XYIZI", "-XZXYY"]
EXAMPLE_SET_2 = ["YZZIX", "YYXII", "-ZIYIX", "ZXXXY", "ZIYZI"]
# Rows that never pivot: ZZI is independent of -YYI on [X|Z] but has no X
# part, and -ZZI, XXI (twice) and YYX are products of earlier rows up to sign.
EXAMPLE_SET_3 = ["-YYI", "ZZI", "-ZZI", "XXI", "XXI", "IIX", "YYX"]


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


def conjugate_ops(ops: list[PauliString], w: CliffordCircuit) -> list[PauliString]:
    """The strings W P W†, by the row engine ``pauli.conjugate_rows``."""
    from pauliframe.pauli import conjugate_rows, pauli_rows, row_pauli

    x, z, r = pauli_rows(ops)
    if x.shape[1] != w.n:
        raise ValueError(f"size mismatch: {x.shape[1]} vs {w.n}")
    for g in w.gates:
        conjugate_rows(x, z, r, g)
    return [row_pauli(x, z, r, k) for k in range(len(ops))]


def commutes(p: PauliString, q: PauliString) -> bool:
    """Pairwise symplectic commutation test: p.x . q.z ^ p.z . q.x == 0.

    The reference for ``pauli.check_commuting_set``, which takes every
    pair at once as a block matrix product.
    """
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return int(p.x @ q.z.astype(np.int64) + p.z @ q.x.astype(np.int64)) % 2 == 0


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P @ vec for a state (2**n,) or batch (2**n, b), from the signed
    permutation of ``oracle.pauli_permutation``."""
    from pauliframe.oracle import pauli_permutation

    targets, phases = pauli_permutation(p)
    out = np.empty_like(vec)
    out[targets] = (phases if vec.ndim == 1 else phases[:, None]) * vec
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Full dense matrix of a Pauli string."""
    return apply_pauli(p, np.eye(2**p.n, dtype=np.complex128))


def dense_conjugation_check(op: PauliString, w: CliffordCircuit) -> np.ndarray:
    """W H W† as a dense matrix."""
    from pauliframe.oracle import unitary_from_circuit

    wm = unitary_from_circuit(w)
    return wm @ apply_pauli(op, wm.conj().T)


def random_commuting_set(
    n: int, N: int, rng: np.random.Generator, n_gates: int = 20
) -> list[PauliString]:
    """Random signed {I,Z} strings conjugated by a random Clifford circuit.

    The result pairwise commutes by construction and contains no identity.
    """
    w = random_clifford_circuit(n, n_gates, rng)
    ops = []
    for _ in range(N):
        z = rng.integers(0, 2, size=n).astype(np.uint8)
        while not z.any():
            z = rng.integers(0, 2, size=n).astype(np.uint8)
        sign = -1 if rng.random() < 0.5 else 1
        ops.append(PauliString(n, np.zeros(n, dtype=np.uint8), z, sign))
    return conjugate_ops(ops, w)


def sets_with_dependent_rows(rng: np.random.Generator, count: int):
    """Random commuting sets with repeated, sign-flipped and product rows.

    Each inserted row is a copy of row i, its sign flip or its product
    with row j, placed before both of its factors.
    """
    from pauliframe.pauli import multiply

    for _ in range(count):
        n = int(rng.integers(1, 9))
        ops = random_commuting_set(n, int(rng.integers(1, 7)), rng, n_gates=3 * n)
        for _ in range(int(rng.integers(1, 5))):
            i, j = (int(k) for k in rng.integers(len(ops), size=2))
            a = ops[i]
            flipped = PauliString(n, a.x, a.z, -a.sign)
            new = [a, flipped, multiply(a, ops[j])][int(rng.integers(3))]
            if not new.is_identity():
                ops.insert(int(rng.integers(min(i, j) + 1)), new)
        yield ops


def hadamard_qubits(w: CliffordCircuit) -> list[int]:
    """The qubits that W applies H to, in increasing order."""
    return sorted(g.qubits[0] for g in w.gates if g.name == "H")


def support_labels(support: tuple[int, ...], n: int) -> np.ndarray:
    """Basis labels of span{e_q : q in support}, the support of W|0...0>."""
    from pauliframe.gf2 import coset
    from pauliframe.oracle import bits_to_index

    units = np.eye(n, dtype=np.uint8)[list(support)]
    return bits_to_index(coset(units, np.zeros(n, dtype=np.uint8)))


def dense_pmf(ops: list[PauliString], w: CliffordCircuit) -> dict:
    """pmf of K tallied by the dense oracle from the unitary of W."""
    from pauliframe.oracle import brute_pmf_K, dense_diagonal, unitary_from_circuit

    wm = unitary_from_circuit(w)
    diagonals = np.stack([dense_diagonal(op, w, wm) for op in ops])
    return brute_pmf_K(diagonals, wm[:, 0])


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


def hnf_diagonal(rows: list[list[int]], n: int) -> list[int] | None:
    """Pivots of the row Hermite normal form; None if rank < n.

    Euclidean elimination with exact Python ints; only the diagonal is
    needed since the covolume is its product.
    """
    a = [row[:] for row in rows]
    pivot_row = 0
    diag: list[int] = []
    for col in range(n):
        while True:
            nz = [i for i in range(pivot_row, len(a)) if a[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            a[pivot_row], a[best] = a[best], a[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(a)):
                if a[i][col] != 0:
                    qfac = a[i][col] // a[pivot_row][col]
                    a[i] = [v - qfac * w for v, w in zip(a[i], a[pivot_row])]
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < len(a) and a[pivot_row][col] != 0:
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-v for v in a[pivot_row]]
            diag.append(a[pivot_row][col])
            pivot_row += 1
        else:
            return None
    return diag


def hnf_volume(points) -> int | None:
    """Covolume of the lattice spanned by the differences of integer
    points, from the Hermite normal form of all differences to the first
    point; None if the rank is below N.

    The test oracle for ``lattice.lattice_volume``, which reads the same
    number from GF(2) ranks when the points form a coset.
    """
    points = np.asarray(points, dtype=np.int64)
    diffs = points[1:] - points[0]
    diffs = diffs[diffs.any(axis=1)]
    if not len(diffs):
        return None
    diag = hnf_diagonal(diffs.tolist(), points.shape[1])
    if diag is None:
        return None
    return abs(math.prod(diag))


def mc_frame_potential_dense(ops: list[PauliString], t: int, samples: int, seed: int):
    """Monte-Carlo F(t) evolved on all 2**n basis states, one state per sample.

    Each sample's fidelity is |<0...0| U(theta' - theta) |0...0>|**2 for
    the same Philox draws (theta, theta').  The test oracle for
    ``oracle.mc_frame_potential``, which evolves only the basis states
    reachable from |0...0>, in growth order and cache-sized blocks, and
    must return the same floats.
    """
    from pauliframe.oracle import pauli_permutation

    def rotation_states(perms, thetas, n):
        state = np.zeros((2**n, thetas.shape[0]), dtype=np.complex128)
        state[0] = 1.0
        for j, (targets, phases) in enumerate(perms):
            hv = state[targets]
            hv *= phases[targets][:, None]
            hv *= 1j * np.sin(thetas[:, j])
            state *= np.cos(thetas[:, j])
            state += hv
        return state

    n = ops[0].n
    rng = np.random.Generator(np.random.Philox(key=seed))
    perms = [pauli_permutation(op) for op in ops]
    num = len(ops)
    total = 0.0
    total_sq = 0.0
    batch = min(1 << 14, (1 << 22) >> n)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        draws = rng.uniform(-math.pi, math.pi, size=(b, 2 * num))
        state = rotation_states(perms, draws[:, num:] - draws[:, :num], n)
        vals = (np.abs(state[0]) ** 2) ** t
        total += math.fsum(vals.tolist())
        total_sq += math.fsum((vals**2).tolist())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)
