"""Dense brute-force verifier for small qubit counts.

Everything here recomputes pipeline quantities from first principles:
statevectors by direct gate application, Pauli operators as signed
permutations of basis indices, the pmf of K by tallying amplitudes, and
the frame potential by Monte-Carlo integration of the fidelity.  Qubit 0
is the leftmost letter of a Pauli string and the most significant bit of
a basis index.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .diagonalize import DiagonalizedSet
from .pauli import CliffordCircuit, PauliString

MAX_QUBITS = 10

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)
_CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)

_GATE_MATRICES = {"H": _H, "S": _S, "X": _X, "Z": _Z, "CNOT": _CNOT, "CZ": _CZ}


class OracleGuardError(RuntimeError):
    """Dense computation requested beyond the qubit guard."""


def _check_guard(n: int) -> None:
    if n > MAX_QUBITS:
        raise OracleGuardError(f"dense oracle limited to n <= {MAX_QUBITS}, got {n}")


def _apply_gate(vec: np.ndarray, gate, n: int) -> np.ndarray:
    """Apply a gate to a state of shape (2**n,) or a batch (2**n, b)."""
    batch = vec.shape[1:] if vec.ndim > 1 else ()
    psi = vec.reshape((2,) * n + batch)
    u = _GATE_MATRICES[gate.name]
    k = len(gate.qubits)
    psi = np.moveaxis(psi, gate.qubits, range(k))
    head = psi.shape[:k]
    psi = (u @ psi.reshape(2**k, -1)).reshape(head + psi.shape[k:])
    psi = np.moveaxis(psi, range(k), gate.qubits)
    return psi.reshape((2**n,) + batch)


def dense_state_from_circuit(w: CliffordCircuit) -> np.ndarray:
    """State vector of W|0...0>."""
    _check_guard(w.n)
    vec = np.zeros(2**w.n, dtype=np.complex128)
    vec[0] = 1.0
    for g in w.gates:
        vec = _apply_gate(vec, g, w.n)
    return vec


def unitary_from_circuit(w: CliffordCircuit) -> np.ndarray:
    """Full 2**n x 2**n matrix of the circuit."""
    _check_guard(w.n)
    mat = np.eye(2**w.n, dtype=np.complex128)
    for g in w.gates:
        mat = _apply_gate(mat, g, w.n)
    return mat


def amplitudes_squared(state: np.ndarray) -> np.ndarray:
    """Entrywise |amplitude|^2 (sums to 1 for a normalized state)."""
    return np.abs(state) ** 2


def bits_to_index(u):
    """Basis index of an n-bit label, qubit 0 first (MSB).

    A matrix of labels, one per row, gives an array of indices.
    """
    u = np.asarray(u, dtype=np.int64)
    return u @ (1 << np.arange(u.shape[-1] - 1, -1, -1, dtype=np.int64))


def bits_matrix(n: int) -> np.ndarray:
    """(2**n, n) matrix whose row x is the bit label of basis index x."""
    idx = np.arange(2**n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] >> shifts) & 1


def pauli_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form: P|x> = phases[x] |targets[x]>."""
    _check_guard(p.n)
    n = p.n
    dim = 2**n
    xint = bits_to_index(p.x)
    idx = np.arange(dim, dtype=np.int64)
    targets = idx ^ xint
    z_parity = (bits_matrix(n) @ p.z.astype(np.int64)) % 2
    n_y = int((p.x & p.z).sum())
    phases = p.sign * (1j**n_y) * ((-1.0) ** z_parity)
    return targets, phases.astype(np.complex128)


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P @ vec for a state (2**n,) or batch (2**n, b)."""
    targets, phases = pauli_permutation(p)
    out = np.empty_like(vec)
    if vec.ndim == 1:
        out[targets] = phases * vec
    else:
        out[targets] = phases[:, None] * vec
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Full dense matrix of a Pauli string (test helper)."""
    return apply_pauli(p, np.eye(2**p.n, dtype=np.complex128))


def dense_conjugation_check(op: PauliString, w: CliffordCircuit) -> np.ndarray:
    """W H W† as a dense matrix."""
    _check_guard(op.n)
    wm = unitary_from_circuit(w)
    return wm @ apply_pauli(op, wm.conj().T)


def dense_diagonal(op: PauliString, w: CliffordCircuit, wm=None) -> np.ndarray:
    """Diagonal of W H W† as exact +-1 integers; raises if not diagonal."""
    if wm is None:
        wm = unitary_from_circuit(w)
    m = wm @ apply_pauli(op, wm.conj().T)
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > 1e-9:
        raise ValueError("conjugated operator is not diagonal")
    diag = np.diag(m)
    if np.abs(diag.imag).max() > 1e-9 or np.abs(np.abs(diag.real) - 1).max() > 1e-9:
        raise ValueError("diagonal entries are not +-1")
    return np.rint(diag.real).astype(np.int64)


def brute_pmf_K(
    ops: list[PauliString], diag: DiagonalizedSet, state: np.ndarray
) -> dict[tuple[int, ...], Fraction]:
    """pmf of K by direct tally, independent of the A-matrix path.

    Eigenvalue rows come from dense conjugation of each operator; weights
    are the dense amplitudes of the base state, rationalized (they are
    dyadic with denominator dividing 2**n for a stabilizer state).
    """
    n = ops[0].n
    _check_guard(n)
    wm = unitary_from_circuit(diag.circuit)
    rows = np.stack([dense_diagonal(op, diag.circuit, wm) for op in ops])  # N x 2^n
    weights = amplitudes_squared(state)
    pmf: dict[tuple[int, ...], Fraction] = {}
    denom = 2**n
    for x in range(2**n):
        scaled = weights[x] * denom
        num = round(scaled)
        if abs(scaled - num) > 1e-8:
            raise ValueError(f"amplitude at {x} is not dyadic: {weights[x]}")
        if num == 0:
            continue
        key = tuple(int(v) for v in rows[:, x])
        pmf[key] = pmf.get(key, Fraction(0)) + Fraction(num, denom)
    return pmf


def _rotation_states(
    perms: list[tuple[np.ndarray, np.ndarray]],
    thetas: np.ndarray,
    n: int,
) -> np.ndarray:
    """prod_j exp(i theta_j H_j) |0...0> for a batch of parameter vectors.

    thetas has shape (batch, N); returns states of shape (2**n, batch).
    """
    batch = thetas.shape[0]
    state = np.zeros((2**n, batch), dtype=np.complex128)
    state[0] = 1.0
    for j, (targets, phases) in enumerate(perms):
        hv = np.empty_like(state)
        hv[targets] = phases[:, None] * state
        c = np.cos(thetas[:, j])
        s = np.sin(thetas[:, j])
        state = c * state + 1j * s * hv
    return state


def fidelity(ops: list[PauliString], theta, theta_prime) -> float:
    """|<0| U(theta)† U(theta') |0>|^2 by direct statevector evolution."""
    n = ops[0].n
    _check_guard(n)
    theta = np.asarray(theta, dtype=np.float64).reshape(1, -1)
    theta_prime = np.asarray(theta_prime, dtype=np.float64).reshape(1, -1)
    if theta.shape[1] != len(ops) or theta_prime.shape[1] != len(ops):
        raise ValueError("parameter vector length must equal the gate count")
    perms = [pauli_permutation(op) for op in ops]
    s1 = _rotation_states(perms, theta, n)[:, 0]
    s2 = _rotation_states(perms, theta_prime, n)[:, 0]
    return float(np.abs(np.vdot(s1, s2)) ** 2)


def mc_frame_potential(
    ops: list[PauliString],
    t: int,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the frame potential and its standard error.

    Uniform draws from [-pi, pi]^(2N) using a counter-based Philox stream
    keyed by the seed, so results are reproducible.  Samples are taken in
    batches of min(2**14, 2**22 / 2**n), so a batch of states holds at most
    2**22 amplitudes whatever n is.
    """
    if samples <= 0:
        raise ValueError("sample count must be positive")
    n = ops[0].n
    _check_guard(n)
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
        s1 = _rotation_states(perms, draws[:, :num], n)
        s2 = _rotation_states(perms, draws[:, num:], n)
        overlap = np.abs(np.sum(s1.conj() * s2, axis=0)) ** 2
        vals = overlap**t
        total += math.fsum(vals.tolist())
        total_sq += math.fsum((vals**2).tolist())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    stderr = math.sqrt(var / samples)
    return mean, stderr
