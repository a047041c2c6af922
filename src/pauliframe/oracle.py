"""Dense brute-force verifier for small qubit counts.

Everything here recomputes pipeline quantities from first principles:
statevectors by direct gate application, Pauli operators as signed
permutations of basis indices, the pmf of K by tallying amplitudes, and
the frame potential by Monte-Carlo integration of the fidelity, with
U(theta)|0...0> held on the 2**rho basis states it can reach.  Qubit 0 is
the leftmost letter of a Pauli string and the most significant bit of a
basis index.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .pauli import CliffordCircuit, PauliString

MAX_QUBITS = 10
_BLOCK = 1 << 14  # amplitudes per state array in one Monte-Carlo block

_GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
    "S": np.diag([1, 1j]),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.diag([1, -1]).astype(np.complex128),
    "CNOT": np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
}


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
    psi = (u @ psi.reshape(2**k, -1)).reshape(psi.shape)
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
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (np.arange(2**n, dtype=np.int64)[:, None] >> shifts) & 1


def pauli_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form: P|x> = phases[x] |targets[x]>."""
    _check_guard(p.n)
    targets = np.arange(2**p.n, dtype=np.int64) ^ bits_to_index(p.x)
    z_parity = (bits_matrix(p.n) @ p.z.astype(np.int64)) % 2
    n_y = int((p.x & p.z).sum())
    phases = p.sign * (1j**n_y) * ((-1.0) ** z_parity)
    return targets, phases.astype(np.complex128)


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P @ vec for a state (2**n,) or batch (2**n, b)."""
    targets, phases = pauli_permutation(p)
    out = np.empty_like(vec)
    out[targets] = (phases if vec.ndim == 1 else phases[:, None]) * vec
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
    diagonals: np.ndarray, state: np.ndarray
) -> dict[tuple[int, ...], Fraction]:
    """pmf of K by direct tally, independent of the A-matrix path.

    Row j of ``diagonals`` is the dense diagonal of W H_j W† (from
    ``dense_diagonal``) and ``state`` is W|0...0>; each basis label
    contributes its column of eigenvalues with the dense weight,
    rationalized (weights are dyadic with denominator dividing 2**n for
    a stabilizer state).
    """
    weights = amplitudes_squared(state)
    pmf: dict[tuple[int, ...], Fraction] = {}
    denom = len(weights)
    for x in range(denom):
        scaled = weights[x] * denom
        num = round(scaled)
        if abs(scaled - num) > 1e-8:
            raise ValueError(f"amplitude at {x} is not dyadic: {weights[x]}")
        if num == 0:
            continue
        key = tuple(int(v) for v in diagonals[:, x])
        pmf[key] = pmf.get(key, Fraction(0)) + Fraction(num, denom)
    return pmf


def _reachable(perms) -> np.ndarray:
    """The 2**rho basis states U(theta)|0...0> reaches, in increasing order:
    the closure of {0} under every x -> targets[x] = x ^ (X mask of H_j)."""
    rows = np.zeros(1, dtype=np.int64)
    for targets, _ in perms:
        rows = np.union1d(rows, targets[rows])
    return rows


def _rotation_steps(perms, rows: np.ndarray) -> list:
    """Each H_j as a (gather index, phase column) pair on ``rows``."""
    return [
        (np.searchsorted(rows, targets[rows]), phases[targets[rows], None])
        for targets, phases in perms
    ]


def _evolve(steps, thetas: np.ndarray) -> np.ndarray:
    """prod_j exp(i theta_j H_j)|0...0> on steps' rows, a column per theta row."""
    state = np.zeros((len(steps[0][0]), thetas.shape[0]), dtype=np.complex128)
    state[0] = 1.0
    for j, (gather, phases) in enumerate(steps):
        hv = state[gather]
        hv *= phases
        hv *= 1j * np.sin(thetas[:, j])
        state *= np.cos(thetas[:, j])
        state += hv
    return state


def fidelity(ops: list[PauliString], theta, theta_prime) -> float:
    """|<0| U(theta)† U(theta') |0>|^2 by direct statevector evolution."""
    _check_guard(ops[0].n)
    theta = np.asarray(theta, dtype=np.float64).reshape(1, -1)
    theta_prime = np.asarray(theta_prime, dtype=np.float64).reshape(1, -1)
    if theta.shape[1] != len(ops) or theta_prime.shape[1] != len(ops):
        raise ValueError("parameter vector length must equal the gate count")
    perms = [pauli_permutation(op) for op in ops]
    steps = _rotation_steps(perms, _reachable(perms))
    overlap = np.vdot(_evolve(steps, theta), _evolve(steps, theta_prime))
    return float(np.abs(overlap) ** 2)


def mc_frame_potential(
    ops: list[PauliString], t: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the frame potential and its standard error.

    Uniform draws from [-pi, pi]^(2N) come from a Philox stream keyed by
    the seed, in batches of min(2**14, 2**22 / 2**n) samples, each summed
    with math.fsum.  States live on the 2**rho reachable basis states, so
    a sample costs N * 2**rho work, in blocks of about _BLOCK amplitudes
    and two or more columns, which numpy sums row by row: the floats equal
    those of all 2**n rows, as the others hold zeros.  numpy sums a lone
    column pairwise and rounds a one-element in-place product apart, so a
    one-sample batch keeps all 2**n rows.
    """
    if samples <= 0:
        raise ValueError("sample count must be positive")
    n = ops[0].n
    _check_guard(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    perms = [pauli_permutation(op) for op in ops]
    rows = _reachable(perms)
    cols = max(2, _BLOCK // len(rows))
    num = len(ops)
    total = total_sq = 0.0
    batch = min(1 << 14, (1 << 22) >> n)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        draws = rng.uniform(-math.pi, math.pi, size=(b, 2 * num))
        steps = _rotation_steps(perms, rows if b > 1 else np.arange(2**n))
        overlap = np.empty(b)
        blocks = max(1, b // cols)
        for k in range(blocks):
            lo, hi = b * k // blocks, b * (k + 1) // blocks
            prod = _evolve(steps, draws[lo:hi, :num])
            np.conjugate(prod, out=prod)
            prod *= _evolve(steps, draws[lo:hi, num:])
            overlap[lo:hi] = np.abs(np.sum(prod, axis=0)) ** 2
        vals = overlap**t
        total += math.fsum(vals.tolist())
        total_sq += math.fsum((vals**2).tolist())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)
