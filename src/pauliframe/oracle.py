"""Dense brute-force verifier for small qubit counts.

Everything here recomputes pipeline quantities from first principles:
statevectors by direct gate application, Pauli operators as signed
permutations of basis indices, the pmf of K by tallying amplitudes, and
the frame potential by Monte-Carlo integration of the fidelity.  The H_j
commute, so U(theta)† U(theta') = U(theta' - theta) and each sample's
fidelity is |<0...0| U(theta' - theta) |0...0>|**2: one evolved state per
sample.  Each rotation exp(i theta_j H_j) maps |y> onto |y> and
+-|y ^ x_j>, so after j steps the state lives on the 2**rank(x_1..x_j)
basis states spanned by the first j X masks; the Monte-Carlo engine
evolves it on those rows only, in growth order: about 2 * 2**rho rows
per sample for a full-rank set, not N * 2**rho, with the floats of
evolving all 2**n rows.  Qubit 0 is the leftmost letter of a Pauli
string and the most significant bit of a basis index.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .pauli import CliffordCircuit, PauliRows, PauliString

MAX_QUBITS = 10
MC_WORK_CAP = 2**32  # Monte-Carlo samples x N x 2**rho, about 10 s of work
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


def check_guard(n: int) -> None:
    """Raise OracleGuardError if n qubits exceed the dense oracle's cap."""
    if n > MAX_QUBITS:
        raise OracleGuardError(f"dense oracle limited to n <= {MAX_QUBITS}, got {n}")


def _apply_gate(vec: np.ndarray, gate, n: int) -> None:
    """Apply a gate in place to a state (2**n,) or a batch (2**n, b): part i
    of its (2,)*n view fixes the gate's qubits to the bits of i, first
    qubit most significant, and becomes sum_k u[i, k] part_k."""
    psi = vec.reshape((2,) * n + vec.shape[1:])
    u = _GATE_MATRICES[gate.name]
    index, parts = [slice(None)] * n + [...], []
    for bits in np.ndindex((2,) * len(gate.qubits)):
        for q, bit in zip(gate.qubits, bits):
            index[q] = bit
        parts.append(psi[tuple(index)])
    old = [part.copy() for part in parts]
    for row, part in zip(u, parts):
        part[...] = sum(row[j] * old[j] for j in np.flatnonzero(row))


def unitary_from_circuit(w: CliffordCircuit) -> np.ndarray:
    """Full 2**n x 2**n matrix of the circuit."""
    check_guard(w.n)
    mat = np.eye(2**w.n, dtype=np.complex128)
    for g in w.gates:
        _apply_gate(mat, g, w.n)
    return mat


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
    check_guard(p.n)
    targets = np.arange(2**p.n, dtype=np.int64) ^ bits_to_index(p.x)
    z_parity = (bits_matrix(p.n) @ p.z.astype(np.int64)) % 2
    n_y = int((p.x & p.z).sum())
    phases = p.sign * (1j**n_y) * ((-1.0) ** z_parity)
    return targets, phases.astype(np.complex128)


def dense_diagonal(op: PauliString, w: CliffordCircuit, wm=None) -> np.ndarray:
    """Diagonal of W H W† as exact +-1 integers; raises if not diagonal.

    W H W† = D exactly when W H = D W; column x of W H is phases[x] times
    column targets[x] of W, and d is its row-wise inner product with W.
    """
    if wm is None:
        wm = unitary_from_circuit(w)
    targets, phases = pauli_permutation(op)
    wp = wm[:, targets] * phases
    diag = np.einsum("ij,ij->i", wp, wm.conj())
    if np.abs(wp - diag[:, None] * wm).max() > 1e-9:
        raise ValueError("conjugated operator is not diagonal")
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
    weights = np.abs(state) ** 2
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


def _plan(perms) -> tuple[np.ndarray, list]:
    """The 2**rho basis states U(theta)|0...0> reaches, in growth order, and
    one step per H_j.  Row k is the XOR of the masks that grew the span,
    picked by the bits of k.  A mask m outside the span of the first 2**r
    rows gives (None, f), writing rows 2**r.. from rows ..2**r; one at row
    kappa gives (axes, f), the permutation k -> k ^ kappa of the first 2**r
    rows as a flip of ``axes`` on their (2,)*r view.  f is the column
    i * phase[y ^ m] over the rows y written: +-1 or +-i."""
    rows = np.zeros(1, dtype=np.int64)
    where = np.full(len(perms[0][0]), -1)
    where[0] = 0
    steps = []
    for targets, phases in perms:
        m, r = int(targets[0]), len(rows).bit_length() - 1
        kappa = int(where[m])
        if kappa < 0:
            steps.append((None, 1j * phases[rows, None]))
            rows = np.concatenate([rows, rows ^ m])
            where[rows[1 << r :]] = np.arange(1 << r, 2 << r)
        else:
            axes = tuple(r - 1 - b for b in range(r) if kappa >> b & 1)
            steps.append((axes, 1j * phases[rows ^ m, None]))
    return rows, steps


def _evolve(steps, thetas: np.ndarray, work: np.ndarray) -> np.ndarray:
    """prod_j exp(i theta_j H_j)|0...0> for each column of thetas (N, w),
    held in work[0] of work (2, 2**rho, w) in plan order; work[1] is scratch.
    A doubling step writes hi = (lo * s) * f and then lo *= c; a permutation
    step adds flip(lo) * s * f to lo *= c.  cos and sin are complex with a
    zero imaginary part, so no product casts, for <= _BLOCK angles at once."""
    state, tmp = work
    w = thetas.shape[1]
    chunk = max(1, _BLOCK // w)
    trig = np.zeros((2, min(chunk, len(steps)), w), dtype=np.complex128)
    state[0] = 1.0
    size = 1
    for j, (axes, f) in enumerate(steps):
        if j % chunk == 0:
            part = thetas[j : j + chunk]
            np.cos(part, out=trig[0, : len(part)].real)
            np.sin(part, out=trig[1, : len(part)].real)
        cos, sin = trig[:, j % chunk]
        lo = state[:size]
        if axes is None:
            np.multiply(lo, sin, out=state[size : 2 * size])
            state[size : 2 * size] *= f
            lo *= cos
            size *= 2
        else:
            cube = (2,) * (size.bit_length() - 1) + lo.shape[1:]
            np.multiply(np.flip(lo.reshape(cube), axes), sin, out=tmp[:size].reshape(cube))
            tmp[:size] *= f
            lo *= cos
            lo += tmp[:size]
    return state


def mc_frame_potential(ops: PauliRows, t, samples: int, seed: int):
    """Monte-Carlo estimate of the frame potential and its standard error;
    a sequence of t values shares one evolution and gives a list of pairs.

    Draws (theta, theta') from [-pi, pi]^(2N) come from a Philox stream
    keyed by the seed, in batches of min(2**14, 2**22 / 2**n) samples; a
    sample's fidelity is |amplitude|**2 at row 0, |0...0>, of
    U(theta' - theta)|0...0>.  Blocks of _BLOCK / 2**rho samples evolve
    together (``_evolve``), and each t sums each batch's fidelity**t with
    math.fsum.  The floats are those of evolving all 2**n rows: an update
    is round(c a) + round(+-s a'), each complex product in it has one
    nonzero term, so it is exact, FMA or not, and only the sign of a zero,
    which never reaches |amplitude|**2, can differ.  Work of samples x N x
    2**rho past MC_WORK_CAP raises OracleGuardError before the first draw.
    """
    if samples <= 0:
        raise ValueError("sample count must be positive")
    n = ops.n
    check_guard(n)
    t_values = (t,) if np.ndim(t) == 0 else tuple(t)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows, steps = _plan([pauli_permutation(op) for op in ops])
    size, num = len(rows), len(ops)
    if samples * num * size > MC_WORK_CAP:
        raise OracleGuardError(
            f"Monte-Carlo work samples x N x 2**rho = {samples * num * size} exceeds "
            f"the cap {MC_WORK_CAP}; lower --mc-samples"
        )
    cols = max(1, _BLOCK // size)
    sums = [[0.0, 0.0] for _ in t_values]
    batch = min(1 << 14, (1 << 22) >> n)
    work = np.empty((2, size * min(cols, batch)), dtype=np.complex128)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        draws = rng.uniform(-math.pi, math.pi, size=(b, 2 * num))
        deltas = (draws[:, num:] - draws[:, :num]).T
        fid = np.empty(b)
        for lo in range(0, b, cols):
            hi = min(lo + cols, b)
            view = work[:, : size * (hi - lo)].reshape(2, size, hi - lo)
            fid[lo:hi] = np.abs(_evolve(steps, deltas[:, lo:hi], view)[0]) ** 2
        for tv, acc in zip(t_values, sums):
            vals = fid**tv
            acc[0] += math.fsum(vals.tolist())
            acc[1] += math.fsum((vals**2).tolist())
        done += b
    moments = [(total / samples, total_sq / samples) for total, total_sq in sums]
    out = [(mean, math.sqrt(max(sq - mean**2, 0.0) / samples)) for mean, sq in moments]
    return out[0] if np.ndim(t) == 0 else out
