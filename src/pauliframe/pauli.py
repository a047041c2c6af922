"""Signed Pauli strings in symplectic form and Clifford conjugation.

A Pauli string on n qubits is stored as two bit vectors x, z of length n
plus a global sign in {+1, -1}.  Per-qubit encoding in (x, z) order:
I=00, X=10, Y=11, Z=01.  Only Hermitian strings are representable; every
operation here preserves that (a sign of +-i is a bug and raises).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}

_ONE_QUBIT = ("H", "S", "X", "Z")
_TWO_QUBIT = ("CNOT", "CZ")


class PauliParseError(ValueError):
    """Raised when a Pauli string literal cannot be parsed."""


@dataclass(frozen=True, eq=False)
class PauliString:
    """Signed n-qubit Pauli operator."""

    n: int
    x: np.ndarray
    z: np.ndarray
    sign: int = 1

    def __post_init__(self):
        x = gf2.as_bits(self.x)
        z = gf2.as_bits(self.z)
        if self.n <= 0:
            raise ValueError("qubit count must be positive")
        if x.shape != (self.n,) or z.shape != (self.n,):
            raise ValueError("x/z bit vectors must have length n")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.sign == other.sign
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sign, self.x.tobytes(), self.z.tobytes()))

    def is_identity(self) -> bool:
        return not self.x.any() and not self.z.any()

    def __str__(self) -> str:
        return format_pauli(self)

    def __repr__(self) -> str:
        return f"PauliString({format_pauli(self)!r})"


def parse_pauli(text: str, n_expected: int | None = None) -> PauliString:
    """Parse ``sign? [IXYZ]+`` into a PauliString.

    Accepts an optional leading '+', '-' or unicode minus.  If
    ``n_expected`` is given, the letter count must match.
    """
    s = text.strip()
    sign = 1
    if s[:1] in ("+", "-", "−"):
        sign = 1 if s[0] == "+" else -1
        s = s[1:]
    if not s:
        raise PauliParseError(f"empty Pauli string in {text!r}")
    if n_expected is not None and len(s) != n_expected:
        raise PauliParseError(
            f"expected {n_expected} qubits, got {len(s)} in {text!r}"
        )
    x = np.zeros(len(s), dtype=np.uint8)
    z = np.zeros(len(s), dtype=np.uint8)
    for i, c in enumerate(s):
        try:
            x[i], z[i] = _CHAR_TO_BITS[c]
        except KeyError:
            raise PauliParseError(
                f"invalid character {c!r} at position {i} in {text!r}"
            ) from None
    return PauliString(len(s), x, z, sign)


def format_pauli(p: PauliString) -> str:
    """Inverse of parse_pauli (always emits a '-' prefix for negative sign)."""
    body = "".join(
        _BITS_TO_CHAR[(int(a), int(b))] for a, b in zip(p.x, p.z)
    )
    return ("-" if p.sign < 0 else "") + body


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic commutation test: p.x . q.z ^ p.z . q.x == 0."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    sp = int(p.x @ q.z.astype(np.int64) + p.z @ q.x.astype(np.int64)) % 2
    return sp == 0


def check_commuting_set(ops: list[PauliString]) -> tuple[int, int] | None:
    """Return None if all pairs commute, else the first violating (i, j).

    All symplectic products are the GF(2) product S = [X Z] [Z X]^T; it
    is formed a block of rows at a time, each block about 2^20 entries,
    so a long list never needs the whole N x N matrix.  The integer
    product is taken in float64, where sums of 0/1 terms are exact, for
    BLAS speed.  S is symmetric with a zero diagonal, so its first
    nonzero entry in row-major order is the first violating pair i < j.
    """
    if not ops:
        raise ValueError("empty operator list")
    n = ops[0].n
    for op in ops:
        if op.n != n:
            raise ValueError("mixed qubit counts in operator list")
    x, z, _ = pauli_rows(ops)
    xz = np.hstack([x, z]).astype(np.float64)
    zx = np.hstack([z, x]).T.astype(np.float64)
    rows = max(1, (1 << 20) // len(ops))
    for start in range(0, len(ops), rows):
        block = (xz[start : start + rows] @ zx).astype(np.int64) & 1
        if block.any():
            i, j = np.argwhere(block)[0]
            return (start + int(i), int(j))
    return None


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Product p*q of two commuting Hermitian Pauli strings.

    The result of multiplying commuting Hermitian strings is Hermitian
    with sign +-1; a residual phase of +-i raises.
    """
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    # Exponent of i per qubit, standard mod-4 bookkeeping.
    x1, z1 = p.x.astype(np.int64), p.z.astype(np.int64)
    x2, z2 = q.x.astype(np.int64), q.z.astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )
    phase = int(g.sum()) % 4
    if phase % 2 != 0:
        raise ValueError("product has imaginary phase (operators anticommute)")
    sign = p.sign * q.sign * (1 if phase == 0 else -1)
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, sign)


@dataclass(frozen=True)
class CliffordGate:
    """One gate from {H, S, CNOT, CZ, X, Z} with its qubit indices."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name in _ONE_QUBIT:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.name} takes one qubit")
        elif self.name in _TWO_QUBIT:
            if len(self.qubits) != 2:
                raise ValueError(f"{self.name} takes two qubits")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.name} control equals target")
        else:
            raise ValueError(f"unknown gate {self.name!r}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")

    @classmethod
    def h(cls, q: int) -> "CliffordGate":
        return cls("H", (q,))

    @classmethod
    def s(cls, q: int) -> "CliffordGate":
        return cls("S", (q,))

    @classmethod
    def x(cls, q: int) -> "CliffordGate":
        return cls("X", (q,))

    @classmethod
    def z(cls, q: int) -> "CliffordGate":
        return cls("Z", (q,))

    @classmethod
    def cnot(cls, c: int, t: int) -> "CliffordGate":
        return cls("CNOT", (c, t))

    @classmethod
    def cz(cls, a: int, b: int) -> "CliffordGate":
        return cls("CZ", (a, b))


@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered gate list on n qubits."""

    n: int
    gates: tuple[CliffordGate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.n for q in g.qubits):
                raise ValueError(f"gate {g} out of range for n={self.n}")


def pauli_rows(ops: list[PauliString]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack strings as (x, z, sign-bit) row arrays for conjugate_rows."""
    n = ops[0].n
    x = np.array([p.x for p in ops], dtype=np.uint8).reshape(len(ops), n)
    z = np.array([p.z for p in ops], dtype=np.uint8).reshape(len(ops), n)
    r = np.array([p.sign < 0 for p in ops], dtype=np.uint8)
    return x, z, r


def row_pauli(x: np.ndarray, z: np.ndarray, r: np.ndarray, k: int) -> PauliString:
    """Row k of (x, z, sign-bit) row arrays as a PauliString."""
    return PauliString(x.shape[1], x[k], z[k], -1 if r[k] else 1)


def conjugate_rows(x: np.ndarray, z: np.ndarray, r: np.ndarray, g: CliffordGate) -> None:
    """Conjugation g p g† of every row p = (-1)^r X^x Z^z, in place.

    ``x`` and ``z`` are (rows, n) bit matrices and ``r`` the sign-bit
    column; this is the only copy of the gate-update rules.
    """
    if any(q >= x.shape[1] for q in g.qubits):
        raise ValueError(f"gate {g} out of range for n={x.shape[1]}")
    if g.name == "H":
        (q,) = g.qubits
        r ^= x[:, q] & z[:, q]
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif g.name == "S":
        (q,) = g.qubits
        r ^= x[:, q] & z[:, q]
        z[:, q] ^= x[:, q]
    elif g.name == "X":
        (q,) = g.qubits
        r ^= z[:, q]
    elif g.name == "Z":
        (q,) = g.qubits
        r ^= x[:, q]
    elif g.name == "CNOT":
        c, t = g.qubits
        r ^= x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif g.name == "CZ":
        a, b = g.qubits
        r ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    else:
        raise ValueError(f"unknown gate {g.name!r}")


def conjugate(p: PauliString, g: CliffordGate) -> PauliString:
    """Conjugation g p g† with sign tracking."""
    x, z, r = pauli_rows([p])
    conjugate_rows(x, z, r, g)
    return row_pauli(x, z, r, 0)


def conjugate_by_circuit(p: PauliString, w: CliffordCircuit) -> PauliString:
    """Conjugate by the circuit's gates in application order."""
    if p.n != w.n:
        raise ValueError(f"size mismatch: {p.n} vs {w.n}")
    x, z, r = pauli_rows([p])
    for g in w.gates:
        conjugate_rows(x, z, r, g)
    return row_pauli(x, z, r, 0)
