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

_LETTERS = "IZXY"  # letter of the bits (x, z) is _LETTERS[2 * x + z]
_BITS = np.zeros((2, 256), dtype=np.uint8)  # x and z bit of each letter's byte
_BITS[0, list(b"XY")] = _BITS[1, list(b"YZ")] = 1

_ONE_QUBIT = ("H", "S", "X", "Z")
_TWO_QUBIT = ("CNOT", "CZ")


class PauliParseError(ValueError):
    """Raised when Pauli string text cannot be parsed; ``index`` is the
    position of the failing string among those parsed together."""

    def __init__(self, message: str, index: int = 0):
        self.index = index
        super().__init__(message)


class NonCommutingSetError(ValueError):
    """Input operators do not pairwise commute."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"operators {pair[0]} and {pair[1]} anticommute")


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


@dataclass(frozen=True, eq=False)
class PauliRows:
    """The set type: N >= 1 signed Pauli strings on n >= 1 qubits as read-only
    tableau rows, row k being (-1)^r[k] X^x[k] Z^z[k] as for ``conjugate_rows``.
    Indexing and iteration give PauliStrings."""

    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        x, z, r = (gf2.as_bits(a) for a in (self.x, self.z, self.r))
        if not r.size:
            raise ValueError("empty operator list")
        if x.ndim != 2 or not x.shape[1] or z.shape != x.shape or r.shape != x.shape[:1]:
            raise ValueError(f"bad row shapes {x.shape}, {z.shape}, {r.shape}")
        for name, a in zip("xzr", (x, z, r)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, k: int) -> PauliString:
        return PauliString(self.n, self.x[k], self.z[k], -1 if self.r[k] else 1)

    def copies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Writable copies of (x, z, r), for the in-place row engines."""
        return self.x.copy(), self.z.copy(), self.r.copy()

    @classmethod
    def stack(cls, ops: list[PauliString]) -> PauliRows:
        """The rows of a list of strings on one qubit count."""
        if len({p.n for p in ops}) > 1:
            raise ValueError("mixed qubit counts in operator list")
        return cls(
            np.array([p.x for p in ops], dtype=np.uint8),
            np.array([p.z for p in ops], dtype=np.uint8),
            np.array([p.sign < 0 for p in ops], dtype=np.uint8),
        )

    @classmethod
    def from_strings(cls, texts, identity: bool = True) -> PauliRows:
        """Parse ``sign? [IXYZ]+`` strings of one length.

        String operations check each string in turn, and the first failure
        raises PauliParseError with its index; an all-I string fails
        unless ``identity``.  One byte lookup then gives all x and z bits.
        """
        bodies, signs, n = [], [], None
        for k, text in enumerate(texts):
            s = text.strip()
            signs.append(s[:1] in ("-", "−"))
            if s[:1] in ("+", "-", "−"):
                s = s[1:]
            if not s:
                raise PauliParseError(f"empty Pauli string in {text!r}", k)
            if n is not None and len(s) != n:
                raise PauliParseError(f"expected {n} qubits, got {len(s)} in {text!r}", k)
            bad = len(s) - len(s.lstrip("IXYZ"))
            if bad < len(s):
                raise PauliParseError(
                    f"invalid character {s[bad]!r} at position {bad} in {text!r}", k
                )
            if not identity and not s.strip("I"):
                raise PauliParseError(f"identity string {text!r} acts as a global phase only", k)
            n = len(s)
            bodies.append(s)
        codes = np.frombuffer("".join(bodies).encode("ascii"), dtype=np.uint8)
        codes = codes.reshape(len(bodies), n or 0)
        return cls(_BITS[0].take(codes), _BITS[1].take(codes), np.array(signs, dtype=np.uint8))


def parse_pauli(text: str) -> PauliString:
    """Parse ``sign? [IXYZ]+`` into a PauliString (see ``PauliRows.from_strings``).

    Accepts an optional leading '+', '-' or unicode minus.
    """
    return PauliRows.from_strings([text])[0]


def format_pauli(p: PauliString) -> str:
    """Inverse of parse_pauli (always emits a '-' prefix for negative sign)."""
    body = "".join(_LETTERS[k] for k in (2 * p.x + p.z).tolist())
    return ("-" if p.sign < 0 else "") + body


def check_commuting_set(ops: PauliRows) -> tuple[int, int] | None:
    """Return None if all pairs commute, else the first violating (i, j).

    All symplectic products are the GF(2) product S = [X Z] [Z X]^T; it
    is formed a block of rows at a time, each block about 2^20 entries,
    so a long list never needs the whole N x N matrix.  The integer
    product is taken in float64, where sums of 0/1 terms are exact, for
    BLAS speed.  S is symmetric with a zero diagonal, so its first
    nonzero entry in row-major order is the first violating pair i < j.
    """
    xz = np.hstack([ops.x, ops.z]).astype(np.float64)
    zx = np.hstack([ops.z, ops.x]).T.astype(np.float64)
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
    x, z, r = PauliRows.stack([p, q]).copies()
    multiply_rows(x, z, r, [0], 1)
    return PauliRows(x, z, r)[0]


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


def multiply_rows(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, rows, p: int
) -> None:
    """Replace each row k in ``rows`` by the product (row k)(row p), in place.

    Rows are (-1)^r X^x Z^z as for conjugate_rows; ``rows`` must not
    contain p.  This is the only copy of the phase rule: the exponent of
    i is summed per qubit mod 4, and a product of commuting Hermitian
    strings has exponent 0 or 2 (sign +1 or -1); an odd one raises.
    """
    rows = np.asarray(rows, dtype=np.intp)
    x1, z1 = x[rows].astype(np.int64), z[rows].astype(np.int64)
    x2, z2 = x[p].astype(np.int64), z[p].astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    ).sum(axis=1) % 4
    if (g % 2).any():
        raise ValueError("product has imaginary phase (operators anticommute)")
    r[rows] ^= r[p] ^ (g >> 1).astype(np.uint8)
    x[rows] ^= x[p]
    z[rows] ^= z[p]


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

