"""Seeded input sets for the benchmark.

Every set starts from an X-type block ``s_j X^{x_j}`` with a prescribed
GF(2) rank ``rho`` and N distinct nonzero rows, then is dressed by a
random circuit of CNOT, CZ and S gates.  Those gates fix ``|0...0>``, so
the law of K of the dressed set is exactly the law of the undressed
X-type set, which the references compute in closed form.

Bit conventions follow the CLI: qubit 0 is the leftmost letter; per
qubit (x, z) = I 00, X 10, Y 11, Z 01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LETTERS = np.array(["I", "Z", "X", "Y"])  # indexed by 2*x + z


def gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, by elimination on Python ints."""
    basis: dict[int, int] = {}
    for row in rows:
        v = int("".join("1" if b else "0" for b in row) or "0", 2)
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def index_bits(idx: np.ndarray, width: int) -> np.ndarray:
    """Row i holds the ``width`` low bits of idx[i], least significant first."""
    return ((idx[:, None] >> np.arange(width)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class XBlock:
    """Undressed X-type set: row j is ``(-1)^signs[j] X^{x[j]}``.

    ``coeffs`` (N x rho) holds the coefficient vector of each row in the
    basis ``basis`` (rho x n), so ``x = coeffs @ basis mod 2``.
    """

    coeffs: np.ndarray
    basis: np.ndarray
    signs: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return (self.coeffs.astype(np.int64) @ self.basis % 2).astype(np.uint8)


def x_block(rng: np.random.Generator, N: int, n: int, rho: int) -> XBlock:
    """Random X-block of rank rho with N distinct nonzero rows.

    The coefficient vectors are drawn without replacement from the
    nonzero vectors of GF(2)^rho: drawing the rows themselves and
    rejecting repeats never terminates when N is close to 2^rho - 1.
    """
    if not 1 <= rho <= min(N, n) or N > 2**rho - 1:
        raise ValueError(f"no X-block with N={N}, n={n}, rho={rho}")
    while True:
        basis = rng.integers(0, 2, size=(rho, n), dtype=np.uint8)
        if gf2_rank(basis) == rho:
            break
    while True:
        idx = rng.choice(2**rho - 1, size=N, replace=False) + 1
        coeffs = index_bits(idx.astype(np.int64), rho)
        if gf2_rank(coeffs) == rho:
            break
    signs = rng.integers(0, 2, size=N, dtype=np.uint8)
    return XBlock(coeffs=coeffs, basis=basis, signs=signs)


def conjugate_rows(x, z, r, gate: tuple) -> None:
    """In place: every row (x, z, sign bit r) becomes g P g^dagger.

    Aaronson-Gottesman update rules, vectorized over rows.
    """
    name, *q = gate
    if name == "H":
        (a,) = q
        r ^= x[:, a] & z[:, a]
        x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
    elif name == "S":
        (a,) = q
        r ^= x[:, a] & z[:, a]
        z[:, a] ^= x[:, a]
    elif name == "CNOT":
        c, t = q
        r ^= x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif name == "CZ":
        a, b = q
        r ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    else:
        raise ValueError(f"unexpected gate {name!r}")


def dressing_circuit(rng: np.random.Generator, n: int, n_gates: int) -> list[tuple]:
    """Random gates from {CNOT, CZ, S}; each one fixes |0...0>."""
    gates = []
    for _ in range(n_gates):
        kind = rng.random()
        if kind < 0.2 or n == 1:
            gates.append(("S", int(rng.integers(n))))
        else:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            gates.append(("CNOT" if kind < 0.6 else "CZ", a, b))
    return gates


def dress(block: XBlock, gates: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, sign bits) of the set conjugated by ``gates`` in order."""
    x = block.x.copy()
    z = np.zeros_like(x)
    r = block.signs.copy()
    for g in gates:
        conjugate_rows(x, z, r, g)
    return x, z, r


def format_rows(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> list[str]:
    letters = _LETTERS[2 * x.astype(np.int64) + z]
    return [("-" if s else "") + "".join(row) for row, s in zip(letters, r)]


@dataclass(frozen=True)
class PauliSet:
    """One benchmark input: the undressed block and the dressed set."""

    block: XBlock
    dressed: tuple  # (x, z, sign bits) after the dressing circuit

    @property
    def strings(self) -> list[str]:
        return format_rows(*self.dressed)

    @property
    def N(self) -> int:
        return self.block.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.block.basis.shape[1]

    @property
    def rho(self) -> int:
        return self.block.basis.shape[0]


def pauli_set(
    rng: np.random.Generator, N: int, n: int, rho: int, gates_per_qubit: int = 4
) -> PauliSet:
    block = x_block(rng, N, n, rho)
    gates = dressing_circuit(rng, n, gates_per_qubit * n)
    return PauliSet(block=block, dressed=dress(block, gates))


def write_set(path, pset: PauliSet, why: str) -> None:
    """Write the set in the CLI's input format, headed by a comment."""
    header = f"# {why}\n# N={pset.N} n={pset.n} rho={pset.rho}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n".join(pset.strings) + "\n")
