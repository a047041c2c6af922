"""Independent references for checking the CLI's outputs.

Nothing here goes through pauliframe: the law of K is read in closed
form from the undressed X-block and signs, V_U from a 2-adic Smith
reduction of the code spanned by the columns of the X-block, and the
exact frame potential F(t) as the rational number
``sum_x count_t(x)^2 / M^(2t)`` from integer walk counts.

The X-type set ``s_j X^{x_j}`` measured on |0^n> gives
``K_j = s_j (-1)^{x_j . u}`` with u uniform, so for N distinct nonzero
rows of rank rho the law is uniform on 2^rho points, the mean is 0 and
Cov(K) = I.  The benchmark only generates such sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from inputs import conjugate_rows, gf2_rank, index_bits

INT64_LIMIT = 2**63


def column_basis(x: np.ndarray) -> np.ndarray:
    """Independent columns of x (N x n) spanning its GF(2) column space."""
    picked: list[int] = []
    for j in range(x.shape[1]):
        if gf2_rank(x[:, picked + [j]].T) > len(picked):
            picked.append(j)
    return x[:, picked]


def codewords(x: np.ndarray) -> np.ndarray:
    """All 2^rho codewords of the column space of x, as 0/1 rows."""
    gens = column_basis(x).astype(np.int64)  # N x rho
    rho = gens.shape[1]
    coeffs = index_bits(np.arange(2**rho, dtype=np.int64), rho).astype(np.int64)
    return coeffs @ gens.T % 2


def log2_covolume(words: np.ndarray) -> int | None:
    """log2 of the covolume of the Z-span of binary codewords.

    For a code whose N coordinate functionals are distinct and nonzero,
    the Z-span contains 2^(rho-1) Z^N (sum the codewords weighted by the
    character of coordinate j), so it is enough to work modulo 2^rho,
    where elimination with pivots of least 2-adic valuation is exact.
    Returns None when some coordinate functional is zero or repeated:
    then the span has rank < N.
    """
    N = words.shape[1]
    if not words.any(axis=0).all() or len({c.tobytes() for c in words.T}) < N:
        return None
    m = max(1, int(math.log2(words.shape[0])))
    mod = 1 << m
    g = words.astype(np.int64) % mod
    log2_cov = 0
    for r in range(N):
        sub = g[r:, r:]
        low = sub & -sub  # 2^valuation, 0 for zero entries
        if not low.any():
            raise ArithmeticError("Z-span has rank < N modulo 2^rho")
        masked = np.where(low > 0, low, mod)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        i, j = int(i) + r, int(j) + r
        g[[r, i]] = g[[i, r]]
        g[:, [r, j]] = g[:, [j, r]]
        v = int(masked.min()).bit_length() - 1
        unit = (int(g[r, r]) >> v) % mod
        g[r] = g[r] * pow(unit, -1, mod) % mod
        factors = g[r + 1 :, r] >> v
        g[r + 1 :] = (g[r + 1 :] - np.outer(factors, g[r])) % mod
        log2_cov += v
    return log2_cov


def volume(x: np.ndarray) -> int | None:
    """V_U = 2^N covol(Z-span of the column code of x); None if degenerate.

    Differences of support points are -2 diag(+-1)(c - c'), so signs and
    z-bits drop out.
    """
    log2_cov = log2_covolume(codewords(x))
    return None if log2_cov is None else 2 ** (x.shape[0] + log2_cov)


def exact_frame_potential(x: np.ndarray, t: int) -> Fraction:
    """F(t) = sum_x count_t(x)^2 / M^(2t) from integer walk counts.

    count_t(x) counts the sequences of t support points whose sum is x.
    F is invariant under flipping coordinates, so the walk runs on the
    0/1 codewords and lives on the (t+1)^N grid of per-coordinate counts.
    """
    words = codewords(x)
    M, N = words.shape
    if M**t >= INT64_LIMIT:
        raise OverflowError(f"walk counts up to M^t = {M}^{t} overflow int64")
    cur = np.ones((1,) * N, dtype=np.int64)
    for k in range(1, t + 1):  # after k steps every count lies in [0, k]
        nxt = np.zeros((k + 1,) * N, dtype=np.int64)
        for w in words:
            nxt[tuple(slice(int(b), int(b) + k) for b in w)] += cur
        cur = nxt
    counts = cur[cur != 0].tolist()
    return Fraction(sum(c * c for c in counts), M ** (2 * t))


def clt(volume_: int, N: int, t: float) -> float:
    """Central-limit frame potential V / sqrt((4 pi t)^N det Cov), det Cov = 1."""
    return volume_ / math.sqrt((4 * math.pi * t) ** N)


def moments(x: np.ndarray, signs: np.ndarray) -> tuple[list[int], list[list[int]], int]:
    """Mean, covariance and det Cov of K for the X-type set (x, signs).

    E K_j = s_j when x_j = 0, else 0; E K_i K_j = s_i s_j when x_i = x_j,
    else 0.  det Cov is 1 when the rows are distinct and nonzero (then
    Cov = I) and 0 otherwise.
    """
    s = 1 - 2 * signs.astype(np.int64)
    zero = ~x.any(axis=1)
    same = (x[:, None, :] == x[None, :, :]).all(axis=2)
    mean = np.where(zero, s, 0)
    cov = np.where(same, np.outer(s, s), 0) - np.outer(mean, mean)
    det = int(not zero.any() and same.sum() == len(s))
    return mean.tolist(), cov.tolist(), det


@dataclass(frozen=True)
class Law:
    """Closed-form law of K, and the dressed input for the W certificate."""

    N: int
    rho: int
    mean: list[int]
    covariance: list[list[int]]
    det_cov: int
    volume: int | None
    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    @property
    def support_size(self) -> int:
        return 2**self.rho


def law(pset) -> Law:
    """Reference law of a benchmark input from its undressed X-block."""
    xb = pset.block.x
    mean, cov, det = moments(xb, pset.block.signs)
    x, z, r = pset.dressed
    return Law(
        N=xb.shape[0], rho=gf2_rank(xb), mean=mean, covariance=cov, det_cov=det,
        volume=volume(xb), x=x, z=z, r=r,
    )


# -- output checks -----------------------------------------------------------
#
# Each returns the list of mismatches (empty when the output is right).


def _ratio(value) -> Fraction:
    return Fraction(value["num"], value["den"])


def _close(a, b, rel: float) -> bool:
    return a is not None and math.isclose(float(a), float(b), rel_tol=rel, abs_tol=0.0)


def _check_summary(doc: dict, ref: Law) -> list[str]:
    """Fields shared by ``report`` and ``frame-potential``.

    Benchmark inputs are non-degenerate, so V_U and the CLT values exist.
    """
    bad = []
    if doc.get("N") != ref.N:
        bad.append(f"N {doc.get('N')} != {ref.N}")
    if doc.get("support_size") != ref.support_size:
        bad.append(f"support_size {doc.get('support_size')} != {ref.support_size}")
    if _ratio(doc["det_cov"]) != ref.det_cov:
        bad.append(f"det_cov {doc['det_cov']} != {ref.det_cov}")
    if doc.get("V_U") != ref.volume:
        bad.append(f"V_U {doc.get('V_U')} != {ref.volume}")
    if not _close(doc.get("clt_coefficient"), clt(ref.volume, ref.N, 1), 1e-12):
        bad.append("clt_coefficient disagrees")
    for entry in doc.get("values", []):
        if not _close(entry.get("clt"), clt(ref.volume, ref.N, entry["t"]), 1e-12):
            bad.append(f"clt at t={entry['t']} disagrees")
    return bad


def _check_circuit(doc: dict, ref: Law) -> list[str]:
    """W must map every input string to (-1)^s_j Z^{A_j}."""
    x, z, r = ref.x.copy(), ref.z.copy(), ref.r.copy()
    for g in doc["W"]:
        q = (g["q"],) if "q" in g else (g["c"], g["t"])
        if g["g"] == "X":
            r ^= z[:, q[0]]
        elif g["g"] == "Z":
            r ^= x[:, q[0]]
        else:
            conjugate_rows(x, z, r, (g["g"], *q))
    A = np.array([[int(c) for c in row] for row in doc["A"]], dtype=np.uint8)
    s = np.array([int(c) for c in doc["s"]], dtype=np.uint8)
    if x.any() or not np.array_equal(z, A) or not np.array_equal(r, s):
        return ["W does not diagonalize the input to (A, s)"]
    return []


def check_report(doc: dict, ref: Law, t_values: list[int]) -> list[str]:
    bad = _check_summary(doc, ref)
    if doc.get("rank_AR") != ref.rho:
        bad.append(f"rank_AR {doc.get('rank_AR')} != {ref.rho}")
    if _ratio(doc["pmf_value"]) != Fraction(1, ref.support_size):
        bad.append(f"pmf_value {doc['pmf_value']} != 1/{ref.support_size}")
    if [_ratio(v) for v in doc["mean"]] != ref.mean:
        bad.append("mean disagrees")
    if [[_ratio(v) for v in row] for row in doc["covariance"]] != ref.covariance:
        bad.append("covariance disagrees")
    if [e["t"] for e in doc["values"]] != t_values:
        bad.append("values do not cover the requested t")
    return bad + _check_circuit(doc, ref)


def check_exact(doc: dict, ref: Law, t: int, exact: Fraction) -> list[str]:
    bad = _check_summary(doc, ref)
    values = doc.get("values", [])
    if len(values) != 1 or values[0]["t"] != t:
        return bad + [f"values do not hold t={t}"]
    if not _close(values[0].get("exact"), exact, 1e-9):
        bad.append(f"exact {values[0].get('exact')} != {float(exact)} at t={t}")
    return bad


def check_mc(doc: dict, ref: Law, t: int, exact: Fraction, z: float = 5.0) -> list[str]:
    bad = _check_summary(doc, ref)
    values = doc.get("values", [])
    if len(values) != 1 or values[0]["t"] != t:
        return bad + [f"values do not hold t={t}"]
    mc, err = values[0].get("mc"), values[0].get("mc_stderr")
    if mc is None or err is None or abs(mc - float(exact)) > z * err:
        bad.append(f"mc {mc} +- {err} is not within {z} stderr of {float(exact)}")
    return bad


def check_verify(doc: dict, ref: Law) -> list[str]:
    bad = []
    if doc.get("N") != ref.N:
        bad.append(f"N {doc.get('N')} != {ref.N}")
    if doc.get("passed") is not True or doc.get("failures"):
        bad.append(f"verify did not pass: {doc.get('failures')}")
    return bad
