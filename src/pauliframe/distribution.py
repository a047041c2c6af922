"""Exact law of the spectral random variable K.

K lives on a coset of a GF(2) subspace lifted to {-1, 1}^N: with A the
N x n matrix of Z-masks, s the sign bits, and (R, t, r) the support
descriptor of the base stabilizer state, K = (-1)^(b0 ^ A R z) for z
uniform on Z_2^r, where b0 = A t ^ s.  All probabilities are dyadic and
kept as Fractions; moments are small integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .diagonalize import DiagonalizedSet
from .tableau import SupportDescriptor

ENUMERATION_CAP = 20


class SupportTooLargeError(RuntimeError):
    """Support enumeration would exceed 2**cap points."""


@dataclass(frozen=True)
class KDistribution:
    """Exact description of the law of K."""

    N: int
    n: int
    A: np.ndarray  # N x n
    s: np.ndarray  # length N
    R: np.ndarray  # n x r
    t: np.ndarray  # length n
    r: int
    rho: int  # rank(A R); support size is 2**rho
    b0: np.ndarray  # length N, = A t ^ s

    @property
    def support_size(self) -> int:
        return 2**self.rho

    @property
    def pmf_value(self) -> Fraction:
        return Fraction(1, 2**self.rho)


@dataclass(frozen=True)
class MomentReport:
    """Mean and covariance of K (entries are exact integers here)."""

    mean: np.ndarray  # length N, entries in {-1, 0, 1}
    covariance: np.ndarray  # N x N, integer entries
    det_cov: Fraction
    degenerate: bool


def k_row(A, s, u) -> np.ndarray:
    """The +-1 vector ((-1)^(s_j ^ (A u)_j))_j."""
    A = gf2.as_bits(A)
    s = gf2.as_bits(s)
    u = gf2.as_bits(u)
    if A.shape != (s.shape[0], u.shape[0]):
        raise ValueError(f"dimension mismatch: A {A.shape}, s {s.shape}, u {u.shape}")
    b = gf2.mat_vec(A, u) ^ s
    return 1 - 2 * b.astype(np.int64)


def build_distribution(
    diag: DiagonalizedSet, sup: SupportDescriptor
) -> KDistribution:
    """Combine the diagonal encodings with the support descriptor."""
    A = gf2.as_bits(diag.A)
    s = gf2.as_bits(diag.s)
    R = gf2.as_bits(sup.R)
    t = gf2.as_bits(sup.t)
    if A.shape[1] != R.shape[0] or A.shape[1] != t.shape[0]:
        raise ValueError("qubit-count mismatch between diagonalization and support")
    N, n = A.shape
    if R.shape[1] > 0:
        AR = gf2.mat_mul(A, R)
        rho = gf2.rank(AR)
    else:
        rho = 0
    b0 = gf2.mat_vec(A, t) ^ s
    return KDistribution(
        N=N, n=n, A=A, s=s, R=R, t=t, r=sup.r, rho=rho, b0=b0
    )


def _image_basis(d: KDistribution) -> np.ndarray:
    """Basis (rho x N) of the column space of A R."""
    if d.r == 0 or d.rho == 0:
        return np.zeros((0, d.N), dtype=np.uint8)
    AR = gf2.mat_mul(d.A, d.R)
    return gf2.row_space_basis(AR.T)


def support_points(d: KDistribution, cap: int = ENUMERATION_CAP) -> list[np.ndarray]:
    """All 2**rho distinct values of K as +-1 integer vectors.

    Enumeration walks a basis of the image of A R, so the null space is
    never traversed; order is deterministic (binary counting over the
    echelon basis).
    """
    if d.rho > cap:
        raise SupportTooLargeError(
            f"support has 2**{d.rho} points, cap is 2**{cap}"
        )
    basis = _image_basis(d)
    points = []
    for m in range(2**d.rho):
        b = d.b0.copy()
        for i in range(d.rho):
            if (m >> i) & 1:
                b ^= basis[i]
        points.append(1 - 2 * b.astype(np.int64))
    return points


def moments(d: KDistribution) -> MomentReport:
    """Closed-form mean and covariance, no enumeration.

    Under the uniform-on-coset law, E K_j is (-1)^(b0_j) when row j of
    A R is zero and 0 otherwise; E K_i K_j is (-1)^(b0_i ^ b0_j) when
    rows i and j of A R are equal and 0 otherwise.
    """
    AR = gf2.mat_mul(d.A, d.R)
    signs = 1 - 2 * d.b0.astype(np.int64)
    _, group = np.unique(AR, axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it as an (N, 1) column
    mean = np.where(AR.any(axis=1), 0, signs)
    second = np.where(group[:, None] == group[None, :], np.outer(signs, signs), 0)
    cov = second - np.outer(mean, mean)
    # A zero row of A R gives a zero row of Cov, and two equal rows give
    # rows of Cov equal up to sign; otherwise Cov is the identity.
    det = int(np.array_equal(cov, np.eye(d.N, dtype=np.int64)))
    return MomentReport(
        mean=mean,
        covariance=cov,
        det_cov=Fraction(det),
        degenerate=(det == 0),
    )
