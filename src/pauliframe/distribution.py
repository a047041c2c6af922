"""Exact law of the spectral random variable K.

K is uniform on the coset b0 + span(basis) of GF(2)^N, lifted to
{-1, 1}^N by b -> (-1)^b.  ``basis`` is the reduced echelon basis of the
column space of A R, where A is the N x n matrix of Z-masks and (R, t)
the support descriptor of the base stabilizer state; b0 = A t ^ s with s
the sign bits.  All probabilities are dyadic and kept as Fractions;
moments are small integers.
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
    """Support enumeration would exceed 2**ENUMERATION_CAP points."""


@dataclass(frozen=True)
class KDistribution:
    """The law of K: uniform on the coset b0 + span(rows of basis)."""

    b0: np.ndarray  # length N
    basis: np.ndarray  # rho x N, reduced echelon basis of the column space of A R

    @property
    def N(self) -> int:
        return self.b0.shape[0]

    @property
    def rho(self) -> int:
        """rank(A R); the support size is 2**rho."""
        return self.basis.shape[0]

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


def build_distribution(
    diag: DiagonalizedSet, sup: SupportDescriptor
) -> KDistribution:
    """Combine the diagonal encodings with the support descriptor."""
    A = gf2.as_bits(diag.A)
    R = gf2.as_bits(sup.R)
    t = gf2.as_bits(sup.t)
    if A.shape[1] != R.shape[0] or A.shape[1] != t.shape[0]:
        raise ValueError("qubit-count mismatch between diagonalization and support")
    basis = gf2.row_space_basis(gf2.mat_mul(A, R).T)
    return KDistribution(b0=gf2.mat_vec(A, t) ^ gf2.as_bits(diag.s), basis=basis)


def support_points(d: KDistribution) -> np.ndarray:
    """All 2**rho distinct values of K as the rows of a +-1 int8 matrix.

    Row m flips b0 at the basis rows picked by the set bits of m
    (``gf2.coset``), so the order is deterministic.
    """
    if d.rho > ENUMERATION_CAP:
        raise SupportTooLargeError(
            f"support has 2**{d.rho} points, cap is 2**{ENUMERATION_CAP}"
        )
    return 1 - 2 * gf2.coset(d.basis, d.b0).astype(np.int8)


def moments(d: KDistribution) -> MomentReport:
    """Closed-form mean and covariance, no enumeration.

    Under the uniform-on-coset law, E K_j is (-1)^(b0_j) when column j
    of the basis is zero and 0 otherwise; E K_i K_j is (-1)^(b0_i ^ b0_j)
    when columns i and j are equal and 0 otherwise.  Columns of the
    basis are zero or equal exactly where the rows of A R are.
    """
    cols = d.basis.T
    signs = 1 - 2 * d.b0.astype(np.int64)
    _, group = np.unique(cols, axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it as an (N, 1) column
    mean = np.where(cols.any(axis=1), 0, signs)
    second = np.where(group[:, None] == group[None, :], np.outer(signs, signs), 0)
    cov = second - np.outer(mean, mean)
    # A zero column gives a zero row of Cov, and two equal columns give
    # rows of Cov equal up to sign; otherwise Cov is the identity.
    det = int(np.array_equal(cov, np.eye(d.N, dtype=np.int64)))
    return MomentReport(
        mean=mean,
        covariance=cov,
        det_cov=Fraction(det),
        degenerate=(det == 0),
    )
