"""Exact law of the spectral random variable K, read from the input rows.

K is the joint outcome of measuring the commuting H_j on |0...0>; the
diagonal D_j = W H_j W† measured on W|0...0> gives the same law, since
W† D_j W = H_j.  It is uniform on the coset b0 + span(basis) of GF(2)^N,
lifted to {-1, 1}^N by b -> (-1)^b: ``basis`` is the reduced echelon
basis of the column space of the N x n X block, and b0 comes from one
X-block elimination of the signed input rows
(``tableau.reduce_x_block``, read by ``law_from_elimination``), which
also builds W.  All probabilities are dyadic and kept as Fractions;
moments are small integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .pauli import NonCommutingSetError, PauliRows, check_commuting_set
from .tableau import reduce_x_block

ENUMERATION_CAP = 20


class SupportTooLargeError(RuntimeError):
    """Support enumeration would exceed 2**ENUMERATION_CAP points."""


@dataclass(frozen=True)
class KDistribution:
    """The law of K: uniform on the coset b0 + span(rows of basis)."""

    b0: np.ndarray  # length N
    basis: np.ndarray  # rho x N, reduced echelon basis of the column space of X

    @property
    def N(self) -> int:
        return self.b0.shape[0]

    @property
    def rho(self) -> int:
        """rank(X); the support size is 2**rho."""
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


def law_from_elimination(x: np.ndarray, r: np.ndarray, pivots: np.ndarray) -> KDistribution:
    """The law of K from one ``reduce_x_block`` pass over the input rows.

    ``x`` is the input X block, ``r`` the sign bits after the pass and
    ``pivots`` its pivot rows (rows with independent X parts), whose
    outcomes are free.  Each other row ends as +-Z^z, the product of its
    operator and pivot operators, whose value on |0...0> is its sign.
    So b0 is that final sign bit at the other rows and 0 at the pivots,
    and the free directions span the column space of X.
    """
    b0 = r.copy()
    b0[pivots] = 0
    return KDistribution(b0=b0, basis=gf2.row_space_basis(x.T))


def build_distribution(ops: PauliRows) -> KDistribution:
    """The law of K for a pairwise-commuting set, without synthesizing W.

    ``simultaneous_diagonalize(ops).law`` is the same law.
    """
    bad = check_commuting_set(ops)
    if bad is not None:
        raise NonCommutingSetError(bad)
    x, z, r = ops.copies()
    pivots = reduce_x_block(x, z, r)
    return law_from_elimination(ops.x, r, pivots)


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
    basis are zero or equal exactly where the rows of X are.
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
