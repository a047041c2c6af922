"""Increment-lattice volume and frame-potential evaluation.

The support of K is a finite subset of {-1, 1}^N; the increments of the
associated random walk generate the integer lattice spanned by
differences of support points.  Its covolume V_U is read from GF(2)
ranks alone: the support is a coset of the binary code C, and V_U is
fixed by the dimensions of the Schur powers of C (``lattice_volume``).
V_U enters the central-limit approximation of the frame potential

    F~(t) = V_U / sqrt((4 pi t)^N),

defined where det Cov(K) = 1 (``distribution.moments`` shows that Cov(K)
is the identity or singular), evaluated in log space where the direct
form would overflow a float,
and the exact frame potential P(walk returns to 0 after t steps) equals
the DC Fourier coefficient of |phi_K|^(2t), computed here exactly from
one DFT of the indicator of the support, taken in slabs.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2
from .distribution import KDistribution, support_points

GRID_CAP = 10**8


class QuadratureCapError(RuntimeError):
    """The quadrature grid (t+1)^N would exceed the size guard."""


class FloatRangeError(OverflowError):
    """A CLT value lies beyond the range of a float."""


def lattice_volume(points) -> int | None:
    """Covolume V_U of the lattice generated by differences of support points.

    ``points`` must be the support of a law of K: distinct +-1 rows
    p0 * (-1)^c, one for each c in a binary linear code C (ValueError
    otherwise).  Returns None when the lattice has rank < N (degenerate
    case, e.g. a point-mass law), which happens exactly when a column of
    C's basis is zero or two columns are equal.  Otherwise

        log2 V_U = N + sum_{k >= 1} (N - dim C^{*k}),

    where C^{*k} = C^{*(k-1)} * C is the k-th Schur (componentwise)
    power of C (Cascudo, Cramer, Mirandola, Zemor, "Squares of random
    linear codes", IEEE Trans. IT 2015; Randriambololona, "Products of
    linear codes", 2015).  Sketch, with codewords read as 0/1 integer
    vectors:

    - The differences of the points are 2 diag(p0) (c' - c), so they
      span 2 diag(p0) Lambda with Lambda = Z-span(C), and
      V_U = 2^N [Z^N : Lambda].
    - For 0/1 vectors a XOR b = a + b - 2 (a AND b), so Lambda holds
      every 2 (c AND c'), and by induction every
      2^(k-1) (c_1 AND ... AND c_k).  With distinct nonzero columns,
      2^(rho-1) e_j is a signed sum of codewords, so Lambda also holds
      2^(rho-1) Z^N.
    - Reducing 2 e_j in Lambda mod 2 forces e_j in C*C.  Conversely, if
      C*C = GF(2)^N then 2Z^N lies in Lambda + 4Z^N, ..., in
      Lambda + 2^(rho-1) Z^N = Lambda, so [Z^N : Lambda] = 2^(N - rho):
      V_U = 2^(2N - rho) exactly when dim C*C = N.
    - In general the elements of Lambda divisible by 2^(k-1), divided by
      it and reduced mod 2, form C^{*k}; these 2-adic layers give the sum
      above.  The tests pin it to a Hermite-normal-form covolume on random
      small codes and on punctured Reed-Muller codes.

    The powers increase (c AND c = c) and reach GF(2)^N by k = rho,
    since the indicator of a nonzero point of GF(2)^rho is a product of
    at most rho linear forms.  Each level multiplies only the rows that
    are new at the level below by the basis of C.
    """
    points = np.asarray(points)
    if not len(points):
        raise ValueError("empty support")
    if not np.all(np.abs(points) == 1):
        raise ValueError("support points must have entries +-1")
    words = points != points[0]
    basis, pivots = gf2.rref(words)
    basis = basis[: len(pivots)]
    # Every word lies in the span, so its coordinates in the reduced
    # basis are its bits at the pivots; a coset has each exactly once.
    place = 1 << np.arange(len(pivots), dtype=np.int64)
    coords = words[:, pivots].astype(np.int64) @ place
    if len(words) != 2 ** len(pivots) or np.bincount(coords).max() > 1:
        raise ValueError(
            f"{len(words)} support points are not a coset of a binary code "
            f"(rank {len(pivots)})"
        )
    N = points.shape[1]
    columns = np.sort(place @ basis)
    if columns[0] == 0 or (columns[1:] == columns[:-1]).any():
        return None
    log2 = N
    span, new = basis, basis
    while True:
        log2 += N - len(pivots)
        if len(pivots) == N:
            return 2**log2
        products = (new[:, None, :] & basis[None, :, :]).reshape(-1, N)
        reduced, level_pivots = gf2.rref(np.concatenate([span, products]))
        span = reduced[: len(level_pivots)]
        # A row whose pivot is new at this level lies outside C^{*(k-1)}.
        known = set(pivots)
        new = span[[i for i, col in enumerate(level_pivots) if col not in known]]
        pivots = level_pivots


def _clt_value(quantity: str, volume: int, N: int, scale: float) -> float:
    """V / sqrt(scale^N), in log space only where a float overflows.

    scale^N overflows a float for large N, and underflows to 0 (a
    ZeroDivisionError) for N >= 2 and t far below 1, where the value
    itself may still be a float.
    """
    try:
        value = volume / math.sqrt(scale**N)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isfinite(value):
        return value
    log_value = math.log(volume) - N * math.log(scale) / 2
    try:
        return math.exp(log_value)
    except OverflowError:
        raise FloatRangeError(
            f"{quantity} = exp({log_value:.6g}) exceeds the float range"
        ) from None


def clt_frame_potential(volume: int, N: int, t: float) -> float:
    """V / sqrt((4 pi t)^N) for a law with Cov(K) = I."""
    if t <= 0:
        raise ValueError("t must be positive")
    return _clt_value(f"CLT frame potential at t={t}", volume, N, 4 * math.pi * t)


def clt_coefficient(volume: int, N: int) -> float:
    """Coefficient c with F~(t) = c * t^(-N/2)."""
    return _clt_value("CLT coefficient", volume, N, 4 * math.pi)


def exact_frame_potential(d: KDistribution, t: int) -> float:
    """P(W_t = 0): exact return probability of the K-increment walk.

    With support points p = 1 - 2b, |phi_K(k pi / (t+1))|^2 = |I(k)|^2 / M^2
    where I is the DFT of the 0/1 indicator of the b's on Z_{t+1}^N.  Its
    t-th power has frequencies bounded by t per axis, so the mean over the
    (t+1)^N grid is the DC coefficient, with no aliasing.  The indicator
    vanishes unless b_0 is 0 or 1, so only the DFTs F_0, F_1 of those two
    (t+1)^(N-1) slices are taken; slab k_0 of I is F_0 + w^k_0 F_1 with
    w = exp(-2 pi i / (t+1)).  Slabs are summed in steps of at least
    sqrt(grid) points (grouped only when N = 1), so memory stays at a few
    slice-sized arrays.
    """
    if t <= 0 or int(t) != t:
        raise ValueError("t must be a positive integer")
    t = int(t)
    n_grid = t + 1
    total = n_grid**d.N
    if total > GRID_CAP:
        raise QuadratureCapError(
            f"grid of (t+1)^N = {total} points exceeds cap {GRID_CAP}"
        )
    bits = (1 - support_points(d)) // 2  # M x N
    if len(bits) == 1:
        return 1.0
    indicator = np.zeros((2,) + (n_grid,) * (d.N - 1))
    indicator[tuple(bits.T)] = 1.0
    f0, f1 = np.fft.fftn(indicator, axes=range(1, d.N)) / len(bits)
    rows = max(1, math.isqrt(total) // f0.size)
    slab_sums = []
    for start in range(0, n_grid, rows):
        w = np.exp(-2j * math.pi * np.arange(start, min(start + rows, n_grid)) / n_grid)
        slab = f0 + np.multiply.outer(w, f1)
        slab_sums.append(float(np.sum((slab.real**2 + slab.imag**2) ** t)))
    return math.fsum(slab_sums) / total
