"""Increment-lattice volume and frame-potential evaluation.

The support of K is a finite subset of {-1, 1}^N; the increments of the
associated random walk generate the integer lattice spanned by
differences of support points.  Its covolume V enters the central-limit
approximation of the frame potential

    F~(t) = V / sqrt((4 pi t)^N det Cov(K)),

and the exact frame potential P(walk returns to 0 after t steps) equals
the DC Fourier coefficient of |phi_K|^(2t), computed here exactly from
one DFT of the indicator of the support, taken in slabs.
"""

from __future__ import annotations

import math

import numpy as np

from .distribution import KDistribution, support_points

GRID_CAP = 10**8


class DegenerateLatticeError(ValueError):
    """The increment lattice does not have full rank N."""


class QuadratureCapError(RuntimeError):
    """The quadrature grid (t+1)^N would exceed the size guard."""


def _hnf_diagonal(rows: list[list[int]], n: int) -> list[int] | None:
    """Pivots of the row Hermite normal form; None if rank < n.

    Euclidean elimination with exact Python ints; only the diagonal is
    needed since the covolume is its product.
    """
    a = [row[:] for row in rows]
    pivot_row = 0
    diag: list[int] = []
    for col in range(n):
        while True:
            nz = [i for i in range(pivot_row, len(a)) if a[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            a[pivot_row], a[best] = a[best], a[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(a)):
                if a[i][col] != 0:
                    qfac = a[i][col] // a[pivot_row][col]
                    a[i] = [v - qfac * w for v, w in zip(a[i], a[pivot_row])]
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < len(a) and a[pivot_row][col] != 0:
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-v for v in a[pivot_row]]
            diag.append(a[pivot_row][col])
            pivot_row += 1
        else:
            return None
    return diag


def lattice_volume(points) -> int | None:
    """Covolume of the lattice generated by differences of support points.

    ``points`` holds one support point (entries +-1) per row; differences
    are taken in its own dtype, which holds +-2 even as int8.  Returns
    None when the lattice has rank < N (degenerate case, e.g. a
    point-mass law).
    """
    points = np.asarray(points)
    if not len(points):
        raise ValueError("empty support")
    diffs = points[1:] - points[0]
    diffs = diffs[diffs.any(axis=1)]
    if not len(diffs):
        return None
    diag = _hnf_diagonal(diffs.tolist(), points.shape[1])
    if diag is None:
        return None
    return abs(math.prod(diag))


def clt_frame_potential(volume: int, det_cov, N: int, t: float) -> float:
    """V / sqrt((4 pi t)^N det Cov)."""
    det_cov = float(det_cov)
    if det_cov <= 0:
        raise DegenerateLatticeError("covariance is singular; CLT formula inapplicable")
    if t <= 0:
        raise ValueError("t must be positive")
    return volume / math.sqrt((4 * math.pi * t) ** N * det_cov)


def clt_coefficient(volume: int, det_cov, N: int) -> float:
    """Coefficient c with F~(t) = c * t^(-N/2)."""
    det_cov = float(det_cov)
    if det_cov <= 0:
        raise DegenerateLatticeError("covariance is singular; CLT formula inapplicable")
    return volume / math.sqrt((4 * math.pi) ** N * det_cov)


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
