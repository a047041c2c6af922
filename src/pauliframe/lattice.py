"""Increment-lattice volume and frame-potential evaluation.

The support of K is a finite subset of {-1, 1}^N; the increments of the
associated random walk generate the integer lattice spanned by
differences of support points.  Its covolume V enters the central-limit
approximation of the frame potential

    F~(t) = V / sqrt((4 pi t)^N det Cov(K)),

and the exact frame potential P(walk returns to 0 after t steps) equals
the DC Fourier coefficient of |phi_K|^(2t), computed here by an exact
trigonometric-grid quadrature.
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


def lattice_volume(support: list[np.ndarray]) -> int | None:
    """Covolume of the lattice generated by differences of support points.

    Returns None when the lattice has rank < N (degenerate case, e.g. a
    point-mass law).
    """
    if not support:
        raise ValueError("empty support")
    n = len(support[0])
    base = support[0]
    rows = [[int(v) for v in p - base] for p in support[1:]]
    rows = [r for r in rows if any(r)]
    if not rows:
        return None
    diag = _hnf_diagonal(rows, n)
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


def exact_frame_potential(
    d: KDistribution, t: int, chunk: int = 1 << 16
) -> float:
    """P(W_t = 0): exact return probability of the K-increment walk.

    |phi_K(theta)|^2 is a trigonometric polynomial whose frequencies, in
    the halved variable psi = 2 theta, are integers bounded by 1 per
    axis; its t-th power has frequencies bounded by t, so averaging over
    the uniform (t+1)-point grid per axis reproduces the DC coefficient
    with no aliasing.  Summation is compensated (fsum of chunk sums).
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
    points = np.array(support_points(d), dtype=np.float64)  # M x N
    m_count = points.shape[0]
    if m_count == 1:
        return 1.0
    strides = n_grid ** np.arange(d.N - 1, -1, -1, dtype=np.int64)
    step = math.pi / n_grid  # theta = psi / 2 with psi on the 2*pi/(t+1) grid
    chunk_sums: list[float] = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // strides) % n_grid
        theta = digits.astype(np.float64) * step
        phi = np.exp(1j * (theta @ points.T)).mean(axis=1)
        g = (phi.real**2 + phi.imag**2) ** t
        chunk_sums.append(math.fsum(g.tolist()))
    return math.fsum(chunk_sums) / total
