"""Cell-centered grid on [0, 1] and the cosine transform pair used throughout.

All fields live on the midpoint grid x_j = (j + 1/2) / N, j = 0..N-1, with
cell width h = 1/N.  The discrete Neumann Laplacian with mirrored ghost cells
is diagonalized by the DCT-II modes, so the orthonormal cosine basis

    e_0(x) = 1,    e_k(x) = sqrt(2) * cos(k pi x),   k >= 1,

doubles as the spectral basis of the solver and of the noise expansion.  The
midpoint samples of e_k are exactly orthonormal under the h-weighted inner
product for k < N, which makes to_modes/from_modes an exact transform pair
with an exact Parseval identity.  Both are dense products with the basis.
"""

from __future__ import annotations

import numpy as np


def cell_centers(n: int) -> np.ndarray:
    """Midpoints x_j = (j + 1/2)/n of the n cells of [0, 1]."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return (np.arange(n) + 0.5) / n


def cosine_basis(n: int) -> np.ndarray:
    """E[k, j] = e_k(x_j) = cos(pi m / 2n), times sqrt(2) for k >= 1, with
    m = k (2j + 1) folded exactly in integers into the first octant first:
    cos(pi k x_j) on the float x_j loses accuracy as k grows."""
    k, j = np.ogrid[:n, :n]
    m = k * (2 * j + 1) % (4 * n)
    m = np.minimum(m, 4 * n - m)                      # cos(2 pi - a) = cos(a)
    sign = np.where(m > n, -1.0, 1.0)                 # cos(pi - a) = -cos(a)
    m = np.minimum(m, 2 * n - m)
    angle = np.pi / (2 * n)
    values = sign * np.where(2 * m <= n, np.cos(angle * m), np.sin(angle * (n - m)))
    values[1:] *= np.sqrt(2.0)
    return values


def to_modes(values: np.ndarray) -> np.ndarray:
    """Orthonormal cosine coefficients c_k = h * sum_j u_j e_k(x_j).

    Acts along the last axis.  c_0 is the mass and sum_k c_k^2 = h sum_j u_j^2.
    """
    return values @ cosine_basis(values.shape[-1]).T / values.shape[-1]


def from_modes(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_modes: u_j = sum_k c_k e_k(x_j), along the last axis."""
    return coeffs @ cosine_basis(coeffs.shape[-1])
