"""Cell-centered grid on [0, 1] and the cosine transform pair used throughout.

All fields live on the midpoint grid x_j = (j + 1/2) / N, j = 0..N-1, with
cell width h = 1/N.  The discrete Neumann Laplacian with mirrored ghost cells
is diagonalized by the DCT-II modes, so the orthonormal cosine basis

    e_0(x) = 1,    e_k(x) = sqrt(2) * cos(k pi x),   k >= 1,

doubles as the spectral basis of the solver and of the noise expansion.  The
midpoint samples of e_k are exactly orthonormal under the h-weighted inner
product for k < N, which makes to_modes/from_modes an exact transform pair
with an exact Parseval identity.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, idct


def cell_centers(n: int) -> np.ndarray:
    """Midpoints x_j = (j + 1/2)/n of the n cells of [0, 1]."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return (np.arange(n) + 0.5) / n


def to_modes(values: np.ndarray) -> np.ndarray:
    """Orthonormal cosine coefficients c_k = h * sum_j u_j e_k(x_j).

    Acts along the last axis.  c_0 is the mass and sum_k c_k^2 = h sum_j u_j^2.
    """
    return dct(values, type=2, norm="ortho", axis=-1) / np.sqrt(values.shape[-1])


def from_modes(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_modes: u_j = sum_k c_k e_k(x_j), along the last axis."""
    return idct(coeffs * np.sqrt(coeffs.shape[-1]), type=2, norm="ortho", axis=-1)

