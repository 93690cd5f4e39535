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

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct


def cell_centers(n: int) -> np.ndarray:
    """Midpoints x_j = (j + 1/2)/n of the n cells of [0, 1]."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return (np.arange(n) + 0.5) / n


def mass(values: np.ndarray) -> float:
    """Midpoint quadrature of a grid function, h * sum_j u_j."""
    return float(np.mean(values, axis=-1))


def to_modes(values: np.ndarray) -> np.ndarray:
    """Orthonormal cosine coefficients c_k = h * sum_j u_j e_k(x_j).

    Acts along the last axis.  c_0 is the mass and sum_k c_k^2 = h sum_j u_j^2.
    """
    return dct(values, type=2, norm="ortho", axis=-1) / np.sqrt(values.shape[-1])


def from_modes(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_modes: u_j = sum_k c_k e_k(x_j), along the last axis."""
    return idct(coeffs * np.sqrt(coeffs.shape[-1]), type=2, norm="ortho", axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """A real field sampled at the cell centers of the unit interval.

    Parameters
    ----------
    values : ndarray, shape (n,)
        Samples u(x_j) at the midpoints.  Must be finite.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"grid function needs a 1d sample array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function contains non-finite samples")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return cell_centers(self.n)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def mass(self) -> float:
        return mass(self.values)

    @classmethod
    def from_callable(cls, f, n: int) -> "GridFunction":
        return cls(np.asarray(f(cell_centers(n)), dtype=float) * np.ones(n))
