"""Space-time white noise: sheet and spectral representations, and their audit.

Two discretizations of the same cylindrical Wiener process drive everything:

  sheet     independent cell increments dW_{ij} ~ N(0, dt * h) on the
            space-time grid, the rectangle-increment view;
  spectral  dW(s, x) = sum_k dbeta_k(s) e_k(x) over the orthonormal cosine
            basis e_0 = 1, e_k = sqrt(2) cos(k pi x), with independent scalar
            Brownian motions beta_k.

The solver's scheme picks one: sheet noise drives fd, spectral noise drives
spectral.  NoisePlan holds only the master seed.

Stream discipline: every (master_seed, path_index, species) triple owns one
Philox counter stream keyed by a hash of the triple, and a path's draws are
consumed in step order as a single logical sequence.  Results are therefore
bit-reproducible and independent of batching or thread count, and distinct
paths/species never share draws.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .statutil import ks_statistic

SPECIES_U = 0
SPECIES_V = 1
# Auxiliary stream ids, disjoint from species so audits never collide with
# simulation draws.
STREAM_EQUIVALENCE = 254
STREAM_BOOTSTRAP = 255

MIN_REPLICATIONS = 100

# Master seeds are packed into stream keys as signed 64-bit integers.
SEED_LIMIT = 2**63


class FieldError(ValueError):
    """A dataclass field check that failed; .field names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def stream_key(master_seed: int, path_index: int, species: int) -> int:
    """128-bit Philox key for one (seed, path, species) stream."""
    digest = hashlib.sha256(
        b"lvfield.noise.v1"
        + struct.pack("<qqq", master_seed, path_index, species)
    ).digest()
    return int.from_bytes(digest[:16], "little")


def noise_generator(master_seed: int, path_index: int, species: int) -> np.random.Generator:
    """The Generator owning this stream's draws; consume in step order."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, path_index, species)))


def cell_average_coefficients(f_values: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Cosine coefficients of the piecewise-constant extension of grid samples.

    <pc(f), e_k> = sum_j f_j int_{cell j} e_k, in closed form.  Unlike a DCT
    of the samples this carries no aliasing: modes beyond the grid decay like
    1/k, so truncating at n_coeffs > n keeps the L2 norm (and hence the noise
    variance) honest.  Acts on the last axis; returns (..., n_coeffs).
    """
    f_values = np.asarray(f_values, dtype=float)
    n = f_values.shape[-1]
    h = 1.0 / n
    k = np.arange(1, n_coeffs)
    edges = np.arange(n + 1) * h
    # int_{jh}^{(j+1)h} sqrt(2) cos(k pi y) dy
    sin_table = np.sin(np.pi * np.outer(edges, k))
    cell_ints = np.sqrt(2.0) * (sin_table[1:] - sin_table[:-1]) / (np.pi * k)
    out = np.empty(f_values.shape[:-1] + (n_coeffs,))
    out[..., 0] = f_values.mean(axis=-1)
    out[..., 1:] = f_values @ cell_ints
    return out


@dataclass(frozen=True)
class NoisePlan:
    """The master seed of a simulation's noise streams."""

    master_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise FieldError("master_seed",
                             f"master_seed must be in [0, 2^63), got {self.master_seed}")

    def generator(self, path_index: int, species: int) -> np.random.Generator:
        return noise_generator(self.master_seed, path_index, species)


@dataclass(frozen=True)
class EquivalenceReport:
    """Distributional comparison of the two noise representations on one f."""

    target_variance: float
    walsh_variance: float
    spectral_variance: float
    ks_stat: float
    n_replications: int

    @property
    def variance_error(self) -> float:
        """Worst relative deviation of the two sample variances from the
        isometry target, which must be positive."""
        return max(abs(self.walsh_variance / self.target_variance - 1.0),
                   abs(self.spectral_variance / self.target_variance - 1.0))


def representation_equivalence_check(f, *, n_steps: int = 25, n_cells: int = 32,
                                     n_replications: int = 10000,
                                     master_seed: int = 0) -> EquivalenceReport:
    """Monte Carlo audit that both representations integrate f identically.

    f(s, x) must broadcast over arrays; s and x range over [0, 1].  The
    Walsh route sums f dW over the space-time grid; the spectral route
    integrates the pc-extension cosine coefficients against 4 * n_cells
    mode increments.  The report carries both sample variances, the
    isometry variance int int f^2 they estimate, and the two-sample KS
    statistic between the samples; analysis.noise_audit decides on them.
    """
    if n_replications < MIN_REPLICATIONS:
        raise ValueError(
            f"n_replications = {n_replications} is below the minimum {MIN_REPLICATIONS}; "
            "the variance targets are meaningless with fewer")
    dt = 1.0 / n_steps
    h = 1.0 / n_cells
    # f is deterministic, so each panel may sample it at the panel's
    # space-time midpoint; the discrete isometry then matches the continuum
    # target at O(dt^2) + O(h^2) instead of O(dt).
    s = (np.arange(n_steps) + 0.5) * dt
    x = (np.arange(n_cells) + 0.5) * h
    f_grid = np.asarray(f(s[:, None], x[None, :]), dtype=float) * np.ones((n_steps, n_cells))

    # continuum isometry target on a refined grid
    s_fine = (np.arange(8 * n_steps) + 0.5) * (1.0 / (8 * n_steps))
    x_fine = (np.arange(8 * n_cells) + 0.5) / (8 * n_cells)
    f_fine = np.asarray(f(s_fine[:, None], x_fine[None, :])) * np.ones((8 * n_steps, 8 * n_cells))
    target = float(np.mean(f_fine**2))

    phi = cell_average_coefficients(f_grid, 4 * n_cells)

    # One dedicated audit stream per representation; replications are rows.
    walsh_flat = f_grid.reshape(-1) * np.sqrt(dt * h)
    spec_flat = phi.reshape(-1) * np.sqrt(dt)
    walsh_samples = np.empty(n_replications)
    spec_samples = np.empty(n_replications)
    gen_w = noise_generator(master_seed, 0, STREAM_EQUIVALENCE)
    gen_s = noise_generator(master_seed, 1, STREAM_EQUIVALENCE)
    chunk = max(1, int(4e6 / max(walsh_flat.size, spec_flat.size)))
    for start in range(0, n_replications, chunk):
        stop = min(start + chunk, n_replications)
        walsh_samples[start:stop] = gen_w.standard_normal((stop - start, walsh_flat.size)) @ walsh_flat
        spec_samples[start:stop] = gen_s.standard_normal((stop - start, spec_flat.size)) @ spec_flat

    return EquivalenceReport(
        target_variance=target,
        walsh_variance=float(walsh_samples.var(ddof=1)),
        spectral_variance=float(spec_samples.var(ddof=1)),
        ks_stat=ks_statistic(walsh_samples, spec_samples),
        n_replications=n_replications,
    )


def audit_functions() -> dict:
    """The ten space-time test functions of the equivalence audit."""
    return {
        "one": lambda s, x: np.ones_like(s + x),
        "cos_pi_x": lambda s, x: np.cos(np.pi * x) + 0 * s,
        "cos_2pi_x": lambda s, x: np.cos(2 * np.pi * x) + 0 * s,
        "sin_pi_x": lambda s, x: np.sin(np.pi * x) + 0 * s,
        "linear_x": lambda s, x: x + 0 * s,
        "bump": lambda s, x: np.exp(-10.0 * (x - 0.5) ** 2) + 0 * s,
        "time_ramp": lambda s, x: s + 0 * x,
        "exp_decay_t": lambda s, x: np.exp(-s) + 0 * x,
        "cos_product": lambda s, x: np.cos(np.pi * x) * (1.0 + s),
        "traveling": lambda s, x: np.sin(np.pi * x) * np.exp(-0.5 * s),
    }
