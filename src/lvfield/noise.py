"""Space-time white noise: sheet and spectral representations, and their audit.

Two discretizations of the same cylindrical Wiener process drive everything:

  sheet     independent cell increments dW_{ij} ~ N(0, dt * h) on the
            space-time grid, the rectangle-increment view;
  spectral  dW(s, x) = sum_k lambda_k dbeta_k(s) e_k(x) over the orthonormal
            cosine basis e_0 = 1, e_k = sqrt(2) cos(k pi x), with independent
            scalar Brownian motions beta_k.  White noise has lambda_k = 1;
            summable weights give trace-class (colored) noise.

Stream discipline: every (master_seed, path_index, species) triple owns one
Philox counter stream keyed by a hash of the triple, and a path's draws are
consumed in step order as a single logical sequence.  Results are therefore
bit-reproducible and independent of batching or thread count, and distinct
paths/species never share draws.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .statutil import ks_critical, ks_statistic

SPECIES_U = 0
SPECIES_V = 1
# Auxiliary stream ids, disjoint from species so audits never collide with
# simulation draws.
STREAM_EQUIVALENCE = 254
STREAM_BOOTSTRAP = 255

MIN_REPLICATIONS = 100

# Master seeds are packed into stream keys as signed 64-bit integers.
SEED_LIMIT = 2**63


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


def sample_sheet_increments(n_cells: int, dt: float, gen: np.random.Generator,
                            n_steps: int = 1) -> np.ndarray:
    """Sheet increments with Var = dt * h per cell, shape (n_steps, n_cells)."""
    if n_cells < 1 or n_steps < 1:
        raise ValueError("n_cells and n_steps must be >= 1")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    scale = np.sqrt(dt / n_cells)
    return scale * gen.standard_normal((n_steps, n_cells))


def sample_spectral_increments(n_modes: int, dt: float, gen: np.random.Generator,
                               weights: np.ndarray | None = None,
                               n_steps: int = 1) -> np.ndarray:
    """Mode increments lambda_k dbeta_k with Var = (lambda_k)^2 dt, shape (n_steps, n_modes)."""
    if n_modes < 1 or n_steps < 1:
        raise ValueError("n_modes and n_steps must be >= 1")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.sqrt(dt) * gen.standard_normal((n_steps, n_modes))
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n_modes,):
            raise ValueError(f"weights shape {weights.shape} does not match n_modes {n_modes}")
        out *= weights
    return out


def walsh_integral(f_samples: np.ndarray, increments: np.ndarray) -> float:
    """int int f dW against sheet increments; plain sum of f * dW."""
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.shape != increments.shape:
        raise ValueError(f"shape mismatch {f_samples.shape} vs {increments.shape}")
    return float(np.sum(f_samples * increments))


def spectral_integral(coefficients: np.ndarray, increments: np.ndarray) -> float:
    """sum_k int <f(s), e_k> dbeta_k against mode increments."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != increments.shape:
        raise ValueError(f"shape mismatch {coefficients.shape} vs {increments.shape}")
    return float(np.sum(coefficients * increments))


def cell_average_coefficients(f_values: np.ndarray, n_modes: int) -> np.ndarray:
    """Cosine coefficients of the piecewise-constant extension of grid samples.

    <pc(f), e_k> = sum_j f_j int_{cell j} e_k, in closed form.  Unlike a DCT
    of the samples this carries no aliasing: modes beyond the grid decay like
    1/k, so truncating at n_modes > n keeps the L2 norm (and hence the noise
    variance) honest.  Acts on the last axis; returns (..., n_modes).
    """
    f_values = np.asarray(f_values, dtype=float)
    n = f_values.shape[-1]
    h = 1.0 / n
    k = np.arange(1, n_modes)
    edges = np.arange(n + 1) * h
    # int_{jh}^{(j+1)h} sqrt(2) cos(k pi y) dy
    sin_table = np.sin(np.pi * np.outer(edges, k))
    cell_ints = np.sqrt(2.0) * (sin_table[1:] - sin_table[:-1]) / (np.pi * k)
    out = np.empty(f_values.shape[:-1] + (n_modes,))
    out[..., 0] = f_values.mean(axis=-1)
    out[..., 1:] = f_values @ cell_ints
    return out


def summability_ratio(weights: np.ndarray, p: float) -> float:
    """Tail flatness of sum_k lambda_k^p: (S_L - S_{L/10}) / S_L.

    Small values certify a numerically converged p-th power sum over the
    declared truncation length L = len(weights).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 20:
        raise ValueError("summability check needs a 1d weight sequence of length >= 20")
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    powers = weights**p
    total = float(np.sum(powers))
    if total <= 0:
        raise ValueError("weights are identically zero")
    head = float(np.sum(powers[: weights.size // 10]))
    return (total - head) / total


SUMMABILITY_TOL = 1e-6


@dataclass(frozen=True)
class NoisePlan:
    """How a simulation draws its noise.

    representation "sheet" feeds the finite-difference scheme; "spectral"
    feeds the spectral scheme.  weights is None for white noise or a
    per-mode sequence lambda_k (k = 1..n_modes; mode 0 has weight 1).
    Declaring summability_class p asserts sum lambda_k^p converges and is
    checked numerically at construction.
    """

    representation: str = "sheet"
    master_seed: int = 0
    n_modes: int | None = None
    weights: np.ndarray | None = None
    summability_class: float | None = None

    def __post_init__(self):
        if self.representation not in ("sheet", "spectral"):
            raise ValueError(f"unknown noise representation {self.representation!r}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(~np.isfinite(w)) or np.any(w < 0):
                raise ValueError("noise weights must be finite and nonnegative")
            if self.n_modes is not None and w.shape != (self.n_modes,):
                raise ValueError(f"weights shape {w.shape} does not match n_modes {self.n_modes}")
            object.__setattr__(self, "weights", w)
        if self.summability_class is not None:
            if self.weights is None:
                raise ValueError("summability_class declared for white noise, which is not summable")
            ratio = summability_ratio(self.weights, self.summability_class)
            if ratio >= SUMMABILITY_TOL:
                raise ValueError(
                    f"declared summability class p={self.summability_class} fails the tail "
                    f"flatness check: last-decade share {ratio:.2e} >= {SUMMABILITY_TOL:.0e}")

    def generator(self, path_index: int, species: int) -> np.random.Generator:
        return noise_generator(self.master_seed, path_index, species)


@dataclass(frozen=True)
class EquivalenceReport:
    """Distributional comparison of the two noise representations on one f."""

    name: str
    n_replications: int
    target_variance: float
    walsh_mean: float
    walsh_variance: float
    spectral_mean: float
    spectral_variance: float
    ks_stat: float
    ks_crit: float
    variance_tolerance: float = 0.05

    @property
    def walsh_variance_ok(self) -> bool:
        if self.target_variance == 0.0:
            return self.walsh_variance == 0.0
        return abs(self.walsh_variance / self.target_variance - 1.0) <= self.variance_tolerance

    @property
    def spectral_variance_ok(self) -> bool:
        if self.target_variance == 0.0:
            return self.spectral_variance == 0.0
        return abs(self.spectral_variance / self.target_variance - 1.0) <= self.variance_tolerance

    @property
    def ks_ok(self) -> bool:
        return self.ks_stat < self.ks_crit

    @property
    def passed(self) -> bool:
        return self.walsh_variance_ok and self.spectral_variance_ok and self.ks_ok


def representation_equivalence_check(f, *, name: str = "f", t_final: float = 1.0,
                                     n_steps: int = 25, n_cells: int = 32,
                                     n_modes: int | None = None,
                                     n_replications: int = 10000,
                                     master_seed: int = 0,
                                     alpha: float = 0.01,
                                     variance_tolerance: float = 0.05) -> EquivalenceReport:
    """Monte Carlo audit that both representations integrate f identically.

    f(s, x) must broadcast over arrays.  The Walsh route sums f dW over the
    space-time grid; the spectral route integrates the pc-extension cosine
    coefficients against K = 4 * n_cells mode increments (default).  Both
    samples are compared to the isometry variance int int f^2 and to each
    other with a two-sample KS test at level alpha.
    """
    if n_replications < MIN_REPLICATIONS:
        raise ValueError(
            f"n_replications = {n_replications} is below the minimum {MIN_REPLICATIONS}; "
            "the variance targets are meaningless with fewer")
    if n_modes is None:
        n_modes = 4 * n_cells
    dt = t_final / n_steps
    h = 1.0 / n_cells
    # f is deterministic, so each panel may sample it at the panel's
    # space-time midpoint; the discrete isometry then matches the continuum
    # target at O(dt^2) + O(h^2) instead of O(dt).
    s = (np.arange(n_steps) + 0.5) * dt
    x = (np.arange(n_cells) + 0.5) * h
    f_grid = np.asarray(f(s[:, None], x[None, :]), dtype=float) * np.ones((n_steps, n_cells))

    # continuum isometry target on a refined grid
    s_fine = (np.arange(8 * n_steps) + 0.5) * (t_final / (8 * n_steps))
    x_fine = (np.arange(8 * n_cells) + 0.5) / (8 * n_cells)
    f_fine = np.asarray(f(s_fine[:, None], x_fine[None, :])) * np.ones((8 * n_steps, 8 * n_cells))
    target = float(np.mean(f_fine**2) * t_final)

    phi = cell_average_coefficients(f_grid, n_modes)

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

    if target == 0.0:
        # f == 0: everything is exactly zero and the KS test is degenerate.
        return EquivalenceReport(
            name=name, n_replications=n_replications, target_variance=0.0,
            walsh_mean=float(walsh_samples.mean()), walsh_variance=float(walsh_samples.var()),
            spectral_mean=float(spec_samples.mean()), spectral_variance=float(spec_samples.var()),
            ks_stat=0.0, ks_crit=ks_critical(alpha, n_replications, n_replications),
            variance_tolerance=variance_tolerance)

    return EquivalenceReport(
        name=name,
        n_replications=n_replications,
        target_variance=target,
        walsh_mean=float(walsh_samples.mean()),
        walsh_variance=float(walsh_samples.var(ddof=1)),
        spectral_mean=float(spec_samples.mean()),
        spectral_variance=float(spec_samples.var(ddof=1)),
        ks_stat=ks_statistic(walsh_samples, spec_samples),
        ks_crit=ks_critical(alpha, n_replications, n_replications),
        variance_tolerance=variance_tolerance,
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
