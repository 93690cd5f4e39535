"""Time stepping for the two-species stochastic reaction-diffusion system.

One step advances the truncated system

    dU = [Laplacian U + f_{n,1}(x, U, V)] dt + sigma_1 U dW_1
    dV = [Laplacian V + f_{n,2}(x, U, V)] dt + sigma_2 V dW_2

with Neumann conditions on [0, 1], on a state of shape (S, P, n) that stacks
the S live species.  A species whose initial field is zero stays zero, since
both its reaction term and its noise carry the factor u_i; it is never drawn,
stepped or clamped (S = 1), and the records read it as zeros.  Drift and
multiplicative noise are explicit: u + dt f + sigma u dW is assembled on the
grid in the growth-factor form

    state * ((1 + dt M) - dt A state - dt B state[::-1] + sigma dW),

whose competition term B drops with one live species, and multiplied by
D = E^T diag(multiplier) E / n, E the cosine basis.  The cosine modes
diagonalize both diffusion operators, so the two schemes differ only in that
per-mode multiplier and in the noise field sigma dW:

  fd        semi-implicit Euler: the resolvent 1 / (1 + 4 dt n^2 sin^2(k pi/2n))
            of the mirrored-ghost Laplacian (exact discrete mass conservation
            for the pure heat flow); sheet noise, sigma sqrt(dt n) times cell
            normals;
  spectral  exponential Euler: the heat semigroup exp(-k^2 pi^2 dt); noise
            sum_k dbeta_k e_k(x) on the grid_size cosine modes, matching the
            sheet discretization's per-cell variance.

The diffusion is one BLAS product over the (S P, n) view of the state, never
over a single row: BLAS takes a single row through gemv, one ulp away from
the gemm rows, and a one-path chunk would stop matching a larger one, so a
one-path run of one live species steps the zero species too.  Inside the
ball the step allocates no (S, P, n) temporary: it assembles the
right-hand side in the step's noise field, used as scratch, and writes the
product into one of two work arrays that alternate.  A cell outside the
truncation ball takes u + dt f_n(u, v) + u sigma dW with the projected drift
instead; that is decided per cell, so a path's numbers never depend on its
chunk-mates.  The step clamps negative cells to zero and accounts the
clipped mass.  Every path owns its own noise streams, so a path's results
do not depend on its chunk or on the thread count wherever the gemm rows do
not depend on how many rows the product has.  With numpy 2.4.6 and OpenBLAS
0.3.31 that holds at n = 8, 16, 63, 64, 127, 128, 200 and 256 but not at
n = 100, 129, 500 or 513, where chunks of other sizes move results by an ulp.

The step loop pays only for work that can change the state.  It computes
|z|^2 = U^2 + V^2 once per step into the work array the step has left; the
largest value is the finiteness check (a full isfinite scan runs only when
it is not finite), the exit probe (the per-path max is taken only once it
reaches radius^2) and the next step's truncation, whose per-cell check is
skipped while every cell is inside the ball.  One min reduction skips the
clamp, and the loop's clip bookkeeping, when every cell is positive.
run_ensemble gives each worker one chunk, a single worker too: the block
length, not the chunk, bounds the noise memory, and every chunk pays the
per-step Python overhead once more.

Noise is drawn in blocks of steps, one block ahead, by the loop and one
helper thread together.  A block's draw is one task per (live species,
path) slab, which draws that path's normals for the block from its own
generator; numpy releases the GIL while it fills, and a task takes the GIL
back only once.  While the loop steps block b from one buffer, the helper
claims the tasks of block b + 1 in the other; at the end of block b the
loop claims the tasks left instead of waiting, then waits only for the ones
the helper is running.  Block b + 1 starts only once block b is complete,
so each stream is consumed in step order, whichever thread draws it.  The
thread that completes a block's last task turns the block into the noise
field in place: for spectral noise one (S P, n) product with the cosine
basis per step (a per-path (steps, n) product would send one-step blocks
through gemv, an ulp away), then the scale sigma sqrt(dt n).
_BLOCK_BUDGET bounds each of the two buffers, the live species counted, so
the draw memory of a run is at most 2 * _BLOCK_BUDGET doubles.  The increment
statistics take fourth powers as (d^2)^2, never through libm pow, and
handle every due time lag of a step in one pass.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .grid import cosine_basis
from .model import (
    CoefficientSet,
    Field,
    default_truncation_radius,
    drift_lipschitz_bound,
    truncated_drift,
)
from .noise import SPECIES_U, SPECIES_V, FieldError, NoisePlan

# The species rows of a state that steps both (U, V).
SPECIES = (SPECIES_U, SPECIES_V)

# dt * (drift Lipschitz bound at the truncation radius) must stay below this.
STABILITY_LIMIT = 0.5

# Elements per noise draw buffer (two buffers per run, the live species in
# each); bounds memory, never changes results.
_BLOCK_BUDGET = 2_000_000


class SimulationBlowup(RuntimeError):
    """A state stopped being finite; carries the step and recent history."""


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and recording choices for one run.

    Parameters
    ----------
    scheme : "fd" or "spectral"
    dt, t_final : float
        Step and horizon; t_final must be an integer number of steps.
    grid_size : int
        Number of cells.
    snapshot_times : tuple of float
        Times at which full fields are kept (single-path runs).
    record_interval : float, optional
        Spacing of the scalar record series; defaults to t_final / 200.
    truncation_radius : float, optional
        Drift truncation ball radius; defaults to 10 (1 + |init|_E).
    probe_sites : tuple of float
        x locations whose values enter the record series and the
        time-increment statistics.
    stats_after : float, optional
        Accumulate increment statistics from this step time in [0, t_final]
        on (None: disabled, and then no lag may be set), both ends of each
        time increment included.  Every lag must collect an increment: no
        time lag may be longer than the steps after it, and no anchored space
        lag lose both pairs.
    space_lag_cells : tuple of int
        Cell separations for spatial increment statistics.
    time_lag_steps : tuple of int
        Step separations for temporal increment statistics at probe sites.
    space_anchor : float, optional
        If set, a point of [0, 1]: spatial increments at lag l are the
        dyadic pairs (anchor - 2l, anchor - l) and (anchor + l, anchor + 2l)
        instead of pooled over all pairs.  For profiles with one
        distinguished feature the lag-l modulus lives beside the feature;
        pairs through the feature cell would measure its value, not the
        increment scaling.
    """

    scheme: str = "fd"
    dt: float = 1e-3
    t_final: float = 1.0
    grid_size: int = 64
    snapshot_times: tuple = ()
    record_interval: float | None = None
    truncation_radius: float | None = None
    probe_sites: tuple = (0.125, 0.375, 0.5, 0.625, 0.875)
    stats_after: float | None = None
    space_lag_cells: tuple = ()
    time_lag_steps: tuple = ()
    space_anchor: float | None = None

    def __post_init__(self):
        if self.scheme not in ("fd", "spectral"):
            raise FieldError("scheme", f"unknown scheme {self.scheme!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise FieldError("dt", f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise FieldError("t_final", "t_final must be at least one step")
        if self.grid_size < 2:
            raise FieldError("grid_size", "grid_size must be >= 2")
        n_steps = round(self.t_final / self.dt)
        if abs(n_steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise FieldError("t_final",
                             f"t_final = {self.t_final} is not a multiple of dt = {self.dt}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final + 1e-12:
                raise FieldError("snapshot_times", f"snapshot time {t} outside [0, t_final]")
        if self.record_interval is not None and self.record_interval < self.dt:
            raise FieldError("record_interval", "record_interval must be >= dt")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise FieldError("truncation_radius", "truncation_radius must be positive")
        for x in self.probe_sites:
            if not 0.0 <= x <= 1.0:
                raise FieldError("probe_sites", f"probe site {x} outside [0, 1]")
        if self.space_anchor is not None and not 0.0 <= self.space_anchor <= 1.0:
            raise FieldError("space_anchor", f"space anchor {self.space_anchor} outside [0, 1]")
        if any(l < 1 for l in self.space_lag_cells) or any(l >= self.grid_size for l in self.space_lag_cells):
            raise FieldError("space_lag_cells", "space lags must be in [1, grid_size)")
        if any(l < 1 for l in self.time_lag_steps):
            raise FieldError("time_lag_steps", "time lags must be >= 1 step")
        if self.stats_after is None:
            for field, kind in (("space_lag_cells", "space"), ("time_lag_steps", "time")):
                if getattr(self, field):
                    raise FieldError(field, f"{kind} lags collect no increment without "
                                     "stats_after")
        else:
            start = np.round(self.stats_after / self.dt)
            if not (0 <= start <= n_steps and abs(start * self.dt - self.stats_after)
                    <= 1e-9 * max(1.0, self.t_final)):
                raise FieldError("stats_after", f"stats_after = {self.stats_after} is not "
                                 f"a step time in [0, t_final] with dt = {self.dt}")
            # every lag must collect an increment in the statistics window
            window = n_steps - int(start)
            a = self.anchor_cell()
            for lag in self.time_lag_steps:
                if lag > window:
                    raise FieldError("time_lag_steps", f"time lag {lag} is longer than the "
                                     f"{window} steps from stats_after to t_final")
            for lag in self.space_lag_cells:
                if a is not None and a - 2 * lag < 0 and a + 2 * lag >= self.grid_size:
                    raise FieldError("space_lag_cells", f"space lag {lag} has no dyadic pair "
                                     f"inside the grid beside the anchor cell {a}")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def record_steps(self) -> np.ndarray:
        """Steps after which the record series are taken: one every
        record_interval from step 0, and always the last step."""
        interval = self.record_interval if self.record_interval is not None else self.t_final / 200
        steps = np.arange(0, self.n_steps + 1, max(1, round(interval / self.dt)))
        return steps if steps[-1] == self.n_steps else np.append(steps, self.n_steps)

    def anchor_cell(self) -> int | None:
        """The cell of space_anchor, or None when it is not set."""
        return (None if self.space_anchor is None
                else min(round(self.space_anchor * self.grid_size - 0.5), self.grid_size - 1))

    def site_indices(self) -> np.ndarray:
        n = self.grid_size
        return np.clip(np.round(np.asarray(self.probe_sites) * n - 0.5).astype(int), 0, n - 1)


def validate_run(config: SolverConfig, coeffs: CoefficientSet, init: Field) -> float:
    """Check grid agreement and the dt-Lipschitz stability bound.

    Returns the effective truncation radius.
    """
    if coeffs.n != config.grid_size or init.n != config.grid_size:
        raise ValueError(
            f"grid mismatch: config {config.grid_size}, coefficients {coeffs.n}, init {init.n}")
    radius = config.truncation_radius
    if radius is None:
        radius = default_truncation_radius(init)
    lip = drift_lipschitz_bound(coeffs, radius)
    if config.dt * lip > STABILITY_LIMIT:
        raise ValueError(
            f"dt * drift Lipschitz bound = {config.dt * lip:.3g} exceeds {STABILITY_LIMIT}; "
            f"reduce dt below {STABILITY_LIMIT / lip:.3g} or the truncation radius {radius:.3g}")
    return radius


# ---------------------------------------------------------------------------
# The step (species on the leading axis, paths on the next).
# ---------------------------------------------------------------------------

def diffusion_operator(scheme: str, n: int, dt: float) -> np.ndarray:
    """The (n, n) matrix D of one diffusion step on grid rows, u @ D =
    from_modes(multiplier * to_modes(u)), with the per-mode multiplier

    fd: the implicit-Euler resolvent (I - dt L)^-1 of the mirrored-ghost
    Neumann Laplacian, whose eigenvalues are -4 n^2 sin^2(k pi / 2n);
    spectral: the exact heat semigroup exp(-k^2 pi^2 dt).
    """
    k = np.arange(n)
    multiplier = (1.0 / (1.0 + 4.0 * dt * n * n * np.sin(k * np.pi / (2 * n)) ** 2)
                  if scheme == "fd" else np.exp(-(k ** 2) * np.pi**2 * dt))
    basis = cosine_basis(n)
    return basis.T @ (multiplier[:, None] * basis) / n


def _clamp(arr: np.ndarray) -> np.ndarray | None:
    # Zeroes negative cells in place; returns the clipped-to-total mass
    # ratio along the last axis, or None when there is nothing to clip.
    # abs, not unary minus, so that a clamped state with nothing clipped
    # reports +0.0 rather than -0.0.  When every cell is positive there is
    # nothing to do; a zero cell may be -0.0, which the clamp turns into
    # +0.0, so a state touching zero still passes through.  A NaN or -inf
    # cell is left for the caller's finiteness check: clamping -inf to 0
    # would hide a blowup.
    lowest = arr.min()
    if lowest > 0.0 or not lowest > -np.inf:
        return None
    clipped = np.abs(np.minimum(arr, 0.0).sum(axis=-1))
    pre_mass = arr.sum(axis=-1)
    np.maximum(arr, 0.0, out=arr)
    return clipped / np.maximum(np.abs(pre_mass), 1e-300)


def growth_terms(coeffs: CoefficientSet, dt: float, species: tuple = SPECIES) -> tuple:
    """(1 + dt M, dt A, dt B) of the growth-factor step, each of shape (S, 1, n)
    for the S stepped species.

    M = (m1, m2) and A = (a1, a2) act on a species itself, B = (b1, b2) on
    the other one, in the species-stacked layout of the state.
    """
    def stacked(first, second):
        return np.stack([first, second])[list(species), None]

    return (1.0 + dt * stacked(coeffs.m1, coeffs.m2), dt * stacked(coeffs.a1, coeffs.a2),
            dt * stacked(coeffs.b1, coeffs.b2))


def euler_step(state: np.ndarray, noise: np.ndarray, coeffs: CoefficientSet, dt: float,
               radius: float, operator: np.ndarray, out: np.ndarray | None = None,
               inside: bool = False, terms: tuple | None = None, species: tuple = SPECIES):
    """One step of either scheme on a (S, P, n) state of the stepped species.

    species names the S rows of state: (SPECIES_U, SPECIES_V) for (U, V), or
    one of them when the other is identically zero, which it then stays.
    noise is this step's noise field sigma dW, shape (S, P, n): sigma
    sqrt(dt n) times cell normals for fd, sigma from_modes(sqrt(dt) times
    mode normals) for spectral.  The step assembles its right-hand side in
    it, so it is spent afterwards.  operator is diffusion_operator(scheme,
    n, dt) and terms is growth_terms(coeffs, dt, species), computed when not
    given.  The new state is written into out (allocated when not given),
    which must be C-contiguous and must not overlap state or noise.

    Every cell takes the growth-factor form of u + dt f(u, v) + sigma u dW,

        state * ((1 + dt M) - dt A state - dt B state[::-1] + noise),

    whose competition term B drops when one species is zero.  With
    inside=False, the cells with hypot(u, v) > radius then take
    u + dt f_n(u, v) + u noise instead, with the projected drift of
    truncated_drift and a zero species read as zero.  inside=True asserts
    that every cell lies in the truncation ball, so that check is skipped.
    A cell's result depends only on its own state either way.

    Returns (next state, clip ratio): the clipped-to-total mass ratios of the
    positivity clamp, shape (S, P), or None when no cell needed clamping.
    """
    if out is None:
        out = np.empty(state.shape)
    growth, dt_a, dt_b = growth_terms(coeffs, dt, species) if terms is None else terms
    projected = None
    if not inside:
        by_species = dict(zip(species, state))
        u, v = (by_species.get(k, 0.0) for k in SPECIES)
        outside = np.hypot(u, v) > radius
        if outside.any():
            drift = np.stack(truncated_drift(u, v, coeffs, radius))[list(species)]
            projected = state + dt * drift + state * noise
    np.multiply(dt_a, state, out=out)
    noise -= out
    if len(species) == 2:
        np.multiply(dt_b, state[::-1], out=out)
        noise -= out
    noise += growth
    noise *= state
    if projected is not None:
        np.copyto(noise, projected, where=outside)
    rows = state.shape[0] * state.shape[1]
    np.matmul(noise.reshape(rows, -1), operator, out=out.reshape(rows, -1))
    return out, _clamp(out)


# ---------------------------------------------------------------------------
# Ensembles.
# ---------------------------------------------------------------------------

@dataclass
class EnsembleStats:
    """Per-path summary series and increment statistics of an ensemble.

    All per-path arrays have the path axis first; merging ensembles is
    concatenation along it, so chunked and threaded runs reproduce the
    single-chunk result exactly.
    """

    master_seed: int
    scheme: str
    dt: float
    grid_size: int
    path_indices: np.ndarray        # (P,)
    times: np.ndarray               # (R,) record times
    mass_u: np.ndarray              # (P, R)
    mass_v: np.ndarray              # (P, R)
    supnorm: np.ndarray             # (P, R)
    rough_u: np.ndarray             # (P, R) max adjacent jump of U over sqrt(h)
    site_x: np.ndarray              # (S,)
    site_u: np.ndarray              # (P, R, S)
    site_v: np.ndarray              # (P, R, S)
    exit_step: np.ndarray           # (P,) first step outside the ball, -1 if none
    clip_max_ratio: np.ndarray      # (P,) worst per-step clipped mass ratio
    clip_events: np.ndarray         # (P,) steps in which the clamp cut U or V
    space_lags: np.ndarray          # (L,) spatial lags, in x units
    space_p2: np.ndarray            # (P, L) summed squared spatial increments
    space_p4: np.ndarray            # (P, L) summed fourth powers
    space_count: np.ndarray         # (L,) increments summed per path
    time_lags: np.ndarray           # (K,) time lags
    time_p2: np.ndarray             # (P, K) summed squared probe-site increments
    time_p4: np.ndarray             # (P, K) summed fourth powers
    time_count: np.ndarray          # (K,) increments summed per path

    # The fields with the path axis first; merge concatenates exactly these.
    PER_PATH_FIELDS = ("path_indices", "mass_u", "mass_v", "supnorm", "rough_u",
                       "site_u", "site_v", "exit_step", "clip_max_ratio", "clip_events",
                       "space_p2", "space_p4", "time_p2", "time_p4")

    @property
    def n_paths(self) -> int:
        return self.path_indices.size

    def merge(self, other: "EnsembleStats") -> "EnsembleStats":
        if (self.master_seed, self.scheme, self.dt, self.grid_size) != \
           (other.master_seed, other.scheme, other.dt, other.grid_size):
            raise ValueError("cannot merge ensembles with different run parameters")
        if not np.array_equal(self.times, other.times):
            raise ValueError("cannot merge ensembles with different record times")
        if np.intersect1d(self.path_indices, other.path_indices).size:
            raise ValueError("cannot merge ensembles with overlapping path indices")
        if not (np.array_equal(self.space_count, other.space_count)
                and np.array_equal(self.time_count, other.time_count)):
            raise ValueError("cannot merge ensembles with different statistics plans")
        return replace(self, **{
            name: np.concatenate([getattr(self, name), getattr(other, name)], axis=0)
            for name in self.PER_PATH_FIELDS})

    def exit_fraction(self) -> float:
        return float(np.mean(self.exit_step >= 0))


class _DrawBlock:
    """The draw tasks of one noise block, numbered 0 .. n_tasks - 1: an
    iterator both threads claim task numbers from (next() on it is atomic
    under the GIL) and the count of tasks not yet completed."""

    def __init__(self, buf: np.ndarray, count: int, n_tasks: int):
        self.buf, self.count = buf, count
        self.tasks = iter(range(n_tasks))
        self.left = n_tasks
        self.lock = threading.Lock()

    def complete_one(self) -> bool:
        """Counts one completed task; True for the last one."""
        with self.lock:
            self.left -= 1
            return self.left == 0


@dataclass
class Trajectory:
    """A single path: snapshot fields plus its record series."""

    snapshots: list
    stats: EnsembleStats


def _run_paths(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
               config: SolverConfig, path_indices,
               keep_snapshots: bool = False) -> tuple[EnsembleStats, list]:
    radius = validate_run(config, coeffs, init)
    if plan.representation == "sheet" and config.scheme != "fd":
        raise ValueError("sheet noise drives the fd scheme; use a spectral plan for the spectral scheme")
    if plan.representation == "spectral" and config.scheme != "spectral":
        raise ValueError("spectral noise drives the spectral scheme")

    path_indices = np.asarray(path_indices, dtype=np.int64)
    p = path_indices.size
    n = config.grid_size
    dt = config.dt
    n_steps = config.n_steps

    # Only the live species are stepped (see the module docstring), unless
    # that would leave the diffusion product a single row.
    fields = (init.u, init.v)
    live = tuple(k for k in SPECIES if fields[k].any())
    if len(live) * p < 2:
        live = SPECIES
    state = np.stack([np.tile(fields[k], (p, 1)) for k in live])
    zero = np.zeros((p, n))
    operator = diffusion_operator(config.scheme, n, dt)

    record_steps = config.record_steps()
    n_rec = record_steps.size
    record_lookup = {int(s): i for i, s in enumerate(record_steps)}

    snapshot_steps = {}
    if keep_snapshots:
        for t_snap in config.snapshot_times:
            snapshot_steps.setdefault(round(t_snap / dt), []).append(t_snap)
    snapshots = []

    site_idx = config.site_indices()
    n_sites = site_idx.size
    space_lags = np.asarray(config.space_lag_cells, dtype=np.int64)
    time_lags = np.asarray(config.time_lag_steps, dtype=np.int64)

    # The statistics this run returns, filled in place as it steps.
    stats = EnsembleStats(
        master_seed=plan.master_seed, scheme=config.scheme, dt=dt, grid_size=n,
        path_indices=path_indices, times=record_steps * dt,
        mass_u=np.empty((p, n_rec)), mass_v=np.empty((p, n_rec)),
        supnorm=np.empty((p, n_rec)), rough_u=np.empty((p, n_rec)),
        site_x=(site_idx + 0.5) / n,
        site_u=np.empty((p, n_rec, n_sites)), site_v=np.empty((p, n_rec, n_sites)),
        exit_step=np.full(p, -1, dtype=np.int64), clip_max_ratio=np.zeros(p),
        clip_events=np.zeros(p, dtype=np.int64),
        space_lags=space_lags / n, space_p2=np.zeros((p, space_lags.size)),
        space_p4=np.zeros((p, space_lags.size)),
        space_count=np.zeros(space_lags.size, dtype=np.int64),
        time_lags=time_lags * dt, time_p2=np.zeros((p, time_lags.size)),
        time_p4=np.zeros((p, time_lags.size)),
        time_count=np.zeros(time_lags.size, dtype=np.int64))

    # the first step whose state enters the increment statistics
    stats_start = n_steps + 1 if config.stats_after is None else round(config.stats_after / dt)
    anchor_idx = config.anchor_cell()

    ring_len = int(time_lags.max(initial=0)) + 1
    ring = np.empty((ring_len, p, n_sites)) if ring_len > 1 else None

    sqrt_h = np.sqrt(1.0 / n)

    def species_fields() -> list:
        # (U, V) of the current state
        by_species = dict(zip(live, state))
        return [by_species.get(k, zero) for k in SPECIES]

    def record(u: np.ndarray, v: np.ndarray, state_step: int, row: int):
        stats.mass_u[:, row] = u.mean(axis=1)
        stats.mass_v[:, row] = v.mean(axis=1)
        stats.supnorm[:, row] = np.hypot(u, v).max(axis=1)
        stats.rough_u[:, row] = np.abs(np.diff(u, axis=1)).max(axis=1) / sqrt_h
        stats.site_u[:, row, :] = u[:, site_idx]
        stats.site_v[:, row, :] = v[:, site_idx]
        if state_step >= stats_start and space_lags.size:
            for j, lag in enumerate(space_lags):
                if anchor_idx is None:
                    d = u[:, lag:] - u[:, :-lag]
                    d2 = d * d
                    stats.space_p2[:, j] += np.sum(d2, axis=1)
                    stats.space_p4[:, j] += np.sum(d2 * d2, axis=1)
                    stats.space_count[j] += n - lag
                else:
                    # dyadic pairs just off the anchor; the anchor cell
                    # itself never enters (its value relaxes on the heat
                    # time scale and would swamp the ambient scaling)
                    for lo, hi in ((anchor_idx - 2 * lag, anchor_idx - lag),
                                   (anchor_idx + lag, anchor_idx + 2 * lag)):
                        if 0 <= lo and hi < n:
                            d = u[:, hi] - u[:, lo]
                            d2 = d * d
                            stats.space_p2[:, j] += d2
                            stats.space_p4[:, j] += d2 * d2
                            stats.space_count[j] += 1

    def observe(step: int):
        # The time-increment ring, the record and the snapshots of the state
        # after `step` steps; step 0 is the initial state.
        u, v = species_fields()
        if ring is not None:
            cur = ring[step % ring_len]
            cur[...] = u[:, site_idx]
            due = time_lags <= step - stats_start
            if due.any():
                # every due lag at once: (n_due, P, S) increments
                d = cur - ring[(step - time_lags[due]) % ring_len]
                d *= d
                stats.time_p2[:, due] += d.sum(axis=2).T
                d *= d
                stats.time_p4[:, due] += d.sum(axis=2).T
                stats.time_count[due] += n_sites
        if step in record_lookup:
            record(u, v, step, record_lookup[step])
        for t_snap in snapshot_steps.get(step, ()):
            snapshots.append(Field(u[0].copy(), v[0].copy(), time=t_snap))

    observe(0)

    # One draw task per (live species, path) slab of a block, shared by the
    # loop and the helper (see the module docstring).
    gens = [[plan.generator(int(idx), species) for idx in path_indices] for species in live]
    rows = len(live) * p
    block = max(1, min(n_steps, _BLOCK_BUDGET // max(1, rows * n)))
    buffers = [np.empty((len(live), p, block, n)) for _ in range(2)]
    # spectral noise: from_modes(sqrt(dt) xi) = sqrt(dt n) xi @ (E / sqrt(n)),
    # one (S P, n) product per step as in the step itself
    basis = cosine_basis(n) / np.sqrt(n) if config.scheme == "spectral" else None
    sigma = np.stack([coeffs.sigma1, coeffs.sigma2])
    noise_scale = np.sqrt(dt * n) * sigma[list(live), None, None]

    def draw(blk: _DrawBlock) -> None:
        # Runs the block's tasks until none is unclaimed.  The thread that
        # completes the last one turns the block's normals into the field.
        xi = blk.buf[:, :, :blk.count]
        for task in blk.tasks:
            species, i = divmod(task, p)
            gens[species][i].standard_normal((blk.count, n), out=xi[species, i])
            if blk.complete_one():
                if basis is not None:
                    field = np.empty((rows, n))
                    for s in range(blk.count):
                        np.matmul(xi[:, :, s].reshape(rows, n), basis, out=field)
                        xi[:, :, s] = field.reshape(-1, p, n)
                xi *= noise_scale

    # The state alternates between two work arrays; the one a step has just
    # left is scratch for U^2 + V^2 of the new state.
    work = (state, np.empty_like(state))
    terms = growth_terms(coeffs, dt, live)

    # The projection is skipped only below radius^2 by more than the rounding
    # of U^2 + V^2: then hypot(U, V) <= radius in every cell, where the
    # projecting drift scales by exactly 1.
    radius_sq = radius * radius
    inside_sq = radius_sq * (1.0 - 4.0 * np.finfo(float).eps)
    u, v = species_fields()
    r2_top = np.max(u * u + v * v)

    step = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = _DrawBlock(buffers[0], min(block, n_steps), rows)
        pending = helper.submit(draw, ahead)
        while step < n_steps:
            s_block = min(block, n_steps - step)
            # claim the tasks the helper has not, then wait for the ones it
            # is running; result() re-raises an error of the helper's
            draw(ahead)
            pending.result()
            noise = ahead.buf
            if step + s_block < n_steps:
                ahead = _DrawBlock(buffers[1] if noise is buffers[0] else buffers[0],
                                   min(block, n_steps - step - s_block), rows)
                pending = helper.submit(draw, ahead)
            for s in range(s_block):
                step += 1
                state, ratio = euler_step(state, noise[:, :, s], coeffs, dt, radius, operator,
                                          out=work[step % 2], inside=r2_top < inside_sq,
                                          terms=terms, species=live)
                r2 = np.multiply(state, state, out=work[(step + 1) % 2])
                r2 = r2[0] if len(live) == 1 else np.add(r2[0], r2[1], out=r2[0])
                r2_top = r2.max()
                # NaN and inf propagate into the max; a finite state whose
                # U^2 + V^2 overflows is no blowup.
                if not np.isfinite(r2_top) and not np.all(np.isfinite(state)):
                    bad = int(np.argmax(~np.all(np.isfinite(state), axis=(0, 2))))
                    raise SimulationBlowup(
                        f"non-finite state at step {step} (t = {step * dt:.6g}) on path "
                        f"{int(path_indices[bad])}")
                if ratio is not None:
                    np.maximum(stats.clip_max_ratio, ratio.max(axis=0),
                               out=stats.clip_max_ratio)
                    stats.clip_events += (ratio > 0).any(axis=0)

                if r2_top >= radius_sq:
                    newly_out = (stats.exit_step < 0) & (r2.max(axis=1) >= radius_sq)
                    stats.exit_step[newly_out] = step

                observe(step)

    return stats, snapshots


def simulate_path(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
                  config: SolverConfig, path_index: int = 0) -> Trajectory:
    """Advance one path, keeping full fields at the configured snapshot times."""
    stats, snapshots = _run_paths(init, coeffs, plan, config, [path_index],
                                  keep_snapshots=True)
    return Trajectory(snapshots=snapshots, stats=stats)


def _worker(args):
    init, coeffs, plan, config, chunk = args
    stats, _ = _run_paths(init, coeffs, plan, config, chunk)
    return stats


def run_ensemble(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
                 config: SolverConfig, n_paths: int, path_offset: int = 0,
                 threads: int = 1, chunk_size: int | None = None) -> EnsembleStats:
    """Advance n_paths independent paths and collect their statistics.

    The paths are cut into one chunk per worker by default; threads > 1
    runs the chunks on that many processes, threads = 0 uses the CPU
    count.  Chunking changes results only where the gemm rows depend on the
    row count (see the module docstring).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if threads == 0:
        threads = os.cpu_count() or 1
    indices = np.arange(path_offset, path_offset + n_paths)
    if chunk_size is None:
        chunk_size = -(-n_paths // threads)
    chunks = [indices[i:i + chunk_size] for i in range(0, n_paths, chunk_size)]

    if threads == 1 or len(chunks) == 1:
        results = [_run_paths(init, coeffs, plan, config, c)[0] for c in chunks]
    else:
        jobs = [(init, coeffs, plan, config, c) for c in chunks]
        with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            results = list(pool.map(_worker, jobs))

    merged = results[0]
    for stats in results[1:]:
        merged = merged.merge(stats)
    return merged
