"""Time stepping for the two-species stochastic reaction-diffusion system.

One step advances the truncated system

    dU = [Laplacian U + f_{n,1}(x, U, V)] dt + sigma_1 U dW_1
    dV = [Laplacian V + f_{n,2}(x, U, V)] dt + sigma_2 V dW_2

with Neumann conditions on [0, 1], on a state of shape (2, P, n) that stacks
the species.  Drift and multiplicative noise are explicit: u + dt f + sigma u
dW is assembled on the grid, multiplied per DCT-II mode, and transformed
back.  The cosine modes diagonalize both diffusion operators, so the two
schemes differ only in that multiplier and in the noise field:

  fd        semi-implicit Euler: the resolvent 1 / (1 + 4 dt n^2 sin^2(k pi/2n))
            of the mirrored-ghost Laplacian (exact discrete mass conservation
            for the pure heat flow); sheet noise, cell normals * sqrt(dt n);
  spectral  exponential Euler: the heat semigroup exp(-k^2 pi^2 dt); noise
            sum_k lambda_k dbeta_k e_k(x) on K = grid_size modes by default,
            matching the sheet discretization's per-cell variance.

The step clamps negative cells to zero and accounts the clipped mass.  Every
path owns its own noise streams, so results are bit-identical regardless of
batch decomposition or thread count.

The step loop pays only for work that can change the state.  It computes
|z|^2 = U^2 + V^2 once per step; the largest value is the finiteness check
(a full isfinite scan runs only when it is not finite), the exit probe
(|z|^2 >= radius^2) and the next step's truncation, whose radial projection
is skipped while every cell is inside the ball, where it is the identity.
One min reduction skips the clamp when every cell is positive.  With more
than one worker, run_ensemble gives each worker one chunk: the block length
bounds the noise memory, and every chunk pays the per-step Python overhead
once more.

Noise is drawn in blocks of steps on one helper thread, one block ahead:
while the loop steps block b from one buffer, the helper fills block b + 1
into the other from the same per-path generators in the same order (numpy
releases the GIL while it fills).  _BLOCK_BUDGET bounds each of the two
buffers, both species counted, so the draw memory of a run is at most
2 * _BLOCK_BUDGET doubles.  The increment statistics take fourth powers as
(d^2)^2, never through libm pow, and handle every live time lag of a step
in one pass.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import from_modes, to_modes
from .model import (
    CoefficientSet,
    Field,
    default_truncation_radius,
    drift_lipschitz_bound,
    truncated_drift,
)
from .noise import SPECIES_U, SPECIES_V, NoisePlan

# dt * (drift Lipschitz bound at the truncation radius) must stay below this.
STABILITY_LIMIT = 0.5

# Elements per noise draw buffer (two buffers per run, both species in
# each); bounds memory, never changes results.
_BLOCK_BUDGET = 2_000_000

# A chunk on one worker holds _CHUNK_CELLS // grid_size paths (at least 64),
# which bounds the per-path arrays of very large ensembles.
_CHUNK_CELLS = 125_000


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
    n_modes : int, optional
        Spectral noise modes; defaults to grid_size.
    probe_sites : tuple of float
        x locations whose values enter the record series and the
        time-increment statistics.
    stats_after : float, optional
        Accumulate increment statistics from this time on (None: disabled).
    space_lag_cells : tuple of int
        Cell separations for spatial increment statistics.
    time_lag_steps : tuple of int
        Step separations for temporal increment statistics at probe sites.
    space_anchor : float, optional
        If set, spatial increments at lag l are the dyadic pairs
        (anchor - 2l, anchor - l) and (anchor + l, anchor + 2l) instead of
        pooled over all pairs.  For profiles with one distinguished feature
        the lag-l modulus lives beside the feature; pairs through the
        feature cell would measure its value, not the increment scaling.
    """

    scheme: str = "fd"
    dt: float = 1e-3
    t_final: float = 1.0
    grid_size: int = 64
    snapshot_times: tuple = ()
    record_interval: float | None = None
    truncation_radius: float | None = None
    n_modes: int | None = None
    probe_sites: tuple = (0.125, 0.375, 0.5, 0.625, 0.875)
    stats_after: float | None = None
    space_lag_cells: tuple = ()
    time_lag_steps: tuple = ()
    space_anchor: float | None = None

    def __post_init__(self):
        if self.scheme not in ("fd", "spectral"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least one step")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        n_steps = round(self.t_final / self.dt)
        if abs(n_steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(f"t_final = {self.t_final} is not a multiple of dt = {self.dt}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final + 1e-12:
                raise ValueError(f"snapshot time {t} outside [0, t_final]")
        if self.record_interval is not None and self.record_interval < self.dt:
            raise ValueError("record_interval must be >= dt")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")
        if self.n_modes is not None and not 1 <= self.n_modes <= self.grid_size:
            raise ValueError("n_modes must be in [1, grid_size]")
        for x in self.probe_sites:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"probe site {x} outside [0, 1]")
        if any(l < 1 for l in self.space_lag_cells) or any(l >= self.grid_size for l in self.space_lag_cells):
            raise ValueError("space lags must be in [1, grid_size)")
        if any(l < 1 for l in self.time_lag_steps):
            raise ValueError("time lags must be >= 1 step")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def record_every(self) -> int:
        interval = self.record_interval if self.record_interval is not None else self.t_final / 200
        return max(1, round(interval / self.dt))

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

def diffusion_multiplier(scheme: str, n: int, dt: float) -> np.ndarray:
    """Per-mode factor of one diffusion step on the DCT-II modes k = 0..n-1.

    fd: the implicit-Euler resolvent (I - dt L)^-1 of the mirrored-ghost
    Neumann Laplacian, whose eigenvalues are -4 n^2 sin^2(k pi / 2n);
    spectral: the exact heat semigroup exp(-k^2 pi^2 dt).
    """
    k = np.arange(n)
    if scheme == "fd":
        return 1.0 / (1.0 + 4.0 * dt * n * n * np.sin(k * np.pi / (2 * n)) ** 2)
    return np.exp(-(k ** 2) * np.pi**2 * dt)


def _clamp(arr: np.ndarray) -> np.ndarray:
    # Zeroes negative cells in place; returns the clipped-to-total mass
    # ratio along the last axis.  abs, not unary minus, so that a step with
    # nothing clipped reports +0.0 rather than -0.0.  When every cell is
    # positive there is nothing to do; a zero cell may be -0.0, which the
    # clamp turns into +0.0, so a state touching zero still passes through.
    # A NaN or -inf cell is left for the caller's finiteness check: clamping
    # -inf to 0 would hide a blowup.
    lowest = arr.min()
    if lowest > 0.0 or not lowest > -np.inf:
        return np.zeros(arr.shape[:-1])
    clipped = np.abs(np.minimum(arr, 0.0).sum(axis=-1))
    pre_mass = arr.sum(axis=-1)
    np.maximum(arr, 0.0, out=arr)
    return clipped / np.maximum(np.abs(pre_mass), 1e-300)


def euler_step(state: np.ndarray, xi: np.ndarray, coeffs: CoefficientSet, dt: float,
               radius: float, scheme: str, multiplier: np.ndarray,
               weights: np.ndarray | None = None, inside: bool = False):
    """One step of either scheme on a (2, P, n) state of (U, V).

    xi are standard normals of shape (2, P, n) for fd, or (2, P, K) mode
    normals with K <= n for spectral (lambda_k = weights, 1 if None).
    multiplier is diffusion_multiplier(scheme, n, dt).  inside=True asserts
    that every cell lies in the truncation ball, so the drift skips the
    radial projection (see truncated_drift).

    Returns (next state, clip ratio of shape (2, P)); clip ratios are the
    clipped-to-total mass ratios of the positivity clamp this step.
    """
    n = state.shape[-1]
    if scheme == "fd":
        dw = np.sqrt(dt * n) * xi
    else:
        modes = np.sqrt(dt) * xi
        if weights is not None:
            modes = modes * weights
        if modes.shape[-1] < n:
            pad = np.zeros(modes.shape[:-1] + (n - modes.shape[-1],))
            modes = np.concatenate([modes, pad], axis=-1)
        dw = from_modes(modes)
    drift = np.stack(truncated_drift(state[0], state[1], coeffs, radius, inside))
    sigma = np.stack([coeffs.sigma1, coeffs.sigma2])[:, None]
    rhs = state + dt * drift + sigma * state * dw
    state_next = from_modes(to_modes(rhs) * multiplier)
    return state_next, _clamp(state_next)


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
    truncation_radius: float
    space_lags: np.ndarray = field(default_factory=lambda: np.empty(0))
    space_p2: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    space_p4: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    space_count: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    time_lags: np.ndarray = field(default_factory=lambda: np.empty(0))
    time_p2: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    time_p4: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    time_count: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

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
    k_modes = (config.n_modes or n) if config.scheme == "spectral" else n
    weights = plan.weights
    if weights is not None:
        if weights.size < k_modes:
            raise ValueError(
                f"noise plan provides {weights.size} mode weights, scheme needs {k_modes}")
        weights = weights[:k_modes]

    state = np.stack([np.tile(init.u, (p, 1)), np.tile(init.v, (p, 1))])
    multiplier = diffusion_multiplier(config.scheme, n, dt)

    record_steps = np.arange(0, n_steps + 1, config.record_every)
    if record_steps[-1] != n_steps:
        record_steps = np.append(record_steps, n_steps)
    n_rec = record_steps.size
    record_lookup = {int(s): i for i, s in enumerate(record_steps)}

    snapshot_steps = {}
    if keep_snapshots:
        for t_snap in config.snapshot_times:
            step_idx = round(t_snap / dt)
            snapshot_steps.setdefault(step_idx, []).append(t_snap)

    site_idx = config.site_indices()
    n_sites = site_idx.size

    mass_u = np.empty((p, n_rec))
    mass_v = np.empty((p, n_rec))
    supnorm_rec = np.empty((p, n_rec))
    rough_u = np.empty((p, n_rec))
    site_u = np.empty((p, n_rec, n_sites))
    site_v = np.empty((p, n_rec, n_sites))
    exit_step = np.full(p, -1, dtype=np.int64)
    clip_max = np.zeros(p)
    clip_events = np.zeros(p, dtype=np.int64)

    space_lags = np.asarray(config.space_lag_cells, dtype=np.int64)
    time_lags = np.asarray(config.time_lag_steps, dtype=np.int64)
    do_stats = config.stats_after is not None
    stats_start = round(config.stats_after / dt) if do_stats else n_steps + 1
    space_p2 = np.zeros((p, space_lags.size))
    space_p4 = np.zeros((p, space_lags.size))
    space_count = np.zeros(space_lags.size, dtype=np.int64)
    time_p2 = np.zeros((p, time_lags.size))
    time_p4 = np.zeros((p, time_lags.size))
    time_count = np.zeros(time_lags.size, dtype=np.int64)
    anchor_idx = None
    if config.space_anchor is not None:
        anchor_idx = int(np.clip(round(config.space_anchor * n - 0.5), 0, n - 1))

    max_time_lag = int(time_lags.max()) if time_lags.size else 0
    ring = np.empty((max_time_lag + 1, p, n_sites)) if max_time_lag else None

    sqrt_h = np.sqrt(1.0 / n)

    def record(state_step: int, row: int):
        u, v = state
        mass_u[:, row] = u.mean(axis=1)
        mass_v[:, row] = v.mean(axis=1)
        supnorm_rec[:, row] = np.hypot(u, v).max(axis=1)
        rough_u[:, row] = np.abs(np.diff(u, axis=1)).max(axis=1) / sqrt_h
        site_u[:, row, :] = u[:, site_idx]
        site_v[:, row, :] = v[:, site_idx]
        if do_stats and state_step * dt >= config.stats_after - 1e-12 and space_lags.size:
            for j, lag in enumerate(space_lags):
                if anchor_idx is None:
                    d = u[:, lag:] - u[:, :-lag]
                    d2 = d * d
                    space_p2[:, j] += np.sum(d2, axis=1)
                    space_p4[:, j] += np.sum(d2 * d2, axis=1)
                    space_count[j] += n - lag
                else:
                    # dyadic pairs just off the anchor; the anchor cell
                    # itself never enters (its value relaxes on the heat
                    # time scale and would swamp the ambient scaling)
                    for lo, hi in ((anchor_idx - 2 * lag, anchor_idx - lag),
                                   (anchor_idx + lag, anchor_idx + 2 * lag)):
                        if 0 <= lo and hi < n:
                            d = u[:, hi] - u[:, lo]
                            d2 = d * d
                            space_p2[:, j] += d2
                            space_p4[:, j] += d2 * d2
                            space_count[j] += 1

    record(0, 0)
    snapshots = []
    for step_idx in sorted(snapshot_steps):
        if step_idx == 0:
            for t_snap in snapshot_steps[0]:
                snapshots.append(Field(state[0, 0].copy(), state[1, 0].copy(), time=t_snap))
    if ring is not None:
        ring[0] = state[0][:, site_idx]

    # Row 0 of a draw buffer comes from each path's U stream, row 1 from its
    # V stream, each consumed in step order.  Only the helper thread touches
    # the generators, and it fills only the buffer the loop has finished.
    gens = [[plan.generator(int(idx), species) for idx in path_indices]
            for species in (SPECIES_U, SPECIES_V)]
    block = max(1, min(n_steps, _BLOCK_BUDGET // max(1, 2 * p * k_modes)))
    buffers = [np.empty((2, p, block, k_modes)) for _ in range(2)]

    def draw(buf: np.ndarray, count: int) -> np.ndarray:
        for species, species_gens in enumerate(gens):
            for i, gen in enumerate(species_gens):
                gen.standard_normal((count, k_modes), out=buf[species, i, :count])
        return buf

    # The projection is skipped only below radius^2 by more than the rounding
    # of U^2 + V^2: then hypot(U, V) <= radius in every cell, where the
    # projecting drift scales by exactly 1.
    radius_sq = radius * radius
    inside_sq = radius_sq * (1.0 - 4.0 * np.finfo(float).eps)
    r2_max = np.max(state[0] * state[0] + state[1] * state[1], axis=1)
    r2_top = r2_max.max()
    ring_len = max_time_lag + 1

    step = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, buffers[0], min(block, n_steps))
        while step < n_steps:
            s_block = min(block, n_steps - step)
            xi = pending.result()
            ahead = step + s_block
            if ahead < n_steps:
                pending = helper.submit(draw, buffers[1] if xi is buffers[0] else buffers[0],
                                        min(block, n_steps - ahead))
            for s in range(s_block):
                step += 1
                state, ratio = euler_step(state, xi[:, :, s], coeffs, dt, radius,
                                          config.scheme, multiplier, weights,
                                          inside=r2_top < inside_sq)
                r2_max = np.max(state[0] * state[0] + state[1] * state[1], axis=1)
                r2_top = r2_max.max()
                # NaN and inf propagate into the max; a finite state whose
                # U^2 + V^2 overflows is no blowup.
                if not np.isfinite(r2_top) and not np.all(np.isfinite(state)):
                    bad = int(np.argmax(~np.all(np.isfinite(state), axis=(0, 2))))
                    raise SimulationBlowup(
                        f"non-finite state at step {step} (t = {step * dt:.6g}) on path "
                        f"{int(path_indices[bad])}")
                np.maximum(clip_max, ratio.max(axis=0), out=clip_max)
                clip_events += (ratio > 0).any(axis=0)

                if r2_top >= radius_sq:
                    newly_out = (exit_step < 0) & (r2_max >= radius_sq)
                    exit_step[newly_out] = step

                if ring is not None:
                    cur = ring[step % ring_len]
                    cur[...] = state[0][:, site_idx]
                    live = time_lags <= step - stats_start
                    if live.any():
                        # every live lag at once: (n_live, P, S) increments
                        d = cur - ring[(step - time_lags[live]) % ring_len]
                        d *= d
                        time_p2[:, live] += d.sum(axis=2).T
                        d *= d
                        time_p4[:, live] += d.sum(axis=2).T
                        time_count[live] += n_sites

                if step in record_lookup:
                    record(step, record_lookup[step])
                if step in snapshot_steps:
                    for t_snap in snapshot_steps[step]:
                        snapshots.append(Field(state[0, 0].copy(), state[1, 0].copy(), time=t_snap))

    stats = EnsembleStats(
        master_seed=plan.master_seed,
        scheme=config.scheme,
        dt=dt,
        grid_size=n,
        path_indices=path_indices,
        times=record_steps * dt,
        mass_u=mass_u, mass_v=mass_v,
        supnorm=supnorm_rec, rough_u=rough_u,
        site_x=(site_idx + 0.5) / n,
        site_u=site_u, site_v=site_v,
        exit_step=exit_step,
        clip_max_ratio=clip_max,
        clip_events=clip_events,
        truncation_radius=radius,
        space_lags=space_lags / n,
        space_p2=space_p2, space_p4=space_p4, space_count=space_count,
        time_lags=time_lags * dt,
        time_p2=time_p2, time_p4=time_p4, time_count=time_count,
    )
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

    threads > 1 distributes path chunks over processes, one chunk per
    worker by default; threads = 0 uses the CPU count.  Chunking never
    changes results, only memory and wall time.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if threads == 0:
        threads = os.cpu_count() or 1
    indices = np.arange(path_offset, path_offset + n_paths)
    if chunk_size is None:
        per = max(1, _CHUNK_CELLS // config.grid_size)
        chunk_size = min(n_paths, max(64, per)) if threads == 1 else -(-n_paths // threads)
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
