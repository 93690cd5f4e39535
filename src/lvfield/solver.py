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
per-mode multiplier and in the noise field sigma dW, which the scheme alone
picks (the NoisePlan supplies only the master seed of the streams):

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
right-hand side in the step's noise field, which it spends, and writes the
product into one of two work arrays that alternate.  A cell outside the
truncation ball takes u + dt f_n(u, v) + u sigma dW with the projected drift
instead; that is decided per cell, so a path's numbers never depend on its
chunk-mates.  The step clamps negative cells to zero and accounts the
clipped mass.  Every path owns its own noise streams, and run_ensemble
cuts the paths into chunks that depend on the path count alone, so the
thread count never changes a result.  A path's results do not depend on
the chunk size either wherever the gemm rows do not depend on how many rows
the product has.

The step loop pays per step only for work that can change the state, and
for copies.  It computes |z|^2 = U^2 + V^2 once per step into the work
array the step has left; the largest value is the finiteness check (a full
isfinite scan runs only when it is not finite), the exit probe (the
per-path max is taken only once it reaches radius^2) and the next step's
truncation, whose per-cell check is skipped while every cell is inside the
ball.  One min reduction skips the clamp, and the loop's clip bookkeeping,
when every cell is positive.  Beyond that a step only copies: the state
into a preallocated buffer at each record step, U at the probe sites into
a ring from the first step of the increment statistics on, and the first
path's fields at the snapshot times.  The records (masses, sup-norm,
roughness, probe-site values) and the space and time increment sums of
those steps are taken at each block edge, in one vectorised pass over the
block's steps.  Each per-path sum adds its increments in step order
(np.add.accumulate from the running sum), so the sums carry the bits of one
addition per step whatever the block layout.
run_ensemble cuts the paths into chunks of CHUNK_PATHS, the last one
shorter, whatever the thread count: at 64 paths and n = 128 the step's
state-sized arrays fit together in a 2 MB L2 cache, and smaller chunks pay
the per-step Python overhead more often.  The threads only pick how many
processes run the chunks; one chunk runs in the calling process.  Every
run, simulate_path's one path too, returns one EnsembleStats.

Normals are drawn in blocks of steps, one block ahead, by the loop and one
helper thread together.  A block's draw is one task per (live species,
path) slab, which draws that path's normals for the block from its own
generator; numpy releases the GIL while it fills, and a task takes the GIL
back only once.  While the loop steps block b from one buffer, the helper
claims the tasks of block b + 1 in the other; at the end of block b the
loop claims the tasks left instead of waiting, then waits only for the ones
the helper is running.  Block b + 1 starts only once block b is complete,
so each stream is consumed in step order, whichever thread draws it.  The
draw only draws: before each step the loop builds that step's noise field
from the block's normals into one contiguous (S, P, n) array, for spectral
noise by one (S P, n) product with the cosine basis (a per-path (steps, n)
product would send one-step blocks through gemv, an ulp away), then by the
scale sigma sqrt(dt n).  _BLOCK_BUDGET bounds each of the two buffers, the
live species counted, so the draw memory of a run is at most
2 * _BLOCK_BUDGET doubles, 8 MB: 30-step blocks for 64 paths of both
species on 128 cells, 122 for 64 paths of one species on 64 cells, one
1050-step block for one path on 64 cells.  The block length bounds the
records, probe-site ring and time increments kept for a block edge too.
The increment statistics take fourth powers as (d^2)^2, never through libm
pow.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

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
# each); its block length bounds the step loop's memory (see the module
# docstring), never its results.
_BLOCK_BUDGET = 500_000

# Paths per chunk of an ensemble, the last chunk holding the remainder.
CHUNK_PATHS = 64


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
        Increasing times at which the full fields of the run's first path
        are kept, at most one per step.
    record_interval : float, optional
        Spacing of the scalar record series; defaults to t_final / 200.
    probe_sites : tuple of float
        x locations whose values enter the record series and the
        time-increment statistics; time lags need at least one.
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
    snapshot_times: tuple[float, ...] = ()
    record_interval: float | None = None
    probe_sites: tuple[float, ...] = (0.125, 0.375, 0.5, 0.625, 0.875)
    stats_after: float | None = None
    space_lag_cells: tuple[int, ...] = ()
    time_lag_steps: tuple[int, ...] = ()
    space_anchor: float | None = None

    def __post_init__(self):
        if self.scheme not in ("fd", "spectral"):
            raise FieldError("scheme", f"unknown scheme {self.scheme!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise FieldError("dt", f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise FieldError("t_final", "t_final must be at least one step")
        if self.grid_size < 2:
            raise FieldError("grid_size", f"grid_size must be >= 2, got {self.grid_size}")
        n_steps = round(self.t_final / self.dt)
        if abs(n_steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise FieldError("t_final",
                             f"t_final = {self.t_final} is not a multiple of dt = {self.dt}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final + 1e-12:
                raise FieldError("snapshot_times", f"snapshot time {t} outside [0, t_final]")
        if len({round(t / self.dt) for t in self.snapshot_times}) < len(self.snapshot_times):
            raise FieldError("snapshot_times", f"two snapshot times land on one step of "
                             f"dt = {self.dt}")
        if list(self.snapshot_times) != sorted(self.snapshot_times):
            raise FieldError("snapshot_times", "snapshot times must be in increasing order")
        if self.record_interval is not None and self.record_interval < self.dt:
            raise FieldError("record_interval", "record_interval must be >= dt")
        for x in self.probe_sites:
            if not 0.0 <= x <= 1.0:
                raise FieldError("probe_sites", f"probe site {x} outside [0, 1]")
        if self.space_anchor is not None and not 0.0 <= self.space_anchor <= 1.0:
            raise FieldError("space_anchor", f"space anchor {self.space_anchor} outside [0, 1]")
        if any(l < 1 for l in self.space_lag_cells) or any(l >= self.grid_size for l in self.space_lag_cells):
            raise FieldError("space_lag_cells", "space lags must be in [1, grid_size)")
        if any(l < 1 for l in self.time_lag_steps):
            raise FieldError("time_lag_steps", "time lags must be >= 1 step")
        if self.time_lag_steps and not self.probe_sites:
            raise FieldError("time_lag_steps", "time lags collect no increment without "
                             "probe_sites")
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

    @property
    def record_stride(self) -> int:
        """Steps between records: record_interval, t_final / 200 when it is
        not set, rounded to whole steps and at least one."""
        every = self.record_interval if self.record_interval is not None else self.t_final / 200
        return max(1, round(every / self.dt))

    def record_steps(self) -> np.ndarray:
        """Steps after which the record series are taken: one every
        record_stride from step 0, and always the last step."""
        steps = np.arange(0, self.n_steps + 1, self.record_stride)
        return steps if steps[-1] == self.n_steps else np.append(steps, self.n_steps)

    def anchor_cell(self) -> int | None:
        """The cell of space_anchor, or None when it is not set."""
        return (None if self.space_anchor is None
                else min(round(self.space_anchor * self.grid_size - 0.5), self.grid_size - 1))

    def recorded_lags(self) -> tuple[np.ndarray, np.ndarray]:
        """The space lags as distances and the time lags as durations, as
        the increment statistics record them."""
        return (np.asarray(self.space_lag_cells, dtype=np.int64) / self.grid_size,
                np.asarray(self.time_lag_steps, dtype=np.int64) * self.dt)

    def site_indices(self) -> np.ndarray:
        n = self.grid_size
        return np.clip(np.round(np.asarray(self.probe_sites) * n - 0.5).astype(int), 0, n - 1)


def validate_run(config: SolverConfig, coeffs: CoefficientSet, init: Field) -> float:
    """Check grid agreement and the dt-Lipschitz stability bound.

    Returns the truncation radius, default_truncation_radius(init).
    """
    if coeffs.n != config.grid_size or init.n != config.grid_size:
        raise ValueError(
            f"grid mismatch: config {config.grid_size}, coefficients {coeffs.n}, init {init.n}")
    radius = default_truncation_radius(init)
    lip = drift_lipschitz_bound(coeffs, radius)
    if config.dt * lip > STABILITY_LIMIT:
        raise ValueError(
            f"dt * drift Lipschitz bound = {config.dt * lip:.3g} exceeds {STABILITY_LIMIT}; "
            f"reduce dt below {STABILITY_LIMIT / lip:.3g} (truncation radius {radius:.3g})")
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
    lowest = np.minimum.reduce(arr, axis=None)
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
    given, or those terms broadcast to the state's shape.  The new state is
    written into out (allocated when not given), which must be C-contiguous
    and must not overlap state or noise.

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
    """Per-path summary series and increment statistics of a run, one path
    or many, and the snapshot fields of its first path.

    All per-path arrays have the path axis first, in path order; merge
    joins the chunks of one run by concatenation along it, so chunked and
    threaded runs reproduce the single-chunk result exactly.
    """

    master_seed: int
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
    snapshots: list                 # Fields of the first path at snapshot_times

    # The fields with the path axis first; merge concatenates exactly these.
    PER_PATH_FIELDS = ("mass_u", "mass_v", "supnorm", "rough_u", "site_u", "site_v",
                       "exit_step", "clip_max_ratio", "clip_events",
                       "space_p2", "space_p4", "time_p2", "time_p4")

    @property
    def n_paths(self) -> int:
        return self.mass_u.shape[0]

    @classmethod
    def merge(cls, parts: list) -> "EnsembleStats":
        """The ensemble of parts, the chunks of one run in path order: their
        per-path fields concatenated, every other field the first chunk's."""
        return replace(parts[0], **{
            name: np.concatenate([getattr(part, name) for part in parts], axis=0)
            for name in cls.PER_PATH_FIELDS})

    def exit_fraction(self) -> float:
        return float(np.mean(self.exit_step >= 0))


class _DrawBlock:
    """The draw tasks of one block of normals, numbered 0 .. n_tasks - 1: an
    iterator both threads claim task numbers from (next() on it is atomic
    under the GIL).  The block is complete once no task is left unclaimed
    and every thread that claimed one has returned."""

    def __init__(self, buf: np.ndarray, count: int, n_tasks: int):
        self.buf, self.count = buf, count
        self.tasks = iter(range(n_tasks))


def _add_in_order(total: np.ndarray, parts: np.ndarray) -> None:
    # total += parts[0], then parts[1], ...: one rounding per addition in
    # that order, the bits of one addition per step
    parts[0] += total
    total[...] = np.add.accumulate(parts, axis=0)[-1]


def _run_paths(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
               config: SolverConfig, path_indices) -> EnsembleStats:
    radius = validate_run(config, coeffs, init)

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
    operator = diffusion_operator(config.scheme, n, dt)

    def species_fields(stack: np.ndarray) -> list:
        # (U, V) views of a stack of the live species on its leading axis,
        # the dead one read as zeros
        by_species = dict(zip(live, stack))
        zero = np.broadcast_to(0.0, stack.shape[1:])
        return [by_species.get(k, zero) for k in SPECIES]

    record_steps = config.record_steps()
    n_rec = record_steps.size

    # at most one snapshot time per step (SolverConfig refuses two)
    snapshot_steps = {round(t / dt): t for t in config.snapshot_times}

    site_idx = config.site_indices()
    n_sites = site_idx.size
    space_lags = np.asarray(config.space_lag_cells, dtype=np.int64)
    time_lags = np.asarray(config.time_lag_steps, dtype=np.int64)
    space_lag_x, time_lag_t = config.recorded_lags()

    # The statistics this run returns, filled in place as it steps.
    stats = EnsembleStats(
        master_seed=plan.master_seed, times=record_steps * dt,
        mass_u=np.empty((p, n_rec)), mass_v=np.empty((p, n_rec)),
        supnorm=np.empty((p, n_rec)), rough_u=np.empty((p, n_rec)),
        site_x=(site_idx + 0.5) / n,
        site_u=np.empty((p, n_rec, n_sites)), site_v=np.empty((p, n_rec, n_sites)),
        exit_step=np.full(p, -1, dtype=np.int64), clip_max_ratio=np.zeros(p),
        clip_events=np.zeros(p, dtype=np.int64),
        space_lags=space_lag_x, space_p2=np.zeros((p, space_lags.size)),
        space_p4=np.zeros((p, space_lags.size)),
        space_count=np.zeros(space_lags.size, dtype=np.int64),
        time_lags=time_lag_t, time_p2=np.zeros((p, time_lags.size)),
        time_p4=np.zeros((p, time_lags.size)),
        time_count=np.zeros(time_lags.size, dtype=np.int64), snapshots=[])

    # the first step whose state enters the increment statistics
    stats_start = n_steps + 1 if config.stats_after is None else round(config.stats_after / dt)
    anchor_idx = config.anchor_cell()
    if anchor_idx is None:
        anchor_pairs = None
    else:
        # dyadic pairs just off the anchor; the anchor cell itself never
        # enters (its value relaxes on the heat time scale and would swamp
        # the ambient scaling)
        anchor_pairs = [[(lo, hi) for lo, hi in ((anchor_idx - 2 * lag, anchor_idx - lag),
                                                 (anchor_idx + lag, anchor_idx + 2 * lag))
                         if 0 <= lo and hi < n] for lag in space_lags]

    # One draw task per (live species, path) slab of a block, shared by the
    # loop and the helper (see the module docstring).
    gens = [[plan.generator(int(idx), species) for idx in path_indices] for species in live]
    rows = len(live) * p
    block = max(1, min(n_steps, _BLOCK_BUDGET // max(1, rows * n)))
    buffers = [np.empty((len(live), p, block, n)) for _ in range(2)]
    # The loop builds each step's field sigma dW from the block's normals xi
    # into `field`: spectral noise first takes from_modes(sqrt(dt) xi) =
    # sqrt(dt n) xi @ (E / sqrt(n)), one (S P, n) product as in the step
    # itself; both schemes then scale by noise_scale = sigma sqrt(dt n).
    basis = cosine_basis(n) / np.sqrt(n) if config.scheme == "spectral" else None
    sigma = np.stack([coeffs.sigma1, coeffs.sigma2])
    noise_scale = np.sqrt(dt * n) * sigma[list(live), None]
    field = np.empty(state.shape)

    def draw(blk: _DrawBlock) -> None:
        # Draws the block's normals, task by task, until none is unclaimed.
        for task in blk.tasks:
            species, i = divmod(task, p)
            gens[species][i].standard_normal((blk.count, n), out=blk.buf[species, i, :blk.count])

    # What the loop keeps for flush(), which runs at each block edge and
    # covers steps 0 .. block first, at most block steps after: the state
    # at each record step, in `kept` (the last step's record included), and
    # U at the probe sites from stats_start on, in `ring`.  A time increment
    # ends at a step since the last flush, step 1 or later, and starts at
    # most max_lag steps earlier, never before stats_start: the ring holds
    # every row a flush reads, and `diffs` its increments of one lag.
    kept = np.empty((len(live), block // config.record_stride + 2, p, n))
    kept_u, kept_v = species_fields(kept)
    max_lag = int(time_lags.max(initial=0))
    ring_len = max_lag + block
    ring = np.empty((ring_len, p, n_sites)) if max_lag else None
    diffs = np.empty((block, p, n_sites)) if max_lag else None
    ring_from = stats_start if max_lag else n_steps + 1
    next_records = iter(record_steps.tolist())
    next_record = next(next_records)
    sqrt_h = np.sqrt(1.0 / n)
    n_kept = 0          # states in `kept`
    n_filled = 0        # record rows filled
    first_open = 0      # the first step not yet flushed

    def flush(last: int) -> None:
        # The records of the kept states and the time increments of steps
        # first_open .. last, one vectorised pass; each per-path sum adds
        # its increments in step order.
        nonlocal n_kept, n_filled, first_open
        if n_kept:
            u, v = kept_u[:n_kept], kept_v[:n_kept]
            filled = slice(n_filled, n_filled + n_kept)
            stats.mass_u[:, filled] = u.mean(axis=2).T
            stats.mass_v[:, filled] = v.mean(axis=2).T
            stats.supnorm[:, filled] = np.hypot(u, v).max(axis=2).T
            stats.rough_u[:, filled] = (np.abs(np.diff(u, axis=2)).max(axis=2) / sqrt_h).T
            stats.site_u[:, filled] = u[:, :, site_idx].transpose(1, 0, 2)
            stats.site_v[:, filled] = v[:, :, site_idx].transpose(1, 0, 2)
            # the kept states that enter the increment statistics
            u = u[record_steps[filled] >= stats_start]
            for j, lag in enumerate(space_lags if len(u) else ()):
                if anchor_pairs is None:
                    d = u[:, :, lag:] - u[:, :, :-lag]
                    d *= d
                    p2, count = d.sum(axis=2), n - lag
                    d *= d
                    p4 = d.sum(axis=2)
                else:
                    # (record, pair) rows in that order
                    d = np.stack([u[:, :, hi] - u[:, :, lo] for lo, hi in anchor_pairs[j]],
                                 axis=1).reshape(-1, p)
                    p2 = d * d
                    p4, count = p2 * p2, len(anchor_pairs[j])
                _add_in_order(stats.space_p2[:, j], p2)
                _add_in_order(stats.space_p4[:, j], p4)
                stats.space_count[j] += count * len(u)
            n_filled += n_kept
            n_kept = 0
        for j, lag in enumerate(time_lags):
            for now, before in lagged_rows(max(first_open, stats_start + lag), last, lag):
                d = np.subtract(now, before, out=diffs[:len(now)])
                d *= d
                _add_in_order(stats.time_p2[:, j], d.sum(axis=2))
                d *= d
                _add_in_order(stats.time_p4[:, j], d.sum(axis=2))
                stats.time_count[j] += len(d) * n_sites
        first_open = last + 1

    def lagged_rows(first: int, last: int, lag: int):
        # The ring rows of steps t and t - lag for t = first .. last, as
        # pairs of views in step order, none wrapping around the ring.
        t = first
        while t <= last:
            stop = min(last, t + ring_len - 1 - t % ring_len,
                       t + ring_len - 1 - (t - lag) % ring_len)
            yield (ring[t % ring_len:stop % ring_len + 1],
                   ring[(t - lag) % ring_len:(stop - lag) % ring_len + 1])
            t = stop + 1

    def keep(step: int) -> None:
        # The copies of the state after `step` steps (step 0 is the initial
        # state) that the block edge reads, and the first path's snapshot;
        # the state is work[step % 2].
        nonlocal n_kept, next_record
        u, v = work_fields[step % 2]
        if step >= ring_from:
            ring[step % ring_len] = u[:, site_idx]
        if step == next_record:
            kept[:, n_kept] = work[step % 2]
            n_kept += 1
            next_record = next(next_records, None)
        if step in snapshot_steps:
            stats.snapshots.append(Field(u[0].copy(), v[0].copy(), time=snapshot_steps[step]))

    # The state alternates between two work arrays; the one a step has just
    # left takes U^2 + V^2 of the new state.  The growth terms at
    # the state's shape spare the step a broadcast; the bits are the same.
    work = (state, np.empty_like(state))
    work_fields = [species_fields(w) for w in work]
    squares = [(w, w[0], w[1] if len(live) == 2 else None) for w in work]
    terms = tuple(np.broadcast_to(t, state.shape).copy()
                  for t in growth_terms(coeffs, dt, live))

    # The projection is skipped only below radius^2 by more than the rounding
    # of U^2 + V^2: then hypot(U, V) <= radius in every cell, where the
    # projecting drift scales by exactly 1.
    radius_sq = radius * radius
    inside_sq = radius_sq * (1.0 - 4.0 * np.finfo(float).eps)
    u, v = work_fields[0]
    r2_top = np.max(u * u + v * v)
    keep(0)

    step = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = _DrawBlock(buffers[0], min(block, n_steps), rows)
        pending = helper.submit(draw, ahead)
        while step < n_steps:
            s_block = min(block, n_steps - step)
            # claim the tasks the helper has not, then wait for the ones it
            # is running, after which the block's normals are all drawn;
            # result() re-raises an error of the helper's
            draw(ahead)
            pending.result()
            xi = ahead.buf
            if step + s_block < n_steps:
                ahead = _DrawBlock(buffers[1] if xi is buffers[0] else buffers[0],
                                   min(block, n_steps - step - s_block), rows)
                pending = helper.submit(draw, ahead)
            for s in range(s_block):
                step += 1
                if basis is None:
                    np.multiply(xi[:, :, s], noise_scale, out=field)
                else:
                    np.matmul(xi[:, :, s].reshape(rows, n), basis, out=field.reshape(rows, n))
                    field *= noise_scale
                state, ratio = euler_step(state, field, coeffs, dt, radius, operator,
                                          out=work[step % 2], inside=r2_top < inside_sq,
                                          terms=terms, species=live)
                sq, r2, r2_v = squares[(step + 1) % 2]
                np.multiply(state, state, out=sq)
                if r2_v is not None:
                    np.add(r2, r2_v, out=r2)
                r2_top = np.maximum.reduce(r2, axis=None)
                # NaN and inf propagate into the max; a finite state whose
                # U^2 + V^2 overflows is no blowup.
                if not math.isfinite(r2_top) and not np.all(np.isfinite(state)):
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

                keep(step)
            flush(step)

    return stats


def chunk_plan(n_paths: int, threads: int = 1,
               chunk_size: int | None = None) -> tuple[list, int]:
    """How run_ensemble runs n_paths paths: the chunks, as ranges of path
    numbers from 0, and the number of processes that run them.

    The chunks hold chunk_size paths (CHUNK_PATHS by default), the last one
    the remainder, so they depend on n_paths alone.  They run on
    min(threads, number of chunks) processes, threads = 0 meaning the CPU
    count; one process is the calling one.
    """
    if threads == 0:
        threads = os.cpu_count() or 1
    size = CHUNK_PATHS if chunk_size is None else chunk_size
    chunks = [range(i, min(i + size, n_paths)) for i in range(0, n_paths, size)]
    return chunks, min(threads, len(chunks))


def run_ensemble(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
                 config: SolverConfig, n_paths: int, path_offset: int = 0,
                 threads: int = 1, chunk_size: int | None = None) -> EnsembleStats:
    """Advance n_paths independent paths, numbered from path_offset: their
    statistics and the snapshot fields of the first, path path_offset.

    The paths run in the chunks of chunk_plan(n_paths, threads, chunk_size);
    a single process runs them in the calling one.  Two or more chunks are
    joined by one EnsembleStats.merge.  The thread count never changes
    results; the chunk size only where the gemm rows depend on the row count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    chunks, workers = chunk_plan(n_paths, threads, chunk_size)
    run = partial(_run_paths, init, coeffs, plan, config)
    paths = [np.arange(path_offset + c.start, path_offset + c.stop) for c in chunks]
    if workers == 1:
        results = list(map(run, paths))
    else:
        from concurrent.futures import ProcessPoolExecutor    # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, paths))

    return results[0] if len(results) == 1 else EnsembleStats.merge(results)


def simulate_path(init: Field, coeffs: CoefficientSet, plan: NoisePlan,
                  config: SolverConfig, path_index: int = 0) -> EnsembleStats:
    """Advance path path_index alone: the one-path run_ensemble, its
    snapshot fields at the configured snapshot times."""
    return run_ensemble(init, coeffs, plan, config, 1, path_offset=path_index)
