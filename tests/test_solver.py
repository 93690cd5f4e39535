"""Scheme correctness against deterministic oracles, determinism of the
ensemble machinery, and the strong self-refinement rate."""

import concurrent.futures
import dataclasses
import itertools
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.fft import dct, idct
from scipy.integrate import solve_ivp

import lvfield.solver as solver
from lvfield.grid import cell_centers, cosine_basis, from_modes, to_modes
from lvfield.kernel import semigroup_apply
from lvfield.model import CoefficientSet, Field, drift, truncated_drift
from lvfield.noise import SPECIES_U, SPECIES_V, FieldError, NoisePlan
from lvfield.solver import (
    EnsembleStats,
    SimulationBlowup,
    SolverConfig,
    diffusion_operator,
    euler_step,
    growth_terms,
    run_ensemble,
    simulate_path,
    validate_run,
)
from lvfield.statutil import fit_loglog, ks_critical, ks_statistic


def constant_field(n, u0, v0):
    return Field(np.full(n, float(u0)), np.full(n, float(v0)))


# The references below transform with scipy's fast DCT, a route independent
# of the dense cosine products the library uses.

def mode_multiplier(scheme, n, dt):
    """Per-mode factor of one diffusion step on the DCT-II modes: the fd
    resolvent 1 / (1 + 4 dt n^2 sin^2(k pi / 2n)) or the heat semigroup."""
    k = np.arange(n)
    if scheme == "fd":
        return 1.0 / (1.0 + 4.0 * dt * n * n * np.sin(k * np.pi / (2 * n)) ** 2)
    return np.exp(-(k ** 2) * np.pi**2 * dt)


def noise_field(scheme, xi, coeffs, dt):
    """sigma dW of one step from standard normals of shape (2, P, n): cell
    normals for fd, mode normals for spectral."""
    n = xi.shape[-1]
    sigma = np.stack([coeffs.sigma1, coeffs.sigma2])[:, None]
    # from_modes(sqrt(dt) xi) = sqrt(dt n) times the orthonormal inverse DCT-II
    dw = np.sqrt(dt * n) * (xi if scheme == "fd" else idct(xi, type=2, norm="ortho", axis=-1))
    return sigma * dw


def wrap_generators(monkeypatch, standard_normal):
    """Routes every stream's standard_normal(size, out) through
    standard_normal(gen, size, out)."""
    original = NoisePlan.generator

    class Wrapped:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size, out=None):
            return standard_normal(self.gen, size, out)

    monkeypatch.setattr(NoisePlan, "generator",
                        lambda plan, path, species: Wrapped(original(plan, path, species)))


def fix_radius(monkeypatch, radius):
    """Sets the truncation radius of every run, the default_truncation_radius
    of validate_run, to radius."""
    monkeypatch.setattr(solver, "default_truncation_radius", lambda init: radius)


def textbook_step(state, xi, coeffs, dt, radius, scheme):
    """from_modes(to_modes(u + dt f_n + sigma u dW) * multiplier), unclamped."""
    f = np.stack(truncated_drift(state[0], state[1], coeffs, radius))
    rhs = state + dt * f + noise_field(scheme, xi, coeffs, dt) * state
    # the orthonormal pair's scalings cancel
    modes = dct(rhs, type=2, norm="ortho", axis=-1)
    modes *= mode_multiplier(scheme, state.shape[-1], dt)
    return idct(modes, type=2, norm="ortho", axis=-1)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(scheme="magic")

    def test_rejects_nonmultiple_horizon(self):
        with pytest.raises(ValueError, match="multiple"):
            SolverConfig(dt=1e-3, t_final=0.0105)

    def test_rejects_snapshot_outside_horizon(self):
        with pytest.raises(ValueError, match="snapshot"):
            SolverConfig(dt=1e-3, t_final=1.0, snapshot_times=(2.0,))

    def test_rejects_bad_space_lag(self):
        with pytest.raises(ValueError, match="space lag"):
            SolverConfig(grid_size=16, space_lag_cells=(16,))

    # stats_after off the step grid (0.0045 would count spatial records from
    # step 5 but time increments from step 4), before step 0 (a time lag
    # would reach the unwritten ring rows) or after t_final; an anchor
    # outside [0, 1] would be clipped silently to an edge cell
    @pytest.mark.parametrize("field, value", [
        ("stats_after", 0.0045), ("stats_after", -0.003), ("stats_after", 0.011),
        ("space_anchor", 1.5), ("space_anchor", -0.2)])
    def test_rejects_stats_start_off_grid_and_anchor_outside(self, field, value):
        with pytest.raises(FieldError) as info:
            SolverConfig(grid_size=16, dt=1e-3, t_final=0.01, **{field: value})
        assert info.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("stats_after", 0.0), ("stats_after", 0.004), ("stats_after", 0.01),
        ("space_anchor", 0.0), ("space_anchor", 1.0)])
    def test_accepts_step_times_and_anchors_in_range(self, field, value):
        SolverConfig(grid_size=16, dt=1e-3, t_final=0.01, **{field: value})

    # statistics from step 5 of 10 on 16 cells, anchor cell 8: a time lag
    # past the 5-step window, or a space lag whose dyadic pairs both leave
    # the grid, would collect no increment and divide a zero sum by a zero
    # count after the whole run
    @pytest.mark.parametrize("field, lags", [
        ("time_lag_steps", (1, 5, 6)), ("space_lag_cells", (1, 4, 5))])
    def test_rejects_lag_that_collects_no_increment(self, field, lags):
        with pytest.raises(FieldError) as info:
            SolverConfig(grid_size=16, dt=1e-3, t_final=0.01, stats_after=0.005,
                         space_anchor=0.5, **{field: lags})
        assert info.value.field == field

    def test_longest_accepted_lags_collect_increments(self):
        cfg = SolverConfig(grid_size=16, dt=1e-3, t_final=0.01, stats_after=0.005,
                           space_anchor=0.5, time_lag_steps=(1, 5), space_lag_cells=(1, 4))
        assert cfg.anchor_cell() == 8
        stats = run_ensemble(constant_field(16, 0.5, 0.5), CoefficientSet.constant(16),
                             NoisePlan(master_seed=0), cfg, n_paths=2)
        assert np.all(stats.time_count > 0) and np.all(stats.space_count > 0)
        # without statistics no lag collects anything, so none is accepted
        for field in ("time_lag_steps", "space_lag_cells"):
            with pytest.raises(FieldError, match="lags collect no increment without stats_after") \
                    as info:
                SolverConfig(grid_size=16, dt=1e-3, t_final=0.01, **{field: (1,)})
            assert info.value.field == field

    def test_step_counts(self):
        cfg = SolverConfig(dt=1e-3, t_final=0.5, record_interval=1e-2)
        assert cfg.n_steps == 500
        assert np.array_equal(cfg.record_steps(), np.arange(0, 501, 10))
        # the last step is always recorded
        cfg = SolverConfig(dt=1e-3, t_final=0.5, record_interval=3e-2)
        assert np.array_equal(cfg.record_steps(), np.append(np.arange(0, 481, 30), 500))

    def test_stability_bound_enforced(self):
        coeffs = CoefficientSet.constant(16, m1=1.0, a1=1.0)
        init = constant_field(16, 0.5, 0.0)
        cfg = SolverConfig(dt=0.2, t_final=1.0, grid_size=16)
        with pytest.raises(ValueError, match="Lipschitz"):
            validate_run(cfg, coeffs, init)

    def test_grid_mismatch_rejected(self):
        coeffs = CoefficientSet.constant(16)
        init = constant_field(32, 0.5, 0.0)
        cfg = SolverConfig(grid_size=32, dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match="grid"):
            validate_run(cfg, coeffs, init)


# ---------------------------------------------------------------------------
# Deterministic oracles
# ---------------------------------------------------------------------------

class TestZeroField:
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_zero_is_absorbing(self, scheme):
        n = 32
        coeffs = CoefficientSet.constant(n, m1=0.5, a1=1.0, sigma1=0.8,
                                         m2=0.3, a2=1.0, sigma2=0.6)
        init = constant_field(n, 0.0, 0.0)
        plan = NoisePlan(master_seed=7)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=1e-2, t_final=0.5,
                           snapshot_times=(0.5,))
        traj = simulate_path(init, coeffs, plan, cfg)
        final = traj.snapshots[-1]
        assert np.all(final.u == 0.0)
        assert np.all(final.v == 0.0)


class TestLogisticOracle:
    """Spatially constant deterministic run follows the logistic ODE.

    A constant state is in the kernel of both discrete Laplacians, so the
    only error is the explicit-Euler drift error.
    """

    M, A, U0, T = 1.0, 1.0, 0.1, 10.0

    def reference(self):
        sol = solve_ivp(lambda t, y: y * (self.M - self.A * y), (0, self.T),
                        [self.U0], rtol=1e-11, atol=1e-13, dense_output=True)
        return float(sol.y[0, -1])

    def run_final(self, dt, scheme="fd"):
        n = 16
        coeffs = CoefficientSet.constant(n, m1=self.M, a1=self.A)
        init = constant_field(n, self.U0, 0.0)
        plan = NoisePlan(master_seed=0)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=dt, t_final=self.T,
                           snapshot_times=(self.T,))
        traj = simulate_path(init, coeffs, plan, cfg)
        return traj.snapshots[-1].u

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_matches_ode(self, scheme):
        u = self.run_final(1e-3, scheme)
        assert np.ptp(u) < 1e-12          # stays spatially constant
        assert abs(u[0] - self.reference()) < 5e-3

    def test_first_order_in_dt(self):
        ref = self.reference()
        errors = [abs(self.run_final(dt)[0] - ref) for dt in (4e-3, 2e-3, 1e-3)]
        slope, _, _ = fit_loglog(np.array([4e-3, 2e-3, 1e-3]), np.array(errors))
        assert slope > 0.9


class TestHeatFlowOracle:
    """sigma = 0, no reaction: the run must reproduce the Neumann heat
    semigroup applied to the initial profile."""

    def setup_run(self, scheme, n, dt, t_final, u0, v0):
        x = cell_centers(n)
        init = Field(u0(x), v0(x))
        coeffs = CoefficientSet.constant(n)
        plan = NoisePlan(master_seed=0)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=dt, t_final=t_final,
                           snapshot_times=(t_final,))
        traj = simulate_path(init, coeffs, plan, cfg)
        exact_u = semigroup_apply(init.u, t_final)
        exact_v = semigroup_apply(init.v, t_final)
        final = traj.snapshots[-1]
        return final, exact_u, exact_v

    def test_fd_low_mode_accuracy(self):
        final, exact_u, exact_v = self.setup_run(
            "fd", 256, 1e-4, 0.01,
            lambda x: 1.0 + np.cos(np.pi * x),
            lambda x: 0.5 + 0.5 * np.cos(np.pi * x))
        assert np.max(np.abs(final.u - exact_u)) < 1e-4
        assert np.max(np.abs(final.v - exact_v)) < 1e-4

    def test_spectral_is_exact_for_heat(self):
        final, exact_u, exact_v = self.setup_run(
            "spectral", 64, 1e-3, 0.05,
            lambda x: 1.4 + np.cos(np.pi * x) + 0.3 * np.cos(5 * np.pi * x),
            lambda x: 1.0 + 0.4 * np.cos(3 * np.pi * x))
        assert np.max(np.abs(final.u - exact_u)) < 1e-10
        assert np.max(np.abs(final.v - exact_v)) < 1e-10

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_mass_conserved_exactly(self, scheme):
        n = 64
        x = cell_centers(n)
        init = Field(1.0 + 0.8 * np.cos(np.pi * x) + 0.1 * np.cos(4 * np.pi * x),
                     np.full(n, 0.7))
        coeffs = CoefficientSet.constant(n)
        plan = NoisePlan(master_seed=0)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=1e-3, t_final=0.2)
        stats = run_ensemble(init, coeffs, plan, cfg, n_paths=1)
        drift = np.abs(stats.mass_u[0] - stats.mass_u[0, 0])
        assert np.max(drift) < 1e-12


class TestDiffusionMultiplier:
    @staticmethod
    def dense_fd_laplacian(n):
        # (L u)_j = n^2 (u_{j-1} - 2 u_j + u_{j+1}) with mirrored ghost
        # cells u_{-1} = u_0 and u_n = u_{n-1}.
        lap = (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n, -2.0))
               + np.diag(np.full(n - 1, 1.0), 1))
        lap[0, 0] = lap[-1, -1] = -1.0
        return lap * n * n

    @pytest.mark.parametrize("n", [8, 64, 128])
    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 2e-2])
    def test_fd_multiplier_is_the_implicit_solve(self, n, dt):
        rhs = np.random.default_rng(n).standard_normal((3, n))
        dense = np.linalg.solve(np.eye(n) - dt * self.dense_fd_laplacian(n), rhs.T).T
        via_modes = from_modes(to_modes(rhs) * mode_multiplier("fd", n, dt))
        assert np.max(np.abs(via_modes - dense)) < 1e-12
        assert np.max(np.abs(rhs @ diffusion_operator("fd", n, dt) - dense)) < 1e-12


class TestDenseTransforms:
    """The dense cosine products against scipy's fast DCT-II, on data of
    order one on the grid."""

    SIZES = [2, 3, 8, 64, 128, 513]

    @pytest.mark.parametrize("n", SIZES)
    def test_to_modes_matches_dct(self, n):
        u = np.random.default_rng(n).uniform(-1.0, 1.0, (4, n))
        want = dct(u, type=2, norm="ortho", axis=-1) / np.sqrt(n)
        assert np.max(np.abs(to_modes(u) - want)) <= 1e-14

    @pytest.mark.parametrize("n", SIZES)
    def test_from_modes_matches_idct(self, n):
        # coefficients of size 1/sqrt(n) give grid values of order one
        c = np.random.default_rng(n).standard_normal((4, n)) / np.sqrt(n)
        want = idct(c * np.sqrt(n), type=2, norm="ortho", axis=-1)
        assert np.max(np.abs(from_modes(c) - want)) <= 1e-14

    @pytest.mark.parametrize("n", SIZES)
    def test_basis_rows_are_orthonormal(self, n):
        basis = cosine_basis(n)
        assert np.max(np.abs(basis @ basis.T / n - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("scheme, dt", [("fd", 1e-3), ("fd", 2e-5), ("spectral", 1e-3),
                                            ("spectral", 2e-5)])
    def test_diffusion_operator_matches_dct_pair(self, n, scheme, dt):
        u = np.random.default_rng(n).uniform(-1.0, 1.0, (4, n))
        modes = dct(u, type=2, norm="ortho", axis=-1)
        modes *= mode_multiplier(scheme, n, dt)
        want = idct(modes, type=2, norm="ortho", axis=-1)
        assert np.max(np.abs(u @ diffusion_operator(scheme, n, dt) - want)) <= 1e-14


class TestCrossSchemeDeterministic:
    def test_nonlinear_deterministic_agreement(self):
        # Both schemes on the competition drift with sigma = 0 must agree to
        # the (first-order) time discretization error.
        n = 128
        x = cell_centers(n)
        init = Field(0.6 + 0.3 * np.cos(np.pi * x),
                     0.5 + 0.2 * np.cos(2 * np.pi * x))
        coeffs = CoefficientSet.constant(n, m1=1.0, a1=1.0, b1=0.3,
                                         m2=0.8, a2=1.0, b2=0.2)
        cfg_fd = SolverConfig(scheme="fd", grid_size=n, dt=1e-4, t_final=1.0,
                              snapshot_times=(1.0,))
        cfg_sp = SolverConfig(scheme="spectral", grid_size=n, dt=1e-4, t_final=1.0,
                              snapshot_times=(1.0,))
        out_fd = simulate_path(init, coeffs, NoisePlan(master_seed=0), cfg_fd).snapshots[-1]
        out_sp = simulate_path(init, coeffs, NoisePlan(master_seed=0), cfg_sp).snapshots[-1]
        assert np.max(np.abs(out_fd.u - out_sp.u)) < 1e-3
        assert np.max(np.abs(out_fd.v - out_sp.v)) < 1e-3


# ---------------------------------------------------------------------------
# Determinism and ensemble plumbing
# ---------------------------------------------------------------------------

def small_run(n_paths=10, chunk_size=None, threads=1, seed=11, scheme="fd", path_offset=0):
    n = 32
    init = constant_field(n, 0.5, 0.4)
    coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
    plan = NoisePlan(master_seed=seed)
    cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-3, t_final=0.1,
                       record_interval=2e-2)
    return run_ensemble(init, coeffs, plan, cfg, n_paths=n_paths, path_offset=path_offset,
                        chunk_size=chunk_size, threads=threads)


@pytest.fixture
def inline_pool(monkeypatch):
    """run_ensemble's process pool run in process: returns the log of each
    pool's max_workers, followed by the path count of each chunk it maps."""
    class InlinePool:
        def __init__(self, max_workers):
            jobs.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            jobs.extend(len(chunk) for chunk in chunks)
            return map(fn, chunks)

    jobs = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return jobs


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        a = small_run()
        b = small_run()
        assert np.array_equal(a.mass_u, b.mass_u)
        assert np.array_equal(a.site_u, b.site_u)
        assert np.array_equal(a.supnorm, b.supnorm)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_chunking_does_not_change_results(self, scheme):
        a = small_run(chunk_size=10, scheme=scheme)
        b = small_run(chunk_size=3, scheme=scheme)
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_threads_do_not_change_results(self, scheme):
        a = small_run(chunk_size=4, threads=1, scheme=scheme)
        b = small_run(chunk_size=4, threads=2, scheme=scheme)
        assert np.array_equal(a.mass_u, b.mass_u)
        assert np.array_equal(a.site_u, b.site_u)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_default_plan_cuts_fixed_chunks_whatever_the_threads(self, scheme, inline_pool):
        jobs = inline_pool
        for n_paths, pooled in ((130, [2, 64, 64, 2]), (10, [])):
            jobs.clear()
            a = small_run(n_paths=n_paths, threads=1, scheme=scheme)
            assert jobs == []             # one process runs every chunk
            b = small_run(n_paths=n_paths, threads=2, scheme=scheme)
            # two workers for chunks of 64, 64 and 2 paths; one chunk starts no pool
            assert jobs == pooled
            for name in EnsembleStats.PER_PATH_FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), (n_paths, name)

    @pytest.mark.parametrize("n, v0", [(128, 0.4), (64, 0.0), (128, 0.0)])
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_one_path_chunks_match_one_chunk_at_blas_size(self, monkeypatch, scheme, n, v0):
        # 64 paths: the diffusion product of one chunk has 128 rows (64 when
        # V is zero and only U is stepped), that of a one-path chunk 2 (U and
        # the zero V: never a single row); row results must not depend on it
        init = constant_field(n, 0.5, v0)
        coeffs = CoefficientSet.constant(n, m1=0.2, a1=0.3, b1=0.1, sigma1=0.5,
                                         m2=0.1, a2=0.2, b2=0.2, sigma2=0.4)
        plan = NoisePlan(master_seed=17)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-5, t_final=4e-4,
                           record_interval=1e-4)
        rows = set()

        def recording_step(state, *args, **kwargs):
            rows.add(state.shape[0] * state.shape[1])
            return euler_step(state, *args, **kwargs)

        monkeypatch.setattr(solver, "euler_step", recording_step)
        one = run_ensemble(init, coeffs, plan, cfg, n_paths=64, chunk_size=64)
        single = run_ensemble(init, coeffs, plan, cfg, n_paths=64, chunk_size=1)
        assert rows == {64 if v0 == 0.0 else 128, 2}
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(single, name), getattr(one, name)), name

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_simulate_path_is_path_of_the_ensemble(self, scheme):
        n = 32
        x = cell_centers(n)
        init = Field(0.5 + 0.2 * np.cos(np.pi * x), np.full(n, 0.4))
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
        plan = NoisePlan(master_seed=23)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-3, t_final=0.1,
                           record_interval=2e-2)
        ensemble = run_ensemble(init, coeffs, plan, cfg, n_paths=5, path_offset=3)
        for row, index in ((0, 3), (2, 5)):
            single = simulate_path(init, coeffs, plan, cfg, path_index=index)
            for name in EnsembleStats.PER_PATH_FIELDS:
                assert np.array_equal(getattr(single, name)[0], getattr(ensemble, name)[row]), \
                    (name, index)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_ensemble_snapshots_are_its_first_paths(self, scheme, inline_pool):
        # 130 paths are chunks of 64, 64 and 2, run in process or on two
        # workers; the snapshots are those of path path_offset, bit for bit
        # what simulate_path keeps of it
        n = 32
        x = cell_centers(n)
        init = Field(0.5 + 0.2 * np.cos(np.pi * x), np.full(n, 0.4))
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
        plan = NoisePlan(master_seed=23)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-3, t_final=0.1,
                           snapshot_times=(0.0, 0.05, 0.1))
        finals = []
        for offset in (0, 7):
            single = simulate_path(init, coeffs, plan, cfg, path_index=offset)
            assert [snap.time for snap in single.snapshots] == [0.0, 0.05, 0.1]
            finals.append(single.snapshots[-1].u)
            for threads in (1, 2):
                inline_pool.clear()
                ensemble = run_ensemble(init, coeffs, plan, cfg, n_paths=130,
                                        path_offset=offset, threads=threads)
                assert inline_pool == ([] if threads == 1 else [2, 64, 64, 2])
                for got, want in zip(ensemble.snapshots, single.snapshots, strict=True):
                    assert got.time == want.time
                    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v), \
                        (offset, threads, got.time)
        assert not np.array_equal(*finals)

    def test_different_seeds_differ(self):
        a = small_run(seed=11)
        b = small_run(seed=12)
        assert not np.array_equal(a.mass_u, b.mass_u)

    def test_zero_noise_collapses_paths(self):
        n = 32
        init = constant_field(n, 0.5, 0.0)
        coeffs = CoefficientSet.constant(n, m1=0.2)
        cfg = SolverConfig(grid_size=n, dt=2e-3, t_final=0.1)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=3), cfg, n_paths=6)
        assert np.ptp(stats.mass_u[:, -1]) == 0.0
        assert np.ptp(stats.supnorm[:, -1]) == 0.0


class TestEnsembleStats:
    def test_record_grid(self):
        stats = small_run(n_paths=3)
        assert stats.times[0] == 0.0
        assert stats.times[-1] == pytest.approx(0.1)
        assert stats.mass_u.shape == (3, stats.times.size)
        assert stats.site_u.shape[2] == stats.site_x.size

    def test_merge_concatenates_in_order(self):
        whole = small_run(n_paths=10)
        parts = [small_run(n_paths=3), small_run(n_paths=2, path_offset=3),
                 small_run(n_paths=5, path_offset=5)]
        merged = EnsembleStats.merge(parts)
        assert merged.n_paths == 10
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(merged, name), getattr(whole, name)), name
        for name in ("times", "site_x", "space_lags", "space_count", "time_lags", "time_count"):
            assert np.array_equal(getattr(merged, name), getattr(whole, name)), name

    def test_per_path_fields_are_the_path_axis_fields(self):
        # 7 paths, and no other axis of any field has length 7, so a field's
        # leading axis is the path axis exactly when its length is 7; merge
        # would keep only the first chunk of a per-path field left off the tuple
        n, p = 16, 7
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=0.1, record_interval=2e-2,
                           stats_after=0.0, space_lag_cells=(1, 2, 3), time_lag_steps=(1, 2))
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
        stats = run_ensemble(constant_field(n, 0.5, 0.4), coeffs, NoisePlan(master_seed=0), cfg, n_paths=p)
        arrays = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
                  if isinstance(getattr(stats, f.name), np.ndarray)}
        assert p not in {d for a in arrays.values() for d in a.shape[1:]}
        leading = {name for name, a in arrays.items() if a.ndim and a.shape[0] == p}
        assert len(set(EnsembleStats.PER_PATH_FIELDS)) == len(EnsembleStats.PER_PATH_FIELDS)
        assert leading == set(EnsembleStats.PER_PATH_FIELDS)

    def test_exit_probe_fires(self, monkeypatch):
        fix_radius(monkeypatch, 6.0)
        n = 16
        init = constant_field(n, 5.0, 0.0)
        coeffs = CoefficientSet.constant(n, m1=3.0)
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=1.0)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=2)
        assert stats.exit_fraction() == 1.0
        # deterministic growth e^{3t} from 5 crosses 6 near t = ln(1.2)/3
        t_exit = stats.exit_step[0] * cfg.dt
        assert abs(t_exit - np.log(6.0 / 5.0) / 3.0) < 5e-3
        assert np.all(np.isfinite(stats.supnorm))

    def test_exit_step_independent_of_chunks_and_workers(self, monkeypatch):
        # noisy growth from 1 crosses the radius 3 at a different step on
        # each path; the forked pool workers inherit the radius
        fix_radius(monkeypatch, 3.0)
        n = 16
        init = constant_field(n, 1.0, 0.5)
        coeffs = CoefficientSet.constant(n, m1=2.0, sigma1=1.0, m2=0.5, sigma2=0.5)
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=1.0)
        runs = [run_ensemble(init, coeffs, NoisePlan(master_seed=5), cfg, n_paths=8,
                             chunk_size=chunk, threads=threads)
                for chunk, threads in ((None, 1), (3, 1), (1, 1), (None, 2), (3, 2))]
        steps = runs[0].exit_step
        assert np.sum(steps > 0) >= 4 and np.unique(steps).size > 4
        for other in runs[1:]:
            assert np.array_equal(other.exit_step, steps)
            assert np.array_equal(other.mass_u, runs[0].mass_u)

    def test_probe_takes_the_cells_not_the_species_maxima(self, monkeypatch):
        # heat flow of a U peak and a V peak in different cells: the species
        # maxima put max U^2 + max V^2 beyond radius^2, while no cell's
        # U^2 + V^2 gets there, so every step must find every cell inside
        # the ball and no path may exit
        steps = []

        def recording_step(state, *args, inside=False, **kwargs):
            steps.append((state.copy(), inside))
            return euler_step(state, *args, inside=inside, **kwargs)

        monkeypatch.setattr(solver, "euler_step", recording_step)
        fix_radius(monkeypatch, 4.5)
        n = 16
        u, v = np.full(n, 0.1), np.full(n, 0.1)
        u[2], v[12] = 3.0, 4.0
        cfg = SolverConfig(grid_size=n, dt=1e-5, t_final=1e-4)
        stats = run_ensemble(Field(u, v), CoefficientSet.constant(n), NoisePlan(master_seed=0),
                             cfg, n_paths=2)
        assert len(steps) == cfg.n_steps
        for state, inside in steps:
            bound = sum(float(state[k].max()) ** 2 for k in range(2))
            assert bound > 4.5 ** 2 > np.max(state[0] ** 2 + state[1] ** 2)
            assert inside
        assert np.all(stats.exit_step == -1)

    @pytest.mark.parametrize("beside", [-0.25, -0.0])
    def test_nan_beside_a_negative_cell_is_a_blowup(self, monkeypatch, beside):
        # a NaN beside a negative cell of one species: the clamp leaves both
        # (its minimum is NaN), and the probe must still report the NaN
        count, clamp = itertools.count(1), solver._clamp

        def clamp_poisoned(arr):
            if next(count) == 7:
                arr[0, 1, 3], arr[0, 1, 5] = np.nan, beside
            return clamp(arr)

        monkeypatch.setattr(solver, "_clamp", clamp_poisoned)
        n = 8
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.02)
        with pytest.raises(SimulationBlowup, match=r"at step 7 \(t = 0\.007\) on path 11$"):
            run_ensemble(constant_field(n, 0.5, 0.5), CoefficientSet.constant(n, m1=1.0),
                         NoisePlan(master_seed=0), cfg, n_paths=3, path_offset=10)

    def test_exit_step_is_the_first_state_outside_the_ball(self, monkeypatch):
        # noisy growth from 1 leaves the ball of radius 1.6 mid-run; the
        # snapshots at every step are path 0's states
        fix_radius(monkeypatch, 1.6)
        n = 16
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.2,
                           snapshot_times=tuple(np.arange(1, 201) * 1e-3))
        coeffs = CoefficientSet.constant(n, m1=2.0, sigma1=1.0, m2=0.5, sigma2=0.5)
        stats = run_ensemble(constant_field(n, 1.0, 0.5), coeffs, NoisePlan(master_seed=5),
                             cfg, n_paths=3)
        assert len(stats.snapshots) == cfg.n_steps
        out = [step for step, snap in enumerate(stats.snapshots, start=1)
               if np.max(snap.u * snap.u + snap.v * snap.v) >= 1.6 ** 2]
        assert 1 < out[0] < cfg.n_steps
        assert stats.exit_step[0] == out[0]

    def test_no_exit_when_radius_large(self):
        stats = small_run(n_paths=4)
        assert stats.exit_fraction() == 0.0
        assert np.all(stats.exit_step == -1)


class TestClamp:
    def test_strong_negative_kick_is_clamped(self):
        n = 8
        coeffs = CoefficientSet.constant(n, sigma1=1.0)
        state = np.stack([np.full((1, n), 0.1), np.full((1, n), 0.2)])
        xi = np.stack([np.full((1, n), -10.0), np.zeros((1, n))])
        (u2, v2), (ratio_u, ratio_v) = euler_step(
            state, noise_field("fd", xi, coeffs, 0.01), coeffs, dt=0.01, radius=10.0,
            operator=diffusion_operator("fd", n, 0.01))
        assert np.all(u2 == 0.0)
        assert ratio_u[0] == pytest.approx(1.0)
        assert np.all(v2 > 0.0)
        assert ratio_v[0] == 0.0

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_nothing_clipped_reports_positive_zero(self, scheme):
        n = 8
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.1, sigma2=0.1)
        state = np.stack([np.full((2, n), 0.5), np.zeros((2, n))])
        xi = np.random.default_rng(0).standard_normal((2, 2, n))
        _, ratio = euler_step(state, noise_field(scheme, xi, coeffs, 1e-3), coeffs, dt=1e-3,
                              radius=10.0, operator=diffusion_operator(scheme, n, 1e-3))
        assert np.all(ratio == 0.0)
        assert not np.any(np.signbit(ratio))

    def test_clip_diagnostics_accumulate(self):
        # drive hard enough that clamping occurs along the way
        n = 16
        init = constant_field(n, 0.05, 0.0)
        coeffs = CoefficientSet.constant(n, sigma1=2.0)
        cfg = SolverConfig(grid_size=n, dt=5e-3, t_final=0.5)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=21), cfg, n_paths=8)
        assert np.any(stats.clip_events > 0)
        assert np.all(stats.clip_max_ratio >= 0.0)
        assert np.all(stats.mass_u >= 0.0)


    def test_clamp_leaves_positive_state_untouched(self):
        # nothing to clip: no ratios, so the loop skips the clip bookkeeping
        arr = np.random.default_rng(1).uniform(0.1, 1.0, (2, 3, 8))
        before = arr.copy()
        assert solver._clamp(arr) is None
        assert np.array_equal(arr, before)

    def test_unclipped_run_reports_positive_zero(self):
        stats = small_run(n_paths=3)
        assert np.all(stats.clip_events == 0)
        assert np.all(stats.clip_max_ratio == 0.0)
        assert not np.any(np.signbit(stats.clip_max_ratio))

    def test_clamp_reports_clipped_mass(self):
        arr = np.array([[[1.0, -0.5, 2.0, 0.5]], [[1.0, 1.0, 1.0, 1.0]]])
        ratio = solver._clamp(arr)
        assert ratio[0, 0] == 0.5 / 3.0
        assert ratio[1, 0] == 0.0
        assert np.array_equal(arr[0, 0], [1.0, 0.0, 2.0, 0.5])

    def test_clamp_turns_negative_zero_positive(self):
        arr = np.array([[[-0.0, 1.0]], [[0.5, 0.5]]])
        ratio = solver._clamp(arr)
        assert not np.any(np.signbit(arr)) and not np.any(np.signbit(ratio))


class TestTruncation:
    def make(self, u0, v0, n=8):
        coeffs = CoefficientSet.constant(n, m1=1.0, a1=0.5, b1=0.3, sigma1=0.4,
                                         m2=0.8, a2=0.4, b2=0.2, sigma2=0.3)
        rng = np.random.default_rng(3)
        state = np.stack([np.full((3, n), u0), np.full((3, n), v0)])
        state = state * rng.uniform(0.5, 1.0, state.shape)
        return coeffs, state, rng.standard_normal(state.shape)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_skipped_projection_inside_is_bit_identical(self, scheme):
        coeffs, state, xi = self.make(2.0, 1.5)
        radius = 2.5 * 1.0000001       # the corner cells sit just inside
        state[:, 0, 0] = (2.0, 1.5)
        assert np.hypot(state[0], state[1]).max() <= radius
        operator = diffusion_operator(scheme, 8, 1e-3)
        noise = noise_field(scheme, xi, coeffs, 1e-3)
        skipped = euler_step(state, noise.copy(), coeffs, 1e-3, radius, operator, inside=True)
        projected = euler_step(state, noise.copy(), coeffs, 1e-3, radius, operator)
        assert np.array_equal(skipped[0], projected[0])
        for a, b in zip(drift(state[0], state[1], coeffs),
                        truncated_drift(state[0], state[1], coeffs, radius)):
            assert np.array_equal(a, b)

    def test_projection_applies_outside(self):
        coeffs, state, _ = self.make(2.0, 1.5)
        state[:, 1, 4] = (30.0, 40.0)           # |z| = 50 > radius
        f1, f2 = truncated_drift(state[0], state[1], coeffs, 10.0)
        g1, g2 = drift(state[0] / 5.0, state[1] / 5.0, coeffs)
        assert f1[1, 4] == pytest.approx(g1[1, 4], rel=1e-14)
        assert f2[1, 4] == pytest.approx(g2[1, 4], rel=1e-14)
        g1, _ = drift(state[0], state[1], coeffs)
        assert f1[1, 4] != g1[1, 4]
        mask = np.ones(f1.shape, bool)
        mask[1, 4] = False
        assert np.array_equal(f1[mask], g1[mask])

    def test_loop_projects_only_once_a_cell_is_out(self, monkeypatch):
        # deterministic growth e^{3t} from 5 crosses the radius 6 near
        # step 61; the step must project from the first step after that
        calls = []

        def recording_step(state, *args, inside=False, **kwargs):
            # |z| over the stepped species rows; a species left out is zero
            calls.append((inside, float(np.hypot.reduce(state, axis=0).max())))
            return euler_step(state, *args, inside=inside, **kwargs)

        monkeypatch.setattr(solver, "euler_step", recording_step)
        fix_radius(monkeypatch, 6.0)
        n = 16
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.1)
        stats = run_ensemble(constant_field(n, 5.0, 0.0), CoefficientSet.constant(n, m1=3.0),
                             NoisePlan(master_seed=0), cfg, n_paths=2)
        exit_step = int(stats.exit_step[0])
        assert 50 < exit_step < 70
        assert len(calls) == cfg.n_steps
        assert all(inside for inside, _ in calls[:exit_step])
        assert not any(inside for inside, _ in calls[exit_step:])
        assert all(r < 6.0 for _, r in calls[:exit_step])


class TestFusedStep:
    N, P, DT = 16, 4, 1e-3

    def make(self, seed=4):
        n, p = self.N, self.P
        coeffs = CoefficientSet.from_expressions(
            n, m1="1 + 0.5*x", a1="0.5", b1="0.3 + 0.2*x", sigma1="0.4",
            m2="0.8", a2="0.4 + 0.1*x", b2="0.2", sigma2="0.3 - 0.1*x")
        rng = np.random.default_rng(seed)
        state = rng.uniform(0.5, 1.5, (2, p, n))
        return coeffs, state, rng.standard_normal((2, p, n))

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    @pytest.mark.parametrize("outside", [False, True])
    def test_matches_textbook_step(self, scheme, outside):
        coeffs, state, xi = self.make()
        radius = 10.0
        if outside:
            state[:, 1, 4] = (30.0, 40.0)           # |z| = 50
            state[:, 3, 0] = (12.0, 0.5)
        assert (np.hypot(state[0], state[1]).max() > radius) == outside
        want = textbook_step(state, xi, coeffs, self.DT, radius, scheme)
        got, ratio = euler_step(state, noise_field(scheme, xi, coeffs, self.DT), coeffs,
                                self.DT, radius, diffusion_operator(scheme, self.N, self.DT),
                                inside=not outside)
        assert ratio is None
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_preallocated_out_and_terms(self):
        coeffs, state, xi = self.make()
        operator = diffusion_operator("fd", self.N, self.DT)
        noise = noise_field("fd", xi, coeffs, self.DT)
        ref, _ = euler_step(state, noise.copy(), coeffs, self.DT, 10.0, operator)
        out = np.empty_like(state)
        got, _ = euler_step(state, noise, coeffs, self.DT, 10.0, operator, out=out,
                            terms=growth_terms(coeffs, self.DT))
        assert np.shares_memory(got, out)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_loop_state_shares_no_memory_with_input_or_draw_buffer(self, monkeypatch, scheme):
        # 3 paths of 32 cells in 7-step blocks: each step gets a C-contiguous
        # (S, P, n) field apart from the state and from both draw buffers
        buffers, seen = {}, []

        def recording(gen, size, out):
            buffers[id(out.base)] = out.base
            return gen.standard_normal(size, out=out)

        def checking_step(state, noise, *args, **kwargs):
            assert noise.shape == state.shape == (2, 3, 32)
            assert noise.flags.c_contiguous
            assert not np.shares_memory(noise, state)
            result = euler_step(state, noise, *args, **kwargs)
            assert not np.shares_memory(result[0], state)
            assert not np.shares_memory(result[0], noise)
            seen.append((noise, result[0]))
            return result

        wrap_generators(monkeypatch, recording)
        monkeypatch.setattr(solver, "_BLOCK_BUDGET", 2 * 3 * 32 * 7)
        monkeypatch.setattr(solver, "euler_step", checking_step)
        stats = small_run(n_paths=3, scheme=scheme)
        assert len(seen) == round(0.1 / 2e-3)
        assert len(buffers) == 2
        assert not any(np.shares_memory(arr, buf)
                       for pair in seen for arr in pair for buf in buffers.values())
        monkeypatch.undo()
        assert np.array_equal(stats.mass_u, small_run(n_paths=3, scheme=scheme).mass_u)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_loop_builds_the_noise_field(self, monkeypatch, scheme):
        # 3 paths of 16 cells in 4-step blocks over 10 steps: sigma dW from
        # each path's own streams, step by step, across block boundaries
        n, p, dt, n_steps = 16, 3, 1e-3, 10
        monkeypatch.setattr(solver, "_BLOCK_BUDGET", 2 * p * n * 4)
        coeffs = CoefficientSet.from_expressions(n, m1="0.2", sigma1="0.5 + x",
                                                 m2="0.1", sigma2="0.4")
        plan = NoisePlan(master_seed=9)
        fields = []

        def recording_step(state, noise, *args, **kwargs):
            fields.append(noise.copy())
            return euler_step(state, noise, *args, **kwargs)

        monkeypatch.setattr(solver, "euler_step", recording_step)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=dt, t_final=n_steps * dt)
        run_ensemble(constant_field(n, 0.5, 0.4), coeffs, plan, cfg, n_paths=p,
                     path_offset=5)
        xi = np.stack([[plan.generator(5 + i, species).standard_normal((n_steps, n))
                        for i in range(p)] for species in (0, 1)])
        assert len(fields) == n_steps
        sigma = np.stack([coeffs.sigma1, coeffs.sigma2])[:, None]
        for s, got in enumerate(fields):
            if scheme == "fd":
                assert np.array_equal(got, xi[:, :, s] * (np.sqrt(dt * n) * sigma)), s
            else:
                want = noise_field(scheme, xi[:, :, s], coeffs, dt)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), s


class TestLiveSpecies:
    """A species whose initial field is zero stays zero (its reaction term and
    its noise both carry its density as a factor), so only the live species
    are drawn, stepped and clamped."""

    N, P, DT = 16, 4, 1e-3

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    @pytest.mark.parametrize("outside", [False, True])
    @pytest.mark.parametrize("alive", [SPECIES_U, SPECIES_V])
    def test_lone_species_step_is_its_rows_of_the_pair(self, scheme, outside, alive):
        coeffs, state, xi = TestFusedStep().make()
        state[1 - alive] = 0.0
        radius = 10.0
        if outside:
            state[alive, 1, 4] = 30.0
            state[alive, 3, 0] = 12.0
        assert (np.abs(state[alive]).max() > radius) == outside
        operator = diffusion_operator(scheme, self.N, self.DT)
        noise = noise_field(scheme, xi, coeffs, self.DT)
        pair, pair_ratio = euler_step(state, noise.copy(), coeffs, self.DT, radius, operator,
                                      inside=not outside)
        lone, ratio = euler_step(state[alive:alive + 1].copy(), noise[alive:alive + 1].copy(),
                                 coeffs, self.DT, radius, operator, inside=not outside,
                                 species=(alive,))
        assert lone.shape == (1, self.P, self.N)
        assert np.array_equal(lone[0], pair[alive])
        assert np.all(pair[1 - alive] == 0.0)
        # the zero species sends the pair through the clamp, which cuts nothing
        assert np.all(pair_ratio == 0.0)
        assert ratio is None or np.array_equal(ratio[0], pair_ratio[alive])

    @pytest.fixture(autouse=True)
    def small_ball(self, monkeypatch):
        # paths leave the ball of radius 0.7, so the projection is exercised
        fix_radius(monkeypatch, 0.7)

    def run(self, scheme, u0=0.5, v0=0.0, seed=13, n_paths=3, **coefficients):
        n = 32
        x = cell_centers(n)
        profile = lambda level: level * (1.0 + 0.5 * np.cos(np.pi * x))
        values = dict(m1=0.3, a1=0.4, b1=0.2, sigma1=0.5, m2=0.2, a2=0.3, b2=0.1, sigma2=0.4)
        values.update(coefficients)
        coeffs = CoefficientSet.constant(n, **values)
        plan = NoisePlan(master_seed=seed)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-3, t_final=0.1,
                           record_interval=1e-2, stats_after=0.05,
                           space_lag_cells=(1, 2), time_lag_steps=(1, 3))
        return run_ensemble(Field(profile(u0), profile(v0)), coeffs, plan, cfg, n_paths)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_zero_species_coefficients_change_nothing(self, scheme):
        ref = self.run(scheme)
        assert np.all(ref.exit_step > 0)        # the projection is exercised
        other = self.run(scheme, m2=0.9, a2=0.0, b2=1.5, sigma2=2.0)
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(other, name), getattr(ref, name)), name

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_zero_species_is_never_drawn(self, monkeypatch, scheme):
        asked = []
        original = NoisePlan.generator

        def recording(plan, path, species):
            asked.append(species)
            return original(plan, path, species)

        monkeypatch.setattr(NoisePlan, "generator", recording)
        self.run(scheme)
        assert asked == [SPECIES_U] * 3

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_zero_species_records_positive_zero(self, scheme):
        stats = self.run(scheme)
        for name in ("mass_v", "site_v"):
            values = getattr(stats, name)
            assert np.all(values == 0.0) and not np.any(np.signbit(values)), name
        stats = self.run(scheme, u0=0.0, v0=0.5)
        for name in ("mass_u", "site_u", "rough_u", "space_p2", "time_p2"):
            values = getattr(stats, name)
            assert np.all(values == 0.0) and not np.any(np.signbit(values)), name

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_swapped_species_run_is_the_mirror_image(self, scheme):
        # without noise the stream a species draws from cannot matter
        coefficients = dict(m1=0.3, a1=0.4, b1=0.2, sigma1=0.0,
                            m2=0.6, a2=0.1, b2=0.3, sigma2=0.0)
        swapped = {name[:-1] + str(3 - int(name[-1])): value
                   for name, value in coefficients.items()}
        v_run = self.run(scheme, u0=0.0, v0=0.5, **coefficients)
        u_run = self.run(scheme, u0=0.5, v0=0.0, **swapped)
        assert np.all(u_run.exit_step > 0)
        for a, b in (("mass_u", "mass_v"), ("mass_v", "mass_u"), ("site_u", "site_v"),
                     ("site_v", "site_u"), ("supnorm", "supnorm"), ("exit_step", "exit_step"),
                     ("clip_max_ratio", "clip_max_ratio"), ("clip_events", "clip_events")):
            assert np.array_equal(getattr(v_run, a), getattr(u_run, b)), (a, b)


class TestBlowup:
    def poisoned(self, monkeypatch, value, at_call, path=1):
        # the step calls the clamp once, on the new state; the poisoned
        # cell reaches the real clamp first
        count = [0]
        clamp = solver._clamp

        def clamp_poisoned(arr):
            count[0] += 1
            if count[0] == at_call:
                arr[0, path, 3] = value
            return clamp(arr)

        monkeypatch.setattr(solver, "_clamp", clamp_poisoned)

    # -inf must not reach the clamp as a negative cell: zeroing it would
    # hide the blowup behind an inf / inf clip ratio
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_names_step_and_path(self, monkeypatch, value):
        self.poisoned(monkeypatch, value, at_call=7)
        n = 8
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.02)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimulationBlowup,
                               match=r"at step 7 \(t = 0\.007\) on path 11$"):
                run_ensemble(constant_field(n, 0.5, 0.5), CoefficientSet.constant(n, m1=1.0),
                             NoisePlan(master_seed=0), cfg, n_paths=3, path_offset=10)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_clamp_leaves_non_finite_state_to_the_check(self, value):
        arr = np.array([[[1.0, -0.5, value]], [[1.0, 1.0, 1.0]]])
        before = arr.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solver._clamp(arr) is None
        assert np.array_equal(arr, before, equal_nan=True)

    def test_blowup_in_a_later_block_stops_the_helper(self, monkeypatch):
        # four-step blocks: step 7 is stepped from the second block while
        # the helper draws the third
        self.poisoned(monkeypatch, np.nan, at_call=7)
        n, p = 8, 3
        monkeypatch.setattr(solver, "_BLOCK_BUDGET", 2 * p * n * 4)
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.02)
        before = threading.active_count()
        with pytest.raises(SimulationBlowup, match=r"at step 7 \(t = 0\.007\) on path 1$"):
            run_ensemble(constant_field(n, 0.5, 0.5), CoefficientSet.constant(n, m1=1.0),
                         NoisePlan(master_seed=0), cfg, n_paths=p)
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_radius_is_no_blowup(self, monkeypatch):
        # U^2 overflows while U stays finite: the exit probe fires, the run goes on
        self.poisoned(monkeypatch, 1e200, at_call=4)
        n = 8
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.01)
        stats = run_ensemble(constant_field(n, 0.5, 0.5), CoefficientSet.constant(n, m1=1.0),
                             NoisePlan(master_seed=0), cfg, n_paths=3)
        assert list(stats.exit_step) == [-1, 4, -1]
        assert np.all(np.isfinite(stats.mass_u))


class TestIncrementRecording:
    def make_stats(self, anchor=None):
        n = 16
        init = constant_field(n, 0.5, 0.5)
        coeffs = CoefficientSet.constant(n, sigma1=0.3, sigma2=0.3)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=0.1,
                           record_interval=2e-2, stats_after=0.04,
                           space_lag_cells=(1, 4), time_lag_steps=(1, 3),
                           space_anchor=anchor,
                           probe_sites=(0.25, 0.75))
        return run_ensemble(init, coeffs, NoisePlan(master_seed=5), cfg, n_paths=3)

    def test_pooled_space_counts(self):
        stats = self.make_stats()
        # records at steps 4, 6, 8, 10 qualify; each contributes n - lag pairs
        assert np.array_equal(stats.space_count, 4 * np.array([15, 12]))
        assert np.all(stats.space_p2 > 0)
        assert np.all(stats.space_p4 > 0)
        assert np.allclose(stats.space_lags, [1 / 16, 4 / 16])

    def test_anchored_space_counts(self):
        stats = self.make_stats(anchor=0.5)
        # anchor cell 8 of 16: lag 1 keeps both dyadic pairs, lag 4 loses
        # the right pair (cells 12, 16) off the grid edge
        assert np.array_equal(stats.space_count, 4 * np.array([2, 1]))

    def test_time_counts(self):
        stats = self.make_stats()
        # lag 1: steps 5..10; lag 3: steps 7..10; two probe sites each
        assert np.array_equal(stats.time_count, np.array([6 * 2, 4 * 2]))
        assert np.allclose(stats.time_lags, [1e-2, 3e-2])
        assert np.all(stats.time_p2 > 0)

    def test_moments_dominate(self):
        # Cauchy-Schwarz on the raw sums: (sum d^2)^2 <= count * sum d^4
        stats = self.make_stats()
        for j in range(stats.space_lags.size):
            assert np.all(stats.space_p2[:, j] ** 2
                          <= stats.space_count[j] * stats.space_p4[:, j] + 1e-30)

    @pytest.mark.parametrize("anchor", [None, 0.5])
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_matches_per_lag_loop(self, monkeypatch, scheme, anchor):
        # 20 steps, statistics from step 12: lag 5 turns live at step 17
        # and lag 8 at the last step only; the lags are deliberately unsorted
        n, p = 16, 3
        init = constant_field(n, 0.5, 0.5)
        coeffs = CoefficientSet.constant(n, sigma1=0.3, sigma2=0.3)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=1e-2, t_final=0.2,
                           record_interval=2e-2, stats_after=0.12,
                           space_lag_cells=(4, 1, 2), time_lag_steps=(5, 1, 8, 3),
                           space_anchor=anchor, probe_sites=(0.25, 0.5, 0.75))
        states = [np.stack([np.tile(init.u, (p, 1)), np.tile(init.v, (p, 1))])]

        def recording_step(*args, **kwargs):
            result = euler_step(*args, **kwargs)
            states.append(result[0].copy())
            return result

        monkeypatch.setattr(solver, "euler_step", recording_step)
        plan = NoisePlan(master_seed=5)
        stats = run_ensemble(init, coeffs, plan, cfg, n_paths=p)
        assert len(states) == cfg.n_steps + 1
        ref = per_lag_statistics(states, cfg)

        assert np.array_equal(stats.time_count, ref["time_count"])
        assert 0 < stats.time_count[2] < stats.time_count[0] < stats.time_count[1]
        assert np.array_equal(stats.space_count, ref["space_count"])
        for name in ("space_p2", "time_p2"):
            assert np.array_equal(getattr(stats, name), ref[name]), name
        for name in ("space_p4", "time_p4"):
            np.testing.assert_allclose(getattr(stats, name), ref[name], rtol=1e-14, atol=0)


    def test_more_probe_sites_than_cells(self, monkeypatch):
        # 5 probe sites on 4 cells of one live species: a row of probe-site
        # increments is larger than the state
        n, p = 4, 3
        init = constant_field(n, 0.5, 0.0)
        coeffs = CoefficientSet.constant(n, sigma1=0.3)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=0.2, stats_after=0.05,
                           time_lag_steps=(1, 4), probe_sites=(0.1, 0.3, 0.5, 0.7, 0.9))
        states = [np.tile(init.u, (1, p, 1))]

        def recording_step(*args, **kwargs):
            result = euler_step(*args, **kwargs)
            states.append(result[0].copy())
            return result

        monkeypatch.setattr(solver, "euler_step", recording_step)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=5), cfg, n_paths=p)
        assert states[-1].shape == (1, p, n)
        ref = per_lag_statistics(states, cfg)
        assert np.array_equal(stats.time_count, ref["time_count"])
        assert np.array_equal(stats.time_p2, ref["time_p2"])
        np.testing.assert_allclose(stats.time_p4, ref["time_p4"], rtol=1e-14, atol=0)


def per_lag_statistics(states, cfg):
    """Increment sums one lag at a time, with d**2 and d**4, from the states
    of every step (states[s] is the (2, P, n) state after step s)."""
    n, dt = cfg.grid_size, cfg.dt
    p = states[0].shape[1]
    sites = cfg.site_indices()
    space_lags, time_lags = cfg.space_lag_cells, cfg.time_lag_steps
    out = {"space_p2": np.zeros((p, len(space_lags))), "space_p4": np.zeros((p, len(space_lags))),
           "space_count": np.zeros(len(space_lags), dtype=np.int64),
           "time_p2": np.zeros((p, len(time_lags))), "time_p4": np.zeros((p, len(time_lags))),
           "time_count": np.zeros(len(time_lags), dtype=np.int64)}
    stats_start = round(cfg.stats_after / dt)
    every = max(1, round((cfg.record_interval or cfg.t_final / 200) / dt))
    record_steps = set(range(0, cfg.n_steps + 1, every)) | {cfg.n_steps}
    anchor = None
    if cfg.space_anchor is not None:
        anchor = int(np.clip(round(cfg.space_anchor * n - 0.5), 0, n - 1))
    for step, state in enumerate(states):
        u = state[0]
        if step in record_steps and step >= stats_start:
            for j, lag in enumerate(space_lags):
                if anchor is None:
                    pairs = [(u[:, lag:] - u[:, :-lag], n - lag)]
                else:
                    pairs = [(u[:, hi:hi + 1] - u[:, lo:lo + 1], 1)
                             for lo, hi in ((anchor - 2 * lag, anchor - lag),
                                            (anchor + lag, anchor + 2 * lag))
                             if 0 <= lo and hi < n]
                for d, count in pairs:
                    out["space_p2"][:, j] += np.sum(d**2, axis=1)
                    out["space_p4"][:, j] += np.sum(d**4, axis=1)
                    out["space_count"][j] += count
        for j, lag in enumerate(time_lags):
            if step - lag >= stats_start:
                d = u[:, sites] - states[step - lag][0][:, sites]
                out["time_p2"][:, j] += np.sum(d**2, axis=1)
                out["time_p4"][:, j] += np.sum(d**4, axis=1)
                out["time_count"][j] += sites.size
    return out


class TestDrawAhead:
    N_STEPS = 50

    def run(self, monkeypatch, scheme, threads, block, n=16, v0=0.4, anchor=None, paths=6,
            stride=3):
        # `paths` paths of n cells (n noise modes under either scheme), one
        # chunk on any thread count; the budget gives it `block` steps of
        # its live species, V only when v0 is not zero (both for one path).
        # Records every `stride`-th step, from step 25 on the increment
        # statistics; one path runs through simulate_path and keeps 4
        # snapshots
        live = 1 if v0 == 0.0 and paths > 1 else 2
        monkeypatch.setattr(solver, "_BLOCK_BUDGET", live * paths * n * block)
        init = constant_field(n, 0.5, v0)
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
        plan = NoisePlan(master_seed=8)
        cfg = SolverConfig(scheme=scheme, grid_size=n, dt=2e-3, t_final=self.N_STEPS * 2e-3,
                           record_interval=stride * 2e-3, stats_after=0.05,
                           space_lag_cells=(1, 3), time_lag_steps=(2, 7), space_anchor=anchor,
                           snapshot_times=(0.0, 0.014, 0.06, 0.1))
        if paths == 1:
            return simulate_path(init, coeffs, plan, cfg)
        return run_ensemble(init, coeffs, plan, cfg, n_paths=paths, threads=threads)

    @pytest.mark.parametrize("n, v0", [(16, 0.4), (64, 0.0), (128, 0.0)])
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_block_layout_does_not_change_results(self, monkeypatch, scheme, n, v0):
        # one-step blocks, 7-step blocks, one block; the record stride 3
        # divides neither 7 nor 50, and in one block its 18 records fill
        # all 50 // 3 + 2 kept states; at stride 1 a block edge flushes the
        # most states, block + 1 in the first block; pooled and anchored
        # space lags; snapshots of a single path
        drawn = []

        def recording(gen, size, out):
            drawn.append(size[0])
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, recording)
        for anchor, stride in itertools.product((None, 0.5), (3, 1)):
            ref = self.run(monkeypatch, scheme, 1, self.N_STEPS, n, v0, anchor, stride=stride)
            ref_path = self.run(monkeypatch, scheme, 1, self.N_STEPS, n, v0, anchor, paths=1,
                                stride=stride)
            assert np.all(ref.time_count > 0) and np.all(ref.space_count > 0)
            assert ref.times.size == {3: 18, 1: 51}[stride] and len(ref_path.snapshots) == 4
            for threads, block in itertools.product((1, 2), (1, 7, self.N_STEPS)):
                drawn.clear()
                other = self.run(monkeypatch, scheme, threads, block, n, v0, anchor,
                                 stride=stride)
                assert max(drawn) == block
                path = self.run(monkeypatch, scheme, threads, block, n, v0, anchor, paths=1,
                                stride=stride)
                where = (anchor, stride, threads, block)
                for name in EnsembleStats.PER_PATH_FIELDS:
                    assert np.array_equal(getattr(other, name), getattr(ref, name)), \
                        (name, *where)
                    assert np.array_equal(getattr(path, name), getattr(ref_path, name)), \
                        (name, *where)
                for got, want in zip(path.snapshots, ref_path.snapshots, strict=True):
                    assert got.time == want.time, where
                    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v), \
                        (got.time, *where)

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_fast_thread_switching_does_not_change_results(self, monkeypatch, scheme):
        # hand the interpreter between the loop and the helper as often as
        # it will go: a buffer read before its draw finished would show
        ref = self.run(monkeypatch, scheme, 1, self.N_STEPS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other = self.run(monkeypatch, scheme, 1, 1)
        finally:
            sys.setswitchinterval(interval)
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(other, name), getattr(ref, name)), name

    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_loop_draws_the_tasks_the_helper_has_not_claimed(self, monkeypatch, scheme):
        # the helper's first draw waits until the loop has drawn a slab of
        # its own, so the run gets past it only if the loop claims draw tasks
        ref = self.run(monkeypatch, scheme, 1, 7)
        loop_drew, helper_waits = threading.Event(), []

        def held(gen, size, out):
            if threading.current_thread() is threading.main_thread():
                gen.standard_normal(size, out=out)
                loop_drew.set()
                return out
            if not helper_waits:
                helper_waits.append(loop_drew.wait(timeout=5))
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, held)
        other = self.run(monkeypatch, scheme, 1, 7)
        assert helper_waits == [True]
        for name in EnsembleStats.PER_PATH_FIELDS:
            assert np.array_equal(getattr(other, name), getattr(ref, name)), name

    # 6 paths of both species in 7-step blocks over 50 steps: 12 draws per
    # block, 96 in all; the k-th fails on whichever thread makes it
    @pytest.mark.parametrize("k", [1, 12, 50, 96])
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_draw_error_is_raised_and_leaves_no_thread(self, monkeypatch, scheme, k):
        calls = itertools.count(1)

        def failing(gen, size, out):
            if next(calls) == k:
                raise RuntimeError(f"draw {k} failed")
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^draw {k} failed$"):
            self.run(monkeypatch, scheme, 1, 7)
        assert threading.active_count() == before

    def test_helper_draw_error_is_raised_in_the_loop(self, monkeypatch):
        # the loop's draws wait until the helper has failed its first one
        helper_failed = threading.Event()

        def failing(gen, size, out):
            if threading.current_thread() is threading.main_thread():
                assert helper_failed.wait(timeout=5)
            elif not helper_failed.is_set():
                helper_failed.set()
                raise RuntimeError("helper draw failed")
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^helper draw failed$"):
            self.run(monkeypatch, "fd", 1, 7)
        assert threading.active_count() == before

    @pytest.mark.parametrize("budget", [640, 700, 10**6])
    def test_draw_buffers_stay_within_budget(self, monkeypatch, budget):
        # 4 paths of 16 cells: 640 elements per buffer hold 5 steps of both
        # species, 700 still only 5, 10**6 the whole run in one block
        bases, slabs = {}, []

        def recording(gen, size, out):
            bases[id(out.base)] = out.base.size
            slabs.append(size[0])
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, recording)
        monkeypatch.setattr(solver, "_BLOCK_BUDGET", budget)
        n = 16
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=0.05)
        stats = run_ensemble(constant_field(n, 0.5, 0.4),
                             CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4),
                             NoisePlan(master_seed=11), cfg, n_paths=4)
        assert stats.n_paths == 4
        assert sum(bases.values()) <= 2 * budget
        assert len(bases) == (1 if budget == 10**6 else 2)
        # each block draws each of the 8 (species, path) slabs once, on
        # whichever thread claims it: 10 blocks of 5 steps, or one of 50
        block = 50 if budget == 10**6 else 5
        assert slabs == [block] * (8 * (50 // block))

    def test_draw_memory_at_the_budget(self, monkeypatch):
        # at the real budget: 64 paths of both species on 128 cells (the
        # holder chunk) draw 30-step blocks into two buffers of at most
        # _BLOCK_BUDGET doubles, 8 MB in all; 61 steps are blocks of 30,
        # 30 and 1
        bases, drawn = {}, []

        def recording(gen, size, out):
            bases[id(out.base)] = out.base
            drawn.append(size)
            return gen.standard_normal(size, out=out)

        wrap_generators(monkeypatch, recording)
        s, p, n = 2, 64, 128
        cfg = SolverConfig(grid_size=n, dt=1e-4, t_final=61e-4)
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4)
        run_ensemble(constant_field(n, 0.5, 0.4), coeffs, NoisePlan(master_seed=3), cfg,
                     n_paths=p)
        block = max(1, min(cfg.n_steps, solver._BLOCK_BUDGET // (s * p * n)))
        assert block == 30
        assert len(bases) == 2
        assert all(buf.size <= solver._BLOCK_BUDGET for buf in bases.values())
        assert sum(buf.nbytes for buf in bases.values()) <= 8_000_000
        assert drawn == [(30, n)] * (2 * s * p) + [(1, n)] * (s * p)

        # one path of 1050 steps on 64 cells: one block, one buffer
        bases.clear(), drawn.clear()
        cfg = SolverConfig(grid_size=64, dt=1e-3, t_final=1.05)
        simulate_path(constant_field(64, 0.5, 0.4),
                      CoefficientSet.constant(64, m1=0.2, sigma1=0.5, m2=0.1, sigma2=0.4),
                      NoisePlan(master_seed=3), cfg)
        assert drawn == [(1050, 64)] * 2
        assert len(bases) == 1


# ---------------------------------------------------------------------------
# Stochastic accuracy
# ---------------------------------------------------------------------------

class TestRefinement:
    def test_strong_self_refinement_rate(self):
        # Common-noise coupling: sheet increments drawn at the finest level,
        # pair-aggregated for coarser levels (xi' = (xi1 + xi2)/sqrt(2)).
        # Successive-level RMS endpoint differences must decay at order
        # >= 1/2.  The dt range keeps dt * lambda_max <= 1 (the stiffest
        # retained mode is resolved); coarser steps are dominated by the
        # unresolved high-mode noise and decay visibly slower.
        n, t_final, n_paths = 16, 0.25, 64
        dts = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
        n_fine = round(t_final / dts[-1])
        coeffs = CoefficientSet.constant(n, m1=0.8, a1=0.8, sigma1=0.3,
                                         m2=0.5, a2=0.5, sigma2=0.3)
        x = cell_centers(n)
        u0 = 0.5 + 0.2 * np.cos(np.pi * x)
        v0 = np.full(n, 0.4)
        rng = np.random.default_rng(2024)
        xi_u = rng.standard_normal((n_paths, n_fine, n))
        xi_v = rng.standard_normal((n_paths, n_fine, n))

        finals = []
        for dt in dts:
            fold = round(dt / dts[-1])
            n_steps = round(t_final / dt)
            # aggregate fold consecutive fine draws into one standard normal
            agg_u = xi_u.reshape(n_paths, n_steps, fold, n).sum(axis=2) / np.sqrt(fold)
            agg_v = xi_v.reshape(n_paths, n_steps, fold, n).sum(axis=2) / np.sqrt(fold)
            state = np.stack([np.tile(u0, (n_paths, 1)), np.tile(v0, (n_paths, 1))])
            operator = diffusion_operator("fd", n, dt)
            for s in range(n_steps):
                noise = noise_field("fd", np.stack([agg_u[:, s], agg_v[:, s]]), coeffs, dt)
                state, _ = euler_step(state, noise, coeffs, dt, radius=20.0,
                                      operator=operator)
            finals.append(state)

        errors = []
        for (u_c, v_c), (u_f, v_f) in zip(finals[:-1], finals[1:]):
            sq = ((u_c - u_f) ** 2 + (v_c - v_f) ** 2).mean(axis=1)
            errors.append(np.sqrt(sq.mean()))
        slope, _, r2 = fit_loglog(np.array(dts[:-1]), np.array(errors))
        assert slope >= 0.5, f"refinement slope {slope:.3f}"
        assert r2 > 0.9
        assert errors[-1] < errors[0]


class TestCrossSchemeStochastic:
    def test_final_mass_distributions_agree(self):
        # fd with sheet noise vs spectral with K = N white modes: the two
        # drivers have the same per-cell covariance, so path functionals
        # must agree in law up to discretization bias.
        n, n_paths = 64, 400
        init = constant_field(n, 0.5, 0.0)
        coeffs = CoefficientSet.constant(n, m1=0.2, sigma1=0.5)
        cfg_fd = SolverConfig(scheme="fd", grid_size=n, dt=1e-3, t_final=0.5)
        cfg_sp = SolverConfig(scheme="spectral", grid_size=n, dt=1e-3, t_final=0.5)
        stats_fd = run_ensemble(init, coeffs, NoisePlan(master_seed=31), cfg_fd, n_paths)
        stats_sp = run_ensemble(init, coeffs, NoisePlan(master_seed=32), cfg_sp, n_paths)
        d = ks_statistic(stats_fd.mass_u[:, -1], stats_sp.mass_u[:, -1])
        crit = ks_critical(0.01, n_paths, n_paths)
        assert d < crit, f"KS {d:.4f} >= {crit:.4f}"
        # means agree to a few MC standard errors
        mu_fd = stats_fd.mass_u[:, -1].mean()
        mu_sp = stats_sp.mass_u[:, -1].mean()
        se = stats_fd.mass_u[:, -1].std() / np.sqrt(n_paths)
        assert abs(mu_fd - mu_sp) < 4 * se
