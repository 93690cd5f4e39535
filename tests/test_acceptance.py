"""End-to-end verification of every stated guarantee, each at its stated
tolerance, one test per guarantee.

The heavy ensembles come straight from the shipped configs and are session
fixtures shared across tests; the whole module is a deliberate multi-minute
run.  Each test prints one [PASS]/[FAIL] line (visible under -s) carrying
the measured statistic and its threshold.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from lvfield import cli
from lvfield.analysis import (
    density_smoke_test,
    extinction_report,
    fit_loglog,
    holder_estimate,
    holder_selfcheck,
    mild_log_functional_audit,
    moment_bound_curve,
    stationarity_report,
)
from lvfield.config import load_config
from lvfield.kernel import (
    IncrementFunctional,
    cell_centers,
    from_modes,
    increment_bound_shape,
    increment_functional,
    kernel_eigen_series,
    kernel_image_sum,
    kernel_mass_defect,
    semigroup_apply,
    to_modes,
)
from lvfield.model import CoefficientSet, Field
from lvfield.noise import (
    NoisePlan,
    audit_functions,
    representation_equivalence_check,
)
from lvfield.solver import SolverConfig, run_ensemble, simulate_path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SPECIES_U = 0


def check(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def run_config(name: str, n_paths: int | None = None):
    """Run the ensemble of a shipped config, returning (cfg, stats, secs).

    Uses every core: results do not depend on the worker count
    (TestDeterminism in test_solver.py guards this).
    """
    cfg = load_config(CONFIG_DIR / name)
    if n_paths is not None:
        cfg = cfg.with_overrides(n_paths=n_paths)
    t0 = time.time()
    stats = run_ensemble(cfg.initial_field(), cfg.coefficient_set(),
                         cfg.noise_plan(), cfg.solver_config(), cfg.n_paths,
                         threads=0)
    return cfg, stats, time.time() - t0


@pytest.fixture(scope="session")
def bench():
    return run_config("benchmark.ini")


@pytest.fixture(scope="session")
def linear_mean():
    return run_config("linear_mean.ini")


@pytest.fixture(scope="session")
def extinction():
    return run_config("extinction.ini")


@pytest.fixture(scope="session")
def holder():
    return run_config("holder.ini")


@pytest.fixture(scope="session")
def holder_rough():
    return run_config("holder_rough.ini")


@pytest.fixture(scope="session")
def invariant():
    return run_config("invariant.ini")


@pytest.fixture(scope="session")
def invariant_control():
    return run_config("invariant_control.ini")


@pytest.fixture(scope="session")
def density():
    return run_config("density.ini")


@pytest.fixture(scope="session")
def density_control():
    return run_config("density_control.ini")


@pytest.fixture(scope="session")
def audited_path():
    cfg = load_config(CONFIG_DIR / "mild_audit.ini")
    t0 = time.time()
    traj = simulate_path(cfg.initial_field(), cfg.coefficient_set(),
                         cfg.noise_plan(), cfg.solver_config())
    return cfg, traj, time.time() - t0


# ---------------------------------------------------------------------------
# Kernel identities
# ---------------------------------------------------------------------------

def test_kernel_cross_representation_and_mass():
    t0 = time.time()
    lattice = 20
    times = np.geomspace(0.01, 1.0, lattice)
    x = cell_centers(lattice)
    cross = 0.0
    for t in times:
        a = kernel_image_sum(t, x[:, None], x[None, :])
        b = kernel_eigen_series(t, x[:, None], x[None, :])
        cross = max(cross, float(np.max(np.abs(a - b))))
    mass = max(kernel_mass_defect(t, x, n_quad=12000)
               for t in (1e-3, 1e-2, 1e-1, 1.0))
    elapsed = time.time() - t0
    check("kernel-cross-representation", cross <= 1e-8,
          f"max |images - series| = {cross:.3e} (tol 1e-8)")
    check("kernel-mass-conservation", mass <= 1e-6,
          f"max quadrature defect = {mass:.3e} (tol 1e-6)")
    check("kernel-runtime", elapsed < 10.0, f"{elapsed:.1f} s (budget 10 s)")


def test_increment_evaluator_scaling():
    # Each evaluator divided by its modulus shape must stay within a 10x
    # spread over two decades of the small parameter.
    t0 = time.time()
    worst = 0.0
    for name, quantity, params, d_lo, d_hi in cli._MODULUS_SWEEPS:
        ratios = []
        for d in np.geomspace(d_lo, d_hi, 9):
            kw = params(float(d))
            ratios.append(increment_functional(quantity, **kw)
                          / increment_bound_shape(quantity, **kw))
        spread = max(ratios) / min(ratios)
        check(f"modulus-{name}", spread < 10.0,
              f"ratio spread {spread:.2f} over [{d_lo:g}, {d_hi:g}] (limit 10)")
        worst = max(worst, spread)
    elapsed = time.time() - t0
    check("modulus-runtime", elapsed < 30.0, f"{elapsed:.1f} s (budget 30 s)")


# ---------------------------------------------------------------------------
# Noise representations
# ---------------------------------------------------------------------------

def test_noise_representation_equivalence():
    t0 = time.time()
    library = audit_functions()
    assert len(library) == 10
    worst_ks, worst_var, crit = 0.0, 0.0, None
    for name, f in library.items():
        rep = representation_equivalence_check(
            f, name=name, n_replications=10_000, master_seed=7, alpha=0.01)
        assert rep.passed, f"{name}: ks {rep.ks_stat:.4f} crit {rep.ks_crit:.4f}"
        worst_ks = max(worst_ks, rep.ks_stat)
        crit = rep.ks_crit
        if rep.target_variance > 0:
            worst_var = max(
                worst_var,
                abs(rep.walsh_variance / rep.target_variance - 1.0),
                abs(rep.spectral_variance / rep.target_variance - 1.0))
    elapsed = time.time() - t0
    check("noise-equivalence-ks", worst_ks < crit,
          f"worst KS {worst_ks:.4f} < critical {crit:.4f} at alpha 0.01")
    check("noise-equivalence-variance", worst_var <= 0.05,
          f"worst variance deviation {worst_var:.3%} (tol 5%)")
    check("noise-runtime", elapsed < 60.0, f"{elapsed:.1f} s (budget 1 min)")


# ---------------------------------------------------------------------------
# Deterministic oracles
# ---------------------------------------------------------------------------

def _logistic_max_error(dt: float) -> float:
    n = 8
    cfg = SolverConfig(grid_size=n, dt=dt, t_final=10.0, scheme="fd",
                       record_interval=0.1)
    coeffs = CoefficientSet.constant(n, m1=1.0, a1=1.0)
    init = Field(np.full(n, 0.1), np.zeros(n))
    stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, 1)
    exact = 0.1 / (0.1 + 0.9 * np.exp(-stats.times))
    return float(np.max(np.abs(stats.mass_u[0] - exact)))


def test_deterministic_oracles():
    t0 = time.time()
    errs = {dt: _logistic_max_error(dt) for dt in (4e-3, 2e-3, 1e-3)}
    check("logistic-accuracy", errs[1e-3] < 5e-3,
          f"max error {errs[1e-3]:.2e} at dt=1e-3 over [0, 10] (tol 5e-3)")
    order, _, _ = fit_loglog(np.array(sorted(errs)), np.array([errs[d] for d in sorted(errs)]))
    check("logistic-order", order >= 0.9,
          f"observed order {order:.3f} under step halving (need 0.9)")

    x = cell_centers(256)
    init = Field(1.0 + np.cos(np.pi * x), 0.5 + 0.5 * np.cos(np.pi * x))
    cfg = SolverConfig(scheme="fd", grid_size=256, dt=1e-4, t_final=0.01,
                       snapshot_times=(0.01,))
    final = simulate_path(init, CoefficientSet.constant(256),
                          NoisePlan(master_seed=0), cfg).snapshots[-1]
    err_fd = float(np.max(np.abs(final.u - semigroup_apply(init.u, 0.01))))
    check("heat-oracle-fd", err_fd < 1e-4, f"max error {err_fd:.2e} (tol 1e-4)")

    x = cell_centers(64)
    init = Field(1.4 + np.cos(np.pi * x) + 0.3 * np.cos(5 * np.pi * x),
                 np.full(64, 1.0))
    cfg = SolverConfig(scheme="spectral", grid_size=64, dt=1e-3, t_final=0.05,
                       snapshot_times=(0.05,))
    final = simulate_path(init, CoefficientSet.constant(64),
                          NoisePlan(master_seed=0, representation="spectral"),
                          cfg).snapshots[-1]
    err_sp = float(np.max(np.abs(final.u - semigroup_apply(init.u, 0.05))))
    check("heat-oracle-spectral", err_sp < 1e-12, f"max error {err_sp:.2e} (tol 1e-12)")
    elapsed = time.time() - t0
    check("oracle-runtime", elapsed < 60.0, f"{elapsed:.1f} s (budget 1 min)")


# ---------------------------------------------------------------------------
# Linear-equation mean field
# ---------------------------------------------------------------------------

def test_linear_mean_field(linear_mean):
    cfg, stats, secs = linear_mean
    coeffs = cfg.coefficient_set()
    m = float(coeffs.m1[0])
    n = cfg.solver_config().grid_size
    assert stats.site_x.size == n          # probe sites cover every cell
    u0 = cfg.initial_field().u
    lam = -4.0 * n * n * np.sin(np.arange(n) * np.pi / (2 * n)) ** 2
    worst = 0.0
    for t_check in (0.5, 1.0):
        r = int(np.argmin(np.abs(stats.times - t_check)))
        target = np.exp(m * t_check) * from_modes(to_modes(u0) * np.exp(lam * t_check))
        sample = stats.site_u[:, r, :]
        mean = sample.mean(axis=0)
        se = sample.std(axis=0, ddof=1) / np.sqrt(stats.n_paths)
        dev = np.abs(mean - target) / (3.0 * se)
        worst = max(worst, float(dev.max()))
    check("linear-mean-field", worst <= 1.0,
          f"worst |mean - exp(mt) exp(t L) u0| = {worst:.2f} x (3 SE) "
          f"at 2000 paths (limit 1)")
    check("linear-mean-runtime", secs < 300.0, f"{secs:.1f} s (budget 5 min)")


# ---------------------------------------------------------------------------
# Positivity accounting
# ---------------------------------------------------------------------------

def test_positivity_and_clamp_accounting(bench, linear_mean, extinction,
                                         holder, invariant, density,
                                         audited_path):
    floor = np.inf
    for _, stats, _ in (bench, linear_mean, extinction, holder, invariant,
                        density):
        floor = min(floor, float(stats.site_u.min()), float(stats.site_v.min()),
                    float(stats.mass_u.min()), float(stats.mass_v.min()))
    for snap in audited_path[1].snapshots:
        floor = min(floor, float(snap.u.min()), float(snap.v.min()))
    check("positivity-post-clamp", floor >= 0.0,
          f"min recorded value {floor:.3e} across all shipped ensembles (need >= 0)")

    # Clamp activity bound on the coexistence-regime ensembles at the stock
    # resolution.  The extinction scenario is excluded by construction: its
    # per-step noise is ~25% of the state, so rare deep excursions clip more
    # than 1e-3 of a vanishing total mass; its clamp load is reported instead.
    worst = 0.0
    for _, stats, _ in (bench, linear_mean, invariant, density):
        worst = max(worst, float(stats.clip_max_ratio.max()))
    check("positivity-pre-clamp", worst < 1e-3,
          f"worst per-step clipped mass ratio {worst:.2e} (tol 1e-3)")
    ext_clip = float(extinction[1].clip_max_ratio.max())
    print(f"       (extinction-scenario clamp load: {ext_clip:.2e})")


# ---------------------------------------------------------------------------
# Extinction rate
# ---------------------------------------------------------------------------

def test_extinction_rate(extinction):
    cfg, stats, secs = extinction
    report = extinction_report(stats, cfg.coefficient_set(), species=SPECIES_U,
                               tail_window=(5.0, 20.0))
    assert report.r_bound == pytest.approx(-0.2, abs=1e-12)
    assert not report.degenerate
    check("extinction-slope",
          report.slope_ok,
          f"slope {report.slope:.4f} <= {report.r_bound:.2f} + 3 x {report.slope_se:.4f} "
          f"over t in [5, 20]")
    check("extinction-pointwise", bool(report.pointwise_ok.all()),
          f"E ln mass below the decay line at all {report.times.size} "
          f"recorded times (3 SE slack)")
    check("extinction-runtime", secs < 600.0, f"{secs:.1f} s (budget 10 min)")


# ---------------------------------------------------------------------------
# Log-functional audit
# ---------------------------------------------------------------------------

def test_mild_log_functional_audit(audited_path):
    cfg, traj, secs = audited_path
    report = mild_log_functional_audit(traj.snapshots, cfg.coefficient_set(),
                                       etas=(1e-2, 1e-4, 1e-6))
    pairs = {(row.time_s, row.time_t) for row in report.rows}
    assert len(pairs) == 20
    tight = [row for row in report.rows if row.eta == 1e-6]
    m_min = min(row.m_eta for row in tight)
    check("log-mass-quadratic-term", m_min >= 1.0 - 1e-3,
          f"min M_eta {m_min:.6f} at eta=1e-6 over 20 snapshot pairs "
          f"(need >= 0.999)")
    drift_worst = max(row.drift_ratio for row in report.rows)
    check("log-mass-drift-domination",
          drift_worst <= report.sup_m + 1e-9,
          f"max drift ratio {drift_worst:.6f} <= sup growth rate "
          f"{report.sup_m:.2f} + 1e-9")
    assert report.monotone_ok and report.limit_ok and report.drift_ok
    check("audit-runtime", secs < 60.0, f"{secs:.1f} s (budget 1 min)")


# ---------------------------------------------------------------------------
# Path regularity
# ---------------------------------------------------------------------------

def test_holder_regularity(holder):
    cfg, stats, secs = holder
    t0 = time.time()
    space = holder_estimate(stats, "space", p=4)
    tim = holder_estimate(stats, "time", p=4)
    check("holder-space-exponent", 0.40 <= space.exponent <= 0.55,
          f"space exponent {space.exponent:.4f} +/- {space.exponent_se:.4f} "
          f"in [0.40, 0.55] at 500 paths")
    check("holder-time-exponent", 0.18 <= tim.exponent <= 0.30,
          f"time exponent {tim.exponent:.4f} +/- {tim.exponent_se:.4f} "
          f"in [0.18, 0.30] at 500 paths")
    for hurst in (0.25, 0.5):
        est = holder_selfcheck(hurst, n_increments=100_000)
        check(f"holder-selfcheck-{hurst}", abs(est.exponent - hurst) <= 0.05,
              f"synthetic exponent {est.exponent:.4f} within 0.05 of {hurst}")
    total = secs + time.time() - t0
    check("holder-runtime", total < 900.0, f"{total:.1f} s (budget 15 min)")


def test_holder_rough_initial(holder_rough):
    cfg, stats, secs = holder_rough
    est = holder_estimate(stats, "space", p=4)
    check("holder-rough-space-exponent", 0.25 <= est.exponent <= 0.35,
          f"near-t=0 space exponent {est.exponent:.4f} +/- {est.exponent_se:.4f} "
          f"in [0.25, 0.35] for |x - 1/2|^0.3 initial data")


# ---------------------------------------------------------------------------
# Long-time behaviour
# ---------------------------------------------------------------------------

def test_invariant_measure_and_control(invariant, invariant_control):
    cfg, stats, secs = invariant
    t0 = time.time()
    moments = moment_bound_curve(stats, cfg.coefficient_set(), p=2.0)
    assert moments.in_hypothesis
    check("invariant-flat-tail", moments.flat_ok,
          f"tail max {moments.tail_max:.4f} vs earlier max "
          f"{moments.earlier_max:.4f} of E sup-norm^2 at T=50")
    stat = stationarity_report(stats)
    check("invariant-stationarity",
          stat.fraction_ok >= stat.required_fraction,
          f"early/late KS pass at {stat.fraction_ok:.0%} of sites "
          f"(need {stat.required_fraction:.0%})")

    ccfg, cstats, csecs = invariant_control
    cmoments = moment_bound_curve(cstats, ccfg.coefficient_set(), p=2.0)
    check("invariant-control-fails",
          (not cmoments.in_hypothesis) and (not cmoments.flat_ok),
          f"a=0 control: growth {cmoments.tail_max / cmoments.earlier_max:.1f}x "
          f"correctly breaks the flat tail")
    total = secs + csecs + time.time() - t0
    check("invariant-runtime", total < 900.0, f"{total:.1f} s (budget 15 min)")


# ---------------------------------------------------------------------------
# One-point marginal
# ---------------------------------------------------------------------------

def _final_site_samples(cfg, stats, site: float, t: float):
    r = int(np.argmin(np.abs(stats.times - t)))
    s = int(np.argmin(np.abs(stats.site_x - site)))
    return stats.site_u[:, r, s]


def test_density_smoke(density, density_control):
    cfg, stats, secs = density
    report = density_smoke_test(_final_site_samples(cfg, stats, 0.5, 1.0))
    assert report.n_samples == 2000
    check("density-no-atom", report.max_cdf_jump < report.jump_threshold,
          f"max CDF jump {report.max_cdf_jump:.4f} < 3/sqrt(n) = "
          f"{report.jump_threshold:.4f} at n=2000")

    ccfg, cstats, csecs = density_control
    creport = density_smoke_test(
        _final_site_samples(ccfg, cstats, 0.5, ccfg.solver_config().t_final))
    check("density-control-atom", creport.max_cdf_jump >= creport.jump_threshold,
          f"sigma=0 control: max CDF jump {creport.max_cdf_jump:.2f} "
          f"correctly reports an atom")
    check("density-runtime", secs + csecs < 300.0,
          f"{secs + csecs:.1f} s (budget 5 min)")


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def _run_cli_tree(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / tag
    rc = cli.main(["ensemble", "--config", str(CONFIG_DIR / "benchmark.ini"),
                   "--paths", "8", "--out", str(out)])
    assert rc == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "runtime.json"}


def test_byte_identical_reruns(tmp_path):
    first = _run_cli_tree(tmp_path, "a")
    second = _run_cli_tree(tmp_path, "b")
    assert first.keys() == second.keys()
    same = all(first[k] == second[k] for k in first)
    check("byte-identical-reruns", same,
          f"{len(first)} output files byte-identical across repeated fixed-seed runs")
