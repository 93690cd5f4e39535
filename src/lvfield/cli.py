"""Command line driver: configured experiments in, CSV/NDJSON files out.

Every subcommand reads one config file, runs its experiment, and writes its
outputs plus a verdicts.csv (check_name, theorem_ref, pass, statistic,
threshold) and a runtime.json sidecar into the output directory.  All data
files embed the package version, the config hash, and the master seed, and
are byte-identical across reruns, thread counts, and output locations; only
runtime.json carries wall-clock information.

Exit status: 0 when every verdict passes, 1 on a failed verdict, 2 on a
config or usage error, 3 on a runtime or estimator error (a simulation
blowup, or an estimator refusing its input); exits 2 and 3 write no
verdicts.csv.  Once the output directory exists, runtime.json records the
outcome as its status: "ok", "checks-failed" or "error" (with the message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (check_lag_coverage, density_smoke_test,
                       extinction_report, holder_estimate,
                       mild_log_functional_audit, moment_bound_curve,
                       stationarity_report)
from .config import ConfigError, ExperimentConfig, load_config
from .grid import cell_centers
from .kernel import (IncrementFunctional, gaussian_comparison_sweep,
                     increment_bound_shape, increment_functional,
                     kernel_eigen_series, kernel_image_sum, kernel_mass_defect,
                     semigroup_compose_defect)
from .noise import (SPECIES_U, SPECIES_V, audit_functions,
                    representation_equivalence_check)
from .solver import SimulationBlowup, run_ensemble, simulate_path

_ENV_OUT = "LVFIELD_OUT"


@dataclass(frozen=True)
class Verdict:
    check_name: str
    theorem_ref: str
    passed: bool
    statistic: float
    threshold: float


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, cfg: ExperimentConfig, columns, rows):
    lines = [f"# lvfield {__version__}",
             f"# config_hash={cfg.config_hash}",
             f"# seed={cfg.master_seed}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_snapshots(path: Path, cfg: ExperimentConfig, snapshots):
    meta = {"format": "lvfield.snapshots.v1", "version": __version__,
            "config_hash": cfg.config_hash, "seed": cfg.master_seed,
            "n": cfg.n, "scheme": cfg.scheme}
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(meta, sort_keys=True) + "\n")
        for snap in snapshots:
            row = {"t": float(snap.time),
                   "U": [float(v) for v in snap.u],
                   "V": [float(v) for v in snap.v]}
            f.write(json.dumps(row) + "\n")


def write_verdicts(out_dir: Path, cfg: ExperimentConfig, verdicts) -> Path:
    path = out_dir / "verdicts.csv"
    write_csv(path, cfg, ("check_name", "theorem_ref", "pass", "statistic", "threshold"),
              [(v.check_name, v.theorem_ref, v.passed, v.statistic, v.threshold)
               for v in verdicts])
    return path


def write_runtime(out_dir: Path, command: str, cfg: ExperimentConfig,
                  seconds: float, files, status: str = "ok", error: str | None = None):
    payload = {"command": command, "config": cfg.path,
               "config_hash": cfg.config_hash, "version": __version__,
               "status": status, "runtime_seconds": seconds,
               "files": sorted(f.name for f in files)}
    if error is not None:
        payload["error"] = error
    (out_dir / "runtime.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------

def _build(cfg: ExperimentConfig):
    return (cfg.initial_field(), cfg.coefficient_set(), cfg.noise_plan(),
            cfg.solver_config())


def _ensemble(cfg: ExperimentConfig):
    init, coeffs, plan, sconf = _build(cfg)
    stats = run_ensemble(init, coeffs, plan, sconf, cfg.n_paths,
                         threads=cfg.threads)
    return stats, coeffs


_LOG_MASS_ETA = 1e-12


def _series_rows(stats, p: float):
    mean = lambda a: a.mean(axis=0)
    se = lambda a: (a.std(axis=0, ddof=1) / np.sqrt(a.shape[0])
                    if a.shape[0] > 1 else np.zeros(a.shape[1]))
    ln_u = np.log(_LOG_MASS_ETA + stats.mass_u)
    ln_v = np.log(_LOG_MASS_ETA + stats.mass_v)
    sup_p = stats.supnorm**p
    cols = (stats.times,
            mean(ln_u), se(ln_u), mean(ln_v), se(ln_v),
            mean(sup_p), se(sup_p),
            np.full(stats.times.size, stats.n_paths))
    return list(zip(*cols))


_SERIES_COLUMNS = ("time", "mean_lnmass_u", "se_lnmass_u", "mean_lnmass_v",
                   "se_lnmass_v", "mean_supnorm_p", "se_supnorm_p", "n_paths")


def _positivity_verdicts(stats, clip_tol: float, exit_tol: float):
    floor = min(float(stats.mass_u.min()), float(stats.mass_v.min()),
                float(stats.site_u.min()), float(stats.site_v.min()))
    clip = float(stats.clip_max_ratio.max()) if stats.n_paths else 0.0
    return [
        Verdict("recorded-state-nonnegative", "positivity", floor >= 0.0, floor, 0.0),
        Verdict("pre-clamp-clipped-mass", "positivity", clip <= clip_tol, clip, clip_tol),
        Verdict("truncation-exit-fraction", "truncation-rarity",
                stats.exit_fraction() <= exit_tol, stats.exit_fraction(), exit_tol),
    ]


def _species_index(label: str) -> int:
    return SPECIES_U if label == "u" else SPECIES_V


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (verdicts, written files).
# ---------------------------------------------------------------------------

_MODULUS_SWEEPS = (
    ("space-increment", IncrementFunctional.SPACE_INCREMENT,
     lambda d: dict(t=0.01, x=0.5 - d / 2, y=0.5 + d / 2), 1e-3, 1e-1),
    ("space-increment-time-integrated", IncrementFunctional.SPACE_INCREMENT_TIME_INTEGRATED,
     lambda d: dict(t=0.5, x=0.5 - d / 2, y=0.5 + d / 2), 1e-2, 0.98),
    ("square-tail", IncrementFunctional.SQUARE_TAIL,
     lambda d: dict(s=0.5 - d, t=0.5, x=0.3), 1e-3, 1e-1),
    ("time-increment-integrated", IncrementFunctional.TIME_INCREMENT_INTEGRATED,
     lambda d: dict(s=0.5, t=0.5 + d, x=0.3), 1e-3, 1e-1),
    ("time-increment-fixed", IncrementFunctional.TIME_INCREMENT_FIXED,
     lambda d: dict(s=1e-3, t=1e-3 + d, x=0.3), 1e-3, 1e-1),
)


def cmd_kernel_check(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("kernel_check")
    cross_tol = opts.get_float("cross_tol", 1e-8)
    mass_tol = opts.get_float("mass_tol", 1e-6)
    ratio_limit = opts.get_float("ratio_limit", 10.0)
    lattice = opts.get_int("lattice", 20)
    n_sweep = opts.get_int("n_sweep", 7)
    opts.reject_unknown()

    rows = []
    times = np.geomspace(0.01, 1.0, lattice)
    x = cell_centers(lattice)
    cross = 0.0
    for t in times:
        a = kernel_image_sum(t, x[:, None], x[None, :])
        b = kernel_eigen_series(t, x[:, None], x[None, :])
        cross = max(cross, float(np.max(np.abs(a - b))))
    rows.append(("cross-representation-max-diff", 0.0, cross))

    mass = max(kernel_mass_defect(t, x, n_quad=12000)
               for t in (1e-3, 1e-2, 1e-1, 1.0))
    rows.append(("mass-defect-max", 0.0, mass))

    lo, hi = gaussian_comparison_sweep((1e-3, 1e-2, 1e-1))
    rows.append(("gaussian-ratio-inf", 0.0, lo))
    rows.append(("gaussian-ratio-sup", 0.0, hi))

    u = 1.0 + np.cos(np.pi * cell_centers(256)) + 0.3 * np.cos(3 * np.pi * cell_centers(256))
    compose = semigroup_compose_defect(u, 0.01, 0.05)
    rows.append(("semigroup-compose-defect", 0.0, compose))

    verdicts = [
        Verdict("kernel-cross-representation", "dual-series-identity",
                cross <= cross_tol, cross, cross_tol),
        Verdict("kernel-mass-conservation", "unit-mass", mass <= mass_tol, mass, mass_tol),
        Verdict("kernel-gaussian-envelope", "gaussian-comparison",
                0.0 < lo <= hi < np.inf, lo, 0.0),
        Verdict("semigroup-composition", "semigroup-identity",
                compose <= 1e-10, compose, 1e-10),
    ]

    for name, quantity, params, d_lo, d_hi in _MODULUS_SWEEPS:
        ds = np.geomspace(d_lo, d_hi, n_sweep)
        ratios = []
        for d in ds:
            kw = params(float(d))
            value = increment_functional(quantity, **kw)
            shape = increment_bound_shape(quantity, **kw)
            ratios.append(value / shape)
            rows.append((f"{name}-ratio", float(d), value / shape))
        spread = max(ratios) / min(ratios)
        verdicts.append(Verdict(f"{name}-modulus", "increment-envelope",
                                spread < ratio_limit, spread, ratio_limit))

    path = out_dir / "kernel_check.csv"
    write_csv(path, cfg, ("measure", "parameter", "value"), rows)
    return verdicts, [path]


def cmd_noise_check(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("noise_check")
    n_replications = opts.get_int("n_replications", 10000)
    alpha = opts.get_float("alpha", 0.01)
    n_steps = opts.get_int("n_steps", 25)
    n_cells = opts.get_int("n_cells", 32)
    variance_tol = opts.get_float("variance_tol", 0.05)
    opts.reject_unknown()

    rows = []
    worst_ks = 0.0
    worst_var = 0.0
    ks_crit = None
    for name, f in audit_functions().items():
        rep = representation_equivalence_check(
            f, name=name, n_steps=n_steps, n_cells=n_cells,
            n_replications=n_replications, master_seed=cfg.master_seed,
            alpha=alpha, variance_tolerance=variance_tol)
        rows.append((name, rep.target_variance, rep.walsh_variance,
                     rep.spectral_variance, rep.ks_stat, rep.ks_crit, rep.passed))
        worst_ks = max(worst_ks, rep.ks_stat)
        ks_crit = rep.ks_crit
        if rep.target_variance > 0:
            worst_var = max(worst_var,
                            abs(rep.walsh_variance / rep.target_variance - 1.0),
                            abs(rep.spectral_variance / rep.target_variance - 1.0))

    path = out_dir / "noise_check.csv"
    write_csv(path, cfg, ("function", "target_variance", "walsh_variance",
                          "spectral_variance", "ks_stat", "ks_crit", "pass"), rows)
    verdicts = [
        Verdict("noise-representation-ks", "representation-equivalence",
                worst_ks < ks_crit, worst_ks, ks_crit),
        Verdict("noise-representation-variance", "integral-isometry",
                worst_var <= variance_tol, worst_var, variance_tol),
    ]
    return verdicts, [path]


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("simulate")
    clip_tol = opts.get_float("clip_tol", 1e-3)
    exit_tol = opts.get_float("exit_tol", 0.01)
    audit = opts.get_choice("mild_audit", ("on", "off"), "on")
    audit_species = opts.get_choice("audit_species", ("u", "v"), "u")
    opts.reject_unknown()

    init, coeffs, plan, sconf = _build(cfg)
    if not sconf.snapshot_times:
        sconf = replace(sconf, snapshot_times=(sconf.t_final,))
    traj = simulate_path(init, coeffs, plan, sconf, path_index=0)

    path = out_dir / "snapshots.ndjson"
    write_snapshots(path, cfg, traj.snapshots)

    floor = min(float(s.u.min()) for s in traj.snapshots)
    floor = min(floor, min(float(s.v.min()) for s in traj.snapshots))
    verdicts = _positivity_verdicts(traj.stats, clip_tol, exit_tol)
    verdicts[0] = Verdict("snapshot-state-nonnegative", "positivity",
                          floor >= 0.0, floor, 0.0)

    species = _species_index(audit_species)
    masses = [float((s.u if species == SPECIES_U else s.v).mean())
              for s in traj.snapshots]
    if audit == "on" and len(traj.snapshots) >= 2 and min(masses) > 0:
        rep = mild_log_functional_audit(traj.snapshots, coeffs, species=species)
        eta_min = min(r.eta for r in rep.rows)
        m_small = min(r.m_eta for r in rep.rows if r.eta == eta_min)
        drift_worst = max(r.drift_ratio for r in rep.rows)
        verdicts += [
            Verdict("log-functional-quadratic-term", "log-mass-expansion",
                    rep.monotone_ok and rep.limit_ok, m_small, 1.0),
            Verdict("log-functional-drift-term", "drift-domination",
                    rep.drift_ok, drift_worst, rep.sup_m),
        ]
    return verdicts, [path]


def cmd_ensemble(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("ensemble")
    clip_tol = opts.get_float("clip_tol", 1e-3)
    exit_tol = opts.get_float("exit_tol", 0.01)
    p = opts.get_float("p", 2.0)
    opts.reject_unknown()

    stats, _ = _ensemble(cfg)
    path = out_dir / "ensemble.csv"
    write_csv(path, cfg, _SERIES_COLUMNS, _series_rows(stats, p))
    summary = out_dir / "ensemble_summary.csv"
    write_csv(summary, cfg,
              ("n_paths", "exit_fraction", "max_clip_ratio", "clip_steps"),
              [(stats.n_paths, stats.exit_fraction(),
                float(stats.clip_max_ratio.max()), int(stats.clip_events.sum()))])
    return _positivity_verdicts(stats, clip_tol, exit_tol), [path, summary]


def cmd_holder(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("holder")
    p = opts.get_int("p", 4)
    band_space = opts.get_float_list("band_space", (0.40, 0.55))
    band_time = opts.get_float_list("band_time", (0.18, 0.30))
    n_resamples = opts.get_int("resamples", 200)
    opts.reject_unknown()

    # Refuse lag sets the estimator would refuse before paying for the
    # ensemble; the lags are built as the solver records them.
    lag_sets = (("space_lags", np.asarray(cfg.space_lags, dtype=np.int64) / cfg.n),
                ("time_lags", np.asarray(cfg.time_lags, dtype=np.int64) * cfg.dt))
    if not any(lags.size for _, lags in lag_sets):
        raise ConfigError("holder needs space_lags or time_lags in [solver]",
                          cfg.path)
    for key, lags in lag_sets:
        if lags.size:
            try:
                check_lag_coverage(lags)
            except ValueError as e:
                raise ConfigError(f"[solver] {key}: {e}", cfg.path) from None

    stats, _ = _ensemble(cfg)
    estimates = []
    if stats.space_lags.size:
        estimates.append((holder_estimate(stats, "space", p, n_resamples), band_space))
    if stats.time_lags.size:
        estimates.append((holder_estimate(stats, "time", p, n_resamples), band_time))

    rows, moment_rows, verdicts = [], [], []
    for est, band in estimates:
        lo, hi = band
        rows.append((est.direction, est.p, est.lags.size, est.exponent,
                     est.exponent_se, est.confidence_band[0],
                     est.confidence_band[1], est.log_log_slope, est.r2, lo, hi))
        for lag, moment in zip(est.lags, est.moments):
            moment_rows.append((est.direction, lag, moment))
        verdicts.append(Verdict(f"{est.direction}-regularity-lower",
                                f"path-{est.direction}-regularity",
                                est.exponent >= lo, est.exponent, lo))
        verdicts.append(Verdict(f"{est.direction}-regularity-upper",
                                f"path-{est.direction}-regularity",
                                est.exponent <= hi, est.exponent, hi))

    path = out_dir / "holder.csv"
    write_csv(path, cfg, ("direction", "p", "n_lags", "exponent", "exponent_se",
                          "band_lo", "band_hi", "slope", "r2",
                          "target_lo", "target_hi"), rows)
    moments = out_dir / "holder_moments.csv"
    write_csv(moments, cfg, ("direction", "lag", "moment"), moment_rows)
    return verdicts, [path, moments]


def cmd_extinction(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("extinction")
    species = _species_index(opts.get_choice("species", ("u", "v"), "u"))
    w_lo = opts.get_float("window_start", 5.0)
    w_hi = opts.get_float("window_end", None)
    eta = opts.get_float("eta", None)
    n_resamples = opts.get_int("resamples", 200)
    opts.reject_unknown()

    stats, coeffs = _ensemble(cfg)
    rep = extinction_report(stats, coeffs, species=species,
                            tail_window=(w_lo, w_hi), eta=eta,
                            n_resamples=n_resamples)

    bound = rep.mean_log_mass[0] + rep.r_bound * rep.times
    rows = list(zip(rep.times, rep.mean_log_mass, rep.log_mass_se, bound,
                    rep.pointwise_ok))
    path = out_dir / "extinction.csv"
    write_csv(path, cfg, ("time", "mean_log_mass", "se", "bound_line", "pointwise_ok"),
              rows)

    margin = float(np.max(rep.mean_log_mass - bound - 3.0 * rep.log_mass_se))
    verdicts = [
        Verdict("log-mass-decay-slope", "log-mass-decay",
                rep.slope_ok and not rep.degenerate, rep.slope, rep.r_bound),
        Verdict("log-mass-pointwise-bound", "log-mass-decay",
                bool(np.all(rep.pointwise_ok)) and not rep.degenerate, margin, 0.0),
    ]
    return verdicts, [path]


def cmd_invariant(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("invariant")
    p = opts.get_float("p", 2.0)
    n_windows = opts.get_int("n_windows", 4)
    alpha = opts.get_float("alpha", 0.05)
    required = opts.get_float("required_fraction", 0.8)
    opts.reject_unknown()

    stats, coeffs = _ensemble(cfg)
    moment = moment_bound_curve(stats, coeffs, p=p)
    stat = stationarity_report(stats, n_windows=n_windows, alpha=alpha,
                               required_fraction=required)

    curve = out_dir / "moment_curve.csv"
    write_csv(curve, cfg, ("time", "moment"),
              list(zip(moment.times, moment.moment_curve)))
    windows = out_dir / "invariant_windows.csv"
    write_csv(windows, cfg,
              ("t_lo", "t_hi", "mass_mean", "supnorm_mean", "rough_mean"),
              [(b[0], b[1], m, s, r) for b, m, s, r in
               zip(stat.window_bounds, stat.mass_window_means,
                   stat.supnorm_window_means, stat.holder_proxy_window_means)])
    sites = out_dir / "stationarity.csv"
    write_csv(sites, cfg, ("site_x", "ks_stat", "ks_crit", "ok"),
              [(x, k, stat.ks_critical_value, k < stat.ks_critical_value)
               for x, k in zip(stat.site_x, stat.site_ks)])

    ratio = moment.tail_max / max(moment.earlier_max, 1e-300)
    inf_a = float(min(coeffs.a1.min(), coeffs.a2.min()))
    verdicts = [
        Verdict("moment-flat-tail", "uniform-moment-bound",
                moment.flat_ok, ratio, 2.0),
        Verdict("self-regulation-positive", "uniform-moment-bound",
                moment.in_hypothesis, inf_a, 0.0),
        Verdict("stationarity-site-ks", "long-time-distribution",
                stat.passed, stat.fraction_ok, required),
    ]
    return verdicts, [curve, windows, sites]


def cmd_density(cfg: ExperimentConfig, out_dir: Path):
    opts = cfg.extra("density")
    at_time = opts.get_float("time", cfg.t_final)
    at_site = opts.get_float("site", 0.5)
    species = _species_index(opts.get_choice("species", ("u", "v"), "u"))
    min_samples = opts.get_int("min_samples", 2000)
    opts.reject_unknown()

    stats, _ = _ensemble(cfg)
    ti = int(np.argmin(np.abs(stats.times - at_time)))
    si = int(np.argmin(np.abs(stats.site_x - at_site)))
    series = stats.site_u if species == SPECIES_U else stats.site_v
    rep = density_smoke_test(series[:, ti, si], min_samples=min_samples)

    path = out_dir / "density.csv"
    write_csv(path, cfg, ("value", "kde_density"),
              list(zip(rep.kde_grid, rep.kde_density)))
    summary = out_dir / "density_summary.csv"
    write_csv(summary, cfg,
              ("time", "site_x", "n_samples", "zero_fraction", "max_cdf_jump",
               "jump_threshold", "kde_bandwidth"),
              [(float(stats.times[ti]), float(stats.site_x[si]), rep.n_samples,
                rep.zero_fraction, rep.max_cdf_jump, rep.jump_threshold,
                rep.kde_bandwidth)])
    verdicts = [Verdict("one-point-atomless", "one-point-continuity",
                        rep.atom_free, rep.max_cdf_jump, rep.jump_threshold)]
    return verdicts, [path, summary]


COMMANDS = {
    "kernel-check": (cmd_kernel_check, "heat kernel identities and increment envelopes"),
    "noise-check": (cmd_noise_check, "distributional audit of the two noise representations"),
    "simulate": (cmd_simulate, "one path with full field snapshots (NDJSON)"),
    "ensemble": (cmd_ensemble, "path ensemble summary statistics"),
    "holder": (cmd_holder, "regularity exponents from increment moments"),
    "extinction": (cmd_extinction, "log-mass decay against the rate bound"),
    "invariant": (cmd_invariant, "moment flatness and window stationarity"),
    "density": (cmd_density, "one-point marginal continuity smoke test"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvfield",
        description="stochastic Lotka-Volterra field experiments")
    parser.add_argument("--version", action="version",
                        version=f"lvfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--paths", type=int, default=None,
                       help="override the number of paths")
        p.add_argument("--out", default=None,
                       help=f"output directory (overrides ${_ENV_OUT} and config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes; 0 = all cores")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    out_dir = None
    try:
        cfg = load_config(args.config).with_overrides(
            seed=args.seed, n_paths=args.paths, threads=args.threads)
        out_dir = Path(args.out or os.environ.get(_ENV_OUT) or cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        verdicts, files = args.func(cfg, out_dir)
    except (ConfigError, SimulationBlowup, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if out_dir is not None and out_dir.is_dir():
            write_runtime(out_dir, args.command, cfg, time.perf_counter() - started, [],
                          status="error", error=str(e))
        return 2 if isinstance(e, ConfigError) else 3

    files.append(write_verdicts(out_dir, cfg, verdicts))
    n_pass = sum(v.passed for v in verdicts)
    write_runtime(out_dir, args.command, cfg, time.perf_counter() - started, files,
                  status="ok" if n_pass == len(verdicts) else "checks-failed")

    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.check_name}: statistic={v.statistic:.6g} "
              f"threshold={v.threshold:.6g}")
    print(f"{n_pass}/{len(verdicts)} checks passed ({out_dir / 'verdicts.csv'})")
    return 0 if n_pass == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
