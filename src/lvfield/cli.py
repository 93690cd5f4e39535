"""Command line driver: configured experiments in, CSV/NDJSON files out.

Every subcommand reads one config file, checks its options, runs its
experiment, and passes the output to the estimator or audit in analysis.py
that decides its verdicts.  It writes its outputs plus a verdicts.csv
(check_name, theorem_ref, pass, statistic, threshold) and a runtime.json
sidecar into the output directory.  All data files embed the package
version, the config hash, and the master seed, and are byte-identical
across reruns, thread counts, and output locations; only runtime.json
carries wall-clock information.

Exit status: 0 when every verdict passes, 1 on a failed verdict, 2 on a
config or usage error, 3 on a blowup, an estimator refusing its input or
a crash (with its traceback on stderr); exits 2 and 3 write no
verdicts.csv.  Exit 2 covers what a command's estimators would refuse,
caught before anything is simulated: holder lags too few or too narrow,
holder and invariant on a U that is identically zero, an extinction tail
window with fewer than 3 record times, invariant and density without a
probe site, an invariant record grid too coarse for the flat-tail or
stationarity windows, and a path count (--paths or [run] n_paths) below
density's sample minimum or too small for the invariant site KS test to
fail.  An output directory (--out or [run] output_dir) that cannot be made
exits 2 too.  Once the output directory exists,
runtime.json records the outcome as its status: "ok", "checks-failed" or
"error" (with the message).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (SERIES_COLUMNS, check_density_samples, check_lag_coverage,
                       density_smoke_test, ensemble_series, extinction_report,
                       flat_tail_windows, holder_estimate, kernel_audit,
                       linear_mean_verdicts, logistic_verdicts, mild_log_functional_audit,
                       moment_bound_curve, noise_audit, positivity_verdicts, recorded_floor,
                       stationarity_critical_value, stationarity_report,
                       stationarity_windows, tail_window_mask)
from .config import ConfigError, ExperimentConfig, load_config
from .noise import SPECIES_U, SPECIES_V
from .solver import SimulationBlowup, chunk_plan, run_ensemble, simulate_path


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
             f"# seed={cfg.noise.master_seed}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_snapshots(path: Path, cfg: ExperimentConfig, snapshots):
    meta = {"format": "lvfield.snapshots.v1", "version": __version__,
            "config_hash": cfg.config_hash, "seed": cfg.noise.master_seed,
            "n": cfg.solver.grid_size, "scheme": cfg.solver.scheme}
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


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the finished pool workers
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def write_runtime(out_dir: Path, command: str, cfg: ExperimentConfig, seconds: float,
                  meter: "EnsembleMeter", files, status: str = "ok",
                  error: str | None = None):
    payload = {"command": command, "config": cfg.path,
               "config_hash": cfg.config_hash, "version": __version__,
               "status": status, "runtime_seconds": seconds,
               "path_steps": meter.path_steps,
               "path_steps_per_s": meter.path_steps / meter.seconds if meter.seconds else 0.0,
               "chunks": meter.chunks, "workers": meter.workers,
               "recorded_floor": meter.recorded_floor if meter.paths else None,
               "clip_max_ratio": meter.clip_max_ratio,
               "clip_steps": meter.clip_steps,
               "exit_fraction": meter.exited_paths / meter.paths if meter.paths else 0.0,
               "peak_rss_mb": _peak_rss_mb(),
               "files": sorted(f.name for f in files)}
    if error is not None:
        payload["error"] = error
    (out_dir / "runtime.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------

@dataclass
class EnsembleMeter:
    """What run_ensemble and simulate_path did, for runtime.json: the
    path-steps simulated and the seconds spent inside them (the throughput),
    the chunks they ran and the most processes that ran them, and the
    positivity counters of the paths they returned."""

    path_steps: int = 0
    seconds: float = 0.0
    chunks: int = 0
    workers: int = 0
    paths: int = 0
    exited_paths: int = 0
    clip_steps: int = 0
    clip_max_ratio: float = 0.0
    recorded_floor: float = np.inf

    def run(self, simulate, init, coeffs, plan, config, *args, **kwargs):
        start = time.perf_counter()
        stats = simulate(init, coeffs, plan, config, *args, **kwargs)
        self.seconds += time.perf_counter() - start
        self.path_steps += stats.n_paths * config.n_steps
        # simulate_path is the one-path run_ensemble, in the calling process
        chunks, workers = chunk_plan(stats.n_paths, kwargs.get("threads", 1))
        self.chunks += len(chunks)
        self.workers = max(self.workers, workers)
        self.paths += stats.n_paths
        self.exited_paths += int(np.count_nonzero(stats.exit_step >= 0))
        self.clip_steps += int(stats.clip_events.sum())
        self.clip_max_ratio = max(self.clip_max_ratio, float(stats.clip_max_ratio.max()))
        self.recorded_floor = min(self.recorded_floor, recorded_floor(stats, stats.snapshots))
        return stats


def _build(cfg: ExperimentConfig):
    return cfg.initial_field(), cfg.coefficient_set(), cfg.noise, cfg.solver


def _ensemble(cfg: ExperimentConfig, meter: EnsembleMeter):
    init, coeffs, plan, sconf = _build(cfg)
    stats = meter.run(run_ensemble, init, coeffs, plan, sconf, cfg.run.n_paths,
                      threads=cfg.run.threads)
    return stats, coeffs, init


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (verdicts, written files).
# ---------------------------------------------------------------------------

def cmd_kernel_check(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    rows, verdicts = kernel_audit()
    path = out_dir / "kernel_check.csv"
    write_csv(path, cfg, ("measure", "parameter", "value"), rows)
    return verdicts, [path]


def cmd_noise_check(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    rows, verdicts = noise_audit(cfg.noise.master_seed)
    path = out_dir / "noise_check.csv"
    write_csv(path, cfg, ("function", "target_variance", "walsh_variance",
                          "spectral_variance", "ks_stat", "ks_crit", "pass"), rows)
    return verdicts, [path]


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    init, coeffs, plan, sconf = _build(cfg)
    sconf = replace(sconf, snapshot_times=sconf.snapshot_times or (sconf.t_final,))
    stats = meter.run(simulate_path, init, coeffs, plan, sconf, path_index=0)

    path = out_dir / "snapshots.ndjson"
    write_snapshots(path, cfg, stats.snapshots)
    return (positivity_verdicts(stats, stats.snapshots)
            + mild_log_functional_audit(stats.snapshots, coeffs)
            + logistic_verdicts(stats, coeffs, init)), [path]


def cmd_ensemble(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    stats, coeffs, init = _ensemble(cfg, meter)
    path = out_dir / "ensemble.csv"
    write_csv(path, cfg, SERIES_COLUMNS, ensemble_series(stats))
    summary = out_dir / "ensemble_summary.csv"
    write_csv(summary, cfg,
              ("n_paths", "exit_fraction", "max_clip_ratio", "clip_steps"),
              [(stats.n_paths, stats.exit_fraction(),
                float(stats.clip_max_ratio.max()), int(stats.clip_events.sum()))])
    verdicts = positivity_verdicts(stats) + linear_mean_verdicts(cfg.solver, stats, coeffs, init)
    return verdicts, [path, summary]


def _refuse_zero_u(cfg: ExperimentConfig, command: str) -> None:
    """Refuse a U that is identically zero, and so stays zero, for a command
    whose checks read the increments or the law of U."""
    if not cfg.initial_field().u.any():
        raise cfg.error("model", "u0", f"{command} tests U, and u0 is zero on the grid")


def cmd_holder(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    # Refuse a zero U and lag sets the estimator would refuse before paying
    # for the ensemble; the lags are the ones the solver records.
    _refuse_zero_u(cfg, "holder")
    lag_sets = tuple(zip(("space_lags", "time_lags"), cfg.solver.recorded_lags()))
    if not any(lags.size for _, lags in lag_sets):
        raise ConfigError("holder needs space_lags or time_lags in [solver]",
                          cfg.path)
    for key, lags in lag_sets:
        if lags.size:
            try:
                check_lag_coverage(lags)
            except ValueError as e:
                raise cfg.error("solver", key, str(e)) from None

    stats, _, _ = _ensemble(cfg, meter)
    opts = cfg.holder
    rows, moment_rows, verdicts = [], [], []
    for direction, lags, band in (("space", stats.space_lags, opts.band_space),
                                  ("time", stats.time_lags, opts.band_time)):
        if not lags.size:
            continue
        est = holder_estimate(stats, direction, opts.p, band)
        rows.append((direction, opts.p, est.lags.size, est.exponent,
                     est.exponent_se, est.confidence_band[0],
                     est.confidence_band[1], est.log_log_slope, est.r2, *band))
        moment_rows += [(direction, lag, moment) for lag, moment in zip(est.lags, est.moments)]
        verdicts += est.verdicts

    path = out_dir / "holder.csv"
    write_csv(path, cfg, ("direction", "p", "n_lags", "exponent", "exponent_se",
                          "band_lo", "band_hi", "slope", "r2",
                          "target_lo", "target_hi"), rows)
    moments = out_dir / "holder_moments.csv"
    write_csv(moments, cfg, ("direction", "lag", "moment"), moment_rows)
    return verdicts, [path, moments]


def cmd_extinction(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    opts = cfg.extinction
    window = (opts.window_start, opts.window_end)
    # refuse a window the report would refuse before paying for the
    # ensemble; a window set only by its end is that key's fault
    key = ("window_end" if opts.window_end is not None
           and ("extinction", "window_start") not in cfg.lines else "window_start")
    try:
        tail_window_mask(cfg.solver.record_steps() * cfg.solver.dt, window)
    except ValueError as e:
        raise cfg.error("extinction", key, str(e)) from None

    stats, coeffs, _ = _ensemble(cfg, meter)
    species = SPECIES_U if opts.species == "u" else SPECIES_V
    rep = extinction_report(stats, coeffs, species=species, tail_window=window)
    path = out_dir / "extinction.csv"
    write_csv(path, cfg, ("time", "mean_log_mass", "se", "bound_line", "pointwise_ok"),
              zip(rep.times, rep.mean_log_mass, rep.log_mass_se, rep.bound_line,
                  rep.pointwise_ok))
    return rep.verdicts, [path]


def _refuse_paths(cfg: ExperimentConfig, check) -> None:
    """check(n_paths), a refusal raised as the error of the path count."""
    try:
        check(cfg.run.n_paths)
    except ValueError as e:
        raise ConfigError(f"--paths / [run] n_paths: {e}", cfg.path) from None


def cmd_invariant(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    # refuse what the estimators would refuse or could not fail on before
    # paying for the ensemble: a zero U, no probe site, a record grid too
    # coarse for their windows, too few paths for the site KS test
    _refuse_zero_u(cfg, "invariant")
    if not cfg.solver.probe_sites:
        raise cfg.error("solver", "probe_sites", "invariant needs at least one probe site")
    times = cfg.solver.record_steps() * cfg.solver.dt
    try:
        flat_tail_windows(times)
        stationarity_windows(times)
    except ValueError as e:
        raise cfg.error("solver", "record_interval", str(e)) from None
    _refuse_paths(cfg, stationarity_critical_value)

    stats, coeffs, _ = _ensemble(cfg, meter)
    moment = moment_bound_curve(stats, coeffs)
    stat = stationarity_report(stats)

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
    return moment.verdicts + stat.verdicts, [curve, windows, sites]


# density tests the one-point law of U at t_final (the last recorded time)
# and the probe site nearest DENSITY_SITE
DENSITY_SITE = 0.5


def cmd_density(cfg: ExperimentConfig, out_dir: Path, meter: EnsembleMeter):
    # refuse what the estimator would refuse before paying for the ensemble
    if not cfg.solver.probe_sites:
        raise cfg.error("solver", "probe_sites", "density needs at least one probe site")
    _refuse_paths(cfg, check_density_samples)

    stats, _, _ = _ensemble(cfg, meter)
    si = int(np.argmin(np.abs(stats.site_x - DENSITY_SITE)))
    rep = density_smoke_test(stats.site_u[:, -1, si])

    path = out_dir / "density.csv"
    write_csv(path, cfg, ("value", "kde_density"),
              list(zip(rep.kde_grid, rep.kde_density)))
    summary = out_dir / "density_summary.csv"
    write_csv(summary, cfg,
              ("time", "site_x", "n_samples", "zero_fraction", "max_cdf_jump",
               "jump_threshold", "kde_bandwidth"),
              [(float(stats.times[-1]), float(stats.site_x[si]), rep.n_samples,
                rep.zero_fraction, rep.max_cdf_jump, rep.jump_threshold,
                rep.kde_bandwidth)])
    return rep.verdicts, [path, summary]


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
                       help="output directory (overrides the config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes; 0 = all cores")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    meter = EnsembleMeter()
    out_dir = None
    try:
        cfg = load_config(args.config).with_overrides(
            seed=args.seed, n_paths=args.paths, threads=args.threads)
        out_dir = Path(args.out or cfg.run.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            message = f"cannot make the output directory: {e}"
            raise (ConfigError(f"--out: {message}") if args.out
                   else cfg.error("run", "output_dir", message)) from None
        verdicts, files = args.func(cfg, out_dir, meter)
    except Exception as e:
        message = str(e)
        if not isinstance(e, (ConfigError, SimulationBlowup, ValueError)):
            traceback.print_exc()       # a crash; BaseException is not caught
            message = f"{type(e).__name__}: {e}"
        print(f"error: {message}", file=sys.stderr)
        if out_dir is not None and out_dir.is_dir():
            write_runtime(out_dir, args.command, cfg, time.perf_counter() - started, meter,
                          [], status="error", error=message)
        return 2 if isinstance(e, ConfigError) else 3

    files.append(write_verdicts(out_dir, cfg, verdicts))
    n_pass = sum(v.passed for v in verdicts)
    write_runtime(out_dir, args.command, cfg, time.perf_counter() - started, meter, files,
                  status="ok" if n_pass == len(verdicts) else "checks-failed")

    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.check_name}: statistic={v.statistic:.6g} "
              f"threshold={v.threshold:.6g}")
    print(f"{n_pass}/{len(verdicts)} checks passed ({out_dir / 'verdicts.csv'})")
    return 0 if n_pass == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
