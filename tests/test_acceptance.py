"""Acceptance: every shipped config through `lvfield <cmd>`, one catalogue row each.

A row names a config in configs/, the subcommand that runs it, the exit
status and the set of failed checks expected of it, the thresholds its
verdicts must carry, and its runtime budget.  Each row runs once per
pytest run, in-process on all cores; the tests assert on the verdicts.csv,
runtime.json and data files it wrote, so they check exactly the verdicts a
user gets.  A control passes only when exactly its expected checks fail.

This is a multi-minute run.  Select rows with -k (for example
`pytest -s tests/test_acceptance.py -k holder`); -s prints one [PASS]/[FAIL]
line per verdict with its statistic and threshold.  Below the catalogue:
the positivity checks across configs, read from runtime.json, and the
oracles that have no config and the byte-identical rerun test.
"""
import csv
import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from lvfield import analysis, cli
from lvfield.config import load_config
from lvfield.grid import cell_centers
from lvfield.kernel import semigroup_apply
from lvfield.model import CoefficientSet, Field
from lvfield.noise import NoisePlan
from lvfield.solver import SolverConfig, run_ensemble, simulate_path
from lvfield.statutil import fit_loglog, ks_critical

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    config: str
    command: str
    exit: int
    fails: frozenset          # check names expected to fail
    thresholds: dict          # check name -> threshold its verdict carries
    budget: str | None        # key of BUDGETS; rows sharing a key share it


_MODULI = {f"{name}-modulus": 10.0 for name, *_ in analysis._MODULUS_SWEEPS}
_INVARIANT = {"moment-flat-tail": 2.0, "self-regulation-positive": 0.0,
              "stationarity-site-ks": 0.8}
_DENSITY = {"one-point-atomless": 3.0 / np.sqrt(2000)}

CATALOGUE = [
    Row("kernel.ini", "kernel-check", 0, frozenset(),
        {"kernel-cross-representation": 1e-8, "kernel-mass-conservation": 1e-6,
         **_MODULI}, "kernel"),
    Row("noise.ini", "noise-check", 0, frozenset(),
        {"noise-representation-ks": ks_critical(0.01, 10_000, 10_000),
         "noise-representation-variance": 0.05}, "noise"),
    Row("logistic.ini", "simulate", 0, frozenset(),
        {"logistic-closed-form": 5e-3}, None),
    Row("mild_audit.ini", "simulate", 0, frozenset(),
        {"log-functional-quadratic-term": 1.0 - 1e-3,
         "log-functional-drift-term": 1.0 + 1e-9}, "mild_audit"),
    Row("benchmark.ini", "ensemble", 0, frozenset(), {}, None),
    Row("linear_mean.ini", "ensemble", 0, frozenset(),
        {"linear-mean-field": 1.0}, "linear_mean"),
    Row("extinction.ini", "extinction", 0, frozenset(),
        {"log-mass-decay-slope": -0.2, "log-mass-pointwise-bound": 0.0}, "extinction"),
    Row("holder.ini", "holder", 0, frozenset(),
        {"space-regularity-lower": 0.40, "space-regularity-upper": 0.55,
         "time-regularity-lower": 0.18, "time-regularity-upper": 0.30}, "holder"),
    Row("holder_rough.ini", "holder", 0, frozenset(),
        {"space-regularity-lower": 0.25, "space-regularity-upper": 0.35}, None),
    Row("invariant.ini", "invariant", 0, frozenset(), _INVARIANT, "invariant"),
    Row("invariant_control.ini", "invariant", 1, frozenset(_INVARIANT), _INVARIANT,
        "invariant"),
    Row("density.ini", "density", 0, frozenset(), _DENSITY, "density"),
    Row("density_control.ini", "density", 1, frozenset(_DENSITY), _DENSITY, "density"),
]
ROWS = {row.config: row for row in CATALOGUE}

# seconds of runtime.json runtime_seconds, summed over the rows sharing a key
BUDGETS = {"kernel": 10.0 + 30.0, "noise": 60.0, "mild_audit": 60.0,
           "linear_mean": 300.0, "extinction": 600.0, "holder": 900.0,
           "invariant": 900.0, "density": 300.0}

# coexistence-regime ensembles, whose per-step clipped mass stays below 1e-3
COEXISTENCE = ("benchmark.ini", "linear_mean.ini", "invariant.ini", "density.ini")


class Run(NamedTuple):
    exit: int
    out: Path
    verdicts: dict            # check name -> (passed, statistic, threshold)
    runtime: dict


def read_csv(path: Path) -> list:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """run(config) -> its Run, running the row on the first call only."""
    root = tmp_path_factory.mktemp("acceptance")
    done = {}

    def get(config: str) -> Run:
        if config not in done:
            row = ROWS[config]
            out = root / Path(config).stem
            rc = cli.main([row.command, "--config", str(CONFIG_DIR / config),
                           "--threads", "0", "--out", str(out)])
            verdicts = {r["check_name"]: (r["pass"] == "true", float(r["statistic"]),
                                          float(r["threshold"]))
                        for r in read_csv(out / "verdicts.csv")}
            runtime = json.loads((out / "runtime.json").read_text())
            done[config] = Run(rc, out, verdicts, runtime)
        return done[config]

    return get


def test_catalogue_covers_every_config():
    assert sorted(ROWS) == sorted(p.name for p in CONFIG_DIR.glob("*.ini"))


@pytest.mark.parametrize("row", CATALOGUE, ids=[Path(r.config).stem for r in CATALOGUE])
def test_row(run, row):
    result = run(row.config)          # the CLI prints a line per verdict
    print(f"       ({row.config}: {result.runtime['runtime_seconds']:.1f} s)")
    failed = {name for name, (passed, _, _) in result.verdicts.items() if not passed}
    assert failed == row.fails
    assert result.exit == row.exit
    assert result.runtime["status"] == ("checks-failed" if row.fails else "ok")
    for name, threshold in row.thresholds.items():
        assert result.verdicts[name][2] == pytest.approx(threshold, abs=1e-12), name


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_runtime_budget(run, budget):
    rows = [row.config for row in CATALOGUE if row.budget == budget]
    secs = sum(run(config).runtime["runtime_seconds"] for config in rows)
    check(f"{budget}-runtime", secs < BUDGETS[budget],
          f"{secs:.1f} s for {', '.join(rows)} (budget {BUDGETS[budget]:g} s)")


# ---------------------------------------------------------------------------
# Data files the verdicts do not cover
# ---------------------------------------------------------------------------

def test_noise_every_function_passes(run):
    rows = read_csv(run("noise.ini").out / "noise_check.csv")
    assert len(rows) == 10
    assert all(r["pass"] == "true" for r in rows), rows


def test_mild_audit_pairs(run):
    lines = (run("mild_audit.ini").out / "snapshots.ndjson").read_text().splitlines()
    assert len(lines) - 1 == 21          # a meta line, then 20 consecutive pairs


def test_linear_mean_probes_cover_the_grid():
    sconf = load_config(CONFIG_DIR / "linear_mean.ini").solver
    assert np.unique(sconf.site_indices()).size == sconf.grid_size


def test_density_sample_count(run):
    for config in ("density.ini", "density_control.ini"):
        (summary,) = read_csv(run(config).out / "density_summary.csv")
        assert summary["n_samples"] == "2000"


# ---------------------------------------------------------------------------
# Positivity across configs (runtime.json)
# ---------------------------------------------------------------------------

def test_positivity_post_clamp(run):
    floors = [run(row.config).runtime["recorded_floor"] for row in CATALOGUE]
    floor = min(f for f in floors if f is not None)     # None: no paths simulated
    check("positivity-post-clamp", floor >= 0.0,
          f"min recorded value {floor:.3e} across every shipped run (need >= 0)")


def test_positivity_pre_clamp(run):
    # The extinction scenario is left out: its per-step noise is ~25% of the
    # state, so a rare deep excursion could clip more than 1e-3 of a
    # vanishing total mass; its clamp load is printed instead.
    worst = max(run(config).runtime["clip_max_ratio"] for config in COEXISTENCE)
    check("positivity-pre-clamp", worst < 1e-3,
          f"worst per-step clipped mass ratio {worst:.2e} (tol 1e-3)")
    ext = run("extinction.ini").runtime
    print(f"       (extinction-scenario clamp load: {ext['clip_max_ratio']:.2e}, "
          f"{ext['clip_steps']} clip steps, exit fraction {ext['exit_fraction']:.3g})")


# ---------------------------------------------------------------------------
# Deterministic oracles without a config
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
                          NoisePlan(master_seed=0),
                          cfg).snapshots[-1]
    err_sp = float(np.max(np.abs(final.u - semigroup_apply(init.u, 0.05))))
    check("heat-oracle-spectral", err_sp < 1e-12, f"max error {err_sp:.2e} (tol 1e-12)")
    elapsed = time.time() - t0
    check("oracle-runtime", elapsed < 60.0, f"{elapsed:.1f} s (budget 1 min)")


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
