"""End-to-end CLI runs: files, provenance headers, exit codes, determinism."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import lvfield
from lvfield import analysis, cli, noise, solver
from lvfield.cli import main
from lvfield.config import SECTIONS, parse_config_text
from lvfield.kernel import semigroup_apply
from lvfield.solver import SimulationBlowup, run_ensemble, simulate_path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

BENCH = """\
[model]
n = 16
m1 = 1.0
a1 = 1.0
b1 = 0.3
sigma1 = 0.5
m2 = 0.8
a2 = 1.0
b2 = 0.2
sigma2 = 0.4
u0 = 0.5
v0 = 0.5

[solver]
dt = 1e-3
t_final = 0.2
snapshot_times = 0.1, 0.2

[noise]
master_seed = 7

[run]
n_paths = 4
"""

LOGISTIC = """\
[model]
n = 8
m1 = 1.0
a1 = 1.0
u0 = 0.1

[solver]
dt = 1e-3
t_final = 10.0
snapshot_times = 10.0
record_interval = 0.1
"""

ATOM = """\
[model]
n = 8
m1 = 0.5
a1 = 1.0
u0 = 0.3

[solver]
dt = 1e-2
t_final = 0.1
record_interval = 5e-2

[run]
n_paths = 2000
"""


# Clips, and leaves a truncation ball of radius 1 (set by the test) on
# some paths.
STRESS = BENCH.replace("sigma1 = 0.5", "sigma1 = 6.0")

LINEAR = """\
[model]
n = 16
m1 = 0.2
sigma1 = 0.5
u0 = 1 + 0.5*cos(3.141592653589793*x)

[solver]
scheme = {scheme}
dt = 1e-3
t_final = 0.2
record_interval = 0.05
snapshot_times = 0.1, 0.2
probe_sites = 0.1, 0.3, 0.5, 0.9

[noise]
master_seed = 5

[run]
n_paths = 40
"""


def small_noise_check(monkeypatch):
    """Shrink the noise-check audits to a size that runs in a second, with
    the variance tolerance that size needs."""
    monkeypatch.setattr(analysis, "representation_equivalence_check", functools.partial(
        noise.representation_equivalence_check, n_replications=500, n_steps=5, n_cells=8))
    monkeypatch.setattr(analysis, "NOISE_VARIANCE_TOL", 0.2)


def small_kernel_check(monkeypatch, lattice, sweep_points):
    monkeypatch.setattr(analysis, "KERNEL_LATTICE", lattice)
    monkeypatch.setattr(analysis, "MODULUS_SWEEP_POINTS", sweep_points)


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    header = []
    lines = path.read_text().splitlines()
    while lines and lines[0].startswith("#"):
        header.append(lines.pop(0))
    columns = lines.pop(0).split(",")
    rows = [line.split(",") for line in lines]
    return header, columns, rows


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.name != "runtime.json"}


class TestSimulate:
    def test_ndjson_and_verdicts(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "a"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

        lines = (out / "snapshots.ndjson").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["format"] == "lvfield.snapshots.v1"
        assert meta["seed"] == 7
        assert len(meta["config_hash"]) == 16
        snaps = [json.loads(line) for line in lines[1:]]
        assert [s["t"] for s in snaps] == [0.1, 0.2]
        assert all(len(s["U"]) == 16 and len(s["V"]) == 16 for s in snaps)
        assert all(v >= 0 for s in snaps for v in s["U"] + s["V"])

        header, columns, rows = read_csv(out / "verdicts.csv")
        assert columns == ["check_name", "theorem_ref", "pass", "statistic", "threshold"]
        assert any(f"config_hash={meta['config_hash']}" in line for line in header)
        assert all(row[2] == "true" for row in rows)
        names = [row[0] for row in rows]
        assert "snapshot-state-nonnegative" in names
        assert "log-functional-quadratic-term" in names

        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["command"] == "simulate"
        assert runtime["status"] == "ok" and "error" not in runtime
        assert runtime["runtime_seconds"] > 0
        assert "verdicts.csv" in runtime["files"]
        assert "snapshots.ndjson" in runtime["files"]

    def test_logistic_matches_closed_form(self, tmp_path):
        cfg = write(tmp_path, LOGISTIC)
        out = tmp_path / "log"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        last = json.loads((out / "snapshots.ndjson").read_text().splitlines()[-1])
        # du/dt = u(1 - u), u(0) = 0.1
        expected = 0.1 / (0.1 + 0.9 * math.exp(-10.0))
        assert last["t"] == 10.0
        assert all(abs(v - expected) < 5e-3 for v in last["U"])
        assert all(v == 0.0 for v in last["V"])

    @pytest.mark.parametrize("m, a, u0", [(1.0, 1.0, 0.1), (0.5, 2.0, 0.3), (0.0, 1.0, 0.5)])
    def test_logistic_closed_form_statistic(self, tmp_path, m, a, u0):
        text = (LOGISTIC.replace("m1 = 1.0", f"m1 = {m}").replace("a1 = 1.0", f"a1 = {a}")
                .replace("u0 = 0.1", f"u0 = {u0}").replace("t_final = 10.0", "t_final = 2.0")
                .replace("snapshot_times = 10.0", "snapshot_times = 2.0"))
        cfg = write(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "verdicts.csv")
        (row,) = [r for r in rows if r[0] == "logistic-closed-form"]
        # the closed form written with the carrying capacity, u0/(1 + a u0 t) at m = 0
        econf = parse_config_text(text)
        stats = simulate_path(econf.initial_field(), econf.coefficient_set(),
                              econf.noise_plan(), econf.solver_config())
        t = stats.times
        exact = (u0 / (1 + a * u0 * t) if m == 0 else
                 (m / a) * u0 / (u0 + (m / a - u0) * np.exp(-m * t)))
        assert float(row[3]) == pytest.approx(np.max(np.abs(stats.mass_u[0] - exact)),
                                              rel=1e-9)
        assert float(row[4]) == 5e-3 and row[2] == "true"

    @pytest.mark.parametrize("edit", ["sigma1 = 0.1\n", "v0 = 0.1\n"])
    def test_logistic_closed_form_needs_a_noiseless_single_species(self, tmp_path, edit):
        names = {}
        for tag, text in (("plain", LOGISTIC), ("edited", LOGISTIC.replace("u0 = 0.1\n",
                                                                           "u0 = 0.1\n" + edit))):
            out = tmp_path / tag
            main(["simulate", "--config", write(tmp_path, text, f"{tag}.ini"), "--out", str(out)])
            names[tag] = [row[0] for row in read_csv(out / "verdicts.csv")[2]]
        assert "logistic-closed-form" in names["plain"]
        assert "logistic-closed-form" not in names["edited"]

    def test_log_functional_thresholds_are_the_tested_ones(self, tmp_path, capsys):
        out = tmp_path / "logistic"
        main(["simulate", "--config", str(CONFIG_DIR / "logistic.ini"), "--out", str(out)])
        _, _, rows = read_csv(out / "verdicts.csv")
        verdicts = {row[0]: (row[2] == "true", float(row[3]), float(row[4])) for row in rows}
        passed, m_eta, floor = verdicts["log-functional-quadratic-term"]
        assert floor == 1.0 - 1e-3
        assert passed == (m_eta >= floor)
        passed, ratio, ceiling = verdicts["log-functional-drift-term"]
        assert ceiling == 1.0 + 1e-9
        assert passed == (ratio <= ceiling)
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if "log-functional-quadratic-term" in line]
        assert printed[0].endswith(" threshold=0.999")


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_ensemble_thread_count_invariant(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--threads", "1"]) == 0
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--threads", "2"]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_holder_rough_thread_count_invariant(self, tmp_path):
        # n = 513, where the gemm rows depend on the row count: 70 paths are
        # chunks of 64 and 6 paths under either thread count
        cfg = str(CONFIG_DIR / "holder_rough.ini")
        for threads in ("1", "2"):
            assert main(["holder", "--config", cfg, "--paths", "70", "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        assert tree_bytes(tmp_path / "1") == tree_bytes(tmp_path / "2")

    def test_seed_override_changes_bytes_and_hash(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "8"])
        a = json.loads((tmp_path / "a" / "snapshots.ndjson").read_text().splitlines()[0])
        b = json.loads((tmp_path / "b" / "snapshots.ndjson").read_text().splitlines()[0])
        assert a["config_hash"] != b["config_hash"]
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


class TestRuntimeThroughput:
    @pytest.mark.parametrize("text", [BENCH, STRESS], ids=["bench", "stress"])
    @pytest.mark.parametrize("command, simulator, path_steps", [
        ("ensemble", "run_ensemble", 4 * 200), ("simulate", "simulate_path", 200)])
    def test_runtime_reports_throughput_and_memory(self, tmp_path, monkeypatch, text,
                                                   command, simulator, path_steps):
        returned = []
        real = getattr(cli, simulator)

        def keep(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, simulator, keep)
        if text is STRESS:
            monkeypatch.setattr(solver, "default_truncation_radius", lambda init: 1.0)
        cfg = write(tmp_path, text)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "a")])
        runtime = json.loads((tmp_path / "a" / "runtime.json").read_text())
        assert runtime["path_steps"] == path_steps
        assert 0 < runtime["path_steps_per_s"] < float("inf")
        assert runtime["chunks"] == runtime["workers"] == 1
        assert runtime["peak_rss_mb"] > 1.0
        assert sorted(runtime["files"]) == sorted(tree_bytes(tmp_path / "a"))

        # the positivity counters are those of the returned ensemble
        (stats,) = returned
        recorded = [stats.mass_u, stats.mass_v, stats.site_u, stats.site_v]
        recorded += [a for snap in stats.snapshots for a in (snap.u, snap.v)]
        assert runtime["recorded_floor"] == min(float(np.min(a)) for a in recorded)
        assert runtime["clip_max_ratio"] == float(np.max(stats.clip_max_ratio))
        assert runtime["clip_steps"] == int(np.sum(stats.clip_events))
        assert runtime["exit_fraction"] == np.count_nonzero(stats.exit_step >= 0) / stats.n_paths
        if text is STRESS:
            assert runtime["clip_steps"] > 0 and runtime["exit_fraction"] > 0

        # the same run with an inert meter writes the same bytes elsewhere
        monkeypatch.setattr(cli.EnsembleMeter, "run",
                            lambda self, simulate, *args, **kwargs: simulate(*args, **kwargs))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "b")]) == rc
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        inert = json.loads((tmp_path / "b" / "runtime.json").read_text())
        assert inert["path_steps"] == 0 and inert["recorded_floor"] is None

    def test_commands_without_paths_report_zero(self, tmp_path, monkeypatch):
        small_noise_check(monkeypatch)
        cfg = write(tmp_path, BENCH)
        main(["noise-check", "--config", cfg, "--out", str(tmp_path / "n")])
        runtime = json.loads((tmp_path / "n" / "runtime.json").read_text())
        assert runtime["path_steps"] == 0 and runtime["path_steps_per_s"] == 0.0
        assert runtime["recorded_floor"] is None
        assert runtime["clip_max_ratio"] == runtime["exit_fraction"] == 0.0
        assert runtime["clip_steps"] == 0
        assert runtime["chunks"] == runtime["workers"] == 0

    @pytest.mark.parametrize("threads, workers", [(1, 1), (2, 2)])
    def test_runtime_reports_the_chunk_plan(self, tmp_path, threads, workers):
        # 65 paths make two chunks (64 and 1); two threads run them on two
        # pool workers, one thread in the calling process
        cfg = write(tmp_path, BENCH)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "a"), "--paths", "65",
              "--threads", str(threads)])
        runtime = json.loads((tmp_path / "a" / "runtime.json").read_text())
        assert runtime["path_steps"] == 65 * 200
        assert runtime["chunks"] == 2 and runtime["workers"] == workers


class TestLinearMeanField:
    @pytest.mark.parametrize("scheme", ["fd", "spectral"])
    def test_statistic(self, tmp_path, scheme):
        text = LINEAR.format(scheme=scheme)
        out = tmp_path / "lin"
        assert main(["ensemble", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "verdicts.csv")
        assert [row[0] for row in rows][-1] == "linear-mean-field"
        statistic, threshold = float(rows[-1][3]), float(rows[-1][4])

        # the mean field from the scheme's own operator: the dense
        # mirrored-ghost Laplacian for fd, the heat semigroup for spectral
        econf = parse_config_text(text)
        sconf = econf.solver
        stats = run_ensemble(econf.initial_field(), econf.coefficient_set(),
                             econf.noise_plan(), sconf, econf.run.n_paths)
        n = sconf.grid_size
        lap = n * n * (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
                       - 2.0 * np.eye(n))
        lap[0, 0] = lap[-1, -1] = -n * n
        u0 = econf.initial_field().u
        worst = 0.0
        for t in sconf.snapshot_times:
            r = int(np.flatnonzero(np.isclose(stats.times, t))[0])
            field = expm(t * lap) @ u0 if scheme == "fd" else semigroup_apply(u0, t)
            target = np.exp(0.2 * t) * field[sconf.site_indices()]
            sample = stats.site_u[:, r, :]
            se = sample.std(axis=0, ddof=1) / np.sqrt(sample.shape[0])
            worst = max(worst, float(np.max(np.abs(sample.mean(axis=0) - target) / (3 * se))))
        assert statistic == pytest.approx(worst, rel=1e-9)
        assert threshold == 1.0 and rows[-1][2] == ("true" if worst <= 1.0 else "false")

    @pytest.mark.parametrize("edit", [("m1 = 0.2\n", "m1 = 0.2\na1 = 0.5\n"),
                                      ("sigma1 = 0.5\n", "sigma1 = 0\n")],
                             ids=["self-regulated", "noiseless"])
    def test_absent_off_its_hypothesis(self, tmp_path, edit):
        names = {}
        for tag, text in (("linear", LINEAR.format(scheme="fd")),
                          ("edited", LINEAR.format(scheme="fd").replace(*edit))):
            out = tmp_path / tag
            main(["ensemble", "--config", write(tmp_path, text, f"{tag}.ini"), "--out", str(out)])
            names[tag] = [row[0] for row in read_csv(out / "verdicts.csv")[2]]
        assert names["linear"][-1] == "linear-mean-field"
        assert names["edited"] == ["recorded-state-nonnegative", "pre-clamp-clipped-mass",
                                   "truncation-exit-fraction"]


# The verdict lists the benchmark (perfbench/run.py) expects of its configs:
# a verdict that starts to fire on one of them fails here, not in every
# benchmark operation.
SIMULATE_VERDICTS = ["snapshot-state-nonnegative", "pre-clamp-clipped-mass",
                     "truncation-exit-fraction", "log-functional-quadratic-term",
                     "log-functional-drift-term"]


@pytest.mark.parametrize("command, config, names", [
    ("holder", "holder_fd128.ini", ["space-regularity-lower", "space-regularity-upper",
                                    "time-regularity-lower", "time-regularity-upper"]),
    ("extinction", "extinction_spectral.ini", ["log-mass-decay-slope",
                                               "log-mass-pointwise-bound"]),
    ("simulate", "mild_audit_fd.ini", SIMULATE_VERDICTS),
    ("simulate", "mild_audit_spectral.ini", SIMULATE_VERDICTS),
])
def test_benchmark_configs_keep_their_verdicts(tmp_path, command, config, names):
    out = tmp_path / "b"
    rc = main([command, "--config", str(ROOT / "perfbench" / "configs" / config),
               "--paths", "4", "--threads", "1", "--out", str(out)])
    assert rc in (0, 1)
    assert [row[0] for row in read_csv(out / "verdicts.csv")[2]] == names


class TestEnsemble:
    def test_series_and_summary(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", cfg, "--out", str(out),
                     "--paths", "3"]) == 0
        _, columns, rows = read_csv(out / "ensemble.csv")
        assert columns == ["time", "mean_lnmass_u", "se_lnmass_u", "mean_lnmass_v",
                           "se_lnmass_v", "mean_supnorm_p", "se_supnorm_p", "n_paths"]
        assert float(rows[-1][0]) == pytest.approx(0.2)
        assert rows[0][-1] == "3"
        _, scol, srows = read_csv(out / "ensemble_summary.csv")
        assert srows[0][scol.index("n_paths")] == "3"


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--seed", "9223372036854775808"), ("--paths", "0")])
    def test_out_of_range_override_is_2(self, tmp_path, capsys, flag, value):
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "must be" in err
        assert not (out / "verdicts.csv").exists()

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(b"[model]\nu0 = 0.5\xff\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: cannot read config: 'utf-8' codec can't decode byte 0xff")

    # each input overflows a recursive parser or evaluator
    @pytest.mark.parametrize("u0", [
        "(" * 1000 + "0.5" + ")" * 1000, "-" * 3000 + "0.5", "+".join(["x"] * 20000)],
        ids=["nested-parentheses", "unary-minus", "long-sum"])
    def test_pathological_expression_is_2(self, tmp_path, capsys, u0):
        cfg = write(tmp_path, BENCH.replace("u0 = 0.5", f"u0 = {u0}"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        line = BENCH.splitlines().index("u0 = 0.5") + 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{line}: [model] u0: column ")
        assert "Traceback" not in err

    def test_profile_refused_on_the_grid_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, BENCH.replace("u0 = 0.5", "u0 = cos(9*x) - 2"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        line = BENCH.splitlines().index("u0 = 0.5") + 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:{line}: [model] u0: population fields must be nonnegative\n")
        assert not out.exists()

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "[model]\nu0 = 1.0\n[solver]\ndt = soon\n")
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ":4:" in err and "dt" in err

    def test_solver_constructor_error_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "[model]\nu0 = 1.0\n[solver]\ndt = 3e-3\nt_final = 1.0\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[solver] t_final = 1.0 is not a multiple of dt" in err
        assert f"error: {cfg}:5: [solver]" in err
        assert not out.exists()

    # keys that no shipped scenario set, or that every one set to the same
    # value, now constants; a section left with no key is an unknown section
    @pytest.mark.parametrize("section, key, value", [
        ("simulate", "clip_tol", "1e-3"), ("simulate", "exit_tol", "0.01"),
        ("simulate", "mild_audit", "off"), ("simulate", "audit_species", "v"),
        ("ensemble", "clip_tol", "1e-3"), ("ensemble", "exit_tol", "0.01"),
        ("ensemble", "p", "2.0"), ("holder", "resamples", "50"),
        ("extinction", "eta", "1e-9"), ("extinction", "resamples", "50"),
        ("density", "min_samples", "10"),
        ("kernel_check", "cross_tol", "1e-8"), ("kernel_check", "mass_tol", "1e-6"),
        ("kernel_check", "ratio_limit", "10.0"), ("kernel_check", "lattice", "20"),
        ("kernel_check", "n_sweep", "9"),
        ("noise_check", "n_replications", "10000"), ("noise_check", "alpha", "0.01"),
        ("noise_check", "n_steps", "25"), ("noise_check", "n_cells", "32"),
        ("noise_check", "variance_tol", "0.05"),
        ("invariant", "p", "2.0"), ("invariant", "n_windows", "4"),
        ("invariant", "alpha", "0.05"), ("invariant", "required_fraction", "0.8"),
        ("density", "site", "0.5"), ("density", "species", "u"),
        ("density", "time", "1.0"),
    ])
    def test_removed_key_fails_at_its_line(self, tmp_path, capsys, monkeypatch,
                                           section, key, value):
        text = BENCH + f"\n[{section}]\n{key} = {value}\n"
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        monkeypatch.setattr(cli, "simulate_path", None)
        monkeypatch.setattr(analysis, "representation_equivalence_check", None)
        monkeypatch.setattr(analysis, "kernel_image_sum", None)
        out = tmp_path / "o"
        # each section is named after the command that read it
        assert main([section.replace("_", "-"), "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        line = len(text.splitlines())
        if section not in SECTIONS:
            assert err == f"error: {cfg}:{line - 1}: unknown section [{section}]\n"
        else:
            assert err == f"error: {cfg}:{line}: [{section}] {key}: unknown key\n"
        assert not (out / "verdicts.csv").exists()

    def test_misspelled_section_fails_at_its_header(self, tmp_path, capsys):
        cfg = write(tmp_path, ATOM.replace("[run]", "[rnu]"))
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        line = ATOM.splitlines().index("[run]") + 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: unknown section [rnu]\n"

    def test_command_option_error_names_its_line(self, tmp_path, capsys, monkeypatch):
        text = BENCH + "\n[holder]\np = zzz\n"
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        assert main(["holder", "--config", cfg, "--out", str(tmp_path / "h")]) == 2
        line = len(text.splitlines())
        assert capsys.readouterr().err == (
            f"error: {cfg}:{line}: [holder] p: invalid integer 'zzz'\n")

    @pytest.mark.parametrize("scheme, representation", [
        ("fd", "spectral"), ("spectral", "sheet")])
    def test_noise_scheme_mismatch_is_2(self, tmp_path, capsys, scheme, representation):
        text = BENCH.replace("[solver]\n", f"[solver]\nscheme = {scheme}\n").replace(
            "[noise]\n", f"[noise]\nrepresentation = {representation}\n")
        cfg = write(tmp_path, text)
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        line = text.splitlines().index(f"representation = {representation}") + 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:{line}: [noise] representation: {representation} noise "
            f"does not drive the {scheme} scheme\n")
        assert not out.exists()

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--config", "x"])
        assert info.value.code == 2

    def test_holder_without_lags_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, BENCH)
        assert main(["holder", "--config", cfg, "--out", str(tmp_path / "h")]) == 2
        assert "space_lags" in capsys.readouterr().err

    @pytest.mark.parametrize("lags, message", [
        ("space_lags = 1, 2", "space_lags: need at least 5 lags, got 2"),
        ("space_lags = 4, 5, 6, 7, 8", "space_lags: lags span 0.30 decades, need 0.45"),
        ("space_lags = 1, 2, 3, 5, 8\ntime_lags = 1, 2", "time_lags: need at least 5 lags, got 2"),
    ])
    def test_holder_with_too_few_lags_is_2(self, tmp_path, capsys, monkeypatch, lags, message):
        text = BENCH.replace("[solver]\n", f"[solver]\n{lags}\nstats_after = 0.1\n")
        cfg = write(tmp_path, text)
        # refused before the ensemble runs, at the line of the key
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "h"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 2
        key = message.split(":")[0]
        line = [line.split(" =")[0] for line in text.splitlines()].index(key) + 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [solver] {message}\n"
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and message in runtime["error"]

    @pytest.mark.parametrize("key, value, message", [
        ("stats_after", "0.0045", "stats_after = 0.0045 is not a step time in [0, t_final]"),
        ("stats_after", "-0.003", "stats_after = -0.003 is not a step time in [0, t_final]"),
        ("space_anchor", "1.5", "space anchor 1.5 outside [0, 1]"),
    ])
    def test_holder_statistics_key_outside_its_range_is_2(self, tmp_path, capsys, monkeypatch,
                                                         key, value, message):
        keys = {"space_lags": "1, 2, 3, 5, 8", "stats_after": "0.1", key: value}
        text = BENCH.replace("[solver]\n", "[solver]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items()))
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "h"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 2
        line = text.splitlines().index(f"{key} = {value}") + 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:{line}: [solver] {message}")
        assert not (out / "verdicts.csv").exists()

    # the statistics window of BENCH with stats_after = 0.1 is 100 steps, and
    # the anchor cell of 0.5 on 16 cells is 8; stats_after None leaves the
    # key out, so that no statistics are taken at all
    @pytest.mark.parametrize("keys, key, message", [
        ({"time_lags": "1, 2, 4, 8, 150"}, "time_lags",
         "time lag 150 is longer than the 100 steps from stats_after to t_final"),
        ({"space_anchor": "0.5", "space_lags": "1, 2, 3, 5, 9"}, "space_lags",
         "space lag 5 has no dyadic pair inside the grid beside the anchor cell 8"),
        ({"stats_after": None, "space_lags": "1, 2, 3, 5, 8"}, "space_lags",
         "space lags collect no increment without stats_after"),
        ({"stats_after": None, "time_lags": "1, 2, 3, 5, 8"}, "time_lags",
         "time lags collect no increment without stats_after"),
        ({"probe_sites": "", "time_lags": "1, 2, 3, 5, 8"}, "time_lags",
         "time lags collect no increment without probe_sites"),
    ], ids=["time-lag", "anchored-space-lag", "space-lags-no-stats", "time-lags-no-stats",
            "time-lags-no-probe-sites"])
    def test_holder_lag_without_increments_refused_before_simulating(
            self, tmp_path, capsys, monkeypatch, keys, key, message):
        keys = {"stats_after": "0.1", **keys}
        text = BENCH.replace("[solver]\n", "[solver]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items() if v is not None))
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "h"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 2
        line = text.splitlines().index(f"{key} = {keys[key]}") + 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [solver] {message}\n"
        # the config fails to load, so no output directory is made
        assert not out.exists()

    # a bad option fails as the config loads, for every command, before the
    # output directory exists
    @pytest.mark.parametrize("command, option, message", [
        ("holder", "p = 3", "p: moment order p must be 2 or 4"),
        ("holder", "p = 1", "p: moment order p must be 2 or 4"),
        ("holder", "band_space = 0.4", "band_space: must be two values lo <= hi, got (0.4,)"),
        ("holder", "band_time = 0.3, 0.18",
         "band_time: must be two values lo <= hi, got (0.3, 0.18)"),
        ("simulate", "band_space = 0.4, 0.5, 0.6",
         "band_space: must be two values lo <= hi, got (0.4, 0.5, 0.6)"),
    ])
    def test_holder_option_refused_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                     command, option, message):
        text = (BENCH.replace("[solver]\n", "[solver]\nspace_lags = 1, 2, 3, 5, 8\n"
                              "stats_after = 0.1\n")
                + f"\n[holder]\n{option}\n")
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        monkeypatch.setattr(cli, "simulate_path", None)
        out = tmp_path / "h"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        line = len(text.splitlines())
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [holder] {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        ("species = w", "species: must be one of ['u', 'v'], got 'w'"),
        ("window_end = never", "window_end: invalid number 'never'"),
    ])
    def test_extinction_option_refused_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                         option, message):
        text = BENCH + f"\n[extinction]\n{option}\n"
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "x"
        assert main(["extinction", "--config", cfg, "--out", str(out)]) == 2
        line = len(text.splitlines())
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [extinction] {message}\n"
        assert not out.exists()

    # BENCH records every step of [0, 0.2]
    @pytest.mark.parametrize("options, key, window, covered", [
        ("window_start = 0.25", "window_start", (0.25, None), 0),
        ("window_start = 0.1\nwindow_end = 0.1015", "window_start", (0.1, 0.1015), 2),
        ("window_end = 0.15", "window_end", (5.0, 0.15), 0),
        ("species = u", "window_start", (5.0, None), 0),
    ], ids=["start-after-run", "start-and-end", "end-only", "default-start"])
    def test_extinction_window_refused_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                         options, key, window, covered):
        text = BENCH + f"\n[extinction]\n{options}\n"
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "x"
        assert main(["extinction", "--config", cfg, "--out", str(out)]) == 2
        # the line of the key at fault, when the file sets it
        lines = [i + 1 for i, line in enumerate(text.splitlines()) if line.startswith(key)]
        where = f"{cfg}:{lines[0]}:" if lines else f"{cfg}:"
        assert capsys.readouterr().err == (
            f"error: {where} [extinction] {key}: tail window {window} "
            f"covers {covered} recorded times; need at least 3\n")
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and runtime["path_steps"] == 0

    def test_estimator_refusal_is_3(self, tmp_path, capsys, monkeypatch):
        # U is identically zero, so every space increment of U is zero and
        # the Hölder estimator refuses the simulated table; the command's
        # own refusal of a zero U, before simulating, is lifted to get there
        monkeypatch.setattr(cli, "_refuse_zero_u", lambda cfg, command: None)
        cfg = write(tmp_path, BENCH.replace("u0 = 0.5", "u0 = 0").replace(
            "[solver]\n", "[solver]\nspace_lags = 1, 2, 3, 5, 8\nstats_after = 0.1\n"))
        out = tmp_path / "h"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 3
        message = "degenerate increment table: zero moments at some lag"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["command"] == "holder"
        assert runtime["status"] == "error" and runtime["error"] == message
        assert runtime["path_steps"] == 4 * 200
        assert runtime["files"] == []

    # what the density and invariant estimators would refuse; invariant_control
    # with t_final 2 records 0, 0.5, ..., 2, so 4 times after the burn-in
    @pytest.mark.parametrize("command, config, edits, flags, key, message", [
        ("density", "density_control.ini",
         {"record_interval = 5e-2": "record_interval = 5e-2\nprobe_sites ="}, [],
         "probe_sites", "density needs at least one probe site"),
        ("density", "density_control.ini", {}, ["--paths", "10"], None,
         "density test needs >= 2000 samples, got 10"),
        ("invariant", "invariant_control.ini",
         {"record_interval = 0.25": "record_interval = 0.25\nprobe_sites ="}, [],
         "probe_sites", "invariant needs at least one probe site"),
        ("invariant", "invariant_control.ini",
         {"t_final = 12.0": "t_final = 2", "record_interval = 0.25": "record_interval = 0.5"},
         ["--paths", "8"], "record_interval",
         "only 4 recorded times after burn-in for 4 windows; "
         "lengthen the run or refine the record grid"),
        ("invariant", "invariant_control.ini", {}, ["--paths", "3"], None,
         "the site KS critical value at 3 paths is 1.109, which no KS statistic exceeds; "
         "stationarity needs more paths"),
    ], ids=["density-no-site", "density-few-paths", "invariant-no-site",
            "invariant-coarse-records", "invariant-few-paths"])
    def test_estimator_input_refused_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                       command, config, edits, flags, key,
                                                       message):
        text = (CONFIG_DIR / config).read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        if key is None:
            where = f"{cfg}: --paths / [run] n_paths"
        else:
            line = [line.split(" =")[0] for line in text.splitlines()].index(key) + 1
            where = f"{cfg}:{line}: [solver] {key}"
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and runtime["path_steps"] == 0

    # a zero U stays zero: holder's estimator would refuse its increments,
    # and invariant's site KS test would compare two all-zero samples
    @pytest.mark.parametrize("command, text, flags", [
        ("holder", BENCH.replace("u0 = 0.5", "u0 = 0").replace(
            "[solver]\n", "[solver]\nspace_lags = 1, 2, 3, 5, 8\nstats_after = 0.1\n"), []),
        ("invariant", (CONFIG_DIR / "invariant_control.ini").read_text().replace(
            "u0 = 0.5", "u0 = 0\nv0 = 0.5").replace(
            "record_interval = 0.25", "record_interval = 0.25\nprobe_sites = 0.2, 0.5, 0.8"),
         ["--paths", "8"]),
    ], ids=["holder", "invariant"])
    def test_zero_u_refused_before_simulating(self, tmp_path, capsys, monkeypatch, command,
                                              text, flags):
        cfg = write(tmp_path, text)
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        line = text.splitlines().index("u0 = 0") + 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:{line}: [model] u0: {command} tests U, and u0 is zero on the grid\n")
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and runtime["path_steps"] == 0

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_unusable_output_directory_is_2(self, tmp_path, capsys, monkeypatch, via,
                                            under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under_file else blocker
        monkeypatch.setattr(cli, "simulate_path", None)
        if via == "--out":
            cfg, flags, where = write(tmp_path, BENCH), ["--out", str(out)], "--out"
        else:
            text = BENCH.replace("n_paths = 4\n", f"n_paths = 4\noutput_dir = {out}\n")
            cfg, flags = write(tmp_path, text), []
            line = text.splitlines().index(f"output_dir = {out}") + 1
            where = f"{cfg}:{line}: [run] output_dir"
        assert main(["simulate", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: cannot make the output directory: ")
        assert "Traceback" not in err and str(out) in err
        assert blocker.read_text() == "kept\n"

    def test_blowup_is_3(self, tmp_path, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise SimulationBlowup("non-finite state at step 3 (t = 0.003) on path 0")
        monkeypatch.setattr(cli, "simulate_path", blow_up)
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "error: non-finite state at step 3" in capsys.readouterr().err
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and "step 3" in runtime["error"]

    def test_crash_is_3_and_not_a_failed_check(self, tmp_path, capsys, monkeypatch):
        def crash(cfg, out_dir, meter):
            raise RuntimeError("unexpected")
        monkeypatch.setitem(cli.COMMANDS, "simulate", (crash, "crashes"))
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "c"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and err.endswith("error: RuntimeError: unexpected\n")
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and runtime["error"] == "RuntimeError: unexpected"

    def test_failed_verdict_is_1(self, tmp_path, capsys, monkeypatch):
        small_kernel_check(monkeypatch, lattice=4, sweep_points=3)
        monkeypatch.setattr(analysis, "KERNEL_CROSS_TOL", 0.0)
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "k"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 1
        assert "[FAIL] kernel-cross-representation" in capsys.readouterr().out
        _, _, rows = read_csv(out / "verdicts.csv")
        by_name = {row[0]: row[2] for row in rows}
        assert by_name["kernel-cross-representation"] == "false"
        assert by_name["kernel-mass-conservation"] == "true"
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "checks-failed" and "error" not in runtime

    def test_atom_control_fails_density(self, tmp_path):
        # sigma = 0: all paths identical, the one-point law is a point mass
        cfg = write(tmp_path, ATOM)
        out = tmp_path / "d"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 1
        _, columns, rows = read_csv(out / "density_summary.csv")
        assert float(rows[0][columns.index("max_cdf_jump")]) == 1.0


class TestSmallChecks:
    def test_kernel_check_passes(self, tmp_path, monkeypatch):
        small_kernel_check(monkeypatch, lattice=6, sweep_points=3)
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "k"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "kernel_check.csv")
        assert columns == ["measure", "parameter", "value"]
        measures = {row[0] for row in rows}
        assert "cross-representation-max-diff" in measures
        assert "space-increment-ratio" in measures

    def test_noise_check_passes(self, tmp_path, monkeypatch):
        small_noise_check(monkeypatch)
        cfg = write(tmp_path, BENCH)
        out = tmp_path / "n"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "noise_check.csv")
        assert len(rows) == 10
        assert all(row[columns.index("pass")] == "true" for row in rows)

    def test_holder_writes_both_directions(self, tmp_path):
        path = write(tmp_path, """\
[model]
n = 64
m1 = 1.0
a1 = 1.0
sigma1 = 0.5
u0 = 0.5

[solver]
dt = 1e-3
t_final = 0.3
stats_after = 0.1
space_lags = 1, 2, 3, 5, 8, 12, 16, 24, 32
time_lags = 1, 2, 3, 5, 8, 12, 16, 24, 32
record_interval = 5e-3

[holder]
band_space = 0.05, 0.95
band_time = 0.05, 0.95
""", "holder.ini")
        out = tmp_path / "h"
        assert main(["holder", "--config", path, "--out", str(out),
                     "--paths", "20"]) == 0
        _, columns, rows = read_csv(out / "holder.csv")
        assert [row[0] for row in rows] == ["space", "time"]
        exps = [float(row[columns.index("exponent")]) for row in rows]
        assert all(0.05 < e < 0.95 for e in exps)
        _, _, moments = read_csv(out / "holder_moments.csv")
        assert len(moments) == 18

    def test_extinction_supercritical_passes(self, tmp_path):
        cfg = write(tmp_path, """\
[model]
n = 16
m1 = 0.3
a1 = 1.0
sigma1 = 1.0
u0 = 0.5

[solver]
dt = 2e-3
t_final = 6.0

[run]
n_paths = 80

[extinction]
window_start = 2.0
""")
        out = tmp_path / "x"
        assert main(["extinction", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "extinction.csv")
        assert float(rows[-1][columns.index("mean_log_mass")]) < -1.0
        _, vcol, vrows = read_csv(out / "verdicts.csv")
        by_name = {row[0]: row for row in vrows}
        # slope verdict reports the rate bound sup m - inf sigma^2 / 2
        assert float(by_name["log-mass-decay-slope"][vcol.index("threshold")]) == -0.2

    def test_invariant_equilibrium_passes(self, tmp_path):
        cfg = write(tmp_path, """\
[model]
n = 32
m1 = 1.0
a1 = 1.0
b1 = 0.3
sigma1 = 0.5
m2 = 0.8
a2 = 1.0
b2 = 0.2
sigma2 = 0.4
u0 = 0.5
v0 = 0.4

[solver]
dt = 2e-3
t_final = 16.0
record_interval = 0.1

[noise]
master_seed = 23

[run]
n_paths = 80
""")
        out = tmp_path / "inv"
        assert main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "stationarity.csv")
        assert len(rows) == 5
        _, wcol, wrows = read_csv(out / "invariant_windows.csv")
        assert len(wrows) == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "lvfield" in capsys.readouterr().out


def lvfield_subprocess(code: str, **env_changes) -> str:
    """stdout of a fresh interpreter running code with lvfield importable;
    an env value of None removes the variable."""
    src = str(Path(lvfield.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_scipy_stats_unloaded():
    # no command imports scipy: the KS statistic and the density KDE are numpy
    code = ("import sys, numpy as np, lvfield.cli\n"
            "from lvfield.analysis import density_smoke_test\n"
            "from lvfield.statutil import ks_statistic\n"
            "ks_statistic([0.1, 0.3, 0.3], [0.2, 0.3])\n"
            "density_smoke_test(np.geomspace(0.1, 1.0, 2000))\n"
            f"{SCIPY_LOADED}")
    assert lvfield_subprocess(code) == "[]"


def test_simulate_run_leaves_scipy_unloaded(tmp_path):
    config = ROOT / "perfbench" / "configs" / "mild_audit_spectral.ini"
    run = f"assert main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0"
    code = f"import sys\nfrom lvfield.cli import main\n{run}\n{SCIPY_LOADED}"
    assert lvfield_subprocess(code) == "[]"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a run_ensemble on two or more workers imports the process pool
    code = "import sys, lvfield.cli\nprint('multiprocessing' in sys.modules)"
    assert lvfield_subprocess(code) == "False"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_set(preset):
    code = f"import os, lvfield\nprint([os.environ[name] for name in {BLAS_THREADS!r}])"
    shown = lvfield_subprocess(code, **{name: preset for name in BLAS_THREADS})
    assert shown == str([preset or "1"] * 3)
