"""End-to-end CLI runs: files, provenance headers, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvfield
from lvfield import cli
from lvfield.cli import main
from lvfield.solver import SimulationBlowup

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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

[density]
time = 0.1
site = 0.5
"""


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

    def test_seed_override_changes_bytes_and_hash(self, tmp_path):
        cfg = write(tmp_path, BENCH)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "8"])
        a = json.loads((tmp_path / "a" / "snapshots.ndjson").read_text().splitlines()[0])
        b = json.loads((tmp_path / "b" / "snapshots.ndjson").read_text().splitlines()[0])
        assert a["config_hash"] != b["config_hash"]
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


class TestOutputResolution:
    def test_env_var_used_without_flag(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, BENCH)
        monkeypatch.setenv("LVFIELD_OUT", str(tmp_path / "env"))
        assert main(["ensemble", "--config", cfg]) == 0
        assert (tmp_path / "env" / "ensemble.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, BENCH)
        monkeypatch.setenv("LVFIELD_OUT", str(tmp_path / "env"))
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "ensemble.csv").exists()
        assert not (tmp_path / "env").exists()


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
        assert f"{flag} must be" in capsys.readouterr().err
        assert not (out / "verdicts.csv").exists()

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "[model]\nu0 = 1.0\n[solver]\ndt = soon\n")
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ":4:" in err and "dt" in err

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
        ("space_lags = 4, 5, 6, 7, 8", "space_lags: lags span 0.30 decades"),
        ("space_lags = 1, 2, 3, 5, 8\ntime_lags = 1, 2", "time_lags: need at least 5 lags"),
    ])
    def test_holder_with_too_few_lags_is_2(self, tmp_path, capsys, monkeypatch, lags, message):
        cfg = write(tmp_path, BENCH.replace("[solver]\n", f"[solver]\n{lags}\nstats_after = 0.1\n"))
        # refused before the ensemble runs
        monkeypatch.setattr(cli, "run_ensemble", None)
        out = tmp_path / "h"
        assert main(["holder", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["status"] == "error" and message in runtime["error"]

    def test_estimator_refusal_is_3(self, tmp_path, capsys):
        # 10 paths are too few samples for the density test, which refuses them
        out = tmp_path / "d"
        assert main(["density", "--config", str(CONFIG_DIR / "density_control.ini"),
                     "--paths", "10", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs >= 2000 samples, got 10" in err
        assert not (out / "verdicts.csv").exists()
        runtime = json.loads((out / "runtime.json").read_text())
        assert runtime["command"] == "density"
        assert runtime["status"] == "error"
        assert "needs >= 2000 samples, got 10" in runtime["error"]
        assert runtime["files"] == []

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

    def test_failed_verdict_is_1(self, tmp_path, capsys):
        cfg = write(tmp_path, BENCH + "\n[kernel_check]\ncross_tol = 0\n"
                    "lattice = 4\nn_sweep = 3\n")
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
    def test_kernel_check_passes(self, tmp_path):
        cfg = write(tmp_path, BENCH + "\n[kernel_check]\nlattice = 6\nn_sweep = 3\n")
        out = tmp_path / "k"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "kernel_check.csv")
        assert columns == ["measure", "parameter", "value"]
        measures = {row[0] for row in rows}
        assert "cross-representation-max-diff" in measures
        assert "space-increment-ratio" in measures

    def test_noise_check_passes(self, tmp_path):
        cfg = write(tmp_path, BENCH + "\n[noise_check]\nn_replications = 500\n"
                    "n_steps = 5\nn_cells = 8\nvariance_tol = 0.2\n")
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time; only the estimators that use
    # it load it
    src = str(Path(lvfield.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lvfield.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
