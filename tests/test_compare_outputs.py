"""scripts/compare_outputs.py finds two trees' outputs identical or names
what differs, on two tiny configs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"

LOGISTIC = """\
[model]
n = 8
m1 = 1.0
a1 = 1.0
u0 = 0.1

[solver]
dt = 1e-3
t_final = 0.05
snapshot_times = 0.05
record_interval = 0.01
"""

ENSEMBLE = """\
[model]
n = 16
m1 = 1.0
a1 = 1.0
sigma1 = 0.5
u0 = 0.5
v0 = 0.4

[solver]
dt = 1e-3
t_final = 0.02

[noise]
master_seed = 42

[run]
n_paths = 3
"""


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def study():
    return load("compare_outputs", SCRIPT)


def tree(root, logistic=LOGISTIC, ensemble=ENSEMBLE):
    # a checkout of this source with two tiny configs in place of the shipped ones
    (root / "configs").mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    (root / "configs" / "logistic.ini").write_text(logistic)
    (root / "configs" / "benchmark.ini").write_text(ensemble)
    return str(root)


def test_identical_trees_report_no_difference(study, tmp_path, capsys):
    old, new = tree(tmp_path / "old"), tree(tmp_path / "new")
    assert study.main([old, new, "--threads", "0,1", "--work", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].endswith(": 0 differences")
    # both sides wrote more than runtime.json, and into their own directories
    for side in ("old", "new"):
        written = {p.name for p in (tmp_path / "w" / side / "configs_benchmark" / "t1").iterdir()}
        assert "runtime.json" in written and len(written) > 1


def test_changed_numbers_are_named_per_file(study, tmp_path, capsys):
    old = tree(tmp_path / "old")
    new = tree(tmp_path / "new", logistic=LOGISTIC.replace("m1 = 1.0", "m1 = 1.000001"),
               ensemble=ENSEMBLE.replace("master_seed = 42", "master_seed = 43"))
    assert study.main([old, new, "--work", str(tmp_path / "w")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(f": {len(lines) - 1} differences")
    changed = [line for line in lines[:-1] if "largest relative cell change" in line]
    assert changed and all("runtime.json" not in line for line in lines)
    assert any(line.startswith("configs/benchmark.ini --threads 0: ") for line in changed)
    assert any(line.startswith("configs/logistic.ini --threads 0: ") for line in changed)
    # a tiny change of m1 moves the logistic numbers by a tiny relative amount
    worst = [float(line.split("largest relative cell change ")[1].split(",")[0])
             for line in changed if line.startswith("configs/logistic.ini")]
    assert 0 < max(worst) < 1e-3


def test_config_only_in_one_tree_is_reported(study, tmp_path, capsys):
    old, new = tree(tmp_path / "old"), tree(tmp_path / "new")
    (tmp_path / "new" / "configs" / "benchmark.ini").unlink()
    assert study.main([old, new, "--work", str(tmp_path / "w")]) == 1
    assert "configs/benchmark.ini --threads 0: only in OLD" in capsys.readouterr().out


def test_every_shipped_config_has_the_acceptance_command(study):
    catalogue = load("acceptance_catalogue", ROOT / "tests" / "test_acceptance.py").CATALOGUE
    shipped = {f"configs/{row.config}": row.command for row in catalogue}
    assert {c: study.COMMANDS[c] for c in shipped} == shipped
    assert set(study.configs_of(ROOT)) == set(study.COMMANDS)
