"""numpy is the package's only runtime dependency; the tests' imports are declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lvfield").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert sorted(set(_imported_roots(path)) - ALLOWED) == []


def _names(requirements):
    return [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in requirements]


PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_declared_dependencies_are_numpy_only():
    assert _names(PROJECT["dependencies"]) == ["numpy"]


def test_test_imports_are_declared_in_the_test_extra():
    # the test extra installs on top of the runtime dependencies
    declared = set(_names(PROJECT["dependencies"]))
    declared |= set(_names(PROJECT["optional-dependencies"]["test"]))
    imported = {root for path in (ROOT / "tests").glob("*.py") for root in _imported_roots(path)}
    assert sorted(imported - set(sys.stdlib_module_names) - {"lvfield"} - declared) == []
