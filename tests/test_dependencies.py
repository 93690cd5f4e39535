"""numpy is the package's only runtime dependency."""

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


def test_declared_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
