"""Every public library function and class has a caller outside the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lvfield"


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def _callers():
    # Package re-exports in __init__.py are no callers.
    sources = [p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
               if p != PACKAGE / "__init__.py"]
    return {p: p.read_text().splitlines() for p in sources}


CALLERS = _callers()
DEFINITIONS = list(_definitions())


@pytest.mark.parametrize("path,node", DEFINITIONS,
                         ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS])
def test_named_outside_its_definition(path, node):
    pattern = re.compile(rf"\b{node.name}\b")
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    own = range(first - 1, node.end_lineno)
    used = any(pattern.search(line)
               for source, lines in CALLERS.items()
               for i, line in enumerate(lines)
               if not (source == path and i in own))
    assert used, f"{path.name}:{node.lineno} {node.name} has no caller in src/, scripts/ or perfbench/"
