"""Every public library function and class, and every public field, method
and property of a public class, has a reader outside the tests."""

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


def _members():
    """(path, class, name, member) of each public field (an annotated name),
    method or property of a public class."""
    for path, cls in _definitions():
        if not isinstance(cls, ast.ClassDef):
            continue
        for member in cls.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            elif isinstance(member, ast.FunctionDef):
                name = member.name
            else:
                continue
            if not name.startswith("_"):
                yield path, cls, name, member


def _callers():
    # Package re-exports in __init__.py are no callers.
    sources = [p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
               if p != PACKAGE / "__init__.py"]
    return {p: p.read_text().splitlines() for p in sources}


CALLERS = _callers()
DEFINITIONS = list(_definitions())
MEMBERS = list(_members())


def _named_outside(pattern, path, node) -> bool:
    """Whether pattern matches a line of src/, scripts/ or perfbench/ outside
    node's own lines (its decorators included)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    own = range(first - 1, node.end_lineno)
    return any(pattern.search(line)
               for source, lines in CALLERS.items()
               for i, line in enumerate(lines)
               if not (source == path and i in own))


@pytest.mark.parametrize("path,node", DEFINITIONS,
                         ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS])
def test_named_outside_its_definition(path, node):
    assert _named_outside(re.compile(rf"\b{node.name}\b"), path, node), \
        f"{path.name}:{node.lineno} {node.name} has no caller in src/, scripts/ or perfbench/"


@pytest.mark.parametrize("path,cls,name,member", MEMBERS,
                         ids=[f"{p.stem}.{c.name}.{n}" for p, c, n, _ in MEMBERS])
def test_member_read_outside_its_definition(path, cls, name, member):
    # a member is read as an attribute, .name, anywhere but its own lines;
    # its class's other methods count
    assert _named_outside(re.compile(rf"\.{name}\b"), path, member), \
        (f"{path.name}:{member.lineno} {cls.name}.{name} is read nowhere in src/, "
         "scripts/ or perfbench/")


def test_verdicts_are_built_in_analysis_only():
    # every check's rule, statistic and threshold lives in analysis.py
    builders = [f"{path.name}:{i + 1}" for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "analysis.py"
                for i, line in enumerate(path.read_text().splitlines()) if "Verdict(" in line]
    assert not builders, f"Verdict built outside analysis.py at {', '.join(builders)}"


def test_library_reads_no_environment_variable():
    # every settable value is a config key or a flag; the BLAS thread defaults
    # __init__.py writes with os.environ.setdefault read nothing
    read = re.compile(r"\b(environ\.get|getenv|environ\[)")
    readers = [f"{path.name}:{i + 1}" for path in sorted(PACKAGE.glob("*.py"))
               for i, line in enumerate(path.read_text().splitlines()) if read.search(line)]
    assert not readers, f"environment variable read at {', '.join(readers)}"
