"""No module in the package imports a name it never uses, and no
module-level name of the package goes unused by the package, its tests and
its benchmark.

No linter ships with the project, so this parses each module with ``ast``.
The package's ``__init__.py`` is exempt from the import guard: re-exporting
is its job.
"""

import ast
from pathlib import Path

import pytest

import romandom

PACKAGE = Path(romandom.__file__).parent
REEXPORTS = {"__init__.py"}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in REEXPORTS)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# -- dead names ------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
DEAD_NAME_EXEMPT = {"__version__"}


def module_level_names(source: str) -> list[str]:
    """Functions, classes and assigned names at the top of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def referenced_names(source: str) -> set[str]:
    """Names read, attributes looked up and names imported."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_the_guard_sees_a_dead_name():
    source = "A = 1\nB, C = 2, 3\ndef f():\n    return B\nclass K:\n    pass\n"
    assert module_level_names(source) == ["A", "B", "C", "f", "K"]
    assert referenced_names(source) == {"B"}


def test_every_module_level_name_is_used():
    used = set().union(*(referenced_names(p.read_text()) for p in SOURCES))
    dead = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "romandom").glob("*.py"))
        for name in module_level_names(path.read_text())
        if name not in used and name not in DEAD_NAME_EXEMPT
    ]
    assert dead == []
