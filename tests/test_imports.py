"""No module in the package imports a name it never uses.

No linter ships with the project, so this parses each module with ``ast``.
The re-export modules are exempt: importing is their job.
"""

import ast
from pathlib import Path

import pytest

import romandom

PACKAGE = Path(romandom.__file__).parent
REEXPORTS = {"__init__.py", "kernels.py"}
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
