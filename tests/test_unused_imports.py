"""No ``ewfs`` module and no module under ``tests/`` imports a name it never uses.

A stdlib ``ast`` check standing in for a linter's unused-import rule: every
name an ``import`` or ``from ... import`` binds in a module, at any depth,
must be read somewhere in that module, or be listed in its ``__all__``.
``from __future__`` imports are exempt, and so, as for the linter, is an
import on a line marked ``# noqa: F401`` (an import made for its effect).
"""

import ast
from pathlib import Path

import pytest

import ewfs

MODULES = sorted(Path(ewfs.__file__).resolve().parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # A listed name, whether ``__all__`` is a literal or derived from one.
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os, sys as system\n"
        "from math import pi, tau\nprint(tau)\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "pi (line 3)", "system (line 2)"]
    assert _unused_imports("import os.path\nos.sep\n__all__ = ['pi']\nfrom math import pi\n") == []
    assert _unused_imports("from math import pi, tau\n__all__ = sorted(['pi'])\n") == ["tau (line 1)"]
    assert _unused_imports("import os  # noqa: F401\nimport sys  # noqa: E402\n") == ["sys (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.name)
def test_no_test_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {
        "__init__.py", "__main__.py", "cli.py", "measurement.py", "perspectives.py",
        "protocol.py", "qcore.py", "reasoning.py",
    }
