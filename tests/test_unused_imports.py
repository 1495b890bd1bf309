"""Every imported name is read somewhere in its module.

An ``ast`` scan of ``src/``, ``tests/`` and ``scripts/``: a name that an
``import`` binds and no expression of the same file reads is dead weight
that hides what a module depends on.  A name listed in the module's
``__all__`` is a re-export and counts as read; ``from __future__`` imports
are directives, not names.  ``perfbench/`` is left out: its setup probe
imports the package only for the import's cost.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for folder in ("src", "tests", "scripts")
               for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
