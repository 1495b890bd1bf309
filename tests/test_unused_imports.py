"""Every imported name is read somewhere in its module, and every
module-level name of ``src/`` is read or exported.

An ``ast`` scan of ``src/``, ``tests/`` and ``scripts/``: a name that an
``import`` binds and no expression of the same file reads is dead weight
that hides what a module depends on.  A name listed in the module's
``__all__`` is a re-export and counts as read; ``from __future__`` imports
are directives, not names.  ``perfbench/`` is left out: its setup probe
imports the package only for the import's cost.

A function, class or variable that a module of ``src/`` defines at its top
level is dead when the module does not export it in ``__all__`` and no
code in ``src/``, ``scripts/`` or ``perfbench/`` reads it, by name or as
an attribute; tests alone do not keep a name alive.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for folder in ("src", "tests", "scripts")
               for p in (ROOT / folder).rglob("*.py"))
READERS = sorted(p for folder in ("src", "scripts", "perfbench")
                 for p in (ROOT / folder).rglob("*.py"))


def exports(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    return {e.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in ast.walk(node.value)
            if isinstance(e, ast.Constant) and isinstance(e.value, str)}


def reads(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


@functools.cache
def readers_reads() -> set[str]:
    """Every name that ``src/``, ``scripts/`` or ``perfbench/`` reads."""
    return set().union(*(reads(ast.parse(p.read_text())) for p in READERS))


def dead_names(source: str, read: set[str]) -> list[str]:
    """Top-level names of ``source`` that are neither exported nor in ``read``."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    keep = exports(tree) | read | {"__all__"}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in keep)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = exports(tree)
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


def test_the_scan_sees_a_dead_name():
    source = ("__all__ = ['f']\n"
              "def f(): return _used\n"
              "_used = 1\n_dead: int = 2\nclass Dead: pass\n")
    module_reads = reads(ast.parse(source))
    assert dead_names(source, module_reads) == ["Dead (line 5)", "_dead (line 4)"]
    assert dead_names(source, module_reads | reads(ast.parse("x.Dead\n_dead()\n"))) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_names(path):
    assert dead_names(path.read_text(), readers_reads()) == []
