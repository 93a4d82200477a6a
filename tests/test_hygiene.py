"""Source hygiene: every name a ginforge module imports is used in it.

Package ``__init__`` modules are skipped (their imports are re-exports), and
so are ``from __future__`` imports.  A name counts as used when it appears as
an identifier anywhere in the module, including inside a string annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ginforge"


def _imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never mentions."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)


def test_scanner_finds_unused_and_reads_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterable as It, Sequence\n"
        "from .x import Thing\n"
        "def f(a: 'Thing') -> It:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Sequence")]


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += ["%s:%d %s" % (path.name, line, name) for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never used: " + ", ".join(found)
