"""Source hygiene: every name a ginforge module imports is used in it, and
every private module-level function or class is referenced somewhere in the
package.

Package ``__init__`` modules are skipped when looking for unused imports
(their imports are re-exports), and so are ``from __future__`` imports.  A
name counts as used when it appears as an identifier anywhere in the module,
including inside a string annotation.  A private definition counts as
referenced when its name appears as an identifier, an attribute or an
imported name in any module of the package.
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


def private_definitions(source: str) -> dict:
    """name -> line of every module-level ``_name`` function or class."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def referenced_names(source: str) -> set:
    tree = ast.parse(source)
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unreferenced_private_definitions(sources: dict) -> list:
    """(module, line, name) of the private definitions no module mentions."""
    referenced = set().union(*(referenced_names(text) for text in sources.values()))
    return sorted(
        (module, line, name)
        for module, text in sources.items()
        for name, line in private_definitions(text).items()
        if name not in referenced
    )


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


def test_scanner_finds_unreferenced_private_definitions():
    sources = {
        "a.py": (
            "def _dead():\n    pass\n"
            "def _called():\n    pass\n"
            "class _Annotated:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _called()\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .c import _imported\n"
            "def f(x: '_Annotated'):\n    return a._by_attribute\n"
        ),
        "c.py": (
            "def _imported():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "class _Unused:\n    pass\n"
        ),
    }
    expected = [("a.py", 1, "_dead"), ("c.py", 5, "_Unused")]
    assert unreferenced_private_definitions(sources) == expected


def test_no_unreferenced_private_definitions_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = ["%s:%d %s" % entry for entry in unreferenced_private_definitions(sources)]
    assert not found, "private and never referenced: " + ", ".join(found)
