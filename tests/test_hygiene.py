"""Source hygiene: every name a ginforge module imports is used in it, and
every private module-level function or class is referenced somewhere in the
package.

Package ``__init__`` modules are skipped when looking for unused imports
(their imports are re-exports), and so are ``from __future__`` imports.  A
name counts as used when it appears as an identifier anywhere in the module,
including inside a string annotation.  A private definition counts as
referenced when its name appears as an identifier, an attribute or an
imported name in any module of the package.  Every defaulted parameter of a
package function is passed by some call in the package, its tests or the
benchmark; a default that no call overrides is a constant in disguise.
Every public function or method has a caller in the package (outside its own
definition and the package ``__init__``) or in the benchmark, unless
``TEST_ONLY`` names it with the reason it stays public; a method counts as
called only through an attribute (``obj.m``, ``Cls.m``), and a name that a
function binds (a parameter, or an assignment, loop or comprehension target)
calls nothing, so a local variable of the same name calls neither.  In
``groebner.py`` and ``distraction.py`` only ``FRACTION_EDGES`` mention
``Fraction``: the places where a result leaves the integer core.  Every
function and method the benchmark's tracer wraps exists.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ginforge"
CALLER_DIRS = ("src", "tests", "perfbench")


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


def _used_names(tree: ast.AST, local: set = frozenset()) -> set:
    """The identifiers tree mentions, string annotations included, except
    the ``Name`` nodes in ``local``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node not in local:
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


def _referenced(tree: ast.AST, local: set = frozenset()) -> set:
    names = _used_names(tree, local)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def referenced_names(source: str) -> set:
    return _referenced(ast.parse(source))


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


def defaulted_parameters(source: str) -> list:
    """(line, callee, name, position) of every parameter with a default.

    ``callee`` is the name a call uses: the function name, or the class name
    for ``__init__``.  ``position`` counts the arguments a call passes before
    it (``self`` and ``cls`` excluded); None for a keyword-only parameter.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = int(cls is not None and not static)
                callee = cls if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((child.lineno, callee, positional[index].arg, index - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((child.lineno, callee, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def passed_parameters(sources: list) -> dict:
    """callee name -> (positions, keywords) passed by the calls in sources;
    a call with ``*args`` or ``**kwargs`` passes every parameter (None)."""
    passed: dict = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None or passed.get(name, ()) is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                passed[name] = None
                continue
            positions, keywords = passed.setdefault(name, (set(), set()))
            positions.update(range(len(node.args)))
            keywords.update(k.arg for k in node.keywords)
    return passed


def never_passed_defaults(sources: dict, callers: list) -> list:
    """(module, line, callee, name) of the defaulted parameters that no call
    in ``callers`` passes, by position or by keyword."""
    passed = passed_parameters(callers)
    found = []
    for module, text in sources.items():
        for line, callee, name, position in defaulted_parameters(text):
            value = passed.get(callee, (set(), set()))
            if value is not None and position not in value[0] and name not in value[1]:
                found.append((module, line, callee, name))
    return sorted(found)


def test_scanner_finds_defaults_no_call_passes():
    sources = {
        "a.py": (
            "def f(x, y=1, *, z=2):\n    pass\n"
            "def g(x=0):\n    pass\n"
            "class C:\n"
            "    def __init__(self, a, b=None):\n        pass\n"
            "    def m(self, c=3, d=4):\n        pass\n"
            "    @staticmethod\n"
            "    def s(e=5):\n        pass\n"
            "def h(w=6):\n    pass\n"
        ),
    }
    callers = [
        "f(1, 2)\nC(1, b=2)\nobj.m(1)\nC.s()\nh(*args)\ng()\n",
    ]
    expected = [("a.py", 1, "f", "z"), ("a.py", 3, "g", "x"), ("a.py", 8, "m", "d"), ("a.py", 11, "s", "e")]
    assert never_passed_defaults(sources, callers) == expected


def test_every_default_is_passed_somewhere():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    found = ["%s:%d %s(%s)" % entry for entry in never_passed_defaults(sources, callers)]
    assert not found, "defaulted parameters that no call passes: " + ", ".join(found)


# Public functions that only tests call (or none), and why each stays public.
TEST_ONLY = {
    "apply_linear_change": "the coordinate change of one polynomial, exported by the package",
    "substitute_variable": "the section of one polynomial, exported by the package and timed by the benchmark",
    "as_polynomial": "the polynomial of a form, part of the documented LinearForm API",
    "distract_term": "the paper's distraction of one term, next to distract_ideal",
    "restrict_matrix": "the paper's restriction of a distraction matrix to fewer variables",
    "normal_form": "ideal membership, part of the documented PolyIdeal API",
    "sstable_intersection_form": "the paper's intersection formula for a principal strongly stable ideal",
    "rref": "exported by the package as the canonical row space",
    "compare": "the comparison of the documented OrderingSpec API",
    "identity": "the identity constructor of the documented QMatrix API",
    "monic": "normalization of the documented Polynomial API",
    "zero": "the zero constructor of the documented Polynomial API",
    "passed": "the verdict of the documented CheckReport API",
}


def _local_names(tree: ast.AST) -> set:
    """The ``Name`` nodes of tree that name what the function around them
    binds: a parameter, or an assignment, loop or comprehension target."""
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
            bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
            bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
            local.update(n for n in names if n.id in bound)
    return local


def _calls(tree: ast.AST) -> set:
    """The names tree references, less the local variables of its functions,
    and every attribute again with a leading dot: a method, found as
    ``.name``, is called only through an attribute."""
    attributes = {"." + node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _referenced(tree, _local_names(tree)) | attributes


def public_functions(source: str) -> tuple[dict, set]:
    """(name -> line of every public module-level function and, as ``.name``,
    public method of a module-level class, the ``_calls`` the module makes
    outside each such definition)."""
    found, used = {}, set()
    for node in ast.parse(source).body:
        units, prefix = [node], ""
        if isinstance(node, ast.ClassDef):
            used |= set().union(*map(_calls, node.bases + node.decorator_list))
            units, prefix = node.body, "."
        for unit in units:
            own = set()
            if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef)) and not unit.name.startswith("_"):
                own = {prefix + unit.name}
                found[prefix + unit.name] = unit.lineno
            used |= _calls(unit) - own
    return found, used


def uncalled_public_functions(sources: dict, callers: list) -> list:
    """(module, line, name) of the public functions that neither another
    definition in ``sources`` nor any of ``callers`` calls."""
    scanned = {module: public_functions(text) for module, text in sources.items()}
    used = set().union(*(u for _, u in scanned.values()), *(_calls(ast.parse(text)) for text in callers))
    return sorted(
        (module, line, name.lstrip("."))
        for module, (found, _) in scanned.items()
        for name, line in found.items()
        if name not in used
    )


def test_scanner_finds_public_functions_without_callers():
    sources = {
        "a.py": (
            "def lonely(x):\n    return lonely(x - 1)\n"
            "def helper():\n    pass\n"
            "class C(Base):\n"
            "    def used(self):\n        return helper()\n"
            "    def unused(self):\n        return self.unused()\n"
            "    def _private(self):\n        pass\n"
            "    def shadowed(self):\n        pass\n"
            "def rank(m):\n    pass\n"
            "def width(m):\n    pass\n"
        ),
        # a local variable named like a method or a function does not call it,
        # whether a parameter, an assignment, a loop or a comprehension binds it
        "b.py": (
            "from .a import C\n"
            "def caller(c, width):\n"
            "    shadowed = c.used()\n"
            "    for rank in shadowed:\n        pass\n"
            "    return [rank for rank in shadowed], shadowed, width, lambda rank: rank\n"
        ),
    }
    callers = ["from ginforge.b import caller\n"]
    expected = [
        ("a.py", 1, "lonely"),
        ("a.py", 8, "unused"),
        ("a.py", 12, "shadowed"),
        ("a.py", 14, "rank"),
        ("a.py", 16, "width"),
    ]
    assert uncalled_public_functions(sources, callers) == expected


def test_public_functions_have_a_caller_outside_the_tests():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    callers = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    uncalled = uncalled_public_functions(sources, callers)
    found = ["%s:%d %s" % entry for entry in uncalled if entry[2] not in TEST_ONLY]
    assert not found, "public functions with no caller outside the tests: " + ", ".join(found)
    stale = sorted(set(TEST_ONLY) - {name for _, _, name in uncalled})
    assert not stale, "TEST_ONLY names functions that have callers: " + ", ".join(stale)


def _tracing_constant(name: str):
    """The literal value of the one module-level assignment to ``name`` in
    the benchmark's tracer, read without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    copies = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    assert len(copies) == 1
    return ast.literal_eval(copies[0])


def test_benchmark_statement_list_matches_the_verifier():
    # the benchmark names a metric per statement from its own copy of the list;
    # a renamed or reordered statement would silently zero that metric
    from ginforge import checks

    assert _tracing_constant("STATEMENTS") == tuple(checks.STATEMENTS)


def test_every_traced_name_exists():
    # the tracer wraps each (module, attribute) of its TARGETS by a dict lookup;
    # a name a refactor drops would crash a traced benchmark run with a KeyError
    targets = _tracing_constant("TARGETS")
    assert targets
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(owner, cls_name).__dict__, (module_name, attr)
        else:
            assert attr in owner.__dict__, (module_name, attr)


# The only places that may name Fraction, by module: where a result leaves
# the integer core.  In groebner.py that is the monic view of an integer
# basis and normal_form; in distraction.py the LinearForm rows of a matrix,
# built on first read (``__getattr__``), and the public constructor that
# takes them.
FRACTION_EDGES = {"groebner.py": {"_monic", "normal_form"}, "distraction.py": {"__getattr__", "__init__"}}


def fraction_users(source: str) -> set:
    """The module-level functions and methods that mention ``Fraction``, and
    ``<module>`` for a mention outside them; imports do not count."""
    users = set()
    for node in ast.parse(source).body:
        units = node.body if isinstance(node, ast.ClassDef) else [node]
        for unit in units:
            if isinstance(unit, (ast.Import, ast.ImportFrom)) or "Fraction" not in _used_names(unit):
                continue
            users.add(unit.name if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>")
    return users


def test_scanner_finds_fraction_users():
    source = (
        "from fractions import Fraction\n"
        "ONE = Fraction(1)\n"
        "def lift(x) -> 'Fraction':\n    pass\n"
        "def packed(x):\n    return x\n"
        "class C:\n"
        "    def edge(self):\n        return [Fraction(v) for v in self]\n"
    )
    assert fraction_users(source) == {"<module>", "lift", "edge"}


def _fraction_outside_the_edges(module: str) -> list:
    return sorted(fraction_users((SRC / module).read_text()) - FRACTION_EDGES[module])


def test_groebner_uses_fraction_only_at_the_edges_of_the_integer_core():
    outside = _fraction_outside_the_edges("groebner.py")
    assert not outside, "Fraction inside the integer core: " + ", ".join(outside)


def test_distraction_uses_fraction_only_in_the_rows_view_and_the_public_constructor():
    outside = _fraction_outside_the_edges("distraction.py")
    assert not outside, "Fraction inside the integer core: " + ", ".join(outside)


def test_code_line_counter_counts_only_lines_of_code():
    """tools/code_lines.py skips docstrings, comments and blank lines, and
    counts every line of a multi-line expression."""
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    snippet = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""

    return math.gcd(
        x,
        2,
    )


class C:
    """A class docstring."""

    text = """a string that is
not a docstring"""
'''
    # import, def, the four lines of the call, class, and the two lines of the string
    assert code_lines.code_lines(snippet) == 9


def test_bench_pairs_claims_a_gain_by_the_pairs_rule():
    """tools/bench_pairs.py: wins count strict improvements only, quartiles
    are inclusive, and a gain needs nine tenths of the pairs won and a
    median gap wider than the parent's interquartile distance."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def pairs(parent, change):
        return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]

    parent = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75
    faster = [110.0 + k for k in range(10)]
    row = bench_pairs.summary(pairs(parent, faster), "m", True)
    assert row == {
        "parent_median": 104.5,
        "change_median": 114.5,
        "parent_quartiles": [102.25, 106.75],
        "change_quartiles": [112.25, 116.75],
        "parent_iqr": 4.5,
        "change_wins": 10,
        "pairs": 10,
        "gain": True,
    }
    # lower is better: the same numbers are ten losses
    assert bench_pairs.summary(pairs(parent, faster), "m", False)["change_wins"] == 0
    # a tie counts for neither side, and 8 wins of 10 are too few
    mixed = faster[:8] + parent[8:]
    assert bench_pairs.summary(pairs(parent, mixed), "m", True)["change_wins"] == 8
    assert not bench_pairs.summary(pairs(parent, mixed), "m", True)["gain"]
    # nine wins but a median gap inside the parent's interquartile distance
    close = [p + 1 for p in parent[:9]] + [parent[9]]
    row = bench_pairs.summary(pairs(parent, close), "m", True)
    assert row["change_wins"] == 9 and not row["gain"]
