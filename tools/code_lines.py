"""Count the code lines of the ginforge package, module by module.

A code line is a physical line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count, and an expression that spans
several lines counts each of them.

Run from the repository root:

    python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/ginforge.  It prints one line per module, then the
total, as code lines and total lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    root = Path(argv[0] if argv else "src/ginforge")
    totals = [0, 0]
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts = code_lines(source), len(source.splitlines())
        totals = [a + b for a, b in zip(totals, counts)]
        print("%-20s %5d %5d" % (path.name, *counts))
    print("%-20s %5d %5d" % ("total", *totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
