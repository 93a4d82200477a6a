"""Exact oracle of the elim_validate workload.

Two checks, both outside the timed region:

* At the default seed every output must equal the golden record committed in
  ``golden/elim_validate-seed1.txt``.
* At any seed, the first item of each polynomial kind is recomputed with
  sympy's Groebner engine, and the first sufficiency verdict with
  cofactor-expansion determinants over ``Fraction``.  No radical
  certification may report ``fail``.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import product

DEFAULT_SEED = 1
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "elim_validate-seed1.txt")


def parse_polys(text: str) -> list:
    """Inverse of ``workloads.poly_text`` joined by `` | ``."""
    polys = []
    for chunk in text.split(" | "):
        terms = {}
        for term in chunk.split():
            e, c = term.split(":")
            terms[tuple(int(a) for a in e.split(","))] = Fraction(c)
        polys.append(terms)
    return polys


def parse_matrix(text: str) -> list:
    """Inverse of ``workloads.matrix_text``: rows of coefficient tuples."""
    return [[tuple(Fraction(c) for c in form.split(",")) for form in row.split()] for row in text.split(" / ")]


def _det(m: list) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * a * _det(minor)
    return total


def sufficiently_generic(rows: list) -> bool:
    """All leading principal minors of every selection matrix are nonzero."""
    n, N = len(rows), len(rows[0])
    for k in range(1, n + 1):
        for choice in product(range(N), repeat=k):
            m = [[rows[r][choice[r]][i] for r in range(k)] for i in range(k)]
            if _det(m) == 0:
                return False
    return True


class _Sympy:
    """Ideal arithmetic in sympy, on term dictionaries in n variables."""

    def __init__(self, sympy, n: int):
        self.sp = sympy
        self.xs = sympy.symbols("x1:%d" % (n + 1))
        self.t = sympy.Symbol("t_aux")

    def expr(self, terms: dict):
        sp = self.sp
        return sp.Add(
            *[
                sp.Rational(c.numerator, c.denominator) * sp.Mul(*[x**a for x, a in zip(self.xs, e)])
                for e, c in terms.items()
            ]
        )

    def basis(self, exprs, order: str = "grevlex") -> list:
        """Reduced basis as sorted monic term lists: a canonical form of the ideal."""
        out = []
        for g in self.sp.groebner(exprs, *self.xs, order=order).exprs:
            poly = self.sp.Poly(g, *self.xs)
            lc = poly.LC(order=order)
            scale = Fraction(int(lc.p), int(lc.q))
            out.append(sorted((e, Fraction(int(c.p), int(c.q)) / scale) for e, c in poly.terms()))
        return sorted(out)

    def eliminate_t(self, exprs) -> list:
        gb = self.sp.groebner(exprs, self.t, *self.xs, order="lex")
        return [g for g in gb.exprs if not g.has(self.t)]

    def intersect(self, A, B) -> list:
        t = self.t
        return self.eliminate_t([t * f for f in A] + [(1 - t) * g for g in B])

    def saturate(self, gens) -> list:
        """I : (x1..xn)^infinity as the intersection of the I : x_i^infinity."""
        result = None
        for x in self.xs:
            part = self.eliminate_t(list(gens) + [1 - self.t * x])
            result = part if result is None else self.intersect(result, part)
        return result


def _sympy_agrees(sympy, item, output: str) -> bool:
    kind, n = item[0], item[1]
    S = _Sympy(sympy, n)
    found = parse_polys(output.split(" ", 1)[1])
    gens = [S.expr(dict(p)) for p in item[2]]
    if kind == "lex_gb":
        # the output must be the reduced lex basis itself
        return sorted(sorted(p.items()) for p in found) == S.basis(gens, "lex")
    if kind == "intersect":
        want = S.intersect(gens, [S.expr(dict(p)) for p in item[3]])
    else:
        want = S.saturate(gens)
    return S.basis([S.expr(p) for p in found]) == S.basis(want)


def check_elim(items, outputs, seed) -> list:
    ok = [True] * len(items)
    if seed == DEFAULT_SEED:
        with open(GOLDEN) as fh:
            golden = fh.read().splitlines()
        if len(golden) != len(outputs):
            return [False] * len(items)
        ok = [a == b for a, b in zip(outputs, golden)]
    try:
        import sympy
    except ImportError:
        print("warning: sympy is not installed; elim_validate skips its recomputation", file=sys.stderr)
        sympy = None
    recomputed = set()
    for k, (item, out) in enumerate(zip(items, outputs)):
        kind = item[0]
        if kind == "radical_cert":
            ok[k] = ok[k] and out in ("radical_cert pass", "radical_cert skipped")
        elif kind in recomputed:
            continue
        elif kind == "generic_matrix":
            recomputed.add(kind)
            _, verdict, rows = out.split(" ", 2)
            ok[k] = ok[k] and verdict == str(sufficiently_generic(parse_matrix(rows)))
        elif sympy is not None:
            recomputed.add(kind)
            ok[k] = ok[k] and _sympy_agrees(sympy, item, out)
    return ok
