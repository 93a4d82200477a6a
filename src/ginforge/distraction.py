"""Distraction matrices and the distraction operator on terms and ideals.

A distraction matrix assigns to each variable a row of linear forms, eventually
constant (the tail), such that picking one form from each row always spans the
degree-1 part of the ring.  The distraction of a term x_1^{a_1}..x_n^{a_n} is
the product over i of the first a_i forms of row i; it extends to monomial
ideals generator-wise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, islice, product
from math import gcd
from operator import mul
from typing import Iterable

from .groebner import PolyIdeal, intersect
from .monomial import MonomialIdeal, irreducible_decomposition
from .numeric import QMatrix, _rref, clear_denominators, reduce_row
from .polyring import InvalidTransformError, LinearForm, Polynomial, _Substitution

GENERIC_COEFF_BOUND = 1000
GENERIC_REDRAW_LIMIT = 20


class MatrixConstructionError(ValueError):
    """Construction or validation of a distraction matrix failed."""


class NotRadicalError(ValueError):
    """Two selections of one irreducible component span the same subspace:
    the matrix is not radical for the ideal."""


class DistractionMatrix:
    """n rows of N linear forms with the tail rule L[i][j] = L[i][N] for j > N.

    Stored rows are validated at construction: every choice of one form per
    row spans the degree-1 part (the tail rule makes the finitely many stored
    columns cover all infinite selections).  The same walk over the
    selections decides whether L is sufficiently generic, that is whether
    every leading principal minor of every selection is nonzero, which
    implies the span property; ``generic`` keeps that verdict
    (``_walk_selections``).

    The matrix keeps its forms in Z: ``_ints`` holds integer coefficient
    rows over one common denominator ``_den``, and the walk and the product
    map (``_distraction``), the radical test, the point sets and the
    transform and restriction of L read them.  The public constructor clears
    the ``LinearForm`` rows it is given, of kind "custom"; ``make_matrix``,
    ``transform_matrix`` and ``restrict_matrix`` build the matrix from integer
    rows (``_of_ints``), and then ``rows``, the ``LinearForm`` view with
    ``Fraction`` coefficients, is built on first read.  That fill writes one
    value, the same whichever caller computes it.
    """

    __slots__ = ("n", "N", "rows", "kind", "generic", "_ints", "_den")

    def __init__(self, rows: Iterable[Iterable[LinearForm]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise MatrixConstructionError("empty distraction matrix")
        n = len(rows)
        N = len(rows[0])
        if any(len(r) != N for r in rows):
            raise MatrixConstructionError("ragged rows")
        if any(form.n != n for r in rows for form in r):
            raise MatrixConstructionError("linear form of wrong dimension")
        den, ints = clear_denominators(c for r in rows for form in r for c in form.coeffs)
        ints = iter(ints)
        self._fill(tuple(tuple(tuple(islice(ints, n)) for _ in r) for r in rows), den, "custom")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of_ints(cls, ints: tuple, den: int, kind: str) -> "DistractionMatrix":
        """The matrix whose form j of row i is ints[i][j] / den, for integer
        coefficient rows ints, validated as the public constructor validates."""
        L = object.__new__(cls)
        L._fill(ints, den, kind)
        return L

    def _fill(self, ints: tuple, den: int, kind: str) -> None:
        """Validate the integer rows, then set every slot but ``rows``."""
        generic = _walk_selections(ints)
        slots = {"n": len(ints), "N": len(ints[0]), "kind": kind, "generic": generic, "_ints": ints, "_den": den}
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # only an unset slot gets here: the rows of a matrix built by _of_ints
        if name != "rows":
            raise AttributeError(name)
        den = self._den
        rows = tuple(tuple(LinearForm(tuple(Fraction(c, den) for c in v)) for v in row) for row in self._ints)
        object.__setattr__(self, "rows", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError("DistractionMatrix is immutable")

    def entry(self, i: int, j: int) -> LinearForm:
        """L[i][j] with 1-based indices; columns beyond N repeat column N."""
        return self.rows[i - 1][min(j, self.N) - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DistractionMatrix)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return "DistractionMatrix(kind=%r, n=%d, N=%d)" % (self.kind, self.n, self.N)


def _primitive(v) -> tuple:
    g = gcd(*v) or 1
    return tuple(a // g for a in v)


def _walk_selections(rows) -> bool:
    """Whether the square matrix of rows of integer forms is sufficiently generic;
    MatrixConstructionError when some selection of one form per row does not
    span.

    A depth-first walk over the selections, in row order.  Each node reduces
    its form fraction-free against the echelon rows above it, so a prefix is
    eliminated once for all its extensions; forms of a row equal up to a
    positive factor are walked once.  A node pivots on the first nonzero
    entry of its reduced form; a form that reduces to zero ends the walk, as
    its selection does not span.

    While every pivot above a node is diagonal, its reduced form is zero
    before its depth, and its entry at its depth is a nonzero multiple of
    the leading principal minor of size depth + 1 of its selection
    (Bareiss; the forms are scaled to primitive integer rows).  So every
    pivot is diagonal iff every leading principal minor of every selection
    is nonzero: sufficiently generic.  The largest of those minors is the
    determinant of the selection, so a sufficiently generic matrix spans,
    and one walk gives both verdicts.

    When the last row has several distinct forms, its leaves share one
    functional: a form reduced against the n - 1 rows above reduces to c . v
    at the one column they leave free, where c is that column's unit vector
    taken back through the Bareiss steps transposed (c becomes
    pivot * c - (c . row) e_col, without the exact division, which scales c
    by a nonzero factor).  Each leaf is then one dot product, and it only
    needs to be nonzero: a pivot off the diagonal above it has already
    cleared ``generic``.
    """
    choices = [{_primitive(v): None for v in row} for row in rows]
    last = len(choices) - 1
    generic = True

    def walk(depth: int, echelon: list):
        nonlocal generic
        if depth == last and len(choices[depth]) > 1:
            (free,) = set(range(depth + 1)).difference(col for col, _ in echelon)
            c = [int(j == free) for j in range(depth + 1)]
            for col, row in reversed(echelon):
                dot = sum(map(mul, c, row))
                c = [row[col] * a for a in c]
                c[col] -= dot
            if not all(sum(map(mul, c, v)) for v in choices[depth]):
                raise MatrixConstructionError("some selection of one form per row does not span")
            return
        for v in choices[depth]:
            v = reduce_row(v, echelon)
            col = next((j for j, a in enumerate(v) if a), None)
            if col is None:
                raise MatrixConstructionError("some selection of one form per row does not span")
            generic = generic and col == depth
            if depth < last:
                walk(depth + 1, echelon + [(col, v)])

    walk(0, [])
    return generic


def make_matrix(kind: str, n: int, N: int, rng_seed: int | None = None) -> DistractionMatrix:
    """Build an identical, classic or generic distraction matrix.

    identical: L[i][j] = x_i, the identity operator.
    classic:   L[i][j] = x_i - (j-1) x_n for i < n and j < N, row n constantly
               x_n, tail x_i from column N on.
    generic:   uniform random integer coefficients in
               [-GENERIC_COEFF_BOUND, GENERIC_COEFF_BOUND], redrawn
               (at most a fixed number of times) until the span property holds.
    """
    if N < 1:
        raise MatrixConstructionError("tail index must be >= 1")
    if n < 1:
        raise MatrixConstructionError("ring dimension must be >= 1")
    unit = lambda i: tuple(int(k == i) for k in range(n))
    if kind == "identical":
        return DistractionMatrix._of_ints(tuple((unit(i),) * N for i in range(n)), 1, "identical")
    if kind == "classic":
        shifted = lambda i, j: tuple(int(k == i) - j * (k == n - 1) for k in range(n))  # x_i - j x_n
        rows = tuple(tuple(shifted(i, j) for j in range(N - 1)) + (unit(i),) for i in range(n - 1))
        return DistractionMatrix._of_ints(rows + ((unit(n - 1),) * N,), 1, "classic")
    if kind == "generic":
        if rng_seed is None:
            raise MatrixConstructionError("a generic matrix requires a seed")
        rng = random.Random(rng_seed)
        draw = lambda: rng.randint(-GENERIC_COEFF_BOUND, GENERIC_COEFF_BOUND)
        for _ in range(GENERIC_REDRAW_LIMIT):
            rows = tuple(tuple(tuple(draw() for _ in range(n)) for _ in range(N)) for _ in range(n))
            try:
                return DistractionMatrix._of_ints(rows, 1, "generic")
            except MatrixConstructionError:
                continue
        raise MatrixConstructionError("could not draw a valid generic matrix")
    raise MatrixConstructionError("unknown kind %r" % kind)


def is_sufficiently_generic(L: DistractionMatrix) -> bool:
    """True iff every truncated selection together with the trailing
    coordinates spans degree 1; equivalently, all leading principal minors of
    every selection matrix are invertible.  The constructor's walk over the
    selections decides it (``DistractionMatrix``), so this reads its verdict."""
    return L.generic


def transform_matrix(g: QMatrix, L: DistractionMatrix) -> DistractionMatrix:
    """Apply the coordinate change x_j -> sum_i g[i][j] x_i to every entry of
    L: form v becomes g v, on the integer rows of L and of g cleared."""
    if (g.rows, g.cols) != (L.n, L.n):
        raise InvalidTransformError("matrix size does not match form")
    if not g.is_invertible():
        raise MatrixConstructionError("coordinate change matrix is singular")
    den, ints = clear_denominators(chain.from_iterable(g.entries))
    G = [ints[k : k + L.n] for k in range(0, len(ints), L.n)]
    rows = tuple(tuple(tuple(sum(map(mul, r, v)) for r in G) for v in row) for row in L._ints)
    return DistractionMatrix._of_ints(rows, L._den * den, "custom")


def _distraction(L: DistractionMatrix) -> _Substitution:
    """The product map x_i -> row i of L, shared by the terms it distracts,
    on the integer rows of L over their common denominator."""
    return _Substitution(L._ints, L.n, L._den)


def distract_term(L: DistractionMatrix, t) -> Polynomial:
    """Product over variables i of the first t_i forms of row i."""
    return _distraction(L).apply([Polynomial.monomial(L.n, t)])[0]


def distract_ideal(L: DistractionMatrix, I: MonomialIdeal) -> PolyIdeal:
    """Polynomial ideal generated by the distractions of the minimal generators.

    Nothing is expanded until asked for.  The result holds only its private
    ``_source``: generator k is the image of x^(I.gens[k]) under the product
    map of L.  A gin trial moves the linear forms of L instead of expanding
    the generators (``gin.py``); ``generators`` expands them on first access
    (``groebner.PolyIdeal``).
    """
    if I.n != L.n:
        raise ValueError("ideal and matrix live in different rings")
    return PolyIdeal._of_images(_distraction(L), tuple({t: 1} for t in I.gens))


def radical_selections(L: DistractionMatrix, I: MonomialIdeal) -> list:
    """The selections of L for each irreducible component of I, decided radical.

    A component (x_{i_1}^{a_1},..,x_{i_h}^{a_h}) has one selection per point s
    of its exponent box [0, a_1) x .. x [0, a_h), in order: the forms
    L[i_k][s_k + 1], as integer rows of L (over its denominator), columns
    past N repeating column N.  Each selection is eliminated once, to its
    primitive RREF (``numeric._rref``).  L is radical for I when the
    selections of each component span pairwise distinct subspaces, that is
    when their reduced forms differ.

    Returns (component, selections, reduced forms) for each component, in
    the order of ``irreducible_decomposition``; NotRadicalError at the first
    component with two equal spans.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("radicality is about proper nonzero ideals")
    found = []
    for component in irreducible_decomposition(I):
        powers = [next((i, a) for i, a in enumerate(g) if a) for g in component.gens]
        boxes = product(*(range(a) for _, a in powers))
        selections = [[L._ints[i][min(s, L.N - 1)] for (i, _), s in zip(powers, box)] for box in boxes]
        reduced = [_rref(selection) for selection in selections]
        if len(set(reduced)) < len(reduced):
            raise NotRadicalError("matrix is not radical for this component")
        found.append((component, selections, reduced))
    return found


def is_radical_for(L: DistractionMatrix, I: MonomialIdeal) -> bool:
    """Decide whether L is radical for I (``radical_selections``)."""
    try:
        radical_selections(L, I)
    except NotRadicalError:
        return False
    return True


def radirred_primes(L: DistractionMatrix, I: MonomialIdeal) -> list:
    """The linear primes whose intersection is the distraction of an
    irreducible ideal generated by fewer than n pure powers: one per
    selection, generated by its integer rows (``radical_selections``)."""
    if any(sum(map(bool, g)) != 1 for g in I.gens):
        raise ValueError("component is not generated by pure powers")
    if len(I.gens) >= L.n:
        raise ValueError("component must have height < n")
    ((_, selections, _),) = radical_selections(L, I)
    units = [tuple(int(j == k) for j in range(L.n)) for k in range(L.n)]
    return [PolyIdeal([Polynomial(L.n, dict(zip(units, v))) for v in sel], n=L.n) for sel in selections]


def restrict_matrix(L: DistractionMatrix, m: int) -> DistractionMatrix:
    """Truncate every form to its first m-1 coordinates.

    For sufficiently generic L the result is again a valid distraction matrix
    over the smaller ring; otherwise validation may fail.
    """
    if not 2 <= m <= L.n:
        raise ValueError("restriction index out of range")
    rows = tuple(tuple(v[: m - 1] for v in row) for row in L._ints[: m - 1])
    kind = "identical" if L.kind == "identical" else "custom"
    try:
        return DistractionMatrix._of_ints(rows, L._den, kind)
    except MatrixConstructionError as exc:
        raise MatrixConstructionError(
            "restriction is not a distraction matrix (source not sufficiently generic): %s" % exc
        ) from exc


def intersection_of_primes(primes: list) -> PolyIdeal:
    """Intersection of a list of polynomial ideals, folded pairwise."""
    if not primes:
        raise ValueError("nothing to intersect")
    result = primes[0]
    for p in primes[1:]:
        result = intersect(result, p)
    return result
