"""Exact linear algebra over the rationals.

Rationals are plain :class:`fractions.Fraction` values (arbitrary precision,
always in lowest terms, positive denominator).  Matrices are small, dense and
immutable; every operation is exact, no rounding ever occurs.

Every elimination is the one fraction-free step :func:`reduce_row` over Z.
Rational rows are scaled to integers on the way in, and ``Fraction`` returns
only in the back-substitution that gives a reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction


class DimensionError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class QMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "QMatrix(%r)" % [list(map(str, row)) for row in self.entries]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> Fraction:
        """Determinant: the sign of the pivot-column order times the last
        fraction-free pivot, over the row denominators."""
        if not self.is_square():
            raise DimensionError("determinant needs a square matrix")
        denom = 1
        rows = []
        for row in self.entries:
            d, ints = clear_denominators(row)
            denom *= d
            rows.append(ints)
        pivots = echelon_form(rows)
        if len(pivots) < self.rows:
            return Fraction(0)
        cols = [col for col, _ in pivots]
        inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1 :])
        last = pivots[-1][1][cols[-1]] if pivots else 1
        return Fraction((-1) ** inversions * last, denom)

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0


def clear_denominators(values: Iterable) -> tuple[int, list]:
    """(den, ints): the least common denominator of the rationals ``values``
    and the integers den * v, in order."""
    values = list(values)
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def reduce_row(v: Sequence[int], echelon: Sequence[tuple]) -> list:
    """The integer row v reduced fraction-free against the echelon rows above it.

    ``echelon`` holds (pivot column, row) pairs, each row reduced by this step
    against the pairs before it.  Against each pair v becomes
    (pivot * v - v[col] * row) / previous pivot, with 1 before the first
    pair (Bareiss, Math. Comp. 1968).
    The division is exact because every entry is then a minor of the original
    rows; it is taken even when v[col] is already zero, which keeps that so.
    """
    prev = 1
    for col, row in echelon:
        pivot, c = row[col], v[col]
        v = [(pivot * a - c * b) // prev for a, b in zip(v, row)]
        prev = pivot
    return list(v)


def echelon_form(rows: Iterable[Sequence[int]]) -> list:
    """The fraction-free echelon form of integer rows: (pivot column, row) for
    each row that stays nonzero when reduced against those kept before it.
    Its length is the rank."""
    echelon = []
    for v in rows:
        v = reduce_row(v, echelon)
        col = next((j for j, a in enumerate(v) if a), None)
        if col is not None:
            echelon.append((col, v))
    return echelon


def _rref(rows: Iterable[Sequence]) -> list:
    """(pivot column, row) of the nonzero rows of the reduced row echelon form
    of rational rows, by back-substitution from the fraction-free form."""
    reduced = []
    for col, row in sorted(echelon_form(clear_denominators(r)[1] for r in rows), reverse=True):
        r = [Fraction(a, row[col]) for a in row]
        for pcol, prow in reduced:
            c = r[pcol]
            if c:
                r = [a - c * b for a, b in zip(r, prow)]
        reduced.append((col, r))
    return reduced[::-1]


def rref(m: QMatrix) -> tuple[QMatrix, int]:
    """Reduced row echelon form and rank.

    The RREF is the unique canonical representative of the row space, so two
    matrices span the same row space iff their RREFs are identical.
    """
    reduced = [row for _, row in _rref(m.entries)]
    zero = [[0] * m.cols] * (m.rows - len(reduced))
    return QMatrix(reduced + zero), len(reduced)


def row_space_canonical(vectors: Iterable[Sequence]) -> tuple:
    """Hashable canonical form of the span of the given coefficient vectors.

    Returns the nonzero rows of the RREF as a tuple of tuples.
    """
    return tuple(tuple(row) for _, row in _rref(vectors))


def nullspace_vector(m: QMatrix) -> tuple:
    """A nonzero kernel vector of a matrix with nullity one.

    Used to solve a linear prime of height n in n+1 variables for its unique
    projective point.
    """
    reduced = _rref(m.entries)
    pivots = {col for col, _ in reduced}
    free = [j for j in range(m.cols) if j not in pivots]
    if len(free) != 1:
        raise DimensionError("matrix does not have a one-dimensional kernel")
    sol = [Fraction(0)] * m.cols
    sol[free[0]] = Fraction(1)
    for col, row in reduced:
        sol[col] = -row[free[0]]
    return tuple(sol)
