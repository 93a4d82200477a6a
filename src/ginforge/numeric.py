"""Exact linear algebra over the rationals.

Rationals are plain :class:`fractions.Fraction` values (arbitrary precision,
always in lowest terms, positive denominator).  Matrices are small, dense and
immutable; every operation is exact, no rounding ever occurs.

Every elimination is the one fraction-free step :func:`reduce_row` over Z,
and the back-substitution after it stays over Z too.  Rational rows are
scaled to integers on the way in; ``Fraction`` is built only by
:class:`QMatrix` and by :func:`rref`, the edges where a result leaves for a
user.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _rref(rows: Iterable[Sequence]) -> tuple:
    """(pivot column, row) of the nonzero rows of the primitive reduced row
    echelon form of rational rows over Z: each row of the reduced form
    scaled to integers with content 1 and a positive pivot, which is as
    canonical as the reduced form: two lists of rows span the same space iff
    their forms, tuples of integer tuples, are equal.  Back-substitution from
    the fraction-free form sets row to prow[pcol] * row - row[pcol] * prow."""
    reduced = []
    for col, row in sorted(echelon_form(clear_denominators(r)[1] for r in rows), reverse=True):
        for pcol, prow in reduced:
            c = row[pcol]
            if c:
                row = [prow[pcol] * a - c * b for a, b in zip(row, prow)]
        content = gcd(*row) if row[col] > 0 else -gcd(*row)
        reduced.append((col, tuple(a // content for a in row)))
    return tuple(reduced[::-1])


def rref(m: QMatrix) -> tuple[QMatrix, int]:
    """Reduced row echelon form and rank.

    The RREF is the unique canonical representative of the row space, so two
    matrices span the same row space iff their RREFs are identical.
    """
    reduced = [[Fraction(a, row[col]) for a in row] for col, row in _rref(m.entries)]
    zero = [[0] * m.cols] * (m.rows - len(reduced))
    return QMatrix(reduced + zero), len(reduced)


def nullspace_vector(reduced: Sequence[tuple], ncols: int) -> tuple:
    """An integer kernel vector of rows of nullity one in ncols columns, read
    off their primitive RREF ``reduced`` (``_rref``).

    Its free coordinate is the lcm of the pivots: the least positive value
    that keeps the others integers, so the vector is primitive.  Used to
    solve a linear prime of height n in n+1 variables for its unique
    projective point.
    """
    free = set(range(ncols)).difference(col for col, _ in reduced)
    if len(free) != 1:
        raise DimensionError("matrix does not have a one-dimensional kernel")
    (free,) = free
    scale = lcm(*(row[col] for col, row in reduced))
    sol = [0] * ncols
    sol[free] = scale
    for col, row in reduced:
        sol[col] = -row[free] * (scale // row[col])
    return tuple(sol)
