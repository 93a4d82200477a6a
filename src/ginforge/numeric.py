"""Exact linear algebra over the rationals.

Rationals are plain :class:`fractions.Fraction` values (arbitrary precision,
always in lowest terms, positive denominator).  Matrices are small, dense and
immutable; every operation is exact, no rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction


class DimensionError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


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

    def transpose(self) -> "QMatrix":
        return QMatrix(zip(*self.entries)) if self.rows else QMatrix([])

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionError("incompatible shapes for product")
        ot = other.transpose().entries
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def __mul__(self, other):
        return self.matmul(other)

    def matvec(self, v: Sequence) -> tuple:
        if self.cols != len(v):
            raise DimensionError("vector length mismatch")
        vv = [Fraction(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vv)) for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> Fraction:
        """Determinant by fraction-free (Bareiss) elimination.

        Rows are scaled to integers first; the Bareiss recurrence then stays
        in Z, avoiding intermediate fraction blowup.
        """
        if not self.is_square():
            raise DimensionError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        a = []
        denom = 1
        for row in self.entries:
            d, ints = clear_denominators(row)
            a.append(ints)
            denom *= d
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            pivot = a[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = pivot
        return Fraction(sign * a[n - 1][n - 1], denom)

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0

    def inverse(self) -> "QMatrix":
        if not self.is_square():
            raise DimensionError("inverse needs a square matrix")
        n = self.rows
        if self.det() == 0:
            raise SingularMatrixError("matrix is singular")
        aug = [list(self.entries[i]) + [Fraction(i == j) for j in range(n)] for i in range(n)]
        reduced, _ = _rref_rows(aug)
        return QMatrix([row[n:] for row in reduced])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "QMatrix":
        return QMatrix([[self.entries[i][j] for j in cols] for i in rows])


def clear_denominators(values: Iterable) -> tuple[int, list]:
    """(den, ints): the least common denominator of the rationals ``values``
    and the integers den * v, in order."""
    values = list(values)
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def _rref_rows(rows: list) -> tuple[list, int]:
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv = 0
    for col in range(ncols):
        if piv >= nrows:
            break
        pivot_row = next((r for r in range(piv, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[piv], m[pivot_row] = m[pivot_row], m[piv]
        inv = Fraction(1) / m[piv][col]
        m[piv] = [x * inv for x in m[piv]]
        for r in range(nrows):
            if r != piv and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[piv])]
        piv += 1
    return m, piv


def rref(m: QMatrix) -> tuple[QMatrix, int]:
    """Reduced row echelon form and rank.

    The RREF is the unique canonical representative of the row space, so two
    matrices span the same row space iff their RREFs are identical.
    """
    if m.rows == 0:
        return m, 0
    reduced, rank = _rref_rows([list(r) for r in m.entries])
    return QMatrix(reduced), rank


def rank(m: QMatrix) -> int:
    return rref(m)[1]


def row_space_canonical(vectors: Iterable[Sequence]) -> tuple:
    """Hashable canonical form of the span of the given coefficient vectors.

    Returns the nonzero rows of the RREF as a tuple of tuples.
    """
    vecs = [list(v) for v in vectors]
    if not vecs:
        return ()
    reduced, rank_ = _rref_rows(vecs)
    return tuple(tuple(row) for row in reduced[:rank_])


def nullspace_vector(m: QMatrix) -> tuple:
    """A nonzero kernel vector of a matrix with nullity one.

    Used to solve a linear prime of height n in n+1 variables for its unique
    projective point.
    """
    reduced, rank_ = rref(m)
    if m.cols - rank_ != 1:
        raise DimensionError("matrix does not have a one-dimensional kernel")
    pivots = []
    free_col = None
    col = 0
    for r in range(rank_):
        while reduced[r, col] == 0:
            col += 1
        pivots.append(col)
        col += 1
    for j in range(m.cols):
        if j not in pivots:
            free_col = j
            break
    sol = [Fraction(0)] * m.cols
    sol[free_col] = Fraction(1)
    for r, pc in enumerate(pivots):
        sol[pc] = -reduced[r, free_col]
    return tuple(sol)
