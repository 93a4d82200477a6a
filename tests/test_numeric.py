import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginforge.numeric import (
    DimensionError,
    QMatrix,
    _rref,
    clear_denominators,
    echelon_form,
    nullspace_vector,
    rref,
)
from oracles import det_expansion, rref_rows

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_rref_identity():
    m = QMatrix.identity(3)
    reduced, rank_ = rref(m)
    assert reduced == m
    assert rank_ == 3


def test_rref_dependent_rows():
    reduced, rank_ = rref(QMatrix([[1, 2], [2, 4]]))
    assert reduced == QMatrix([[1, 2], [0, 0]])
    assert rank_ == 1


def test_rref_permutation():
    reduced, rank_ = rref(QMatrix([[0, 1], [1, 0]]))
    assert reduced == QMatrix.identity(2)
    assert rank_ == 2


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = QMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
        once, _ = rref(m)
        twice, _ = rref(once)
        assert once == twice


def test_row_space_equality_iff_same_rref():
    base = [[1, 2, 0], [0, 1, 1]]
    # row operations do not change the span
    shuffled = [[0, 1, 1], [2, 5, 1]]
    other = [[1, 0, 0], [0, 1, 1]]
    assert _rref(base) == _rref(shuffled)
    assert _rref(base) != _rref(other)
    assert len({_rref(base), _rref(shuffled), _rref(other)}) == 2


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = QMatrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        assert m.det() == det_expansion(m)


def _random_rows(rng, nrows, ncols):
    """Sparse rational rows with small entries; some rows are zero, repeated
    or combinations of earlier rows, so ranks fall short of the dimensions,
    and pivots fall out of column order."""

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) if rng.random() < 0.6 else 0

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.45:
            rows.append([0] * ncols)
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


def _primitive(row) -> tuple:
    """The integer multiple of a nonzero rational row with content 1 and a
    positive first nonzero entry."""
    scale = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * scale) for x in row]
    content = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // content for x in ints)


def test_elimination_matches_fraction_reference():
    rng = random.Random(20240601)
    seen = set()
    for _ in range(600):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        if rng.random() < 0.3:
            ncols = nrows
        rows = _random_rows(rng, nrows, ncols)
        m = QMatrix(rows)
        reduced, r = rref_rows(rows)
        assert rref(m) == (QMatrix(reduced), r)
        assert len(echelon_form(clear_denominators(row)[1] for row in rows)) == r
        primitive = _rref(rows)
        assert tuple(row for _, row in primitive) == tuple(map(_primitive, reduced[:r]))
        if m.is_square():
            assert m.det() == det_expansion(m)
            seen.add("singular" if r < nrows else "invertible")
        if ncols - r == 1:
            pivots = [next(j for j, x in enumerate(row) if x) for row in reduced[:r]]
            (free,) = set(range(ncols)) - set(pivots)
            expected = [Fraction(0)] * ncols
            expected[free] = Fraction(1)
            for col, row in zip(pivots, reduced):
                expected[col] = -row[free]
            v = nullspace_vector(primitive, ncols)
            # an integer vector, its free coordinate nonzero, on the reference's line
            assert all(type(c) is int for c in v) and v[free]
            assert list(v) == [v[free] * c for c in expected]
            seen.add("nullity one")
        else:
            with pytest.raises(DimensionError):
                nullspace_vector(primitive, ncols)
        seen.add("full rank" if r == min(nrows, ncols) else "rank deficient")
    assert seen == {"singular", "invertible", "nullity one", "full rank", "rank deficient"}


def test_nullspace_vector():
    rows = [[1, 0, -1], [0, 1, -2]]
    v = nullspace_vector(_rref(rows), 3)
    assert [sum(a * b for a, b in zip(row, v)) for row in rows] == [0, 0]
    assert any(c != 0 for c in v)
    # the free coordinate is the lcm of the pivots, 6, so the others are integers
    assert nullspace_vector(_rref([[2, 0, 1], [0, 3, -1]]), 3) == (-3, 2, 6)


@given(rationals, rationals)
def test_exact_addition_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda x: x != 0))
def test_exact_multiplication_round_trip(a, b):
    assert (a * b) / b == a
