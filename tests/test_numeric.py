import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginforge.numeric import (
    DimensionError,
    QMatrix,
    SingularMatrixError,
    nullspace_vector,
    row_space_canonical,
    rref,
)
from oracles import det_expansion

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
    assert row_space_canonical(base) == row_space_canonical(shuffled)
    assert row_space_canonical(base) != row_space_canonical(other)


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = QMatrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        assert m.det() == det_expansion(m)


def test_inverse_round_trip():
    m = QMatrix([[2, 1, 0], [1, 1, 0], [3, 0, 1]])
    assert m.matmul(m.inverse()) == QMatrix.identity(3)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        QMatrix([[1, 2], [2, 4]]).inverse()


def test_nullspace_vector():
    m = QMatrix([[1, 0, -1], [0, 1, -2]])
    v = nullspace_vector(m)
    assert m.matvec(v) == (0, 0)
    assert any(c != 0 for c in v)


@given(rationals, rationals)
def test_exact_addition_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda x: x != 0))
def test_exact_multiplication_round_trip(a, b):
    assert (a * b) / b == a
