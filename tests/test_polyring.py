import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginforge.distraction import distract_term, make_matrix
from ginforge.groebner import PolyIdeal
from ginforge.monomial import MonomialIdeal, closure
from ginforge.numeric import QMatrix
from ginforge.polyring import (
    InvalidSectionError,
    InvalidTransformError,
    Polynomial,
    apply_linear_change,
    degrevlex,
    is_xi_degrev_type,
    lex,
    linear_form,
    matrix_ordering,
    monomials_of_degree,
    pp_deg,
    pp_max_index,
    restrict_ordering,
    substitute_variable,
    _Substitution,
)
from oracles import (
    inverse,
    is_degree_compatible_upto,
    linear_change_by_expansion,
    monomials_up_to_degree,
    section_by_expansion,
    xi_degrev_type_upto,
)

W = matrix_ordering([[1, 1, 1, 1], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
SIGMA_HAT = matrix_ordering([[1, 1, 1], [1, 0, 0], [0, 1, 0]])


def test_max_index_convention():
    assert pp_max_index((0, 0, 0)) == 0
    assert pp_max_index((1, 2, 0)) == 2
    assert pp_max_index((0, 0, 5)) == 3


def test_degrevlex_square_beats_product():
    ordering = degrevlex(2)
    assert ordering.compare((2, 0), (1, 1)) == 1


def test_w_ordering_penalizes_last_variable():
    # w^2 against x*z: both degree 2, the -w row decides
    assert W.compare((0, 0, 0, 2), (1, 0, 1, 0)) == -1


def test_compare_reflexive():
    for ordering in (degrevlex(3), lex(3), SIGMA_HAT):
        for t in monomials_up_to_degree(3, 3):
            assert ordering.compare(t, t) == 0


def test_compare_is_total_and_multiplicative():
    ordering = degrevlex(3)
    mons = list(monomials_up_to_degree(3, 3))
    for t1 in mons:
        for t2 in mons:
            c = ordering.compare(t1, t2)
            assert c == -ordering.compare(t2, t1)
            if c == 0:
                assert t1 == t2
    # compatibility with multiplication on a sample
    rng = random.Random(0)
    for _ in range(300):
        t1, t2, s = rng.choice(mons), rng.choice(mons), rng.choice(mons)
        c = ordering.compare(t1, t2)
        shifted = ordering.compare(
            tuple(a + b for a, b in zip(s, t1)), tuple(a + b for a, b in zip(s, t2))
        )
        assert c == shifted


def test_degree_compatibility_of_all_ones_first_row():
    assert is_degree_compatible_upto(degrevlex(4), 5)
    assert is_degree_compatible_upto(W, 5)
    assert not is_degree_compatible_upto(lex(3), 2)


def test_xi_degrev_type_examples():
    assert is_xi_degrev_type(degrevlex(4), 4)
    assert is_xi_degrev_type(W, 4)
    assert not is_xi_degrev_type(lex(3), 3)
    # degrevlex prefers small exponents only on the last variable
    assert not is_xi_degrev_type(degrevlex(3), 1)
    # x3^8 < x1^7: not degree compatible, which enumeration to degree 6 misses
    counter = matrix_ordering([[7, 7, 6], [0, 0, -1], [0, -1, 0]])
    assert not is_xi_degrev_type(counter, 3)
    assert xi_degrev_type_upto(counter, 3, 6) and not xi_degrev_type_upto(counter, 3, 7)


def _random_matrix_ordering(rng, n):
    """An admissible ordering of small entries: a first row that is often a
    multiple of (1, .., 1) and a second that is often a*(1, .., 1) - c*e_j."""
    while True:
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(n + rng.randint(0, 1))]
        if rng.random() < 0.7:
            rows[0] = [rng.randint(1, 2)] * n
        if rng.random() < 0.6:
            a = rng.randint(-2, 2)
            rows[1] = [a] * n
            rows[1][rng.randrange(n)] += rng.choice((-2, -1, 1))
        try:
            return matrix_ordering(rows)
        except ValueError:
            continue


def test_xi_degrev_type_matches_enumeration():
    """The rule on the rows against enumeration to degree 12, far above the
    entries of these orderings, so every violation shows by then."""
    rng = random.Random(26)
    verdicts = set()
    for _ in range(120):
        n = rng.randint(2, 3)
        ordering = _random_matrix_ordering(rng, n)
        for i in range(1, n + 1):
            verdict = is_xi_degrev_type(ordering, i)
            assert verdict == xi_degrev_type_upto(ordering, i, 12), (ordering.rows, i)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_matrix_ordering_admissibility():
    with pytest.raises(ValueError):
        matrix_ordering([[1, 1], [2, 2]])  # rank deficient
    with pytest.raises(ValueError):
        matrix_ordering([[1, -1], [0, -1]])  # negative leading column entry
    for entry in (0.9, True, "1", Fraction(1)):
        with pytest.raises(ValueError, match="integers"):
            matrix_ordering([[entry, 1], [1, 0]])


def test_restrict_degrevlex():
    restricted = restrict_ordering(degrevlex(4), 4)
    assert restricted == degrevlex(3)


def test_restrict_lex_middle_variable():
    restricted = restrict_ordering(lex(3), 2)
    assert restricted == lex(2)


def test_restrict_w_matches_reduced_matrix():
    sigma = matrix_ordering([[1, 1, 1, 1], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    restricted = restrict_ordering(sigma, 4)
    # extensional agreement with the reduced three-variable matrix
    mons = list(monomials_up_to_degree(3, 5))
    for t1 in mons:
        for t2 in mons:
            assert restricted.compare(t1, t2) == SIGMA_HAT.compare(t1, t2)


def test_restriction_agrees_with_source_on_embedded_monomials():
    for ordering, i in ((degrevlex(4), 2), (W, 4), (lex(4), 3)):
        restricted = restrict_ordering(ordering, i)
        mons = list(monomials_up_to_degree(3, 3))
        for t1 in mons:
            for t2 in mons:
                e1 = t1[: i - 1] + (0,) + t1[i - 1 :]
                e2 = t2[: i - 1] + (0,) + t2[i - 1 :]
                assert restricted.compare(t1, t2) == ordering.compare(e1, e2)


def test_apply_linear_change_identity():
    f = Polynomial.variable(2, 1)
    assert apply_linear_change(f, QMatrix.identity(2)) == f


def test_apply_linear_change_column():
    f = Polynomial.variable(2, 1)
    g = QMatrix([[1, 0], [1, 1]])
    assert apply_linear_change(f, g) == Polynomial(2, {(1, 0): 1, (0, 1): 1})


def test_apply_linear_change_expands_products():
    f = Polynomial(2, {(1, 1): 1})  # x1*x2
    g = QMatrix([[1, 1], [0, 1]])
    # x1 -> x1, x2 -> x1 + x2, so x1*x2 -> x1^2 + x1*x2
    assert apply_linear_change(f, g) == Polynomial(2, {(2, 0): 1, (1, 1): 1})


def test_apply_linear_change_round_trip_and_ring_map():
    rng = random.Random(3)
    n = 3
    g = QMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    ginv = inverse(g)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
        f1 = Polynomial(n, terms)
        f2 = Polynomial(n, {(1, 0, 1): 2, (0, 1, 0): -1})
        assert apply_linear_change(apply_linear_change(f1, g), ginv) == f1
        assert apply_linear_change(f1 + f2, g) == apply_linear_change(f1, g) + apply_linear_change(f2, g)
        assert apply_linear_change(f1 * f2, g) == apply_linear_change(f1, g) * apply_linear_change(f2, g)


def test_apply_linear_change_rejects_singular():
    f = Polynomial(2, {(2, 0): 1, (0, 1): Fraction(1, 2)})
    before = QMatrix([[2, 0], [0, 3]])
    assert apply_linear_change(f, before) == Polynomial(2, {(2, 0): 4, (0, 1): Fraction(3, 2)})
    singular = QMatrix([[1, 1], [1, 1]])
    for _ in range(2):
        with pytest.raises(InvalidTransformError):
            apply_linear_change(f, singular)
    after = QMatrix([[1, 1], [0, 1]])
    # x1 -> x1, x2 -> x1 + x2
    assert apply_linear_change(f, after) == Polynomial(
        2, {(2, 0): 1, (1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    )


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))


def _random_polynomial(rng, n):
    """Inhomogeneous, constant or zero, with rational coefficients."""
    shape = rng.choice(("general", "general", "constant", "zero"))
    if shape == "zero":
        return Polynomial.zero(n)
    if shape == "constant":
        return Polynomial.constant(n, _random_rational(rng) or 1)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.randint(0, 3) for _ in range(n))] = _random_rational(rng)
    return Polynomial(n, terms)


def test_substitutions_match_fraction_expansion():
    """Exact agreement with expanding products of Fraction polynomials."""
    rng = random.Random(20)
    for n in (1, 2, 3, 4):
        matrices = []
        while len(matrices) < 3:
            g = QMatrix([[_random_rational(rng) for _ in range(n)] for _ in range(n)])
            if g.is_invertible():
                matrices.append(g)
        sections = []
        while len(sections) < 3:
            h = linear_form([_random_rational(rng) for _ in range(n)])
            i = rng.randint(1, n)
            if h.coeffs[i - 1]:
                sections.append((i, h))
        for _ in range(40):
            f = _random_polynomial(rng, n)
            g = rng.choice(matrices)
            assert apply_linear_change(f, g).terms == linear_change_by_expansion(f, g).terms
            i, h = rng.choice(sections)
            assert substitute_variable(f, i, h).terms == section_by_expansion(f, i, h).terms


def test_one_map_expands_lists_at_several_packings():
    # the map keeps no state between calls: each call builds its own images
    sub = _Substitution([[[1, 2, 0]], [[0, 1, -1]], [[3, 0, 1]]], 3)
    state = copy.deepcopy(vars(sub))
    f = {(2, 1, 0): 3, (0, 2, 1): -1, (1, 1, 1): 2, (0, 0, 3): 5, (3, 0, 0): 1}
    singles = [{a: c} for a, c in f.items()]
    for w in (2, 3, 5, 8):
        units = tuple(1 << k * w for k in range(3))
        out, *images = sub.expand([f] + singles, units)
        # a list expands as its one-element lists do
        assert [out, *images] == [sub.expand([p], units)[0] for p in [f] + singles]
        # f, homogeneous, expands to the sum of its terms' scaled images
        total: dict = {}
        for image in images:
            for z, v in image.items():
                total[z] = total.get(z, 0) + v
        assert out == {z: v for z, v in total.items() if v} and all(out.values())
        assert all(all(image.values()) for image in images)
    # a list is packed at the width of its largest degree, each polynomial
    # alone at the width of its own: 1, 2, 3 and 4 bits
    polys = [Polynomial(3, {(d, 0, 0): 1, (0, 1, d - 1): Fraction(1, 2)}) for d in (1, 2, 5, 9)]
    assert sub.apply(polys) == [sub.apply([p])[0] for p in polys]
    assert vars(sub) == state
    # under x1 -> x1 + x2, x2 -> x1 - x2 the x1 x2 term of the image of x1 x2 cancels, and x2 in that of x1 + x2
    flip, units = _Substitution([[[1, 1]], [[1, -1]]], 2), (1, 1 << 4)
    assert flip.expand([{(1, 1): 3}, {(1, 0): 1, (0, 1): 1}], units) == [{2: 3, 2 << 4: -3}, {1: 2}]


@pytest.mark.parametrize("exponents", [(1, -1), (1.5, 0)])
def test_substitutions_reject_invalid_exponents(exponents):
    f = Polynomial(2, {exponents: 1})
    with pytest.raises(ValueError, match="not a power product"):
        apply_linear_change(f, QMatrix.identity(2))
    with pytest.raises(ValueError, match="not a power product"):
        substitute_variable(f, 2, linear_form([1, 1]))


_BAD_EXPONENT = st.one_of(
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(),
    st.none(),
    st.text(max_size=2),
)


@given(st.integers(1, 4), st.data())
def test_public_entry_points_reject_bad_exponents(n, data):
    # one exponent negative or not an int, the others valid
    t = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    t[data.draw(st.integers(0, n - 1))] = data.draw(_BAD_EXPONENT)
    t = tuple(t)
    with pytest.raises(ValueError, match="not a power product"):
        Polynomial.monomial(n, t)
    with pytest.raises(ValueError, match="not a power product"):
        distract_term(make_matrix("classic", n, 2), t)
    with pytest.raises(ValueError, match="not a power product"):
        MonomialIdeal(n, [t])
    with pytest.raises(ValueError, match="not a power product"):
        PolyIdeal([Polynomial(n, {t: 1})], n=n)
    for mode in ("stable", "strongly_stable"):
        with pytest.raises(ValueError, match="not a power product"):
            closure(n, [t], mode)


def test_monomial_polynomials_are_validated():
    # x1 * x2^-1 used to build x1, and x1^1.5 to print as x1^1
    for bad in ((1, -1), (1.5, 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="not a power product in 2 variables"):
            Polynomial.monomial(2, bad)
    assert Polynomial.monomial(2, [1, 2], 3) == Polynomial(2, {(1, 2): 3})
    assert Polynomial.variable(2, 2) == Polynomial(2, {(0, 1): 1})


def test_substitute_variable_examples():
    h = linear_form([1, 1])
    # x2^2 with x2 -> -x1
    assert substitute_variable(Polynomial(2, {(0, 2): 1}), 2, h) == Polynomial(1, {(2,): 1})
    # untouched variable
    assert substitute_variable(Polynomial.variable(2, 1), 2, h) == Polynomial(1, {(1,): 1})
    # x1*x2 + x2^2 -> -x1^2 + x1^2 = 0
    f = Polynomial(2, {(1, 1): 1, (0, 2): 1})
    assert substitute_variable(f, 2, h).is_zero()


def test_form_maps_to_zero_under_its_own_section():
    h = linear_form([2, -3, 5])
    f = h.as_polynomial()
    for i in (1, 2, 3):
        assert substitute_variable(f, i, h).is_zero()


def test_substitute_variable_zero_coefficient_rejected():
    with pytest.raises(InvalidSectionError):
        substitute_variable(Polynomial.variable(2, 1), 2, linear_form([1, 0]))


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(4, 3))) == 20
    assert all(pp_deg(t) == 3 for t in monomials_of_degree(4, 3))
    # no variables: only the empty power product, of degree 0
    assert list(monomials_of_degree(0, 0)) == [()]
    assert list(monomials_of_degree(0, 3)) == []
