import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ginforge.distraction import (
    DistractionMatrix,
    MatrixConstructionError,
    distract_ideal,
    distract_term,
    intersection_of_primes,
    is_radical_for,
    is_sufficiently_generic,
    make_matrix,
    radirred_primes,
    restrict_matrix,
    transform_matrix,
)
from ginforge.gin import gin
from ginforge.groebner import PolyIdeal, ideal_equal, intersect, saturate
from ginforge.monomial import MonomialIdeal, embed, hilbert, intersect_mono, saturate_mono
from ginforge.numeric import QMatrix
from ginforge.points import points_from_ideal
from ginforge.polyring import LinearForm, Polynomial, _Substitution, apply_linear_change, degrevlex, lex, linear_form
from oracles import det_expansion, distract_by_products, inverse, linear_change_by_expansion, poly_divides

DRL3 = degrevlex(3)
DRL4 = degrevlex(4)


def _sympy_expand(products, n):
    """Expand a product of linear forms with sympy and return a term dict."""
    xs = sympy.symbols("s0:%d" % n)
    expr = sympy.expand(sympy.prod([sum(c * x for c, x in zip(form, xs)) for form in products], start=sympy.Integer(1)))
    poly = sympy.Poly(expr, *xs)
    return {tuple(int(e) for e in mono): Fraction(str(c)) for mono, c in poly.terms()}


def test_identical_matrix_is_identity_operator():
    L = make_matrix("identical", 3, 4)
    for t in [(2, 0, 1), (0, 3, 0), (1, 1, 1)]:
        assert distract_term(L, t) == Polynomial.monomial(3, t)


def test_classic_matrix_entries():
    L = make_matrix("classic", 4, 6)
    expected_row1 = [(1, 0, 0, 0), (1, 0, 0, -1), (1, 0, 0, -2), (1, 0, 0, -3), (1, 0, 0, -4)]
    for j, coeffs in enumerate(expected_row1, start=1):
        assert L.entry(1, j) == linear_form(coeffs)
    assert L.entry(1, 6) == linear_form((1, 0, 0, 0))  # tail
    assert L.entry(1, 9) == linear_form((1, 0, 0, 0))
    for j in range(1, 8):
        assert L.entry(4, j) == linear_form((0, 0, 0, 1))


def test_generic_matrix_deterministic_and_valid():
    L1 = make_matrix("generic", 3, 2, rng_seed=42)
    L2 = make_matrix("generic", 3, 2, rng_seed=42)
    assert L1 == L2
    assert make_matrix("generic", 3, 2, rng_seed=43) != L1


def test_generic_requires_seed():
    with pytest.raises(MatrixConstructionError):
        make_matrix("generic", 3, 2)


def test_distract_pure_power_matches_sympy():
    L = make_matrix("classic", 4, 6)
    # x^5 -> x(x-w)(x-2w)(x-3w)(x-4w)
    forms = [[1, 0, 0, -j] for j in range(5)]
    assert distract_term(L, (5, 0, 0, 0)).terms == _sympy_expand(forms, 4)
    # x^3 y^2 -> x(x-w)(x-2w) y(y-w)
    forms = [[1, 0, 0, 0], [1, 0, 0, -1], [1, 0, 0, -2], [0, 1, 0, 0], [0, 1, 0, -1]]
    assert distract_term(L, (3, 2, 0, 0)).terms == _sympy_expand(forms, 4)


def test_distract_one_is_one():
    L = make_matrix("classic", 3, 3)
    assert distract_term(L, (0, 0, 0)) == Polynomial.constant(3, 1)


def _random_matrix(rng, n, N):
    """A distraction matrix of random rational forms, redrawn until valid."""
    while True:
        rows = [
            [linear_form([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(n)]) for _ in range(N)]
            for _ in range(n)
        ]
        try:
            return DistractionMatrix(rows)
        except MatrixConstructionError:
            continue


def test_distraction_matches_fraction_products():
    """The integer product core agrees with multiplying Fraction polynomials
    one factor at a time, past the tail index too, with coordinate changes
    interleaved so the cached change map keeps being reused and replaced."""
    rng = random.Random(70)
    past_tail = 0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            N = rng.randint(1, 3)
            L = _random_matrix(rng, n, N)
            g = QMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            while not g.is_invertible():
                g = QMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            gens = [tuple(rng.randint(0, N + 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            I = MonomialIdeal(n, [t for t in gens if any(t)] or [(1,) * n])
            assert distract_ideal(L, I).generators == tuple(distract_by_products(L, t) for t in I.gens)
            for t in gens:
                assert distract_term(L, t) == distract_by_products(L, t)
                f = distract_by_products(L, tuple(min(a, 1) for a in t))
                assert apply_linear_change(f, g) == linear_change_by_expansion(f, g)
                past_tail += max(t) > N
    assert past_tail >= 20


def test_distraction_multiplies_no_polynomials(monkeypatch):
    L = make_matrix("generic", 3, 2, rng_seed=8)
    I = MonomialIdeal(3, [(3, 0, 0), (2, 1, 0), (1, 0, 2), (0, 2, 2)])
    expected = {t: distract_by_products(L, t) for t in I.gens}

    def refuse(self, other):
        raise AssertionError("Polynomial.__mul__ called")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    assert distract_ideal(L, I).generators == tuple(expected.values())
    for t, f in expected.items():
        assert distract_term(L, t) == f


@pytest.mark.parametrize("t", [(-1, 0), (0, -2), (2.0, 1), (1, Fraction(1)), (1,), (1, 0, 0)])
def test_distract_term_rejects_invalid_exponents(t):
    with pytest.raises(ValueError):
        distract_term(make_matrix("classic", 2, 3), t)


def test_distract_ideal_identical_is_inclusion():
    I = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    D = distract_ideal(make_matrix("identical", 3, 2), I)
    assert ideal_equal(D, PolyIdeal.from_monomial(I), DRL3)


def test_distraction_preserves_hilbert_function():
    I = MonomialIdeal(4, [(5, 0, 0, 0), (4, 1, 0, 0), (4, 0, 1, 0), (3, 2, 0, 0), (2, 3, 0, 0)])
    D = distract_ideal(make_matrix("classic", 4, 6), I)
    assert hilbert(D.initial_ideal(DRL4), 6) == hilbert(I, 6)


def test_divisibility_is_preserved():
    rng = random.Random(21)
    L = make_matrix("classic", 3, 5)
    G = make_matrix("generic", 3, 3, rng_seed=5)
    for _ in range(10):
        t1 = tuple(rng.randint(0, 2) for _ in range(3))
        extra = tuple(rng.randint(0, 2) for _ in range(3))
        t2 = tuple(a + b for a, b in zip(t1, extra))
        for M in (L, G):
            assert poly_divides(distract_term(M, t1), distract_term(M, t2), DRL3)


def test_distraction_is_not_multiplicative():
    L = make_matrix("classic", 2, 3)
    x1 = (1, 0)
    product = distract_term(L, x1) * distract_term(L, x1)
    assert distract_term(L, (2, 0)) != product


def test_distraction_commutes_with_intersection_and_sum():
    rng = random.Random(31)
    for _ in range(4):
        n = 3
        gens1 = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        gens2 = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        gens1 = [g for g in gens1 if any(g)]
        gens2 = [g for g in gens2 if any(g)]
        if not gens1 or not gens2:
            continue
        I, J = MonomialIdeal(n, gens1), MonomialIdeal(n, gens2)
        L = make_matrix("generic", n, 3, rng_seed=rng.randrange(1 << 30))
        left = distract_ideal(L, intersect_mono(I, J))
        right = intersect(distract_ideal(L, I), distract_ideal(L, J))
        assert ideal_equal(left, right, DRL3)
        left_sum = distract_ideal(L, MonomialIdeal(n, I.gens + J.gens))
        right_sum = PolyIdeal(
            list(distract_ideal(L, I).generators) + list(distract_ideal(L, J).generators), n=n
        )
        assert ideal_equal(left_sum, right_sum, DRL3)


def test_distraction_commutes_with_saturation():
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    L = make_matrix("classic", 3, 3)
    left = distract_ideal(L, saturate_mono(I))
    right = saturate(distract_ideal(L, I))
    assert ideal_equal(left, right, DRL3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from((1, 2, 6)), st.data())
def test_integer_rows_and_linear_forms_build_the_same_matrix(n, N, den, data):
    # integer rows over den (1: integer forms) against the same forms as
    # LinearForm rows: equal views and verdicts, or the same refusal; and so
    # for their transform and restrictions against g . coeffs and truncated coeffs
    flat = iter(data.draw(st.lists(st.integers(-3, 3), min_size=n * N * n, max_size=n * N * n)))
    ints = tuple(tuple(tuple(next(flat) for _ in range(n)) for _ in range(N)) for _ in range(n))
    forms = [[LinearForm(tuple(Fraction(c, den) for c in v)) for v in row] for row in ints]

    def built(build):
        try:
            return build()
        except MatrixConstructionError as exc:
            return str(exc)

    by_ints = built(lambda: DistractionMatrix._of_ints(ints, den, "custom"))
    by_forms = built(lambda: DistractionMatrix(forms))
    if isinstance(by_forms, str) or isinstance(by_ints, str):
        assert by_ints == by_forms
        return
    assert (by_ints.rows, by_ints.generic) == (by_forms.rows, by_forms.generic)
    assert by_ints == by_forms
    exponents = st.tuples(*[st.integers(0, N + 1)] * n).filter(any)
    I = MonomialIdeal(n, data.draw(st.lists(exponents, min_size=1, max_size=3)))
    assert distract_ideal(by_ints, I).generators == distract_ideal(by_forms, I).generators
    g_den = data.draw(st.sampled_from((1, 3)))
    g = QMatrix([[Fraction(data.draw(st.integers(-2, 2)), g_den) for _ in range(n)] for _ in range(n)])
    results = []
    if g.is_invertible():
        moved = [[LinearForm(tuple(sum(map(mul, r, f.coeffs)) for r in g.entries)) for f in row] for row in forms]
        results.append((built(lambda: transform_matrix(g, by_ints)), built(lambda: DistractionMatrix(moved))))
    for m in range(2, n + 1):
        cut = [[LinearForm(f.coeffs[: m - 1]) for f in row] for row in forms[: m - 1]]
        results.append((built(lambda: restrict_matrix(by_ints, m)), built(lambda: DistractionMatrix(cut))))
    for left, right in results:
        if isinstance(left, str) or isinstance(right, str):
            assert isinstance(left, str) and isinstance(right, str)
            continue
        assert (left.rows, left.generic) == (right.rows, right.generic)


def test_sufficiently_generic_examples():
    assert is_sufficiently_generic(make_matrix("identical", 3, 2))
    assert is_sufficiently_generic(make_matrix("classic", 4, 6))
    # direct span enumeration for the classic matrix in two variables
    L = make_matrix("classic", 2, 3)
    assert is_sufficiently_generic(L)
    swapped = DistractionMatrix(
        [[linear_form((0, 1))] * 2, [linear_form((1, 0))] * 2]
    )
    assert not is_sufficiently_generic(swapped)  # 1x1 minor vanishes


def _leading_minors_vanish(rows, k):
    """Whether some selection from the first k rows has a zero k x k leading minor."""
    return any(
        det_expansion(QMatrix([rows[r][c].coeffs[:k] for r, c in enumerate(choice)])) == 0
        for choice in product(range(len(rows[0])), repeat=k)
    )


def _validation_cases():
    # the former principal-minor cases: an identity and a hand-computed matrix
    yield [[linear_form(r)] for r in QMatrix.identity(4).entries]
    yield [[linear_form((2, 1))], [linear_form((1, 1))]]
    rng = random.Random(2024)
    entry = lambda: Fraction(rng.randint(-2, 2), rng.choice((1, 1, 1, 2, 3)))
    for _ in range(300):
        n, N = rng.randint(1, 4), rng.randint(1, 3)
        pool = [linear_form([entry() for _ in range(n)]) for _ in range(2)]
        yield [
            [rng.choice(pool) if rng.random() < 0.25 else linear_form([entry() for _ in range(n)]) for _ in range(N)]
            for _ in range(n)
        ]


def test_matrix_validation_matches_determinant_definitions():
    outcomes = set()
    for rows in _validation_cases():
        n = len(rows)
        spans = not _leading_minors_vanish(rows, n)
        try:
            L = DistractionMatrix(rows)
        except MatrixConstructionError:
            assert not spans
            outcomes.add("invalid")
            continue
        assert spans
        generic = not any(_leading_minors_vanish(rows, k) for k in range(1, n + 1))
        assert is_sufficiently_generic(L) == generic
        outcomes.add(generic)
    assert outcomes == {"invalid", True, False}


def test_transformed_and_restricted_matrices_match_determinant_definitions():
    # the single walk decides both verdicts for the matrices that
    # transform_matrix and restrict_matrix build, too
    rng = random.Random(77)
    outcomes = set()
    for rows in _validation_cases():
        try:
            L = DistractionMatrix(rows)
        except MatrixConstructionError:
            continue
        n = L.n
        g = QMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        built = [transform_matrix(g, L)] if g.is_invertible() else []
        for m in range(2, n + 1):
            try:
                built.append(restrict_matrix(L, m))
            except MatrixConstructionError:
                truncated = [[LinearForm(form.coeffs[: m - 1]) for form in row] for row in rows[: m - 1]]
                assert _leading_minors_vanish(truncated, m - 1)
                outcomes.add("invalid")
        for M in built:
            assert not _leading_minors_vanish(M.rows, M.n)
            generic = not any(_leading_minors_vanish(M.rows, k) for k in range(1, M.n + 1))
            assert M.generic == is_sufficiently_generic(M) == generic
            outcomes.add(generic)
    assert outcomes == {"invalid", True, False}


def test_matrix_verdicts_are_fixed_and_a_matrix_that_does_not_span_is_refused():
    L = make_matrix("classic", 3, 2)
    with pytest.raises(AttributeError):
        L.generic = False
    assert L.generic
    rows = [[linear_form((1, 0)), linear_form((2, 0))], [linear_form((1, 0))] * 2]
    with pytest.raises(MatrixConstructionError, match="^some selection of one form per row does not span$"):
        DistractionMatrix(rows)


def test_transformed_matrix_is_sufficiently_generic():
    rng = random.Random(9)
    L = make_matrix("classic", 3, 4)
    g = QMatrix([[rng.randint(-10, 10) for _ in range(3)] for _ in range(3)])
    while not g.is_invertible():
        g = QMatrix([[rng.randint(-10, 10) for _ in range(3)] for _ in range(3)])
    assert is_sufficiently_generic(transform_matrix(g, L))


def test_transform_round_trip_and_operator_identity():
    L = make_matrix("classic", 2, 3)
    g = QMatrix([[1, 2], [1, 3]])
    assert transform_matrix(QMatrix.identity(2), L) == L
    assert transform_matrix(inverse(g), transform_matrix(g, L)) == L
    # applying g after distracting equals distracting by the transformed matrix
    t = (2, 0)
    lhs = apply_linear_change(distract_term(L, t), g)
    rhs = distract_term(transform_matrix(g, L), t)
    assert lhs == rhs


def test_radical_for_verdicts():
    I = MonomialIdeal(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    assert is_radical_for(make_matrix("generic", 3, 2, rng_seed=1), I)
    assert not is_radical_for(make_matrix("classic", 3, 2), I)
    assert not is_radical_for(make_matrix("identical", 3, 4), MonomialIdeal(2, [(2, 0)]))
    # a linear component has a singleton selection box
    assert is_radical_for(make_matrix("identical", 2, 2), MonomialIdeal(2, [(1, 0), (0, 1)]))


def test_radirred_primes_factorization():
    L = make_matrix("classic", 2, 3)
    primes = radirred_primes(L, MonomialIdeal(2, [(2, 0)]))
    expected = [
        PolyIdeal([linear_form((1, 0)).as_polynomial()]),
        PolyIdeal([linear_form((1, -1)).as_polynomial()]),
    ]
    assert len(primes) == 2
    drl2 = degrevlex(2)
    assert ideal_equal(primes[0], expected[0], drl2)
    assert ideal_equal(primes[1], expected[1], drl2)


def test_radirred_singleton():
    L = make_matrix("classic", 2, 2)
    primes = radirred_primes(L, MonomialIdeal(2, [(1, 0)]))
    assert len(primes) == 1


def test_radirred_intersection_equals_distraction():
    L = make_matrix("classic", 3, 3)
    I = MonomialIdeal(3, [(2, 0, 0), (0, 1, 0)])
    primes = radirred_primes(L, I)
    assert ideal_equal(intersection_of_primes(primes), distract_ideal(L, I), DRL3)


def test_radirred_requires_low_height():
    L = make_matrix("classic", 2, 3)
    with pytest.raises(ValueError):
        radirred_primes(L, MonomialIdeal(2, [(1, 0), (0, 2)]))


def test_restrict_matrix_examples():
    identical = make_matrix("identical", 4, 3)
    assert restrict_matrix(identical, 3) == make_matrix("identical", 2, 3)
    classic = make_matrix("classic", 4, 6)
    assert restrict_matrix(classic, 4) == make_matrix("identical", 3, 6)
    generic = make_matrix("generic", 3, 2, rng_seed=77)
    if is_sufficiently_generic(generic):
        assert is_sufficiently_generic(restrict_matrix(generic, 3))


def test_restrict_matrix_failure_for_degenerate_source():
    # a valid distraction matrix whose truncation loses the span property
    rows = [
        [linear_form((1, 0, 1))] * 2,
        [linear_form((1, 0, -1))] * 2,
        [linear_form((0, 1, 0))] * 2,
    ]
    L = DistractionMatrix(rows)
    with pytest.raises(MatrixConstructionError):
        restrict_matrix(L, 3)


def test_tail_rule_bounds_selection_boxes():
    # exponents above the tail index force repeated spans, hence not radical
    L = make_matrix("generic", 2, 2, rng_seed=3)
    assert not is_radical_for(L, MonomialIdeal(2, [(3, 0), (0, 1)]))


def test_a_distraction_expands_nothing_until_its_generators_are_read(monkeypatch):
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])  # strongly stable
    matrices = [make_matrix("classic", 3, 3), make_matrix("generic", 3, 2, rng_seed=6)]

    def refuse(self, polys):
        raise AssertionError("a distraction expanded its generators")

    monkeypatch.setattr(_Substitution, "apply", refuse)
    ideals = [distract_ideal(L, I) for L in matrices]
    zero = distract_ideal(matrices[0], MonomialIdeal(3))
    for D in ideals:
        assert (D.n, D.homogeneous, D.is_zero(), repr(D)) == (3, True, False, "PolyIdeal(n=3, 4 generators)")
        assert gin(D, DRL3, rng_seed=2).ideal == I  # the main theorem: gin(D_L(I)) = I
        assert gin(D, lex(3), rng_seed=2).agreed
    assert zero.is_zero() and repr(zero) == "PolyIdeal(n=3, 0 generators)"
    monkeypatch.undo()
    for L, D in zip(matrices, ideals):
        assert D.generators == tuple(distract_by_products(L, t) for t in I.gens)
    assert zero.generators == ()


def test_kernel_consumers_never_build_the_fraction_rows_view():
    # the radical test, the primes, transform, restriction, point sets and a
    # distraction's gin read the integer rows; ``rows`` is only for callers
    L = make_matrix("generic", 3, 3, rng_seed=5)
    I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])  # zero-dimensional and strongly stable
    assert is_radical_for(L, embed(I, 1))
    assert len(radirred_primes(L, MonomialIdeal(3, [(2, 0, 0), (0, 1, 0)]))) == 2
    transform_matrix(QMatrix([[1, 2, 0], [0, 1, 0], [0, 0, -1]]), L)
    restrict_matrix(L, 3)
    assert len(points_from_ideal(I, L).points) == 3  # the colength of I
    assert gin(distract_ideal(L, MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])), DRL3, rng_seed=1).agreed
    with pytest.raises(AttributeError):
        DistractionMatrix.rows.__get__(L)
