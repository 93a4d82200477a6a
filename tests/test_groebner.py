import random
from fractions import Fraction

import pytest

from ginforge import groebner
from ginforge.checks import random_invertible, w_type_ordering
from ginforge.groebner import PolyIdeal, _elimination_ordering, ideal_equal, intersect, saturate
from ginforge.monomial import MonomialIdeal, coordinate_section, hilbert, intersect_mono
from ginforge.gin import coordinate_form, hyperplane_section
from ginforge.numeric import QMatrix
from ginforge.polyring import Polynomial, apply_linear_change, degrevlex, lex, matrix_ordering, monomials_of_degree
from oracles import hf_by_rank, reduced_basis_textbook

DRL2 = degrevlex(2)
DRL3 = degrevlex(3)


def _poly(n, terms):
    return Polynomial(n, terms)


def test_principal_monomial_basis():
    I = PolyIdeal([Polynomial.variable(2, 1)])
    assert I.reduced_gb(DRL2) == [Polynomial.variable(2, 1)]


def test_linear_reduction():
    I = PolyIdeal([_poly(2, {(1, 0): 1, (0, 1): 1}), Polynomial.variable(2, 2)])
    assert I.reduced_gb(DRL2) == [Polynomial.variable(2, 1), Polynomial.variable(2, 2)]


def test_buchberger_adds_s_polynomial():
    # S-poly of x1^2 - x2^2 and x1*x2 reduces to x2^3
    I = PolyIdeal([_poly(2, {(2, 0): 1, (0, 2): -1}), _poly(2, {(1, 1): 1})])
    assert I.initial_ideal(DRL2) == MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])


def test_normal_form_of_generators_is_zero():
    gens = [_poly(2, {(2, 0): 1, (0, 2): -1}), _poly(2, {(1, 1): 1})]
    I = PolyIdeal(gens)
    for g in gens:
        assert I.normal_form(g, DRL2).is_zero()


def test_normal_form_unit_never_reduces():
    I = PolyIdeal([_poly(2, {(2, 0): 1, (0, 2): -1})])
    one = Polynomial.constant(2, 1)
    assert I.normal_form(one, DRL2) == one


def test_normal_form_detects_membership():
    I = PolyIdeal([_poly(2, {(2, 0): 1, (0, 2): -1}), _poly(2, {(1, 1): 1})])
    assert I.normal_form(_poly(2, {(0, 3): 1}), DRL2).is_zero()
    # a non-member keeps its exact remainder; x1 - 2/3 x2 reduces as 3*x1 - 2*x2 in Z
    J = PolyIdeal([_poly(2, {(1, 0): 1, (0, 1): Fraction(-2, 3)})])
    assert J.normal_form(Polynomial.variable(2, 1), DRL2) == _poly(2, {(0, 1): Fraction(2, 3)})


def test_initial_ideal_of_monomial_ideal_is_itself():
    M = MonomialIdeal(3, [(2, 1, 0), (0, 0, 3)])
    I = PolyIdeal.from_monomial(M)
    for ordering in (DRL3, lex(3)):
        assert I.initial_ideal(ordering) == M


def test_ideal_equal_examples():
    A = PolyIdeal([Polynomial.variable(2, 1), Polynomial.variable(2, 2)])
    B = PolyIdeal([Polynomial.variable(2, 2), _poly(2, {(1, 0): 1, (0, 1): 1})])
    assert ideal_equal(A, B, DRL2)
    C = PolyIdeal([_poly(2, {(2, 0): 1})])
    D = PolyIdeal([Polynomial.variable(2, 1)])
    assert not ideal_equal(C, D, DRL2)


def test_gb_deterministic_under_permutation():
    rng = random.Random(7)
    gens = [
        _poly(3, {(2, 0, 0): 1, (0, 1, 1): -2}),
        _poly(3, {(1, 1, 0): 3, (0, 0, 2): 1}),
        _poly(3, {(0, 2, 0): 1, (1, 0, 1): 1}),
    ]
    reference = PolyIdeal(gens).reduced_gb(DRL3)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert PolyIdeal(shuffled).reduced_gb(DRL3) == reference


def test_intersect_coprime_principal():
    A = PolyIdeal([Polynomial.variable(2, 1)])
    B = PolyIdeal([Polynomial.variable(2, 2)])
    assert ideal_equal(intersect(A, B), PolyIdeal([_poly(2, {(1, 1): 1})]), DRL2)


def test_intersect_matches_monomial_oracle():
    # (x1^2, x2^2) cap (x1) -> (x1^2, x1*x2^2), by the lcm oracle
    A_m = MonomialIdeal(2, [(2, 0), (0, 2)])
    B_m = MonomialIdeal(2, [(1, 0)])
    expected = intersect_mono(A_m, B_m)
    assert expected == MonomialIdeal(2, [(2, 0), (1, 2)])
    result = intersect(PolyIdeal.from_monomial(A_m), PolyIdeal.from_monomial(B_m))
    assert ideal_equal(result, PolyIdeal.from_monomial(expected), DRL2)


def test_intersect_mixed_components():
    # (x, y^2) cap (x, y, z)^2 = (x^2, xy, y^2, xz)
    A = PolyIdeal.from_monomial(MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)]))
    B = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]))
    expected = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]))
    assert ideal_equal(intersect(A, B), expected, DRL3)


def _random_elimination_case(rng, n):
    """Ideals I and J and a polynomial f of degree at most 1 with a constant
    term, inhomogeneous with rational coefficients: I is f times a random
    polynomial of degree at most 1 and, half the time, one more such
    polynomial, so that saturating by f changes it; J is a quadric."""
    quadrics = [t for d in range(3) for t in monomials_of_degree(n, d)]
    linear = [t for t in quadrics if sum(t) < 2]
    f = _random_polynomial(rng, linear, 2) + Polynomial.constant(n, rng.randint(4, 6))
    gens = [f * _random_polynomial(rng, linear, 2)]
    if rng.random() < 0.5:
        gens.append(_random_polynomial(rng, linear, 2))
    return PolyIdeal(gens, n=n), PolyIdeal([_random_polynomial(rng, quadrics, 3)], n=n), f


def _t_free_textbook_entries(n, gens):
    """The t-free entries of the textbook reduced basis of gens, polynomials
    in (t, x_1, .., x_n), under the elimination ordering; t dropped."""
    basis = reduced_basis_textbook(gens, _elimination_ordering(n))
    return tuple(Polynomial(n, {e[1:]: c for e, c in g.terms.items()}) for g in basis if all(e[0] == 0 for e in g.terms))


def test_elimination_matches_the_textbook_oracle():
    rng = random.Random(1601)
    for n in (0, 1, 1, 2, 2, 2, 3, 3, 3):
        I, J, f = _random_elimination_case(rng, n)

        def lift(g, k):
            return Polynomial(n + 1, {(k,) + e: c for e, c in g.terms.items()})

        # two principal ideals: the oracle, with no pair criteria, runs for
        # over a minute on some intersections with two generators on a side
        q = I.generators[0]
        one_minus_t_J = [lift(g, 0) - lift(g, 1) for g in J.generators]
        assert intersect(PolyIdeal([q]), J).generators == _t_free_textbook_entries(n, [lift(q, 1)] + one_minus_t_J)
        one_minus_tf = Polynomial.constant(n + 1, 1) - lift(f, 1)
        assert saturate(I, f).generators == _t_free_textbook_entries(n, [lift(g, 0) for g in I.generators] + [one_minus_tf])


def test_elimination_caches_its_degrevlex_basis(monkeypatch):
    rng = random.Random(1602)
    results = []
    for n in (0, 1, 2, 3):
        I, J, f = _random_elimination_case(rng, n)
        results += [(n, intersect(I, J)), (n, saturate(I, f))]
    buchberger = _count_calls(monkeypatch, "_buchberger")
    cached = [R.reduced_gb(degrevlex(n)) for n, R in results]
    assert not buchberger
    for (n, R), basis in zip(results, cached):
        assert basis == list(R.generators) == PolyIdeal(R.generators, n=n).reduced_gb(degrevlex(n))


def test_saturate_by_polynomial():
    I = PolyIdeal([_poly(2, {(1, 1): 1})])
    result = saturate(I, Polynomial.variable(2, 1))
    assert ideal_equal(result, PolyIdeal([Polynomial.variable(2, 2)]), DRL2)
    with pytest.raises(ValueError, match="different ring"):
        saturate(I, Polynomial.variable(3, 1))


def test_saturate_by_maximal_drops_embedded_part():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]))
    expected = PolyIdeal.from_monomial(MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)]))
    assert ideal_equal(saturate(I), expected, DRL3)


def test_saturate_fixed_point_for_saturated_prime():
    I = PolyIdeal([Polynomial.variable(3, 1), Polynomial.variable(3, 2)])
    assert ideal_equal(saturate(I), I, DRL3)


def _count_calls(monkeypatch, name):
    """Wrap groebner.<name> so that it counts its calls; returns the count list."""
    calls = []
    inner = getattr(groebner, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(groebner, name, counting)
    return calls


def test_saturation_certificate_rejects_a_non_generic_form(monkeypatch):
    # I = (x1 x3, x2 x3) = (x3) cap (x1, x2) is saturated, but l = x3 lies in
    # the associated prime (x3): I : x3^infinity = (x1, x2) is too large
    I = PolyIdeal([_poly(3, {(1, 0, 1): 1}), _poly(3, {(0, 1, 1): 1})])
    too_large = PolyIdeal([Polynomial.variable(3, 1), Polynomial.variable(3, 2)])
    assert ideal_equal(saturate(I, Polynomial.variable(3, 3)), too_large, DRL3)
    assert groebner._saturate_by_form(I, [0, 0]) is None
    assert saturate(I).generators == tuple(I.reduced_gb(DRL3))
    # with only the planted form to try, the elimination route answers
    monkeypatch.setattr(groebner, "SHEAR_COEFFS", (0,))
    fallback = _count_calls(monkeypatch, "_saturate_by_elimination")
    assert saturate(I).generators == tuple(I.reduced_gb(DRL3))
    assert len(fallback) == 1


def test_saturation_to_the_unit_ideal():
    one = (Polynomial.constant(3, 1),)
    # m-primary: (x1^2 + x2 x3, x2^2, x3^3) contains a power of every variable
    primary = PolyIdeal([_poly(3, {(2, 0, 0): 1, (0, 1, 1): 1}), _poly(3, {(0, 2, 0): 1}), _poly(3, {(0, 0, 3): 1})])
    assert saturate(primary).generators == one
    assert saturate(PolyIdeal([_poly(1, {(3,): 2})])).generators == (Polynomial.constant(1, 1),)
    # a degree-0 generator: alone it is homogeneous, with x1 x2 it is not
    five = Polynomial.constant(2, 5)
    for gens in ([five], [five, _poly(2, {(1, 1): 1})]):
        assert saturate(PolyIdeal(gens)).generators == (Polynomial.constant(2, 1),)
    # with no variables the irrelevant ideal is zero; this raised IndexError
    assert saturate(PolyIdeal([Polynomial.constant(0, 5)])).generators == (Polynomial.constant(0, 1),)


def _random_homogeneous_ideal(rng, n):
    """Two forms of degrees 2 and 3 plus monomials of degree 3 or 4, which
    add an embedded component for the saturation to remove."""
    gens = [_random_polynomial(rng, list(monomials_of_degree(n, d)), 3) for d in (2, 3)]
    gens += [Polynomial.monomial(n, t) for t in rng.sample(list(monomials_of_degree(n, rng.randint(3, 4))), 2)]
    return PolyIdeal(gens, n=n)


def test_homogeneous_saturation_matches_the_elimination_route(monkeypatch):
    rng = random.Random(1107)
    fallback = _count_calls(monkeypatch, "_saturate_by_elimination")
    for n in (2, 2, 3, 3, 3, 3, 4, 4, 4):
        I = _random_homogeneous_ideal(rng, n)
        fast = saturate(I).generators
        assert not fallback
        assert fast == groebner._saturate_by_elimination(I).generators
        fallback.clear()
    # inhomogeneous input keeps the elimination route
    I = PolyIdeal([_poly(3, {(2, 0, 0): 1, (0, 1, 0): -1}), _poly(3, {(1, 1, 1): 1})])
    assert not I.homogeneous
    saturate(I)
    assert len(fallback) == 1


def test_homogeneous_saturation_caches_its_degrevlex_basis(monkeypatch):
    I = _random_homogeneous_ideal(random.Random(5), 3)
    J = saturate(I)
    buchberger = _count_calls(monkeypatch, "_buchberger")
    assert J.reduced_gb(DRL3) == list(J.generators)
    assert not buchberger
    assert PolyIdeal(J.generators).reduced_gb(DRL3) == list(J.generators)


def test_homogeneous_saturation_reruns_on_overflow(monkeypatch):
    # two quadrics and two cubic monomials, saturating to the point (1:0:0);
    # the basis of the sheared ideal outgrows fields sized for exponent 3
    I = PolyIdeal(
        [
            _poly(3, {(1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): 1}),
            _poly(3, {(0, 2, 0): 3, (1, 0, 1): 1, (0, 0, 2): -2}),
            _poly(3, {(1, 0, 2): 1}),
            _poly(3, {(1, 2, 0): 1}),
        ]
    )
    widths = []

    class Recording(groebner._Packing):
        def __init__(self, ordering, width):
            widths.append(width)
            super().__init__(ordering, width)

    monkeypatch.setattr(groebner, "_Packing", Recording)
    monkeypatch.setattr(groebner, "HEADROOM_BITS", 0)
    assert saturate(I).generators == (Polynomial.variable(3, 2), Polynomial.variable(3, 3))
    assert widths[:2] == [2, 4]


def test_membership_is_multiplicative():
    rng = random.Random(13)
    I = PolyIdeal([_poly(2, {(2, 0): 1, (0, 2): -1}), _poly(2, {(1, 1): 1})])
    member = _poly(2, {(2, 0): 1, (0, 2): -1})
    for _ in range(20):
        g = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        assert I.normal_form(member * g, DRL2).is_zero()


def test_hilbert_function_matches_rank_oracle():
    rng = random.Random(19)
    for _ in range(3):
        terms1 = {e: rng.randint(1, 3) for e in [(2, 0, 0), (0, 1, 1)]}
        terms2 = {e: rng.randint(1, 3) for e in [(1, 1, 0), (0, 0, 2)]}
        I = PolyIdeal([_poly(3, terms1), _poly(3, terms2)])
        leading = I.initial_ideal(DRL3)
        hf = hilbert(leading, 5)
        for d in range(6):
            assert hf[d] == hf_by_rank(I, d)


def test_section_compatibility_of_initial_ideals():
    # the restriction identities for orderings preferring small last exponents
    rng = random.Random(23)
    n = 3
    drl = degrevlex(n)
    drl_hat = degrevlex(n - 1)
    for _ in range(5):
        gens = []
        for _ in range(2):
            d = rng.randint(2, 3)
            terms = {}
            from ginforge.polyring import monomials_of_degree

            mons = list(monomials_of_degree(n, d))
            for e in rng.sample(mons, 3):
                terms[e] = rng.randint(-3, 3)
            p = Polynomial(n, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = PolyIdeal(gens, n=n)
        # in(I) sectioned at x_n equals in of the section
        section = hyperplane_section(I, coordinate_form(n, n), n)
        lhs = coordinate_section(I.initial_ideal(drl), n)
        rhs = section.initial_ideal(drl_hat) if not section.is_zero() else MonomialIdeal(n - 1)
        assert lhs == rhs
        # in(I) + (x_n) equals in(I + (x_n))
        xn = Polynomial.variable(n, n)
        with_var = PolyIdeal(list(I.generators) + [xn], n=n)
        left = MonomialIdeal(n, list(I.initial_ideal(drl).gens) + [(0,) * (n - 1) + (1,)])
        assert left == with_var.initial_ideal(drl)


def _random_polynomial(rng, mons, terms):
    picked = rng.sample(mons, min(terms, len(mons)))
    return Polynomial(len(mons[0]), {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 4)), rng.randint(1, 3)) for e in picked})


def _random_admissible_ordering(rng, n):
    """A random admissible matrix ordering with integer entries from -2 to 3."""
    while True:
        try:
            return matrix_ordering([[rng.randint(-2, 3) for _ in range(n)] for _ in range(n)])
        except ValueError:
            pass


def test_reduced_gb_matches_textbook_buchberger():
    rng = random.Random(4242)
    matrix_rng = random.Random(4243)  # apart, so the generators do not depend on it
    for k in range(40):
        n = 2 + k % 3
        if k % 4 == 2:
            # squarefree quadrics: leading terms such as x1*x2, x2*x3, x1*x3 share
            # their lcms, which is where the Gebauer-Moller criteria B and F act
            mons = [m for m in monomials_of_degree(n, 2) if max(m) == 1]
            gens = [_random_polynomial(rng, mons, rng.randint(2, 3)) for _ in range(3)]
        else:
            gens = []
            for _ in range(rng.randint(2, 3)):
                d = rng.randint(1, 3 if n == 2 else 2)
                mons = [m for j in ([d] if k % 2 == 0 else range(d + 1)) for m in monomials_of_degree(n, j)]
                gens.append(_random_polynomial(rng, mons, rng.randint(2, 3)))
        orderings = [degrevlex(n), lex(n), _random_admissible_ordering(matrix_rng, n)]
        orderings += [w_type_ordering()] if n == 4 else []
        runs = [(gens, o) for o in orderings]
        if n < 4:
            # the auxiliary ideal I + (1 - t*f) of a saturation, under its elimination ordering
            t_f = _random_polynomial(rng, [m for j in (0, 1) for m in monomials_of_degree(n, j)], 2)
            aux = [Polynomial(n + 1, {(0,) + e: c for e, c in g.terms.items()}) for g in gens]
            aux.append(Polynomial.constant(n + 1, 1) - Polynomial(n + 1, {(1,) + e: c for e, c in t_f.terms.items()}))
            runs.append((aux, _elimination_ordering(n)))
        for generators, ordering in runs:
            I = PolyIdeal(generators)
            assert I.reduced_gb(ordering) == reduced_basis_textbook(generators, ordering)
            assert PolyIdeal(generators[::-1]).initial_ideal(ordering) == I.initial_ideal(ordering)


def test_reduced_gb_matches_sympy():
    import sympy
    from fractions import Fraction
    from ginforge.polyring import monomials_of_degree

    rng = random.Random(321)
    for _ in range(10):
        n = rng.choice((2, 3))
        xs = sympy.symbols("v0:%d" % n)
        gens = []
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 3)
            mons = list(monomials_of_degree(n, d))
            terms = {e: rng.randint(-5, 5) for e in rng.sample(mons, min(2, len(mons)))}
            p = Polynomial(n, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = PolyIdeal(gens, n=n)
        for kind, ordering in (("grevlex", degrevlex(n)), ("lex", lex(n))):
            ours = {tuple(sorted(f.terms.items())) for f in I.reduced_gb(ordering)}
            sym_gens = [
                sum(
                    sympy.Rational(c) * sympy.prod([v**e for v, e in zip(xs, mono)])
                    for mono, c in g.terms.items()
                )
                for g in gens
            ]
            theirs = set()
            for expr in sympy.groebner(sym_gens, *xs, order=kind).exprs:
                poly = sympy.Poly(expr, *xs)
                d = {tuple(int(a) for a in mono): Fraction(str(c)) for mono, c in poly.terms()}
                theirs.add(tuple(sorted(Polynomial(n, d).monic(ordering).terms.items())))
            assert ours == theirs


def test_concurrent_reduced_gb_is_consistent():
    # the cache contract: concurrent calls on one value return identical bases
    from concurrent.futures import ThreadPoolExecutor

    gens = [
        _poly(3, {(2, 0, 0): 1, (0, 1, 1): -2}),
        _poly(3, {(1, 1, 0): 3, (0, 0, 2): 1}),
        _poly(3, {(0, 2, 0): 1, (1, 0, 1): 1}),
    ]
    I = PolyIdeal(gens)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: I.reduced_gb(DRL3), range(16)))
    assert all(r == results[0] for r in results)


def test_zero_ideal_behavior():
    Z = PolyIdeal([], n=2)
    assert Z.reduced_gb(DRL2) == []
    assert Z.initial_ideal(DRL2) == MonomialIdeal(2)
    assert intersect(Z, PolyIdeal([Polynomial.variable(2, 1)])).is_zero()


def test_homogeneity_validation():
    inhomogeneous = _poly(2, {(1, 0): 1, (0, 2): 1})
    assert not PolyIdeal([inhomogeneous]).homogeneous


@pytest.mark.parametrize(
    "bad",
    [Polynomial(2, {(-1, 0): 1, (0, 1): 1}), Polynomial(2, {(1.5, 0): 2}), Polynomial(2, {(1j, 0): 1})],
    ids=["negative", "non-integer", "complex"],
)
def test_exponents_are_validated_where_they_are_packed(bad):
    # the first two entered Buchberger silently, the first giving the basis [1];
    # the complex exponent raised TypeError
    good = Polynomial(2, {(1, 1): 1})
    I = PolyIdeal([bad, good])
    message = "not a power product in 2 variables"
    with pytest.raises(ValueError, match=message):
        I.reduced_gb(DRL2)
    with pytest.raises(ValueError, match=message):
        I.leading_terms(DRL2)
    with pytest.raises(ValueError, match=message):
        I.normal_form(good, DRL2)
    with pytest.raises(ValueError, match=message):
        PolyIdeal([good]).normal_form(bad, DRL2)
    with pytest.raises(ValueError, match="not a power product"):
        saturate(PolyIdeal([bad]))
    # the eliminations name the user's ring, not the one with t
    for left, right in ((I, PolyIdeal([good])), (PolyIdeal([good]), I)):
        with pytest.raises(ValueError, match=message):
            intersect(left, right)
    with pytest.raises(ValueError, match=message):
        saturate(I, good)
    with pytest.raises(ValueError, match=message):
        saturate(PolyIdeal([good]), bad)


def test_exponent_overflow_reruns_with_wider_fields(monkeypatch):
    widths = []

    class Recording(groebner._Packing):
        def __init__(self, ordering, width):
            widths.append(width)
            super().__init__(ordering, width)

    monkeypatch.setattr(groebner, "_Packing", Recording)
    # x1 - x4^64 is in the lex basis, past the fields sized for exponent 4
    chain = [
        _poly(4, {(1, 0, 0, 0): 1, (0, 4, 0, 0): -1}),
        _poly(4, {(0, 1, 0, 0): 1, (0, 0, 4, 0): -1}),
        _poly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 4): -1}),
    ]
    # t^8 - x1 and t - x2^8 leave x2^64 - x1 after eliminating t
    aux = [_poly(3, {(8, 0, 0): 1, (0, 1, 0): -1}), _poly(3, {(1, 0, 0): 1, (0, 0, 8): -1})]
    for gens, ordering in ((chain, lex(4)), (aux, _elimination_ordering(2))):
        widths.clear()
        I = PolyIdeal(gens)
        assert I.reduced_gb(ordering) == reduced_basis_textbook(gens, ordering)
        assert widths == [widths[0], 2 * widths[0]]
    # normal forms whose products outgrow the first packing
    I = PolyIdeal(chain)
    I.reduced_gb(lex(4))
    assert I.normal_form(Polynomial.monomial(4, (40, 0, 0, 0)), lex(4)) == Polynomial.monomial(4, (0, 0, 0, 2560))
    for g in chain:
        assert I.normal_form(g * Polynomial.monomial(4, (0, 0, 0, 3000)), lex(4)).is_zero()


# a lex case whose S-polynomials swell when pairs pop by lcm alone: 1026
# S-polynomials and content-free coefficients of up to 9578 bits, against 46
# and 893 bits by sugar
SWELLING = [
    _poly(4, {(1, 1, 0, 0): -1, (0, 2, 0, 0): Fraction(1, 5), (0, 0, 2, 0): -2}),
    _poly(4, {(0, 3, 0, 0): Fraction(1, 2), (1, 1, 1, 0): Fraction(-1, 6), (0, 2, 1, 0): Fraction(-9, 4)}),
    _poly(4, {(3, 0, 0, 0): Fraction(-9, 5), (1, 0, 2, 0): Fraction(-7, 6), (1, 0, 1, 1): Fraction(-1, 5)}),
]
SWELLING_LEX_LEADING = [
    (0, 0, 11, 0), (0, 1, 3, 6), (0, 1, 4, 4), (0, 1, 5, 2), (0, 1, 6, 0), (0, 2, 2, 3), (0, 2, 3, 1),
    (0, 2, 4, 0), (0, 3, 0, 3), (0, 3, 1, 1), (0, 3, 2, 0), (0, 4, 0, 1), (0, 4, 1, 0), (0, 5, 0, 0),
    (1, 0, 2, 1), (1, 0, 3, 0), (1, 1, 0, 2), (1, 1, 1, 0), (1, 2, 0, 0), (2, 0, 0, 0),
]


def test_lex_pairs_pop_by_sugar(monkeypatch):
    """Three cubics and a quadric in 4 variables after a random coordinate
    change, under lex: the leading terms and the engine's counts are pinned."""
    real_spoly, real_reduce = groebner._spoly, groebner._reduce
    counts = dict(spolys=0, reductions=0, zero=0)

    def spoly(*args):
        counts["spolys"] += 1
        return real_spoly(*args)

    def reduce_(*args):
        out = real_reduce(*args)
        counts["reductions"] += 1
        counts["zero"] += not out[0]
        return out

    monkeypatch.setattr(groebner, "_spoly", spoly)
    monkeypatch.setattr(groebner, "_reduce", reduce_)
    g = QMatrix(random_invertible(random.Random(5), 4, 1000))
    I = PolyIdeal([apply_linear_change(f, g) for f in SWELLING], n=4)
    assert sorted(I.leading_terms(lex(4))) == SWELLING_LEX_LEADING
    assert counts == {"spolys": 46, "reductions": 49, "zero": 29}


def _ungraded_orderings(rng) -> list:
    """lex, the elimination ordering and a random matrix ordering whose first
    row is not the degree, in 3 variables (2 after the auxiliary one)."""
    while True:
        rows = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
        try:
            drawn = matrix_ordering([[rng.randint(1, 3) for _ in range(3)]] + rows)
        except ValueError:
            continue
        if drawn.rows[0] != (1, 1, 1):
            return [lex(3), _elimination_ordering(2), drawn]


def test_pair_keys_order_by_sugar_then_lcm():
    """A pair key orders as (sugar, lcm), gives back both, and is the packed
    lcm itself for a homogeneous pair under degrevlex; ExponentFields reads a
    key's degree as the sum of its exponents."""
    rng = random.Random(7)
    for ordering in _ungraded_orderings(rng) + [degrevlex(3)]:
        packing = groebner._Packing(ordering, 5)
        assert packing.graded == (ordering.rows[0] == (1, 1, 1))
        pairs = []
        for _ in range(40):
            a = tuple(rng.randint(0, 6) for _ in range(3))
            # an ungraded ecart may be negative, down to -deg(lcm)
            ecart = rng.randint(0 if packing.graded else -sum(a), 6)
            lcm = next(iter(packing.pack({a: 1})))
            key = packing.pair_key(lcm, ecart)
            assert packing.pair_lcm(key, ecart) == lcm
            assert key >> packing.sugar_shift == sum(a) + ecart
            assert packing.degree(key) == packing.degree(lcm) == sum(a)
            if packing.graded and not ecart:
                assert key == lcm
            # a graded packing adds the ecart into its degree row: the packed rows below break ties
            pairs.append(((sum(a) + ecart, lcm % (1 << packing.top) if packing.graded else ordering.key(a)), key))
        assert sorted(pairs, key=lambda p: p[0]) == sorted(pairs, key=lambda p: p[1])
        if not packing.graded:  # an input's key: its largest term degree, then its leading term
            p = packing.pack({(0, 0, 4): 1, (2, 1, 0): 3, (1, 0, 0): -1})
            key = packing.input_key(p)
            assert key >> packing.sugar_shift == 4
            assert packing.pair_lcm(key, 4 - packing.degree(max(p))) == max(p)
