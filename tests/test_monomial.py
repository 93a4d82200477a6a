import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginforge.monomial import (
    DegenerateInputError,
    MonomialIdeal,
    NotStableError,
    _canonical_order,
    closure,
    coordinate_section,
    ek_betti,
    embed,
    hilbert,
    hilbert_numerator,
    intersect_mono,
    irreducible_decomposition,
    move_core,
    principal_formulas,
    saturate_mono,
    scale_by,
    sstable_intersection_form,
    stability_flags,
)
from ginforge.gin import _variable_rank
from ginforge.polyring import degrevlex, lex, matrix_ordering, monomials_of_degree, pp_deg
from oracles import (
    betti_to_hilbert,
    hilbert_by_enumeration,
    monomials_up_to_degree,
    numerator_by_inclusion_exclusion,
    stability_flags_by_all_moves,
    stability_flags_exhaustive,
    taylor_betti,
)


def test_minimalize_examples():
    assert MonomialIdeal(1, [(1,), (2,)]).gens == ((1,),)
    incomparable = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    assert set(incomparable.gens) == {(1, 1, 0), (0, 1, 1)}
    assert set(MonomialIdeal(2, [(2, 0), (2, 1), (0, 3)]).gens) == {(2, 0), (0, 3)}


def test_stability_flags_examples():
    stable_only = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    assert stability_flags(stable_only) == (True, False)
    both = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    assert stability_flags(both) == (True, True)
    neither = MonomialIdeal(2, [(0, 1)])
    assert stability_flags(neither) == (False, False)


def test_stability_flags_match_exhaustive_oracle():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(n, gens)
        d = I.max_degree() + 2
        assert stability_flags(I) == stability_flags_exhaustive(I, d)


def test_stability_flags_match_every_move():
    """Adjacent moves decide strong stability as every move does: on random
    ideals, their stable and strongly stable closures, and each of these with
    its first generator dropped."""
    rng = random.Random(20)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(2, 4)
        seeds = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        seeds = [t for t in seeds if any(t)] or [(1,) * n]
        strong = closure(n, seeds, "strongly_stable")
        assert stability_flags_by_all_moves(strong) == (True, True)
        for I in (MonomialIdeal(n, seeds), closure(n, seeds, "stable"), strong):
            for J in (I, MonomialIdeal(n, I.gens[1:] or I.gens)):
                flags = stability_flags(J)
                assert flags == stability_flags_by_all_moves(J)
                seen[flags] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}


def _closed_under_moves(n: int, gens: list, rank: list) -> bool:
    """Whether (gens) is closed under the adjacent moves of ``rank``, tried on
    every monomial of the ideal up to the largest generator degree."""

    def inside(m):
        return any(all(a <= b for a, b in zip(g, m)) for g in gens)

    for d in range(max(map(sum, gens), default=0) + 1):
        for m in filter(inside, monomials_of_degree(n, d)):
            for up, down in zip(rank, rank[1:]):
                if m[down] and not inside([a + (k == up) - (k == down) for k, a in enumerate(m)]):
                    return False
    return True


def test_move_core_is_the_largest_closed_subset():
    """Against every subset of up to 6 random generators, some repeated or
    dividing others, in the ranks of degrevlex, lex and a matrix ordering
    that ranks x2 > x3 > x1."""
    rng = random.Random(28)
    sizes = Counter()
    for _ in range(120):
        n = rng.randint(1, 3)
        orderings = [degrevlex(n), lex(n)] + [matrix_ordering([[1, 1, 1], [0, 1, 0], [0, 0, 1]])] * (n == 3)
        gens = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        gens += rng.sample(gens, rng.randint(0, 1))
        for ordering in orderings:
            rank = _variable_rank(ordering)
            core = move_core(n, gens, rank)
            assert core == sorted(core) and _closed_under_moves(n, [gens[i] for i in core], rank)
            for mask in range(1 << len(gens)):
                subset = [i for i in range(len(gens)) if mask >> i & 1]
                if _closed_under_moves(n, [gens[i] for i in subset], rank):
                    assert set(subset) <= set(core)
            sizes["empty" if not core else "every" if len(core) == len(gens) else "part"] += 1
    assert min(sizes["empty"], sizes["part"], sizes["every"]) >= 20


def test_move_core_pins():
    # x1*x2 moves to x1^2 outside the ideal; only without x1*x2 does x2^3 move out
    for gens in ([(1, 1), (0, 3)], [(0, 3), (1, 1)]):
        assert move_core(2, gens, [0, 1]) == []
    # the stable closure of x2*x3^4 keeps its 6 generators free of x3 in place
    I = closure(3, [(0, 1, 4)], "stable")
    core = move_core(3, I.gens, [0, 1, 2])
    assert len(I.gens) == 16 and [I.gens[i] for i in core] == [(5 - k, k, 0) for k in range(6)]
    strong = closure(3, [(0, 1, 4)], "strongly_stable")
    assert move_core(3, strong.gens, [0, 1, 2]) == list(range(len(strong.gens)))
    assert move_core(3, strong.gens, [2, 1, 0]) == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.data())
def test_packed_stability_flags_match_every_move(n, data):
    # exponents up to 2^k - 1 and 2^k, where the packed fields must widen;
    # the closures only of small seeds, as they grow fast with the degree
    exponent = st.sampled_from((0, 1, 2, 3, 4, 7, 8, 15, 16))
    gens = data.draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=4))
    ideals = [MonomialIdeal(n, gens)]
    if sum(map(sum, gens)) <= 6:
        ideals += [closure(n, gens, "stable"), closure(n, gens, "strongly_stable")]
    for I in ideals:
        assert stability_flags(I) == stability_flags_by_all_moves(I)


def test_ideals_without_variables():
    unit, zero = MonomialIdeal(0, [()]), MonomialIdeal(0)
    assert unit.max_exponent() == zero.max_exponent() == 0
    assert stability_flags(unit) == stability_flags(zero) == (True, True)


@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), unique=True)))
def test_canonical_order_is_descending_degrevlex(gens):
    n = len(gens[0]) if gens else 0
    ordering = degrevlex(n)
    assert _canonical_order(gens) == tuple(sorted(gens, key=lambda t: (ordering.key(t), t), reverse=True))


def test_stable_closure_of_pair():
    I = closure(4, [(1, 1, 0, 0), (0, 1, 1, 1)], "stable")
    expected = MonomialIdeal(
        4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (0, 1, 1, 1)]
    )
    assert I == expected


def test_sstable_closure_matches_intersection_form():
    t = (1, 2, 1)
    assert closure(3, [t], "strongly_stable") == sstable_intersection_form(t)


def test_closure_of_pure_power_is_principal():
    for mode in ("stable", "strongly_stable"):
        assert closure(2, [(3, 0)], mode) == MonomialIdeal(2, [(3, 0)])


def test_closure_idempotent_and_monotone():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice((2, 3))
        seeds = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        seeds = [s for s in seeds if any(s)]
        if not seeds:
            continue
        for mode in ("stable", "strongly_stable"):
            I = closure(n, seeds, mode)
            assert closure(n, I.gens, mode) == I
            bigger = closure(n, seeds + [tuple(rng.randint(0, 2) for _ in range(n)) or (1,) * n], mode)
            assert all(bigger.contains(g) for g in I.gens)
        strong = closure(n, seeds, "strongly_stable")
        weak = closure(n, seeds, "stable")
        assert all(strong.contains(g) for g in weak.gens)


def test_closure_reports_matching_flags():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        seeds = [tuple(rng.randint(0, 2) for _ in range(n))]
        if not any(seeds[0]):
            continue
        assert stability_flags(closure(n, seeds, "stable"))[0]
        assert stability_flags(closure(n, seeds, "strongly_stable"))[1]


def test_intersect_mono_examples():
    squares = [
        MonomialIdeal(3, [(2, 0, 0), (0, 2, 0)]),
        MonomialIdeal(3, [(2, 0, 0), (0, 0, 2)]),
        MonomialIdeal(3, [(0, 2, 0), (0, 0, 2)]),
    ]
    triple = intersect_mono(intersect_mono(squares[0], squares[1]), squares[2])
    assert triple == MonomialIdeal(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert intersect_mono(I, I) == I
    assert intersect_mono(MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])) == MonomialIdeal(
        2, [(1, 1)]
    )


def test_saturate_mono_examples():
    depth_zero = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    assert saturate_mono(depth_zero) == MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)])
    saturated = MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)])
    assert saturate_mono(saturated) == saturated
    principal = MonomialIdeal(2, [(3, 0)])
    assert saturate_mono(principal) == principal


def test_saturation_of_strongly_stable_is_strongly_stable():
    rng = random.Random(8)
    for _ in range(12):
        n = rng.choice((2, 3, 4))
        t = tuple(rng.randint(0, 2) for _ in range(n))
        if not any(t):
            continue
        I = closure(n, [t], "strongly_stable")
        sat = saturate_mono(I)
        assert stability_flags(sat)[1]
        # for strongly stable ideals the saturation only needs the last variable
        last_var_only = MonomialIdeal(n, [g[:-1] + (0,) for g in I.gens])
        assert sat == last_var_only


def test_irreducible_decomposition_examples():
    triple = MonomialIdeal(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    comps = irreducible_decomposition(triple)
    expected = {
        MonomialIdeal(3, [(2, 0, 0), (0, 2, 0)]),
        MonomialIdeal(3, [(2, 0, 0), (0, 0, 2)]),
        MonomialIdeal(3, [(0, 2, 0), (0, 0, 2)]),
    }
    assert set(comps) == expected

    principal = MonomialIdeal(1, [(4,)])
    assert irreducible_decomposition(principal) == [principal]

    mixed = MonomialIdeal(2, [(2, 0), (1, 1)])
    comps = set(irreducible_decomposition(mixed))
    assert comps == {MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(2, 0), (0, 1)])}
    # brute-force irredundant intersection check up to degree 3
    for t in monomials_up_to_degree(2, 3):
        assert mixed.contains(t) == all(c.contains(t) for c in comps)


def test_decomposition_components_are_pure_power_and_intersect_back():
    rng = random.Random(10)
    for _ in range(12):
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(n, gens)
        comps = irreducible_decomposition(I)
        meet = comps[0]
        for c in comps[1:]:
            meet = intersect_mono(meet, c)
        assert meet == I
        for c in comps:
            assert all(sum(1 for a in g if a) == 1 for g in c.gens)


def _meet(n, ideals):
    """The intersection of monomial ideals; the unit ideal for none."""
    meet = MonomialIdeal(n, [(0,) * n])
    for J in ideals:
        meet = intersect_mono(meet, J)
    return meet


def test_decomposition_is_irredundant():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        I = MonomialIdeal(n, gens)
        if I.is_zero() or I.is_unit():
            continue
        comps = irreducible_decomposition(I)
        assert _meet(n, comps) == I
        for k, c in enumerate(comps):
            assert not c.contains_ideal(_meet(n, comps[:k] + comps[k + 1 :]))


def test_hilbert_examples():
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    assert hilbert(I, 3) == [1, 3, 2, 2]
    unit = MonomialIdeal(2, [(0, 0)])
    assert hilbert(unit, 3) == [0, 0, 0, 0]
    zero = MonomialIdeal(3)
    assert hilbert(zero, 4) == [comb(2 + d, 2) for d in range(5)]


def test_hilbert_matches_enumeration_oracle():
    rng = random.Random(12)
    for _ in range(8):
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(n, gens)
        assert hilbert(I, 5) == hilbert_by_enumeration(I, 5)


# monomial ideals with n <= 5 and exponents <= 6
small_ideals = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=6).map(lambda gens: (n, gens))
)


@settings(max_examples=60, deadline=None)
@given(small_ideals)
def test_numerator_gives_the_enumerated_hilbert_function(case):
    n, gens = case
    I = MonomialIdeal(n, gens)
    assert hilbert(I, 12 if n < 5 else 9) == hilbert_by_enumeration(I, 12 if n < 5 else 9)
    assert hilbert_numerator(n, gens) == numerator_by_inclusion_exclusion(I)


@settings(max_examples=60, deadline=None)
@given(small_ideals, st.randoms(use_true_random=False))
def test_numerator_ignores_the_order_of_the_generators(case, rng):
    n, gens = case
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert hilbert_numerator(n, shuffled) == hilbert_numerator(n, gens)


def test_numerator_examples():
    assert hilbert_numerator(3, []) == [1]
    assert hilbert_numerator(2, [(0, 0)]) == []
    # (x1^2, x1*x2, x2^2, x2*x3), whose Hilbert function starts 1, 3, 2, 2
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    assert hilbert_numerator(3, I.gens) == [1, 0, -4, 4, -1]
    # redundant and repeated generators change nothing
    assert hilbert_numerator(2, [(1, 0), (2, 1), (1, 0)]) == [1, -1]


def test_hilbert_count_consistency():
    I = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    hf = hilbert(I, 5)
    for d in range(6):
        inside = sum(1 for t in monomials_up_to_degree(3, d) if pp_deg(t) == d and I.contains(t))
        assert hf[d] + inside == comb(3 - 1 + d, d)


def test_ek_betti_two_variables():
    table = ek_betti(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert table == {(0, 1): 2, (1, 2): 1}
    assert table == taylor_betti(MonomialIdeal(2, [(1, 0), (0, 1)]))


def test_ek_betti_principal():
    assert ek_betti(MonomialIdeal(1, [(5,)])) == {(0, 5): 1}


def test_ek_betti_rejects_non_stable():
    with pytest.raises(NotStableError):
        ek_betti(MonomialIdeal(2, [(0, 2)]))


def test_ek_betti_same_pairs_same_table():
    # a layered ideal and the one built from its (degree, exponent) pairs
    I = closure(2, [(1, 1)], "stable")
    J = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert ek_betti(I) == ek_betti(J)


def test_betti_alternating_sum_reproduces_hilbert():
    rng = random.Random(14)
    for _ in range(8):
        n = rng.choice((2, 3))
        t = tuple(rng.randint(0, 2) for _ in range(n))
        if not any(t):
            continue
        I = closure(n, [t], "strongly_stable")
        assert betti_to_hilbert(ek_betti(I), n, 6) == hilbert(I, 6)


def test_principal_formulas_examples():
    stable, gin_form = principal_formulas((0, 1))
    assert stable == MonomialIdeal(2, [(1, 0), (0, 1)])
    assert gin_form == MonomialIdeal(2, [(1, 0), (0, 1)])
    stable, gin_form = principal_formulas((1, 1))
    assert stable == MonomialIdeal(2, [(2, 0), (1, 1)])
    assert gin_form == stable


def test_principal_formulas_match_closure_small():
    for n in (2, 3):
        for t in monomials_up_to_degree(n, 4):
            if pp_deg(t) == 0:
                continue
            assert principal_formulas(t)[0] == closure(n, [t], "stable")


def test_principal_formulas_degenerate_input():
    with pytest.raises(DegenerateInputError):
        principal_formulas((0, 0))


def test_sum_of_sstable_closures_recovers_strongly_stable():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        seeds = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        seeds = [s for s in seeds if any(s)]
        if not seeds:
            continue
        I = closure(n, seeds, "strongly_stable")
        gens = []
        for t in I.gens:
            gens.extend(closure(n, [t], "strongly_stable").gens)
        assert MonomialIdeal(n, gens) == I


def test_helpers_section_embed_scale():
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 0, 2)])
    assert coordinate_section(I, 3) == MonomialIdeal(2, [(2, 0), (1, 1)])
    assert embed(I, 1).n == 4
    assert scale_by(MonomialIdeal(2, [(1, 0), (0, 1)]), (1, 0)) == MonomialIdeal(2, [(2, 0), (1, 1)])


@pytest.mark.parametrize("bad", [(1, -1), (0, -1), (0.5, 1), (1, 0, 0), (1,)])
def test_invalid_exponents_are_rejected(bad):
    # a negative seed used to send the closure search on forever
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 0), bad])
    for mode in ("stable", "strongly_stable"):
        with pytest.raises(ValueError):
            closure(2, [bad], mode)
