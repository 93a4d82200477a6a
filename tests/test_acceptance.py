"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with ``pytest -s``
to see them).  Every comparison is exact equality of canonical forms over Q;
there are no numeric tolerances anywhere.  All randomness is seeded.
"""

import random

import pytest

from ginforge.checks import (
    STABLE_PAIR_GENS,
    STABLE_PAIR_GIN_DRL,
    STABLE_PAIR_GIN_LEX,
    STABLE_PAIR_SEEDS,
    _with_retry,
    check_counterexample,
    check_gindl,
    check_hyperplane_theorem,
    check_main_theorem,
    layered_ideal_from_pairs,
    radical_verdict_report,
    radirred_certification_report,
    random_homogeneous_ideal,
    random_layered_stable_instance,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    random_zero_dimensional_sstable,
    run_statement,
    sufficiently_generic_matrix,
)
from ginforge.distraction import distract_ideal, is_radical_for, make_matrix
from ginforge.gin import AmbiguousGinError, gin
from ginforge.groebner import PolyIdeal, ideal_equal, saturate
from ginforge.monomial import (
    MonomialIdeal,
    closure,
    coordinate_section,
    ek_betti,
    embed,
    hilbert,
    principal_formulas,
    saturate_mono,
    sstable_intersection_form,
    stability_flags,
)
from ginforge.points import points_from_ideal, projective_point, verify_points
from ginforge.polyring import (
    Polynomial,
    degrevlex,
    lex,
    monomials_of_degree,
    pp_max_index,
)
from oracles import random_layered_instance, taylor_betti

SEED = 7


def _report(number: int, ok: bool, text: str):
    print("%s  criterion %02d: %s" % ("PASS" if ok else "FAIL", number, text))
    assert ok, "criterion %d failed: %s" % (number, text)


def _gin_unanimous(I, ordering, seed, trials=2, retries=1):
    for k in range(retries + 1):
        try:
            res = gin(I, ordering, trials=trials, rng_seed=seed + 7919 * k)
        except AmbiguousGinError:
            continue
        if res.agreed:
            return res.ideal
    return None


@pytest.fixture(scope="module")
def sstable_family():
    rng = random.Random(SEED)
    family = []
    while len(family) < 50:
        n = rng.choice((2, 3, 4))
        I = random_strongly_stable_ideal(rng, n, max_deg=5)
        if not I.is_unit() and not I.is_zero():
            family.append(I)
    return family


def test_criterion_01_gin_of_stable_non_principal():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)]))
    res = gin(I, degrevlex(3), trials=3, rng_seed=SEED)
    expected = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    _report(1, res.agreed and res.ideal == expected, "gin of the stable non-principal example, unanimous over 3 trials")


def test_criterion_02_stable_pair_closure_and_gins():
    I = closure(4, STABLE_PAIR_SEEDS, "stable")
    ok = I == MonomialIdeal(4, STABLE_PAIR_GENS)
    drl_gin = _gin_unanimous(PolyIdeal.from_monomial(I), degrevlex(4), SEED, trials=3)
    lex_gin = _gin_unanimous(PolyIdeal.from_monomial(I), lex(4), SEED, trials=3)
    ok = ok and drl_gin == MonomialIdeal(4, STABLE_PAIR_GIN_DRL)
    ok = ok and lex_gin == MonomialIdeal(4, STABLE_PAIR_GIN_LEX)
    _report(2, ok, "stable closure of two seeds and its displayed degrevlex/lex gins")


def test_criterion_03_distraction_changes_gin_of_stable_ideal():
    report = check_counterexample(seed=1, trials=3)
    _report(3, report.passed, "14-generator stable ideal: gin vs gin of distraction differ as displayed")


def test_criterion_04_section_example():
    # the four displayed sections, and no random instance: seed 1, 3 trials
    reports = run_statement("hyperplane", seed=0, instances=0)
    ok = len(reports) == 4 and all(r.passed for r in reports)
    _report(4, ok, "distracted quintic ideal: all four displayed section gins")


def test_criterion_05_initial_ideal_of_distraction(sstable_family):
    rng = random.Random(SEED + 5)
    checked = 0
    ok = True
    for I in sstable_family:
        N = max(2, min(I.max_exponent(), 4))
        for kind in ("transformed_classic", "generic"):
            L = sufficiently_generic_matrix(I.n, N, rng.randrange(1 << 30), kind)
            if not check_main_theorem(I, L).passed:
                ok = False
            checked += 1
    _report(5, ok and checked >= 100, "in_drl of distraction equals the ideal on %d instances" % checked)


def test_criterion_06_gin_of_distraction(sstable_family):
    rng = random.Random(SEED + 6)
    ok = True
    checked = 0
    for I in sstable_family:
        N = max(2, min(I.max_exponent(), 4))
        for kind in ("classic", "generic"):
            if kind == "classic":
                L = make_matrix("classic", I.n, N + 1)
            else:
                L = make_matrix("generic", I.n, N, rng_seed=rng.randrange(1 << 30))
            report = _with_retry(check_gindl, I, L, seed=rng.randrange(1 << 30), trials=2)
            if not report.passed:
                ok = False
            checked += 1
    _report(6, ok and checked >= 100, "gin_drl of distraction equals the ideal on %d instances" % checked)


def test_criterion_07_gin_fixes_strongly_stable(sstable_family):
    ok = True
    for k, I in enumerate(sstable_family[:20]):
        P = PolyIdeal.from_monomial(I)
        for ordering in (degrevlex(I.n), lex(I.n)):
            found = _gin_unanimous(P, ordering, SEED + k)
            if found != I:
                ok = False
    _report(7, ok, "gin fixes strongly stable ideals under degrevlex and lex, 20 instances")


def test_criterion_08_section_of_gin():
    rng = random.Random(SEED + 8)
    ok = True
    count = 0
    while count < 30:
        n = rng.choice((2, 3, 4))
        I = random_homogeneous_ideal(rng, n)
        report = _with_retry(check_hyperplane_theorem, I, degrevlex(n), n, seed=rng.randrange(1 << 30), trials=2)
        if report.status == "skipped":
            continue
        if not report.passed:
            ok = False
        count += 1
    _report(8, ok, "gin of generic section equals section of gin, 30 random homogeneous ideals")


def test_criterion_09_distraction_preserves_hilbert_function():
    rng = random.Random(SEED + 9)
    ok = True
    count = 0
    while count < 30:
        n = rng.choice((2, 3, 4))
        I = random_monomial_ideal(rng, n, max_deg=4)
        if I.is_zero() or I.is_unit():
            continue
        if count % 2:
            L = make_matrix("classic", n, max(I.max_exponent(), 1) + 1)
        else:
            L = make_matrix("generic", n, max(I.max_exponent(), 1), rng_seed=rng.randrange(1 << 30))
        D = distract_ideal(L, I)
        if hilbert(D.initial_ideal(degrevlex(n)), 6) != hilbert(I, 6):
            ok = False
        count += 1
    _report(9, ok, "Hilbert functions of ideal and distraction agree to degree 6, 30 instances")


def test_criterion_10_distraction_commutes_with_saturation():
    rng = random.Random(SEED + 10)
    drl3 = degrevlex(3)
    fixture = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    L = make_matrix("classic", 3, 3)
    ok = ideal_equal(
        distract_ideal(L, saturate_mono(fixture)), saturate(distract_ideal(L, fixture)), drl3
    )
    count = 0
    while count < 20:
        n = rng.choice((2, 3))
        I = random_monomial_ideal(rng, n, max_deg=3)
        if I.is_zero() or I.is_unit():
            continue
        if count % 2:
            M = make_matrix("classic", n, max(I.max_exponent(), 1) + 1)
        else:
            M = make_matrix("generic", n, max(I.max_exponent(), 1), rng_seed=rng.randrange(1 << 30))
        left = distract_ideal(M, saturate_mono(I))
        right = saturate(distract_ideal(M, I))
        if not ideal_equal(left, right, degrevlex(n)):
            ok = False
        count += 1
    _report(10, ok, "distraction commutes with saturation on the fixture and 20 random ideals")


def test_criterion_11_radical_distractions():
    ok = radical_verdict_report(seed=1).passed
    rng = random.Random(SEED + 11)
    certified = 0
    while certified < 10:
        n = rng.choice((2, 3))
        I = saturate_mono(random_monomial_ideal(rng, n, max_deg=3))
        if I.is_zero() or I.is_unit():
            continue
        L = make_matrix("generic", n, max(I.max_exponent(), 1), rng_seed=rng.randrange(1 << 30))
        if not is_radical_for(L, I):
            continue
        if not radirred_certification_report(I, L).passed:
            ok = False
        certified += 1
    _report(11, ok, "radical-for verdicts and %d certified prime decompositions" % certified)


def test_criterion_12_closed_forms_exhaustive():
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        for d in range(1, 6):
            for t in monomials_of_degree(n, d):
                if pp_max_index(t) != n and n > 1:
                    continue  # counted once, in its smallest ring
                stable_form, gin_form = principal_formulas(t)
                I = closure(n, [t], "stable")
                if I != stable_form:
                    ok = False
                P = PolyIdeal.from_monomial(I)
                for ordering in (degrevlex(n), lex(n)):
                    if _gin_unanimous(P, ordering, SEED + checked) != gin_form:
                        ok = False
                checked += 1
    _report(12, ok, "principal closed forms match closure and gin for all %d eligible terms" % checked)


def test_criterion_13_strongly_stable_characterization(sstable_family):
    ok = True
    for I in sstable_family[:20]:
        gens = []
        for t in I.gens:
            gens.extend(closure(I.n, [t], "strongly_stable").gens)
        if MonomialIdeal(I.n, gens) != I:
            ok = False
    for n in (1, 2, 3):
        for d in range(1, 5):
            for t in monomials_of_degree(n, d):
                if closure(n, [t], "strongly_stable") != sstable_intersection_form(t):
                    ok = False
    _report(13, ok, "strongly stable ideals as sums/intersections of segment powers (20 + exhaustive)")


def test_criterion_14_layered_stable_ideals():
    rng = random.Random(SEED + 14)
    ok = True
    # stability holds on the full hypothesis family
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        I = random_layered_instance(rng, n)
        if not stability_flags(I)[0]:
            ok = False
    # equal pair tuples give equal Betti tables and Hilbert functions on the
    # equal-totals sub-family (the one principal stable closures produce)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        I, pairs = random_layered_stable_instance(rng, n)
        twin = layered_ideal_from_pairs(n, pairs)
        if not stability_flags(I)[0] or not stability_flags(twin)[0]:
            ok = False
        d = max(I.max_degree(), twin.max_degree()) + 2
        if ek_betti(I) != ek_betti(twin) or hilbert(I, d) != hilbert(twin, d):
            ok = False
    _report(14, ok, "layered ideals are stable; equal pair tuples give equal Betti tables, 20+20 instances")


def test_criterion_15_point_configurations():
    I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    construction = points_from_ideal(I, make_matrix("classic", 3, 3))
    expected = tuple(projective_point(c) for c in ((0, 0, 1), (0, 1, 1), (1, 0, 1)))
    ok = construction.points == expected and verify_points(construction, SEED, trials=2).passed
    rng = random.Random(SEED + 15)
    verified = 0
    while verified < 5:
        n = rng.choice((2, 3))
        J = random_zero_dimensional_sstable(rng, n, max_exp=3 if n == 2 else 2)
        L = None
        for _ in range(10):
            candidate = make_matrix("generic", n + 1, max(J.max_exponent(), 2), rng_seed=rng.randrange(1 << 30))
            if is_radical_for(candidate, embed(J, 1)):
                L = candidate
                break
        if L is None:
            continue
        built = points_from_ideal(J, L)
        report = verify_points(built, rng.randrange(1 << 30), trials=2)
        if not report.passed:
            ok = False
        verified += 1
    _report(15, ok, "point construction verified on the plane fixture and %d random instances" % verified)


def test_criterion_16_betti_tables_against_taylor_oracle():
    rng = random.Random(SEED + 16)
    ok = True
    checked = 0
    while checked < 10:
        n = rng.choice((2, 3))
        I = closure(
            n,
            [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 2))],
            "stable",
        ) if rng.random() < 0.8 else random_strongly_stable_ideal(rng, n, max_deg=3)
        if I.is_zero() or I.is_unit() or len(I.gens) > 5:
            continue
        if not stability_flags(I)[0]:
            continue
        if ek_betti(I) != taylor_betti(I):
            ok = False
        checked += 1
    _report(16, ok, "Eliahou-Kervaire tables match the Taylor-complex oracle, 10 stable ideals")


def test_criterion_17_engine_self_checks():
    rng = random.Random(SEED + 17)
    ok = True
    # Groebner determinism under generator permutation
    for _ in range(5):
        n = rng.choice((2, 3))
        I = random_homogeneous_ideal(rng, n, max_deg=3)
        gens = list(I.generators)
        reference = PolyIdeal(gens, n=n).reduced_gb(degrevlex(n))
        for _ in range(3):
            rng.shuffle(gens)
            if PolyIdeal(gens, n=n).reduced_gb(degrevlex(n)) != reference:
                ok = False
    # normal-form membership soundness
    queries = 0
    while queries < 100:
        n = rng.choice((2, 3))
        I = random_homogeneous_ideal(rng, n, max_deg=3)
        drl = degrevlex(n)
        for _ in range(10):
            combo = Polynomial.zero(n)
            for g in I.generators:
                e = tuple(rng.randint(0, 2) for _ in range(n))
                combo = combo + Polynomial(n, {e: rng.randint(-3, 3)}) * g
            if not I.normal_form(combo, drl).is_zero():
                ok = False
            queries += 1
    # section identities for the initial ideal at the last variable
    from ginforge.gin import coordinate_form, hyperplane_section

    count = 0
    while count < 20:
        n = rng.choice((3, 4))
        I = random_homogeneous_ideal(rng, n, max_deg=4)
        drl = degrevlex(n)
        section = hyperplane_section(I, coordinate_form(n, n), n)
        lhs = coordinate_section(I.initial_ideal(drl), n)
        rhs = section.initial_ideal(degrevlex(n - 1)) if not section.is_zero() else MonomialIdeal(n - 1)
        if lhs != rhs:
            ok = False
        xn = Polynomial.variable(n, n)
        left = MonomialIdeal(n, list(I.initial_ideal(drl).gens) + [(0,) * (n - 1) + (1,)])
        right = PolyIdeal(list(I.generators) + [xn], n=n).initial_ideal(drl)
        if left != right:
            ok = False
        count += 1
    _report(17, ok, "determinism, 100 membership queries, and 20 section identities")
