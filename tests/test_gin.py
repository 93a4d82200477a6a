import dataclasses
import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ginforge.checks import COUNTER_GIN_DISTRACTED, COUNTER_SEEDS, random_invertible, w_type_ordering
from ginforge.cli import main
from ginforge.distraction import distract_ideal, make_matrix
from ginforge.gin import (
    COEFF_BOUND,
    SUSPICIOUS_REASON,
    AmbiguousGinError,
    GinResult,
    HilbertMismatchError,
    coordinate_form,
    gin,
    gin_verdict,
    hyperplane_section,
    random_linear_form,
)
from ginforge.groebner import PolyIdeal, _strip_content, _to_int_poly, ideal_equal
from ginforge.monomial import MonomialIdeal, closure, hilbert, move_core, principal_formulas, stability_flags
from ginforge.numeric import QMatrix
from ginforge.polyring import (
    Polynomial,
    _Substitution,
    _identity_map,
    apply_linear_change,
    degrevlex,
    lex,
    linear_form,
    matrix_ordering,
    monomials_of_degree,
)
from oracles import linear_change_by_expansion

DRL2 = degrevlex(2)
DRL3 = degrevlex(3)
# lex with the variables reversed, and a degree ordering that ranks x2 > x3 > x1
REVLEX3 = matrix_ordering([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
ROTATED3 = matrix_ordering([[1, 1, 1], [0, 1, 0], [0, 0, 1]])


def test_gin_of_strongly_stable_is_itself():
    I = closure(3, [(1, 2, 0)], "strongly_stable")
    res = gin(PolyIdeal.from_monomial(I), DRL3, trials=3, rng_seed=5)
    assert res.agreed and res.ideal == I and not res.suspicious
    res_lex = gin(PolyIdeal.from_monomial(I), lex(3), trials=3, rng_seed=5)
    assert res_lex.agreed and res_lex.ideal == I


def test_gin_of_stable_example():
    I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    res = gin(PolyIdeal.from_monomial(I), DRL3, trials=3, rng_seed=7)
    assert res.agreed
    assert res.ideal == MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])


def test_gin_deterministic():
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(2, 0), (1, 1)]))
    a = gin(I, DRL2, trials=3, rng_seed=11)
    b = gin(I, DRL2, trials=3, rng_seed=11)
    assert a == b
    assert a.seeds == b.seeds and len(a.seeds) == 3


def test_gin_of_the_unit_ideal_without_variables():
    # lex(0) has no rows, so the degree row is the trials' whole ordering
    for ordering in (lex(0), degrevlex(0)):
        res = gin(PolyIdeal([Polynomial.constant(0, 1)]), ordering, trials=2, rng_seed=1)
        assert res.agreed and res.ideal == MonomialIdeal(0, [()])


def test_monomial_input_expands_nothing_until_its_generators_are_read(monkeypatch):
    M = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])  # strongly stable

    def refuse(self, polys):
        raise AssertionError("a monomial ideal expanded its generators")

    monkeypatch.setattr(_Substitution, "apply", refuse)
    I, zero = PolyIdeal.from_monomial(M), PolyIdeal.from_monomial(MonomialIdeal(3))
    assert (I.n, I.homogeneous, I.is_zero(), repr(I)) == (3, True, False, "PolyIdeal(n=3, 4 generators)")
    assert gin(I, DRL3, trials=2, rng_seed=2).ideal == M
    assert gin(I, lex(3), trials=2, rng_seed=2).agreed
    assert zero.is_zero() and repr(zero) == "PolyIdeal(n=3, 0 generators)"
    monkeypatch.undo()
    assert I.generators == tuple(Polynomial.monomial(3, t) for t in M.gens)
    assert zero.generators == ()


def test_monomial_input_has_the_gin_of_its_generators():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 4)
        seeds = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        M = MonomialIdeal(n, [t for t in seeds if any(t)] or [(1,) * n])
        I = PolyIdeal.from_monomial(M)
        rebuilt = PolyIdeal(list(I.generators), n=n)
        assert rebuilt._source is None
        for ordering in (degrevlex(n), lex(n)):
            seed = rng.randrange(1 << 16)
            assert gin(I, ordering, trials=2, rng_seed=seed) == gin(rebuilt, ordering, trials=2, rng_seed=seed)


def test_gin_idempotent_on_its_output():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)]))
    first = gin(I, DRL3, trials=2, rng_seed=3)
    again = gin(PolyIdeal.from_monomial(first.ideal), DRL3, trials=2, rng_seed=17)
    assert again.ideal == first.ideal


def test_gin_preserves_hilbert_function():
    gens = [
        Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1}),
        Polynomial(3, {(1, 1, 0): 2, (0, 0, 2): 3}),
    ]
    I = PolyIdeal(gens)
    res = gin(I, DRL3, trials=2, rng_seed=9)
    assert hilbert(res.ideal, 6) == hilbert(I.initial_ideal(DRL3), 6)


def test_gin_result_is_strongly_stable():
    rng = random.Random(23)
    for _ in range(5):
        gens = [
            Polynomial(3, {(2, 0, 0): rng.randint(1, 4), (1, 0, 1): -1, (0, 2, 0): rng.randint(1, 3)}),
            Polynomial(3, {(1, 1, 0): 1, (0, 1, 1): rng.randint(-3, -1)}),
        ]
        res = gin(PolyIdeal(gens), DRL3, trials=2, rng_seed=rng.randrange(1 << 30))
        assert res.agreed
        assert stability_flags(res.ideal)[1]
        assert not res.suspicious


def test_suspicious_unanimous_gin_fails(monkeypatch):
    gin_module = importlib.import_module("ginforge.gin")
    real_gin = gin_module.gin
    monkeypatch.setattr(
        gin_module, "gin", lambda *a, **kw: dataclasses.replace(real_gin(*a, **kw), suspicious=True)
    )
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(2, 0)]))
    ideal, status, witness = gin_verdict(I, DRL2, 2, 0, None, ("gin", "expected"))
    assert status == "fail"
    assert ideal == MonomialIdeal(2, [(2, 0)])
    assert set(witness) == {"reason", "gin"}


def test_a_unanimous_gin_that_is_not_strongly_stable_is_flagged(monkeypatch):
    """Every trial claims <x2^2>, which has the Hilbert function of the
    inputs <x2^2> (the gin is then the input, whose core is known) and
    <x1*x2> (the gin's core is taken) but is not strongly stable: ``gin``
    flags it and the verdict fails."""
    gin_module = importlib.import_module("ginforge.gin")
    real = gin_module._trial
    monkeypatch.setattr(gin_module, "_trial", lambda *args: (((0, 2),), real(*args)[1]))
    for gens in ([(0, 2)], [(1, 1)]):
        I = PolyIdeal.from_monomial(MonomialIdeal(2, gens))
        res = gin(I, DRL2, trials=3, rng_seed=0)
        assert (res.ideal, res.agreed, res.suspicious) == (MonomialIdeal(2, [(0, 2)]), True, True)
        assert gin_verdict(I, DRL2, 3, 0, None, None) == (
            MonomialIdeal(2, [(0, 2)]),
            "fail",
            {"reason": SUSPICIOUS_REASON, "gin": repr(MonomialIdeal(2, [(0, 2)]))},
        )


def _tied_trials(monkeypatch):
    """Plant a second trial that loses its first leading term, so the first
    two trials of the next gin disagree."""
    gin_module = importlib.import_module("ginforge.gin")
    real = gin_module._trial
    calls = []

    def planted(*args):
        leading, known = real(*args)
        calls.append(leading)
        return (leading[1:] if len(calls) == 2 else leading), known

    monkeypatch.setattr(gin_module, "_trial", planted)


def test_two_disagreeing_trials_have_no_majority(monkeypatch):
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(1, 1), (0, 2)]))
    reason = "no majority over 2 trials (seed 5); raise the trial count"
    with monkeypatch.context() as m:
        _tied_trials(m)
        with pytest.raises(AmbiguousGinError) as raised:
            gin(I, DRL2, trials=2, rng_seed=5)
    assert str(raised.value) == reason
    with monkeypatch.context() as m:
        _tied_trials(m)
        assert gin_verdict(I, DRL2, 2, 5, None, None) == (None, "inconclusive", {"reason": reason})


def test_a_gin_other_than_expected_fails():
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    wrong = MonomialIdeal(2, [(2, 0)])
    ideal, status, witness = gin_verdict(PolyIdeal.from_monomial(I), DRL2, 2, 0, wrong, ("gin", "expected"))
    assert (ideal, status) == (I, "fail")
    assert witness == {"gin": repr(I), "expected": repr(wrong)}


def test_gin_preconditions():
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(1, 0)]))
    with pytest.raises(ValueError):
        gin(I, DRL2, trials=1, rng_seed=0)
    with pytest.raises(ValueError):
        gin(PolyIdeal([], n=2), DRL2, trials=2, rng_seed=0)
    inhomogeneous = PolyIdeal([Polynomial(2, {(1, 0): 1, (0, 2): 1})])
    with pytest.raises(ValueError):
        gin(inhomogeneous, DRL2, trials=2, rng_seed=0)
    with pytest.raises(ValueError, match="different rings"):
        gin(I, DRL3, trials=2, rng_seed=0)
    # validated before a field width is sized from the degree
    with pytest.raises(ValueError, match="not a power product"):
        gin(PolyIdeal([Polynomial(2, {(1.5, 0.5): 1})]), DRL2, trials=2, rng_seed=0)


def test_hyperplane_section_coordinate_case():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 0, 1)]))
    section = hyperplane_section(I, coordinate_form(3, 3), 3)
    assert ideal_equal(section, PolyIdeal([Polynomial(2, {(2, 0): 1})]), DRL2)


def test_hyperplane_section_untouched_generator():
    I = PolyIdeal([Polynomial(2, {(2, 0): 1})])
    section = hyperplane_section(I, linear_form([1, 1]), 2)
    assert ideal_equal(section, PolyIdeal([Polynomial(1, {(2,): 1})]), degrevlex(1))


def test_random_linear_form_contract():
    h1 = random_linear_form(4, 5)
    h2 = random_linear_form(4, 5)
    assert h1 == h2
    assert all(c != 0 for c in h1.coeffs)
    assert random_linear_form(4, 6) != h1


def _recorded_trials(monkeypatch) -> list:
    """(change, polys, ordering, degree, sorted leading exponents) of every
    trial gin runs from now on, one per trial seed, in order."""
    gin_module = importlib.import_module("ginforge.gin")
    real = gin_module._trial
    seen = []

    def recording(change, polys, ordering, degree, known, prime):
        out = real(change, polys, ordering, degree, known, prime)
        seen.append((change, polys, ordering, degree, out[0]))
        return out

    monkeypatch.setattr(gin_module, "_trial", recording)
    return seen


def _fraction_route_trial(I, ordering, seed) -> tuple:
    """The trial's leading exponents through the public Fraction polynomials."""
    g = QMatrix(random_invertible(random.Random(seed), I.n, COEFF_BOUND))
    moved = PolyIdeal([apply_linear_change(f, g) for f in I.generators], n=I.n)
    return tuple(sorted(moved.leading_terms(ordering)))


def _rational_homogeneous_ideal(rng, n) -> PolyIdeal:
    gens = []
    for _ in range(rng.randint(2, 3)):
        monomials = list(monomials_of_degree(n, rng.randint(2, 3)))
        terms = rng.sample(monomials, min(3, len(monomials)))
        coefficients = {t: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for t in terms}
        gens.append(Polynomial(n, coefficients))
    return PolyIdeal(gens, n=n)


def test_trials_match_the_fraction_route(monkeypatch):
    rng = random.Random(41)
    cases = []
    # lex in 4 variables is left out: one such gin took 28 s
    orderings = {2: [degrevlex(2), lex(2)], 3: [degrevlex(3), lex(3)], 4: [degrevlex(4), w_type_ordering()]}
    for n in (2, 3, 4):
        cases += [(_rational_homogeneous_ideal(rng, n), ordering) for ordering in orderings[n] for _ in range(2)]
    distracted = distract_ideal(make_matrix("generic", 3, 2, rng_seed=8), closure(3, [(0, 2, 0)], "strongly_stable"))
    cases += [(distracted, degrevlex(3)), (distracted, lex(3))]
    # orderings whose variable rank is not the identity: the trials' matrices
    # are unitriangular in that rank, the fraction route's are dense
    for ordering in (matrix_ordering([[0, 1], [1, 0]]), REVLEX3, ROTATED3):
        cases += [(_rational_homogeneous_ideal(rng, ordering.n), ordering) for _ in range(2)]
    cases += [(distracted, REVLEX3), (distracted, ROTATED3)]
    seen = _recorded_trials(monkeypatch)
    for I, ordering in cases:
        seen.clear()
        res = gin(I, ordering, trials=3, rng_seed=rng.randrange(1 << 30))
        assert len(seen) == len(res.seeds)
        for seed, (*_, leading) in zip(res.seeds, seen):
            assert leading == _fraction_route_trial(I, ordering, seed)
        majority = Counter(trial[-1] for trial in seen).most_common(1)[0][0]
        assert res.ideal == MonomialIdeal(I.n, majority)


def test_trial_matrices_are_unitriangular_in_the_variable_rank(monkeypatch):
    """Each trial adds to every variable a multiple of each variable ranked
    above it by the ordering, and of no other: n(n-1)/2 draws per trial."""
    gin_module = importlib.import_module("ginforge.gin")
    matrices, draws = [], Counter()
    real_composed = _Substitution.composed

    def composed(self, g, tops):
        matrices.append(g)
        return real_composed(self, g, tops)

    class Counting(random.Random):
        def randint(self, a, b):
            draws[a, b] += 1
            return super().randint(a, b)

    monkeypatch.setattr(_Substitution, "composed", composed)
    monkeypatch.setattr(gin_module.random, "Random", Counting)
    I = PolyIdeal([Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1}), Polynomial(3, {(0, 2, 0): 2, (1, 0, 1): 3})])
    for ordering, rank in ((DRL3, [0, 1, 2]), (REVLEX3, [2, 1, 0]), (ROTATED3, [1, 2, 0])):
        matrices.clear()
        draws.clear()
        gin(I, ordering, trials=4, rng_seed=6)
        assert draws == {(-COEFF_BOUND, COEFF_BOUND): 4 * 3}
        assert len(matrices) == 4
        for g in matrices:
            # in the rank's coordinates: ones on the diagonal, zeros below it
            for a in range(3):
                assert g[rank[a]][rank[a]] == 1
                assert all(g[rank[a]][rank[b]] == 0 for b in range(a))
            assert all(g[rank[a]][rank[b]] != 0 for a in range(3) for b in range(a + 1, 3))


def test_trial_overflow_expands_the_images_again(monkeypatch):
    groebner = importlib.import_module("ginforge.groebner")
    widths = []

    packing = groebner._packing

    def recording(ordering, width):
        widths.append(width)
        return packing(ordering, width)

    monkeypatch.setattr(groebner, "_packing", recording)
    monkeypatch.setattr(groebner, "HEADROOM_BITS", 0)
    seen = _recorded_trials(monkeypatch)
    # 2-bit fields hold the images of the cubes; the gin's x2^5 needs wider ones
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(3, 0), (0, 3)]))
    res = gin(I, DRL2, trials=2, rng_seed=12)
    assert widths == [2, 4, 2, 4]
    assert res.agreed and res.ideal == MonomialIdeal(2, [(3, 0), (2, 1), (1, 3), (0, 5)])
    assert len(seen) == len(res.seeds)
    for seed, (*_, leading) in zip(res.seeds, seen):
        assert leading == _fraction_route_trial(I, DRL2, seed)


def test_gin_constructs_no_fraction_once_its_inputs_are_built():
    I = PolyIdeal(
        [
            Polynomial(3, {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-2, 3)}),
            Polynomial(3, {(1, 1, 0): 3, (0, 0, 2): Fraction(5, 7)}),
        ]
    )
    constructor = Fraction.__new__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is constructor:
            calls.append(event)

    sys.setprofile(profile)
    try:
        Fraction(1, 3)  # the probe sees a construction
        probe = len(calls)
        res = gin(I, DRL3, trials=3, rng_seed=9)
    finally:
        sys.setprofile(None)
    assert probe == 1 and len(calls) == 1
    assert res.agreed


def _patch_leading_term(monkeypatch, trial: int, over=(True, True)):
    """Plant a wrong trial: in every Buchberger run of trial number ``trial``
    (from 1) of the next gin, over F_p if over[0] and over Z if over[1], the
    first basis entry of more than one term claims x_n times its true
    leading term.  (A unitriangular trial fixes x1; claiming x1 times the term
    kept the Hilbert function in the monomial cases below, so their trials
    only disagreed.)"""
    gin_module = importlib.import_module("ginforge.gin")
    groebner = importlib.import_module("ginforge.groebner")
    real_trial, real_run, real_entry = gin_module._trial, gin_module._buchberger, groebner._Packing.entry
    state = {"trial": 0, "armed": False}

    def counting(*args):
        state["trial"] += 1
        return real_trial(*args)

    def run(packing, polys, known=None, prime=0):
        state["armed"] = state["trial"] == trial and over[not prime]
        return real_run(packing, polys, known, prime)

    def patched(self, p):
        lt, lc, tail, top = real_entry(self, p)
        if state["armed"] and tail:
            state["armed"] = False
            lt += self.units[-1]
            top = self.join(top, lt & self.exponents)
        return lt, lc, tail, top

    monkeypatch.setattr(gin_module, "_trial", counting)
    monkeypatch.setattr(gin_module, "_buchberger", run)
    monkeypatch.setattr(groebner._Packing, "entry", patched)


TWO_QUADRICS = PolyIdeal(
    [Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1}), Polynomial(3, {(1, 1, 0): 2, (0, 0, 2): 3})]
)
# two binomial cubics: 4 terms against 2 x 10 cubic monomials
SPARSE_CUBICS = PolyIdeal(
    [Polynomial(3, {(3, 0, 0): 1, (0, 2, 1): -1}), Polynomial(3, {(0, 3, 0): 2, (1, 0, 2): 3})]
)


def test_a_trial_off_the_hilbert_function_fails(monkeypatch):
    stable = PolyIdeal.from_monomial(closure(3, [(0, 2, 1)], "stable"))
    cases = [
        # (ideal, ordering, patched trial, witness)
        (stable, lex(3), 1, ("trial 1, against the input", 3, 5, 6)),
        (stable, lex(3), 2, ("trial 2, against the input", 3, 5, 6)),
        # non-monomial input: the target is its own basis, so a wrong first trial fails at once
        (TWO_QUADRICS, DRL3, 1, ("trial 1, against the input", 2, 4, 5)),
        (TWO_QUADRICS, DRL3, 3, ("trial 3, against the input", 2, 4, 5)),
    ]
    for I, ordering, trial, (where, degree, expected, got) in cases:
        assert gin_verdict(I, ordering, 3, 1, None, None)[1] == "pass"
        with monkeypatch.context() as m:
            _patch_leading_term(m, trial)
            ideal, status, witness = gin_verdict(I, ordering, 3, 1, None, None)
        assert (ideal, status) == (None, "fail")
        assert witness == {
            "reason": "initial ideal with another Hilbert function (%s)" % where,
            "degree": degree,
            "expected": expected,
            "got": got,
        }
        with monkeypatch.context() as m:
            _patch_leading_term(m, trial)
            with pytest.raises(HilbertMismatchError) as raised:
                gin(I, ordering, trials=3, rng_seed=1)
        assert raised.value.witness == witness


def test_a_sparse_input_gives_trial_1_a_target(monkeypatch):
    assert gin_verdict(SPARSE_CUBICS, DRL3, 3, 1, None, None)[1] == "pass"
    _patch_leading_term(monkeypatch, 1)
    ideal, status, witness = gin_verdict(SPARSE_CUBICS, DRL3, 3, 1, None, None)
    assert (ideal, status) == (None, "fail")
    assert witness == {
        "reason": "initial ideal with another Hilbert function (trial 1, against the input)",
        "degree": 3,
        "expected": 8,
        "got": 9,
    }


def test_cli_gin_exits_1_when_a_trial_misses_the_hilbert_function(monkeypatch, capsys):
    _patch_leading_term(monkeypatch, 1)
    # x1*x2 moves to x1*x2 + c x1^2; its claimed leading term x1^2*x2 leaves degree 2 with no leading term
    code = main(["gin", "--n", "2", "--ideal", "x1*x2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "fail: initial ideal with another Hilbert function (trial 1, against the input): degree 2, expected 2, got 3"
    )


def test_engine_counts_are_pinned(monkeypatch):
    """S-polynomials formed, reductions and zero remainders of two seed-1
    gins.  Both know their Hilbert target before the first trial: the
    monomial input's own, and the distraction's from its source exponents.
    Without the Hilbert rule the same gins formed 81 and 30 S-polynomials,
    of which 81 and 18 reduced to zero."""
    groebner = importlib.import_module("ginforge.groebner")
    real_spoly, real_reduce = groebner._spoly, groebner._reduce
    counts: dict = {}

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

    def engine(I, ordering):
        counts.update(spolys=0, reductions=0, zero=0)
        res = gin(I, ordering, trials=3, rng_seed=1)
        return res.ideal, dict(counts)

    # the paper's counterexample: a distraction's trials know its input's target too
    counterexample = distract_ideal(make_matrix("generic", 4, 5, rng_seed=1), closure(4, COUNTER_SEEDS, "stable"))
    assert engine(counterexample, degrevlex(4)) == (
        MonomialIdeal(4, COUNTER_GIN_DISTRACTED),
        {"spolys": 0, "reductions": 42, "zero": 0},
    )
    # monomial input: every trial knows its target and stops after the input; of its 8
    # generators, the 5 of the core join each trial as terms that nothing divides, unreduced
    t = (0, 2, 2)
    principal = PolyIdeal.from_monomial(closure(3, [t], "stable"))
    assert engine(principal, lex(3)) == (principal_formulas(t)[1], {"spolys": 0, "reductions": 9, "zero": 0})


def _forced_modular(monkeypatch, on: bool):
    """Every trial with a target runs over F_p first if ``on``, none if not."""
    monkeypatch.setattr(importlib.import_module("ginforge.gin"), "_modular", lambda *args: on)


def test_the_trials_primes_are_the_largest_below_2_to_the_30():
    gin_module = importlib.import_module("ginforge.gin")
    primes = gin_module._primes()
    assert list(primes) == sorted(sympy.primerange(primes[-1], 1 << 30), reverse=True)
    assert len(primes) == gin_module.PRIMES


def test_a_bad_prime_reruns_the_trial_over_z(monkeypatch):
    """Mod 13 every trial of this distraction misses its target: each reruns
    over Z, and the gin is the one over Z."""
    gin_module = importlib.import_module("ginforge.gin")
    groebner = importlib.import_module("ginforge.groebner")
    D = distract_ideal(make_matrix("generic", 3, 3, rng_seed=1), closure(3, [(0, 2, 1)], "stable"))
    with monkeypatch.context() as m:
        _forced_modular(m, False)
        over_z = gin(D, DRL3, trials=3, rng_seed=1)
    real = gin_module._buchberger
    runs = []

    def recording(packing, polys, known=None, prime=0):
        try:
            out = real(packing, polys, known, prime)
        except groebner._OffTarget:
            runs.append((prime, "miss"))
            raise
        runs.append((prime, "ok"))
        return out

    _forced_modular(monkeypatch, True)
    monkeypatch.setattr(gin_module, "_primes", lambda: (13,))
    monkeypatch.setattr(gin_module, "_buchberger", recording)
    assert gin(D, DRL3, trials=3, rng_seed=1) == over_z
    assert runs == [(13, "miss"), (0, "ok")] * 3


def test_a_fault_over_z_raises_and_a_fault_mod_p_reruns(monkeypatch):
    """A planted fault in every run of a modular trial raises the witness of
    the same fault over Z; planted in its F_p run only, the Z rerun gives
    the gin unchanged."""
    stable = PolyIdeal.from_monomial(closure(3, [(0, 2, 1)], "stable"))
    for I, ordering, trial in ((stable, lex(3), 2), (TWO_QUADRICS, DRL3, 3)):
        with monkeypatch.context() as m:
            _forced_modular(m, False)
            clean = gin(I, ordering, trials=3, rng_seed=1)
            _patch_leading_term(m, trial)
            with pytest.raises(HilbertMismatchError) as over_z:
                gin(I, ordering, trials=3, rng_seed=1)
        with monkeypatch.context() as m:
            _forced_modular(m, True)
            _patch_leading_term(m, trial)
            with pytest.raises(HilbertMismatchError) as raised:
                gin(I, ordering, trials=3, rng_seed=1)
        assert raised.value.witness == over_z.value.witness
        with monkeypatch.context() as m:
            _forced_modular(m, True)
            _patch_leading_term(m, trial, over=(True, False))
            assert gin(I, ordering, trials=3, rng_seed=1) == clean


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1 << 30))
def test_modular_trials_keep_the_gin(seed):
    """The gin of a random homogeneous ideal or distraction is the same with
    every trial over F_p first as with every trial over Z."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        I = _integer_homogeneous_ideal(rng, n)
    else:
        L = make_matrix("generic", n, 3, rng_seed=rng.randrange(1 << 30))
        I = distract_ideal(L, closure(n, [tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)], "strongly_stable"))
    orderings = [degrevlex(n)] + [lex(n)] * (n < 4)
    outcomes = {}
    for on in (False, True):
        with pytest.MonkeyPatch.context() as m:
            _forced_modular(m, on)
            outcomes[on] = [_gin_outcome(I, ordering, seed) for ordering in orderings]
    assert outcomes[True] == outcomes[False]


def _in_rank(n: int, gens, rank: list) -> list:
    """The exponent tuples with exponent j moved to variable rank[j]: an ideal
    strongly stable in the identity rank is closed under the moves of rank."""
    out = []
    for t in gens:
        moved = [0] * n
        for j, a in enumerate(t):
            moved[rank[j]] = a
        out.append(tuple(moved))
    return out


def test_unitriangular_images_of_the_core_stay_in_its_ideal():
    """Every term of the image of a core generator under a unitriangular
    change in the same rank lies in the core's ideal, so the change keeps
    that ideal."""
    gin_module = importlib.import_module("ginforge.gin")
    rng = random.Random(28)
    partial = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        rank = rng.sample(range(n), n)
        seed = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
        gens = _in_rank(n, closure(n, [seed], "strongly_stable").gens, rank)
        gens += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        core = move_core(n, gens, rank)
        partial += 0 < len(core) < len(gens)
        J = MonomialIdeal(n, [gens[i] for i in core])
        g = gin_module._unitriangular(rng, rank, COEFF_BOUND)
        images = _identity_map(n).composed(g, tuple(map(max, zip(*gens)))).images([{gens[i]: 1} for i in core])
        assert all(J.contains(t) for p in images for t in p)
    assert partial >= 20


def _monomial_input(rng, n: int) -> PolyIdeal:
    """A stable or strongly stable closure with one or two more monomials,
    as polynomials with coefficients other than 1, some dividing others."""
    seed = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
    gens = list(closure(n, [seed], rng.choice(("stable", "strongly_stable"))).gens)
    gens += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 2))]
    gens += [tuple(a + (k == 0) for k, a in enumerate(rng.choice(gens)))]
    rng.shuffle(gens)
    return PolyIdeal([Polynomial(n, {t: rng.choice((1, -1, 3, -6))}) for t in gens if any(t)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1 << 30))
def test_keeping_the_core_in_place_keeps_the_gin(seed):
    """The gin of a monomial input is the same with its core packed as it is
    as with every generator moved, over Z and with every trial that has a
    target over F_p first."""
    gin_module = importlib.import_module("ginforge.gin")
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    x1, x2 = (Polynomial(3, {t: 1}) for t in ((1, 0, 0), (0, 1, 0)))
    for I in (_monomial_input(rng, n), PolyIdeal([3 * x1 * x1, -1 * x1 * x2, x1 * x1 * x1])):
        orderings = [degrevlex(I.n), lex(I.n)] + [ROTATED3] * (I.n == 3)
        for on in (False, True):
            with pytest.MonkeyPatch.context() as m:
                _forced_modular(m, on)
                kept = [_gin_outcome(I, ordering, seed) for ordering in orderings]
                # a gin that does not see the identity map moves every generator
                m.setattr(gin_module, "_identity_map", lambda n: None)
                assert [_gin_outcome(I, ordering, seed) for ordering in orderings] == kept


def _borel_input(rng, ordering) -> PolyIdeal:
    """A strongly stable closure in the variable rank of ``ordering``, listed
    shuffled with repeats and multiples of its generators, as polynomials
    with coefficients other than 1."""
    n = ordering.n
    rank = importlib.import_module("ginforge.gin")._variable_rank(ordering)
    seed = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
    gens = _in_rank(n, closure(n, [seed], "strongly_stable").gens, rank)
    gens += [tuple(a + (k == j) for k, a in enumerate(rng.choice(gens))) for j in rng.choices(range(n), k=2)]
    gens += rng.choices(gens, k=2)
    rng.shuffle(gens)
    return PolyIdeal([Polynomial(n, {t: rng.choice((1, -1, 3, -6))}) for t in gens])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1 << 30))
def test_a_borel_fixed_input_is_its_gin_without_a_trial(seed):
    """The gin of Borel-fixed monomial input, which runs no trial, is the gin
    of trials that move every generator, in the rank of each ordering."""
    gin_module = importlib.import_module("ginforge.gin")
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    orderings = [degrevlex(n), lex(n)] + ([REVLEX3, ROTATED3] if n == 3 else [matrix_ordering([[1, 1], [0, 1]])])
    for ordering in orderings:
        I = _borel_input(rng, ordering)
        trials = rng.randint(2, 3)
        fast = gin(I, ordering, trials=trials, rng_seed=seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(gin_module, "_identity_map", lambda n: None)
            assert gin(I, ordering, trials=trials, rng_seed=seed) == fast


def test_a_strongly_stable_input_runs_no_trial(monkeypatch):
    """No matrix, prime or trial is drawn or run for it; its seeds are drawn
    as for any input, and the preconditions still raise."""
    gin_module = importlib.import_module("ginforge.gin")
    for name in ("_trial", "_unitriangular", "_primes"):
        monkeypatch.setattr(gin_module, name, lambda *args: pytest.fail("a trial was drawn or run"))
    I = closure(3, [(0, 1, 4)], "strongly_stable")
    master = random.Random(1)
    seeds = tuple(master.randrange(1 << 32) for _ in range(3))
    assert gin(PolyIdeal.from_monomial(I), DRL3, trials=3, rng_seed=1) == GinResult(I, 3, True, seeds, False)
    with pytest.raises(ValueError, match="at least two trials"):
        gin(PolyIdeal.from_monomial(I), DRL3, trials=1, rng_seed=1)
    with pytest.raises(ValueError, match="different rings"):
        gin(PolyIdeal.from_monomial(I), DRL2, trials=3, rng_seed=1)


def test_trials_expand_only_the_generators_outside_the_core(monkeypatch):
    """A strongly stable input runs no trial and composes no change; the
    stable closure of x2*x3^4 hands each of its 3 trials the 10 of its 16
    generators outside the core."""
    polyring = importlib.import_module("ginforge.polyring")
    seen = _recorded_trials(monkeypatch)
    real = polyring._Substitution.composed
    composed = []
    monkeypatch.setattr(polyring._Substitution, "composed", lambda *args: composed.append(1) or real(*args))
    for mode, runs in (("strongly_stable", 0), ("stable", 3)):
        seen.clear()
        composed.clear()
        I = closure(3, [(0, 1, 4)], mode)
        res = gin(PolyIdeal.from_monomial(I), DRL3, trials=3, rng_seed=1)
        assert res.agreed and not res.suspicious and (res.ideal == I) == (mode == "strongly_stable")
        assert [len(trial[1]) for trial in seen] == [10] * runs
        assert len(composed) == runs


def test_gin_computes_no_numerator_its_trials_certified(monkeypatch):
    """Monomial input whose gin differs from it: one numerator for the input,
    computed only once trial 1's leading terms miss it, and one for trial 1
    once its input has joined.  Trial 1 shows that its leading terms reach
    the input's numerator, so they become what later trials know, and trials
    2 and 3 match them without a numerator."""
    calls = _counted_numerators(monkeypatch)
    stable = closure(3, [(0, 2, 1)], "stable")
    res = gin(PolyIdeal.from_monomial(stable), lex(3), trials=3, rng_seed=1)
    assert res.agreed and res.ideal != stable
    assert len(calls) == 2


def _counted_numerators(monkeypatch) -> list:
    """Every Hilbert-Poincare numerator computed from now on."""
    monomial = importlib.import_module("ginforge.monomial")
    real = monomial.ExponentFields.numerator
    calls = []

    def counting(self, gens):
        calls.append(gens)
        return real(self, gens)

    monkeypatch.setattr(monomial.ExponentFields, "numerator", counting)
    return calls


def test_a_distraction_of_a_strongly_stable_ideal_computes_no_numerator(monkeypatch):
    """gin_DegRevLex(D_L(I)) = I for strongly stable I, so every trial's
    leading terms are I's exponents, which each trial knows: the target
    numerator is never needed."""
    calls = _counted_numerators(monkeypatch)
    I = closure(3, [(0, 2, 1)], "strongly_stable")
    for seed in (1, 2):
        res = gin(distract_ideal(make_matrix("generic", 3, 3, rng_seed=seed), I), DRL3, trials=3, rng_seed=seed)
        assert res.agreed and res.ideal == I
    assert calls == []


def _integer_homogeneous_ideal(rng, n) -> PolyIdeal:
    """1 to 3 forms of degree 2 or 3 with 1 to 4 terms, small coefficients."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        monomials = list(monomials_of_degree(n, rng.randint(2, 3)))
        terms = rng.sample(monomials, min(rng.randint(1, 4), len(monomials)))
        gens.append(Polynomial(n, {t: rng.choice((-1, 1)) * rng.randint(1, 5) for t in terms}))
    return PolyIdeal(gens, n=n)


def _route_cases() -> list:
    """(distraction, ordering): each kind of matrix for n = 2..4, and a dense
    generic distraction of degree 7."""
    cases = []
    for n, seeds in ((2, [(1, 2)]), (3, [(0, 2, 1), (1, 0, 2)]), (4, [(0, 1, 0, 2)])):
        I = closure(n, seeds, "strongly_stable")
        for kind in ("identical", "classic", "generic"):
            D = distract_ideal(make_matrix(kind, n, 3, rng_seed=10 + n), I)
            cases += [(D, degrevlex(n))] + [(D, lex(n))] * (n == 3)
    dense = distract_ideal(make_matrix("generic", 3, 7, rng_seed=4), closure(3, [(0, 2, 5)], "strongly_stable"))
    return cases + [(dense, degrevlex(3))]


def _trial_images(I, ordering, degree, g) -> tuple:
    """(packing, images): what a trial of I with matrix g hands to
    Buchberger, content-free."""
    groebner = importlib.import_module("ginforge.groebner")
    product, polys = I._images()
    tops = tuple(map(max, zip(*(a for f in polys for a in f))))
    packing, images = groebner._packed_images(ordering, degree, product.composed(g, tops), polys, lambda _, p: p)
    return packing, [_strip_content(p) for p in images]


def test_trial_images_are_the_moved_generators(monkeypatch):
    seen = _recorded_trials(monkeypatch)
    for D, ordering in _route_cases():
        rebuilt = PolyIdeal(list(D.generators))
        assert rebuilt._source is None
        assert gin(D, ordering, trials=2, rng_seed=4) == gin(rebuilt, ordering, trials=2, rng_seed=4)
        seen.clear()
        res = gin(D, ordering, trials=2, rng_seed=3)
        assert gin(rebuilt, ordering, trials=2, rng_seed=3) == res
        # rebuilt from the identical matrix, it is Borel-fixed monomial input, which runs no trial
        borel = all(len(f.terms) == 1 for f in rebuilt.generators)
        assert len(seen) == (1 if borel else 2) * len(res.seeds)
        for index, trial_seed in enumerate(res.seeds):
            g = random_invertible(random.Random(trial_seed), D.n, COEFF_BOUND)
            moved = [_to_int_poly(linear_change_by_expansion(f, QMatrix(g))) for f in D.generators]
            # the trial of D, then of the rebuilt ideal if it ran one
            for I, (_, _, graded, degree, _) in zip((D, rebuilt), seen[index::2]):
                packing, images = _trial_images(I, graded, degree, g)
                assert images == _identity_map(D.n).expand(moved, packing.units)
        assert [trial[1] for trial in seen[:2]] == [D._source[1]] * 2
    # x1 * (x1 - x2) moves to x1^2 - x2^2 under x1 -> x1 + x2, x2 -> 2 x2: the cancelled term goes
    D = distract_ideal(make_matrix("classic", 2, 3), MonomialIdeal(2, [(2, 0)]))
    for I in (D, PolyIdeal([D.generators[0]])):
        packing, images = _trial_images(I, DRL2, 2, [[1, 0], [1, 2]])
        assert images == [{2 * packing.units[0]: 1, 2 * packing.units[1]: -1}]


def _gin_outcome(I, ordering, seed):
    try:
        return gin(I, ordering, trials=2, rng_seed=seed)
    except AmbiguousGinError:
        return "ambiguous"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1 << 30), st.randoms(use_true_random=False))
def test_permuting_the_generators_keeps_the_gin(seed, shuffler):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    if rng.random() < 0.5:
        I = _rational_homogeneous_ideal(rng, n)
    else:
        I = PolyIdeal.from_monomial(closure(n, [tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)], "stable"))
    gens = list(I.generators)
    shuffler.shuffle(gens)
    for ordering in (degrevlex(n), lex(n)):
        assert _gin_outcome(PolyIdeal(gens, n=n), ordering, seed) == _gin_outcome(I, ordering, seed)


def test_a_gin_ideal_is_the_one_the_public_constructor_builds():
    # gin builds its ideal from the trials' leading terms without minimalizing
    # them again; the public constructor, which still minimalizes, must agree
    rng = random.Random(61)
    kinds = set()
    for _ in range(24):
        n = rng.choice((2, 3))
        kind = rng.choice(("monomial", "distraction", "general"))
        seed_term = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
        if kind == "monomial":
            I = PolyIdeal.from_monomial(closure(n, [seed_term], "stable"))
        elif kind == "distraction":
            L = make_matrix(rng.choice(("classic", "generic")), n, 2, rng_seed=rng.randrange(1 << 30))
            I = distract_ideal(L, closure(n, [seed_term], "strongly_stable"))
        else:
            I = _rational_homogeneous_ideal(rng, n)
        for ordering in (degrevlex(n), lex(n)):
            res = _gin_outcome(I, ordering, rng.randrange(1 << 30))
            if res == "ambiguous":
                continue
            kinds.add(kind)
            gens = res.ideal.gens
            assert res.ideal == MonomialIdeal(n, gens) and hash(res.ideal) == hash(MonomialIdeal(n, gens))
            multiples = [tuple(a + int(i == k) for i, a in enumerate(t)) for t in gens for k in range(n)]
            shuffled = list(gens) * 2 + multiples
            rng.shuffle(shuffled)
            assert MonomialIdeal(n, shuffled).gens == gens
    assert kinds == {"monomial", "distraction", "general"}
