import dataclasses
import importlib
import random

import pytest

from ginforge.gin import (
    coordinate_form,
    gin,
    gin_verdict,
    hyperplane_section,
    random_linear_form,
)
from ginforge.groebner import PolyIdeal, ideal_equal
from ginforge.monomial import MonomialIdeal, closure, hilbert, stability_flags
from ginforge.polyring import Polynomial, degrevlex, lex, linear_form

DRL2 = degrevlex(2)
DRL3 = degrevlex(3)


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


def test_gin_preconditions():
    I = PolyIdeal.from_monomial(MonomialIdeal(2, [(1, 0)]))
    with pytest.raises(ValueError):
        gin(I, DRL2, trials=1, rng_seed=0)
    with pytest.raises(ValueError):
        gin(PolyIdeal([], n=2), DRL2, trials=2, rng_seed=0)
    inhomogeneous = PolyIdeal([Polynomial(2, {(1, 0): 1, (0, 2): 1})])
    with pytest.raises(ValueError):
        gin(inhomogeneous, DRL2, trials=2, rng_seed=0)


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
