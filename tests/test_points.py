import dataclasses
import importlib
import random
from fractions import Fraction

import pytest

from ginforge.checks import _with_retry
from ginforge.distraction import DistractionMatrix, MatrixConstructionError, NotRadicalError, distract_ideal, make_matrix
from ginforge.groebner import PolyIdeal
from ginforge.gin import DEFAULT_TRIALS
from ginforge.monomial import MonomialIdeal, closure, hilbert
from ginforge.numeric import clear_denominators
from ginforge.points import (
    PointsConstruction,
    points_from_ideal,
    projective_point,
    verify_points,
)
from ginforge.polyring import degrevlex, linear_form


def _square_of_maximal():
    return MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])


def test_three_point_configuration():
    construction = points_from_ideal(_square_of_maximal(), make_matrix("classic", 3, 3))
    coords = [p.coords for p in construction.points]
    assert coords == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(1)),
    ]
    report = verify_points(construction, seed=2)
    assert report.passed


def test_single_point_case():
    construction = points_from_ideal(MonomialIdeal(1, [(1,)]), make_matrix("classic", 2, 2))
    assert [p.coords for p in construction.points] == [(Fraction(0), Fraction(1))]
    assert verify_points(construction, seed=1).passed


def test_point_count_matches_hilbert_value():
    construction = points_from_ideal(_square_of_maximal(), make_matrix("classic", 3, 3))
    leading = construction.defining_ideal.initial_ideal(degrevlex(3))
    d = construction.embedded_ideal.max_degree() + 1
    assert hilbert(leading, d + 2)[d] == len(construction.points)
    assert hilbert(leading, d + 2)[d + 2] == len(construction.points)


def test_points_are_rational_and_normalized():
    construction = points_from_ideal(_square_of_maximal(), make_matrix("generic", 3, 2, rng_seed=4))
    for p in construction.points:
        lead = next(c for c in p.coords if c != 0)
        assert lead == 1
        assert all(isinstance(c, Fraction) for c in p.coords)


def test_tampered_point_fails_with_witness():
    # the witness names the first generator, in order, that does not vanish there
    for L, coords in (
        (make_matrix("classic", 3, 3), (1, 1, 1)),
        (make_matrix("generic", 3, 3, rng_seed=4), (Fraction(1, 3), 7, -2)),
    ):
        construction = points_from_ideal(_square_of_maximal(), L)
        bad = projective_point(coords)
        tampered = PointsConstruction(
            construction.points[:-1] + (bad,),
            construction.defining_ideal,
            construction.embedded_ideal,
            construction.matrix,
        )
        value = next(v for v in (g.evaluate(bad.coords) for g in construction.defining_ideal.generators) if v)
        report = verify_points(tampered, seed=3)
        assert report.status == "fail"
        assert report.witness == {"point": repr(bad), "generator_value": str(value)}


def test_preconditions():
    L = make_matrix("classic", 3, 3)
    with pytest.raises(ValueError):
        points_from_ideal(MonomialIdeal(2, [(2, 0)]), L)  # not zero-dimensional
    with pytest.raises(ValueError):
        points_from_ideal(MonomialIdeal(2, [(0, 2), (2, 0)]), L)  # not strongly stable
    with pytest.raises(NotRadicalError, match="^matrix is not radical for the extended ideal$"):
        # identical matrix cannot be radical for a component with a square
        points_from_ideal(_square_of_maximal(), make_matrix("identical", 3, 3))
    assert issubclass(NotRadicalError, ValueError)


def test_each_selection_is_eliminated_once(monkeypatch):
    # the extension (x1^2, x1*x2, x2^2) has components (x1, x2^2) and (x1^2, x2):
    # 4 selections, each eliminated once for the radical test and its point
    from ginforge import distraction

    calls = []

    def counted(rows, rref=distraction._rref):
        calls.append(rows)
        return rref(rows)

    monkeypatch.setattr(distraction, "_rref", counted)
    construction = points_from_ideal(_square_of_maximal(), make_matrix("classic", 3, 3))
    assert len(construction.points) == 3
    assert len(calls) == 4


def test_non_unanimous_gin_is_inconclusive_and_retried(monkeypatch):
    construction = points_from_ideal(_square_of_maximal(), make_matrix("classic", 3, 3))
    gin_module = importlib.import_module("ginforge.gin")
    real_gin = gin_module.gin
    seeds = []

    def split_gin(*args, **kwargs):
        seeds.append(kwargs["rng_seed"])
        return dataclasses.replace(real_gin(*args, **kwargs), agreed=False)

    monkeypatch.setattr(gin_module, "gin", split_gin)
    report = verify_points(construction, seed=2)
    assert report.status == "inconclusive"
    assert "non-unanimous" in report.witness["reason"]
    seeds.clear()
    report = _with_retry(verify_points, construction, seed=5, trials=DEFAULT_TRIALS)
    assert report.status == "inconclusive"
    assert seeds == [5, 5 + 7919]


def _rational_matrix(rng, n, N) -> DistractionMatrix:
    """A valid distraction matrix of random rational forms."""
    while True:
        rows = [
            [linear_form([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]) for _ in range(N)]
            for _ in range(n)
        ]
        try:
            return DistractionMatrix(rows)
        except MatrixConstructionError:
            continue


def test_integer_generator_values_are_scaled_values_of_the_expanded_generators():
    """The verifier evaluates a distraction's generators on integers, as
    products of their forms' values at a point's integer coordinates: each is
    (lcm * den)^d times the value of the expanded generator of degree d, for
    the lcm of the point's denominators and the den of the matrix's forms.
    The integer view of the expanded generators vanishes where they do."""
    rng = random.Random(17)
    dens = set()
    for n in (2, 3, 4):
        I = closure(n, [tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)], "strongly_stable")
        for L in (make_matrix("classic", n, 3), make_matrix("generic", n, 3, rng_seed=n), _rational_matrix(rng, n, 3)):
            D = distract_ideal(L, I)
            product, polys = D._images()
            dens.add(product.den)
            identity, ints_view = PolyIdeal(D.generators, n=n)._images()
            for _ in range(3):
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                lcm, ints = clear_denominators(point)
                values = [(lcm * product.den) ** g.degree() * g.evaluate(point) for g in D.generators]
                assert product.evaluate(polys, ints) == values
                assert [bool(v) for v in identity.evaluate(ints_view, ints)] == [bool(v) for v in values]
    assert 1 in dens and max(dens) > 1
