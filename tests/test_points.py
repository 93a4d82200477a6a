import dataclasses
import importlib
from fractions import Fraction

import pytest

from ginforge.checks import _with_retry
from ginforge.distraction import make_matrix
from ginforge.gin import DEFAULT_TRIALS
from ginforge.monomial import MonomialIdeal, hilbert
from ginforge.points import (
    PointsConstruction,
    points_from_ideal,
    projective_point,
    verify_points,
)
from ginforge.polyring import degrevlex


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
    construction = points_from_ideal(_square_of_maximal(), make_matrix("classic", 3, 3))
    bad = construction.points[:-1] + (projective_point((1, 1, 1)),)
    tampered = PointsConstruction(
        bad, construction.defining_ideal, construction.embedded_ideal, construction.matrix
    )
    report = verify_points(tampered, seed=3)
    assert report.status == "fail"
    assert report.witness is not None


def test_preconditions():
    L = make_matrix("classic", 3, 3)
    with pytest.raises(ValueError):
        points_from_ideal(MonomialIdeal(2, [(2, 0)]), L)  # not zero-dimensional
    with pytest.raises(ValueError):
        points_from_ideal(MonomialIdeal(2, [(0, 2), (2, 0)]), L)  # not strongly stable
    with pytest.raises(ValueError):
        # identical matrix cannot be radical for a component with a square
        points_from_ideal(_square_of_maximal(), make_matrix("identical", 3, 3))


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
