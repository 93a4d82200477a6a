"""Finite sets of rational projective points from distracted monomial ideals.

A zero-dimensional strongly stable ideal in n variables, distracted by a
matrix over n+1 variables that is radical for it, defines a finite set of
rational points in projective n-space whose degrevlex generic initial ideal
is the extended input ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distraction import DistractionMatrix, NotRadicalError, distract_ideal, radical_selections
from .gin import DEFAULT_TRIALS, gin_verdict
from .groebner import PolyIdeal
from .monomial import MonomialIdeal, embed, hilbert, stability_flags
from .numeric import clear_denominators, nullspace_vector
from .polyring import degrevlex
from .reports import FAIL, PASS, CheckReport


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates normalized so the first nonzero entry is 1."""

    coords: tuple

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def projective_point(coords) -> ProjectivePoint:
    """The point with these homogeneous coordinates, the one place where its
    integer or rational coordinates become normalized ``Fraction`` values."""
    coords = tuple(Fraction(c) for c in coords)
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise ValueError("all coordinates are zero")
    return ProjectivePoint(tuple(c / lead for c in coords))


@dataclass(frozen=True)
class PointsConstruction:
    points: tuple
    defining_ideal: PolyIdeal
    embedded_ideal: MonomialIdeal
    matrix: DistractionMatrix


def points_from_ideal(I: MonomialIdeal, L: DistractionMatrix) -> PointsConstruction:
    """Distract a zero-dimensional strongly stable ideal into a point set.

    The ideal is extended by one trailing variable; each irreducible component
    of the extension contributes one point per selection in its exponent box,
    solved exactly as the common zero of the selected forms: the kernel
    vector of the selection's reduced form (``radical_selections``).
    """
    if L.n != I.n + 1:
        raise ValueError("matrix must live in one more variable than the ideal")
    if not I.is_zero_dimensional():
        raise ValueError("ideal must contain a power of every variable")
    if not stability_flags(I)[1]:
        raise ValueError("ideal must be strongly stable")
    extended = embed(I, 1)
    try:
        components = radical_selections(L, extended)
    except NotRadicalError:
        raise NotRadicalError("matrix is not radical for the extended ideal") from None
    seen = {}
    for _, _, reduced in components:
        for rows in reduced:
            point = projective_point(nullspace_vector(rows, L.n))
            seen[point.coords] = point
    points = tuple(sorted(seen.values(), key=lambda p: p.coords))
    return PointsConstruction(points, distract_ideal(L, extended), extended, L)


def verify_points(construction: PointsConstruction, seed: int, trials: int = DEFAULT_TRIALS) -> CheckReport:
    """Check vanishing, point count against the Hilbert function, and the gin.

    The generators are homogeneous, so each vanishes at a point exactly when
    its integer value (``_Substitution.evaluate``) at the point's integer
    coordinates does; only a failure's witness is evaluated in Q."""
    ordering = degrevlex(construction.embedded_ideal.n)
    seeds = (seed,)
    points, I = construction.points, construction.defining_ideal
    product, polys = I._images()
    values = [product.evaluate(polys, clear_denominators(p.coords)[1]) for p in points]
    for k in range(len(polys)):
        for p, at in zip(points, values):
            if at[k]:
                return CheckReport(
                    "points",
                    "vanishing of the defining ideal on the point set",
                    FAIL,
                    seeds,
                    {"point": repr(p), "generator_value": str(I.generators[k].evaluate(p.coords))},
                )
    d = construction.embedded_ideal.max_degree() + 1
    leading = construction.defining_ideal.initial_ideal(ordering)
    count = hilbert(leading, d)[d]
    if count != len(construction.points):
        return CheckReport(
            "points",
            "point count against the eventual Hilbert value",
            FAIL,
            seeds,
            {"points": len(construction.points), "hilbert_value": count},
        )
    _, status, witness = gin_verdict(
        construction.defining_ideal, ordering, trials, seed, construction.embedded_ideal, ("got", "expected")
    )
    if status != PASS:
        return CheckReport("points", "gin of the defining ideal equals the extended ideal", status, seeds, witness)
    return CheckReport(
        "points",
        "%d rational points in P^%d verified"
        % (len(construction.points), construction.embedded_ideal.n - 1),
        PASS,
        seeds,
    )
