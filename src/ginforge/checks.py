"""Theorem-checker harness.

Each named statement is verified mechanically on its worked fixture instances
and on randomized instances, producing :class:`CheckReport` values with
witnesses.  Every check is deterministic given its seed.  An `inconclusive`
status is distinct from pass/fail and is triggered only by non-unanimous
randomized gin trials.

Every randomized check ends in ``(seed, trials)``.  A statement driver is a
generator that yields, in order, each instance as a finished report or as
``(check, args, seed)``; ``run_statement`` is the one place that runs the
latter, through ``_with_retry``, which re-seeds an inconclusive check once
with seed + 7919.  A seeded matrix that must pass a test (sufficiently
generic, radical for an ideal) comes from ``_search_matrix``: at most
``GENERIC_MATRIX_TRIES`` draws, and what the caller builds on the first one
it accepts is kept; a search for a radical matrix builds on each draw at once
and refuses the draw on ``NotRadicalError``.  Each caller decides what a
failed search means.
"""

from __future__ import annotations

import random
from typing import Sequence

from .distraction import (
    DistractionMatrix,
    MatrixConstructionError,
    NotRadicalError,
    distract_ideal,
    intersection_of_primes,
    is_radical_for,
    is_sufficiently_generic,
    make_matrix,
    radirred_primes,
    transform_matrix,
)
from .gin import (
    DEFAULT_TRIALS,
    coordinate_form,
    gin_verdict,
    hyperplane_section,
    random_linear_form,
)
from .groebner import PolyIdeal, ideal_equal, saturate
from .monomial import (
    DegenerateInputError,
    MonomialIdeal,
    closure,
    coordinate_section,
    irreducible_decomposition,
    layered_ideal,
    principal_formulas,
    saturate_mono,
    scale_by,
    stability_flags,
)
from .numeric import QMatrix, echelon_form
from .points import points_from_ideal, projective_point, verify_points
from .polyring import (
    OrderingSpec,
    Polynomial,
    degrevlex,
    is_xi_degrev_type,
    lex,
    matrix_ordering,
    monomials_of_degree,
    pp_deg,
    pp_mul,
    pp_one,
    restrict_ordering,
)
from .reports import FAIL, INCONCLUSIVE, PASS, SKIPPED, CheckReport

GENERIC_MATRIX_TRIES = 10

# ---------------------------------------------------------------------------
# fixture instances

# strongly stable quintic ideal in K[x,y,z,w] used by the section fixtures
QUINTIC_GENS = ((5, 0, 0, 0), (4, 1, 0, 0), (4, 0, 1, 0), (3, 2, 0, 0), (2, 3, 0, 0))

# weight matrix of a w-DegRev-type ordering on four variables
W_ROWS = ((1, 1, 1, 1), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))

# gin of the generic hyperplane section of the distracted quintic ideal,
# under the restriction of the W ordering
SECTION_GIN_GENS = (
    (5, 0, 0),
    (4, 1, 0),
    (4, 0, 1),
    (3, 2, 0),
    (3, 1, 1),
    (3, 0, 3),
    (2, 5, 0),
)

# stable, not strongly stable, ideal generated from two seed monomials,
# together with its displayed degrevlex and lex gins
STABLE_PAIR_SEEDS = ((1, 1, 0, 0), (0, 1, 1, 1))
STABLE_PAIR_GENS = (
    (2, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 3, 0, 0),
    (0, 2, 1, 0),
    (0, 1, 2, 0),
    (0, 1, 1, 1),
)
STABLE_PAIR_GIN_DRL = (
    (2, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 3, 0, 0),
    (0, 2, 1, 0),
    (1, 0, 2, 0),
    (0, 2, 0, 1),
)
STABLE_PAIR_GIN_LEX = (
    (2, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 3, 0, 0),
    (0, 2, 1, 0),
    (1, 0, 2, 0),
    (1, 0, 1, 1),
)

# the sharper counterexample: a stable ideal whose distraction changes the gin
COUNTER_SEEDS = ((0, 3, 0, 0), (0, 0, 2, 2))
COUNTER_GENS = (
    (3, 0, 0, 0),
    (2, 1, 0, 0),
    (1, 2, 0, 0),
    (0, 3, 0, 0),
    (2, 0, 2, 0),
    (1, 1, 2, 0),
    (1, 0, 3, 0),
    (1, 0, 2, 1),
    (0, 2, 2, 0),
    (0, 1, 3, 0),
    (0, 1, 2, 1),
    (0, 0, 4, 0),
    (0, 0, 3, 1),
    (0, 0, 2, 2),
)
_COUNTER_COMMON = (
    (3, 0, 0, 0),
    (2, 1, 0, 0),
    (1, 2, 0, 0),
    (0, 3, 0, 0),
    (2, 0, 2, 0),
    (2, 0, 1, 1),
    (2, 0, 0, 2),
    (1, 1, 2, 0),
    (1, 1, 1, 1),
    (1, 0, 3, 0),
    (0, 2, 2, 0),
    (0, 1, 3, 0),
    (0, 0, 4, 0),
)
COUNTER_GIN_PLAIN = _COUNTER_COMMON + ((1, 0, 2, 1),)
COUNTER_GIN_DISTRACTED = _COUNTER_COMMON + ((0, 2, 1, 1),)

# triple of pairwise intersections of squares: radical-for verdicts fixture
SQUARES_TRIPLE_GENS = ((2, 2, 0), (2, 0, 2), (0, 2, 2))

# depth-zero strongly stable ideal whose saturation drops the embedded part
DEPTH_ZERO_GENS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1))


def quintic_ideal() -> MonomialIdeal:
    return MonomialIdeal(4, QUINTIC_GENS)


def w_type_ordering() -> OrderingSpec:
    return matrix_ordering(W_ROWS)


# ---------------------------------------------------------------------------
# randomized instance generators


def random_power_product(rng: random.Random, n: int, max_deg: int) -> tuple:
    d = rng.randint(1, max_deg)
    t = [0] * n
    for _ in range(d):
        t[rng.randrange(n)] += 1
    return tuple(t)


def random_strongly_stable_ideal(rng: random.Random, n: int, max_deg: int = 5) -> MonomialIdeal:
    seeds = [random_power_product(rng, n, max_deg) for _ in range(rng.randint(1, 3))]
    return closure(n, seeds, "strongly_stable")


def random_monomial_ideal(rng: random.Random, n: int, max_deg: int = 4) -> MonomialIdeal:
    gens = [random_power_product(rng, n, max_deg) for _ in range(rng.randint(1, 4))]
    return MonomialIdeal(n, gens)


def random_homogeneous_polynomial(rng: random.Random, n: int, degree: int) -> Polynomial:
    """At most three terms of the given degree, coefficients nonzero in [-5, 5]."""
    mons = list(monomials_of_degree(n, degree))
    chosen = rng.sample(mons, min(3, len(mons)))
    out = {}
    for e in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-5, 5)
        out[e] = c
    return Polynomial(n, out)


def random_homogeneous_ideal(rng: random.Random, n: int, max_deg: int = 4) -> PolyIdeal:
    count = rng.randint(2, 3)
    polys = [random_homogeneous_polynomial(rng, n, rng.randint(2, max_deg)) for _ in range(count)]
    return PolyIdeal(polys, n=n)


def random_layered_stable_instance(rng: random.Random, n: int) -> tuple:
    """A random layered ideal sum_j t_j (x_1..x_j)^{alpha_j} with t_1 = 1,
    m(t_j) < j, t_j | t_{j+1} and equal layer totals deg(t_j) + alpha_j.

    Returns (ideal, pairs) where pairs is the tuple of (deg t_j, alpha_j).

    Every layered ideal arising from a principal stable closure has equal
    totals.  The pairs-determine-Betti-numbers claim can fail off this
    sub-family (a lower total in an early layer prunes later minimal
    generators in a way that depends on t_j itself, not just its degree;
    witness: n = 3, t = (1, 1, x1*x2), alpha = (3, 5, 3) against t_3 =
    x1^2), so comparisons by pairs are only generated here.
    """
    r = rng.randint(1, n)
    ts = [pp_one(n)]
    for j in range(2, r + 1):
        extra = [0] * n
        for _ in range(rng.randint(0, 2)):
            extra[rng.randrange(j - 1)] += 1
        ts.append(pp_mul(ts[-1], tuple(extra)))
    total = max(pp_deg(t) for t in ts) + rng.randint(1, 3)
    alphas = [total - pp_deg(t) for t in ts]
    pairs = tuple((pp_deg(t), a) for t, a in zip(ts, alphas))
    return layered_ideal(n, ts, alphas), pairs


def layered_ideal_from_pairs(n: int, pairs: Sequence[tuple]) -> MonomialIdeal:
    """The canonical layered ideal with t_j = x_1^{d_j} for the given pairs."""
    ts = [tuple(d if k == 0 else 0 for k in range(n)) for d, _ in pairs]
    return layered_ideal(n, ts, [a for _, a in pairs])


def random_zero_dimensional_sstable(rng: random.Random, n: int, max_exp: int = 3) -> MonomialIdeal:
    a = rng.randint(2, max_exp)
    seeds = [tuple(a if k == n - 1 else 0 for k in range(n))]
    if rng.random() < 0.7:
        seeds.append(random_power_product(rng, n, max(1, a - 1)))
    return closure(n, seeds, "strongly_stable")


def random_invertible(rng: random.Random, n: int, bound: int) -> list:
    """The rows of a random invertible integer matrix with entries in [-bound, bound]."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if len(echelon_form(rows)) == n:
            return rows


def _search_matrix(draw, build):
    """``build(L)`` for the first of at most GENERIC_MATRIX_TRIES matrices L
    that ``draw()`` returns and ``build`` takes, or None.  ``build`` refuses a
    matrix by returning a false value or by raising NotRadicalError."""
    for _ in range(GENERIC_MATRIX_TRIES):
        try:
            found = build(draw())
        except NotRadicalError:
            continue
        if found:
            return found
    return None


def sufficiently_generic_matrix(n: int, N: int, seed: int, kind: str = "generic") -> DistractionMatrix:
    """A seeded matrix of the given kind that passes the sufficiency test.

    For the generic kind, unlucky draws are re-seeded deterministically; for
    the classic kind a random invertible coordinate change is applied.
    """
    rng = random.Random(seed)
    if kind == "generic":
        L = _search_matrix(
            lambda: make_matrix(kind, n, N, rng_seed=rng.randrange(1 << 32)), lambda L: is_sufficiently_generic(L) and L
        )
    elif kind == "transformed_classic":
        base = make_matrix("classic", n, N)
        L = _search_matrix(
            lambda: transform_matrix(QMatrix(random_invertible(rng, n, 10)), base),
            lambda L: is_sufficiently_generic(L) and L,
        )
    else:
        raise ValueError("unsupported kind %r" % kind)
    if L is None:
        raise MatrixConstructionError("no sufficiently generic matrix after %d tries" % GENERIC_MATRIX_TRIES)
    return L


# ---------------------------------------------------------------------------
# individual statement checks


def check_main_theorem(I: MonomialIdeal, L: DistractionMatrix) -> CheckReport:
    """Initial ideal (degrevlex) of the distraction of a strongly stable ideal
    is the ideal itself, for sufficiently generic matrices."""
    desc = "in_drl of distraction of %r under %r" % (I, L)
    if not stability_flags(I)[1]:
        return CheckReport("main", desc, SKIPPED, (), {"reason": "ideal is not strongly stable"})
    if not is_sufficiently_generic(L):
        return CheckReport("main", desc, SKIPPED, (), {"reason": "matrix is not sufficiently generic"})
    lhs = distract_ideal(L, I).initial_ideal(degrevlex(I.n))
    if lhs == I:
        return CheckReport("main", desc, PASS)
    return CheckReport("main", desc, FAIL, (), {"lhs": repr(lhs), "rhs": repr(I)})


def check_gindl(
    I: MonomialIdeal, L: DistractionMatrix, seed: int, trials: int = DEFAULT_TRIALS
) -> CheckReport:
    """gin (degrevlex) of the distraction of a strongly stable ideal is the
    ideal itself, for arbitrary distraction matrices."""
    desc = "gin_drl of distraction of %r under %r" % (I, L)
    if not stability_flags(I)[1]:
        return CheckReport("gindl", desc, SKIPPED, (seed,), {"reason": "ideal is not strongly stable"})
    _, status, witness = gin_verdict(distract_ideal(L, I), degrevlex(I.n), trials, seed, I, ("lhs", "rhs"))
    return CheckReport("gindl", desc, status, (seed,), witness)


def check_hyperplane_theorem(
    I: PolyIdeal,
    ordering: OrderingSpec,
    i: int,
    seed: int,
    trials: int = DEFAULT_TRIALS,
) -> CheckReport:
    """gin of a generic hyperplane section equals the coordinate section of
    the gin, for orderings preferring small exponents on the cut variable."""
    desc = "section comparison at variable %d for an ideal with %d generators" % (
        i,
        len(I.generators),
    )
    if not is_xi_degrev_type(ordering, i):
        return CheckReport(
            "hyperplane", desc, SKIPPED, (seed,), {"reason": "ordering is not of the required type"}
        )
    h = random_linear_form(I.n, seed)
    section = hyperplane_section(I, h, i)
    restricted = restrict_ordering(ordering, i)
    whole, status, witness = gin_verdict(I, ordering, trials, seed + 1, None, None)
    if status != PASS:
        return CheckReport("hyperplane", desc, status, (seed,), witness)
    rhs = coordinate_section(whole, i)
    zero = MonomialIdeal(I.n - 1)
    if not section.is_zero():
        _, status, witness = gin_verdict(section, restricted, trials, seed + 2, rhs, ("lhs", "rhs"))
    elif rhs != zero:
        status, witness = FAIL, {"lhs": repr(zero), "rhs": repr(rhs)}
    return CheckReport("hyperplane", desc, status, (seed,), witness)


def check_sumprinc(
    t: tuple, L: DistractionMatrix, seed: int, trials: int = DEFAULT_TRIALS
) -> CheckReport:
    """Closed forms for principal stable ideals: the stable closure matches
    the summation formula, the gin matches its closed form under both
    degrevlex and lex, and distraction does not change the gin."""
    if pp_deg(t) == 0:
        raise DegenerateInputError("the power product 1 is not a valid instance")
    n = len(t)
    desc = "principal stable ideal of %s" % (t,)
    I = closure(n, [t], "stable")
    stable_form, gin_form = principal_formulas(t)
    if I != stable_form:
        return CheckReport(
            "sumprinc", desc, FAIL, (seed,), {"closure": repr(I), "closed_form": repr(stable_form)}
        )
    I_poly = PolyIdeal.from_monomial(I)
    for offset, (tag, ordering) in enumerate((("degrevlex", degrevlex(n)), ("lex", lex(n)))):
        _, status, witness = gin_verdict(I_poly, ordering, trials, seed + offset, gin_form, ("gin", "closed_form"))
        if status == FAIL:
            witness = {"ordering": tag, **witness}
        if status != PASS:
            return CheckReport("sumprinc", desc, status, (seed,), witness)
    D = distract_ideal(L, I)
    _, status, witness = gin_verdict(D, degrevlex(n), trials, seed + 3, gin_form, ("distracted_gin", "closed_form"))
    return CheckReport("sumprinc", desc, status, (seed,), witness)


def check_layered_gin(I: MonomialIdeal, pairs: Sequence[tuple], seed: int, trials: int) -> CheckReport:
    """gin of a layered stable ideal equals the canonical layered ideal built
    from the (degree, exponent) pairs alone."""
    desc = "layered ideal with pairs %s" % (tuple(pairs),)
    expected = layered_ideal_from_pairs(I.n, pairs)
    I_poly = PolyIdeal.from_monomial(I)
    _, status, witness = gin_verdict(I_poly, degrevlex(I.n), trials, seed, expected, ("gin", "expected"))
    return CheckReport("sumprinc", desc, status, (seed,), witness)


def check_counterexample(seed: int = 1, trials: int = DEFAULT_TRIALS) -> CheckReport:
    """The sharp instance: a stable (not strongly stable) ideal whose gin and
    distracted gin differ in exactly one documented generator."""
    desc = "stable closure of {x2^3, x3^2*x4^2}"
    I = closure(4, COUNTER_SEEDS, "stable")
    expected_I = MonomialIdeal(4, COUNTER_GENS)
    if I != expected_I:
        return CheckReport(
            "counterexample", desc, FAIL, (seed,), {"closure": repr(I), "expected": repr(expected_I)}
        )
    drl = degrevlex(4)
    expected_plain = MonomialIdeal(4, COUNTER_GIN_PLAIN)
    plain, status, witness = gin_verdict(
        PolyIdeal.from_monomial(I), drl, trials, seed, expected_plain, ("gin", "expected")
    )
    if status != PASS:
        return CheckReport("counterexample", desc, status, (seed,), witness)
    L = make_matrix("generic", 4, 5, rng_seed=seed)
    expected_distracted = MonomialIdeal(4, COUNTER_GIN_DISTRACTED)
    distracted, status, witness = gin_verdict(
        distract_ideal(L, I), drl, trials, seed + 1, expected_distracted, ("distracted_gin", "expected")
    )
    if status == PASS:
        witness = {"gin": repr(plain), "distracted_gin": repr(distracted)}
    return CheckReport("counterexample", desc, status, (seed,), witness)


def check_stable_pair_gins(seed: int = 1, trials: int = DEFAULT_TRIALS) -> CheckReport:
    """The stable closure of {x1*x2, x2*x3*x4} and its displayed degrevlex
    and lex gins."""
    desc = "stable closure of {x1*x2, x2*x3*x4}"
    I = closure(4, STABLE_PAIR_SEEDS, "stable")
    if I != MonomialIdeal(4, STABLE_PAIR_GENS):
        return CheckReport("counterexample", desc, FAIL, (seed,), {"closure": repr(I)})
    I_poly = PolyIdeal.from_monomial(I)
    for ordering, expected in (
        (degrevlex(4), MonomialIdeal(4, STABLE_PAIR_GIN_DRL)),
        (lex(4), MonomialIdeal(4, STABLE_PAIR_GIN_LEX)),
    ):
        _, status, witness = gin_verdict(I_poly, ordering, trials, seed, expected, ("gin", "expected"))
        if status == FAIL:
            witness = {"ordering": ordering.kind, **witness}
        if status != PASS:
            return CheckReport("counterexample", desc, status, (seed,), witness)
    return CheckReport("counterexample", desc, PASS, (seed,))


def check_gcd_corollary(
    J: MonomialIdeal,
    a: int,
    F: Polynomial,
    L: DistractionMatrix,
    seed: int,
    trials: int = DEFAULT_TRIALS,
) -> CheckReport:
    """gin of F times the distraction of a strongly stable ideal J equals
    x_1^a * J, for any nonzero form F of degree a."""
    desc = "common factor of degree %d over %r" % (a, J)
    if not stability_flags(J)[1]:
        return CheckReport("gcd", desc, SKIPPED, (seed,), {"reason": "ideal is not strongly stable"})
    if F.is_zero() or not F.is_homogeneous() or F.degree() != a:
        return CheckReport("gcd", desc, SKIPPED, (seed,), {"reason": "factor is not a nonzero form of degree a"})
    n = J.n
    target = scale_by(J, tuple(a if k == 0 else 0 for k in range(n)))
    gens = [F * g for g in distract_ideal(L, J).generators]
    _, status, witness = gin_verdict(PolyIdeal(gens, n=n), degrevlex(n), trials, seed, target, ("gin", "expected"))
    return CheckReport("gcd", desc, status, (seed,), witness)


def radirred_certification_report(I: MonomialIdeal, L: DistractionMatrix) -> CheckReport:
    """Certify radicality: per irreducible component, the distraction equals
    the intersection of the attached linear primes; globally, the distraction
    of I equals the intersection over all components.  Skipped when L is not
    radical for I."""
    try:
        return _certify_radical(I, L)
    except NotRadicalError:
        reason = {"reason": "matrix is not radical for the ideal"}
        return CheckReport("radical", "radical certification for %r" % (I,), SKIPPED, (), reason)


def _certify_radical(I: MonomialIdeal, L: DistractionMatrix) -> CheckReport:
    """The report of ``radirred_certification_report`` for L radical for I;
    NotRadicalError, before anything is intersected, when it is not: the
    primes of every component come first."""
    desc = "radical certification for %r" % (I,)
    drl = degrevlex(I.n)
    components = irreducible_decomposition(I)
    primes = [radirred_primes(L, component) for component in components]
    component_ideals = []
    for component, component_primes in zip(components, primes):
        meet = intersection_of_primes(component_primes)
        direct = distract_ideal(L, component)
        if not ideal_equal(meet, direct, drl):
            return CheckReport(
                "radical",
                desc,
                FAIL,
                (),
                {"component": repr(component), "reason": "prime intersection mismatch"},
            )
        component_ideals.append(direct)
    whole = intersection_of_primes(component_ideals)
    if not ideal_equal(whole, distract_ideal(L, I), drl):
        return CheckReport("radical", desc, FAIL, (), {"reason": "component intersection mismatch"})
    return CheckReport("radical", desc, PASS)


def radical_verdict_report(seed: int = 1) -> CheckReport:
    """Fixture verdicts: the generic 2-tail matrix is radical for the triple
    of squares, the degenerate classic 2-tail matrix is not, and neither is
    the identical matrix."""
    desc = "radical-for verdicts on the triple of squares"
    I = MonomialIdeal(3, SQUARES_TRIPLE_GENS)
    generic = make_matrix("generic", 3, 2, rng_seed=seed)
    classic = make_matrix("classic", 3, 2)
    identical = make_matrix("identical", 3, 2)
    verdicts = (is_radical_for(generic, I), is_radical_for(classic, I), is_radical_for(identical, I))
    if verdicts == (True, False, False):
        return CheckReport("radical", desc, PASS, (seed,))
    return CheckReport("radical", desc, FAIL, (seed,), {"verdicts": list(verdicts)})


def build_radical_witness(
    I: PolyIdeal,
    want_saturated: bool,
    seed: int,
    trials: int = DEFAULT_TRIALS,
) -> tuple:
    """Construct a radical ideal with the same gin (or the gin's saturation).

    Returns (J, report).  J is the distraction of the gin of I (or of the
    saturation of that gin) by a seeded generic matrix that is radical for it;
    the report verifies the gin equality and certifies radicality through the
    linear-prime decomposition.
    """
    n = I.n
    drl = degrevlex(n)
    desc = "radical witness (%s) for an ideal with %d generators" % (
        "saturated" if want_saturated else "plain",
        I._count(),
    )
    G, status, witness = gin_verdict(I, drl, trials, seed, None, None)
    if status != PASS:
        return None, CheckReport("radical", desc, status, (seed,), witness)
    if not want_saturated:
        if not ideal_equal(saturate(I), I, drl):
            return None, CheckReport(
                "radical", desc, SKIPPED, (seed,), {"reason": "ideal is not saturated (depth zero)"}
            )
        target = G
    else:
        target = saturate_mono(G)
    if not stability_flags(target)[1]:
        return None, CheckReport(
            "radical", desc, FAIL, (seed,), {"reason": "target is not strongly stable", "target": repr(target)}
        )
    N = max(target.max_exponent(), 1)
    rng = random.Random(seed)
    found = _search_matrix(
        lambda: make_matrix("generic", n, N, rng_seed=rng.randrange(1 << 32)),
        lambda L: (L, _certify_radical(target, L)),
    )
    if found is None:
        raise MatrixConstructionError("no radical matrix for the target after re-seeding")
    L, cert = found
    J = distract_ideal(L, target)
    if cert.status != PASS:
        return J, CheckReport("radical", desc, FAIL, (seed,), {"reason": "radicality certification failed"})
    _, status, witness = gin_verdict(J, drl, trials, seed + 1, target, ("gin_of_witness", "target"))
    return J, CheckReport("radical", desc, status, (seed,), witness)


def _radical_witness_report(I: PolyIdeal, want_saturated: bool, seed: int, trials: int) -> CheckReport:
    return build_radical_witness(I, want_saturated, seed, trials)[1]


def section_example_cases(seed: int) -> list:
    """The four displayed section computations for the distracted quintic
    ideal, as (label, D, ordering, form, expected): under the W ordering the
    generic section and the coordinate section disagree; under degrevlex both
    collapse to the input."""
    I = quintic_ideal()
    D = distract_ideal(make_matrix("classic", 4, 6), I)
    I3 = MonomialIdeal(3, [g[:3] for g in I.gens])
    h = random_linear_form(4, seed)
    w = coordinate_form(4, 4)
    return [
        ("W ordering, generic section", D, w_type_ordering(), h, MonomialIdeal(3, SECTION_GIN_GENS)),
        ("W ordering, coordinate section", D, w_type_ordering(), w, I3),
        ("degrevlex, generic section", D, degrevlex(4), h, I3),
        ("degrevlex, coordinate section", D, degrevlex(4), w, I3),
    ]


def check_section_example(
    label: str, D: PolyIdeal, ordering: OrderingSpec, form: Polynomial, expected: MonomialIdeal, seed: int, trials: int
) -> CheckReport:
    """gin of the section of D by the form, under the ordering restricted to
    the first three variables, equals the expected ideal."""
    section = hyperplane_section(D, form, 4)
    restricted = restrict_ordering(ordering, 4)
    _, status, witness = gin_verdict(section, restricted, trials, seed + 11, expected, ("gin", "expected"))
    return CheckReport("hyperplane", label, status, (seed,), witness)


# ---------------------------------------------------------------------------
# statement drivers


def _with_retry(check, *args, seed: int, trials: int) -> CheckReport:
    """``check(*args, seed, trials)``, re-seeded once with seed + 7919 on an
    inconclusive outcome; persistent inconclusiveness stays visible in the
    report."""
    report = check(*args, seed, trials)
    if report.status == INCONCLUSIVE:
        report = check(*args, seed + 7919, trials)
    return report


def _verify_main(rng: random.Random, seed: int, instances: int):
    fixed = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    yield check_main_theorem(fixed, sufficiently_generic_matrix(2, 3, seed))
    sst = closure(3, [(1, 2, 1)], "strongly_stable")
    yield check_main_theorem(sst, sufficiently_generic_matrix(3, 4, seed + 1, "transformed_classic"))
    for k in range(instances):
        n = rng.choice((2, 3, 4))
        I = random_strongly_stable_ideal(rng, n)
        kind = "generic" if k % 2 else "transformed_classic"
        N = max(2, min(I.max_exponent(), 4))
        L = sufficiently_generic_matrix(n, N, rng.randrange(1 << 32), kind)
        yield check_main_theorem(I, L)


def _verify_gindl(rng: random.Random, seed: int, instances: int):
    yield check_gindl, (quintic_ideal(), make_matrix("classic", 4, 6)), seed + 1
    small = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    yield check_gindl, (small, make_matrix("identical", 2, 2)), seed + 2
    for k in range(instances):
        n = rng.choice((2, 3, 4))
        J = random_strongly_stable_ideal(rng, n)
        N = max(2, min(J.max_exponent(), 4))
        if k % 2:
            L = make_matrix("generic", n, N, rng_seed=rng.randrange(1 << 32))
        else:
            L = make_matrix("classic", n, N + 1)
        yield check_gindl, (J, L), rng.randrange(1 << 30)


def _verify_hyperplane(rng: random.Random, seed: int, instances: int):
    for case in section_example_cases(seed + 1):
        yield check_section_example, case, seed + 1
    for _ in range(instances):
        n = rng.choice((3, 4))
        I = random_homogeneous_ideal(rng, n)
        yield check_hyperplane_theorem, (I, degrevlex(n), n), rng.randrange(1 << 30)


def _verify_sumprinc(rng: random.Random, seed: int, instances: int):
    for t in [(1, 1), (2, 1), (1, 2, 1)]:
        L = make_matrix("classic", len(t), max(max(t) + 1, 2))
        yield check_sumprinc, (t, L), seed + 5
    for _ in range(instances):
        n = rng.choice((2, 3, 4))
        t = random_power_product(rng, n, 4)
        L = make_matrix("generic", n, max(max(t), 1), rng_seed=rng.randrange(1 << 32))
        yield check_sumprinc, (t, L), rng.randrange(1 << 30)
        I, pairs = random_layered_stable_instance(rng, rng.choice((2, 3)))
        yield check_layered_gin, (I, pairs), rng.randrange(1 << 30)


def _verify_counterexample(rng: random.Random, seed: int, instances: int):
    yield check_stable_pair_gins, (), seed + 1
    yield check_counterexample, (), seed + 1


def _verify_gcd(rng: random.Random, seed: int, instances: int):
    J = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
    F = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    yield check_gcd_corollary, (J, 1, F, make_matrix("classic", 3, 3)), seed + 1
    for _ in range(instances):
        n = rng.choice((2, 3))
        J = random_strongly_stable_ideal(rng, n, max_deg=3)
        a = rng.randint(0, 2)
        F = Polynomial.constant(n, 1) if a == 0 else random_homogeneous_polynomial(rng, n, a)
        L = make_matrix("generic", n, max(J.max_exponent(), 1), rng_seed=rng.randrange(1 << 32))
        yield check_gcd_corollary, (J, a, F, L), rng.randrange(1 << 30)


def _verify_radical(rng: random.Random, seed: int, instances: int):
    yield radical_verdict_report(seed + 1)
    depth_zero = PolyIdeal.from_monomial(MonomialIdeal(3, DEPTH_ZERO_GENS))
    positive = PolyIdeal.from_monomial(saturate_mono(closure(3, [(1, 1, 0)], "strongly_stable")))
    principal = PolyIdeal.from_monomial(MonomialIdeal(2, [(1, 0)]))
    for k, (I, want_saturated) in enumerate(((depth_zero, True), (positive, False), (principal, False))):
        yield _radical_witness_report, (I, want_saturated), seed + 2 + k
    for _ in range(instances):
        n = rng.choice((2, 3))
        I = saturate_mono(random_monomial_ideal(rng, n, max_deg=3))
        if I.is_zero() or I.is_unit():
            continue
        N = max(I.max_exponent(), 1)
        L = make_matrix("generic", n, N, rng_seed=rng.randrange(1 << 32))
        yield radirred_certification_report(I, L)


def _verify_points(rng: random.Random, seed: int, instances: int):
    I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    construction = points_from_ideal(I, make_matrix("classic", 3, 3))
    expected = tuple(projective_point(c) for c in ((0, 0, 1), (0, 1, 1), (1, 0, 1)))
    if construction.points != expected:
        witness = {"points": repr(construction.points), "expected": repr(expected)}
        yield CheckReport("points", "triple of coordinate points in the projective plane", FAIL, (seed,), witness)
    else:
        yield verify_points, (construction,), seed + 1
    for _ in range(max(instances, 1)):
        n = rng.choice((2, 3))
        I = random_zero_dimensional_sstable(rng, n, max_exp=3 if n == 2 else 2)
        N = max(I.max_exponent(), 2)
        construction = _search_matrix(
            lambda: make_matrix("generic", n + 1, N, rng_seed=rng.randrange(1 << 32)),
            lambda L: points_from_ideal(I, L),
        )
        if construction is None:
            reason = {"reason": "no radical matrix found"}
            yield CheckReport("points", "random zero-dimensional instance", SKIPPED, (seed,), reason)
        else:
            yield verify_points, (construction,), rng.randrange(1 << 30)


# the verifier's statements, in the order ``all`` runs them; each maps
# (rng, seed, instances) to its fixture and randomized instances, in order
STATEMENTS = {
    "main": _verify_main,
    "gindl": _verify_gindl,
    "hyperplane": _verify_hyperplane,
    "sumprinc": _verify_sumprinc,
    "counterexample": _verify_counterexample,
    "gcd": _verify_gcd,
    "radical": _verify_radical,
    "points": _verify_points,
}


def run_statement(
    statement: str,
    seed: int = 0,
    instances: int = 25,
    trials: int = DEFAULT_TRIALS,
) -> list:
    """Run fixture and randomized checks for one named statement, or for
    every statement in table order when ``statement`` is ``all``.  Each
    instance is run before its driver draws the next, so draws, seeds and
    reports keep the driver's order."""
    if statement == "all":
        # each statement is its own call of run_statement, so a wrapper of
        # this name (a profiler, a tracer) sees every statement separately
        return [r for name in STATEMENTS for r in run_statement(name, seed, instances, trials)]
    if statement not in STATEMENTS:
        raise ValueError("unknown statement %r" % statement)
    if instances < 0:
        raise ValueError("the number of instances must be nonnegative")
    reports = []
    for instance in STATEMENTS[statement](random.Random(seed), seed, instances):
        if not isinstance(instance, CheckReport):
            check, args, check_seed = instance
            instance = _with_retry(check, *args, seed=check_seed, trials=trials)
        reports.append(instance)
    return reports
