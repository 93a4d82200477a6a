"""Randomized generic initial ideals and hyperplane sections.

The generic initial ideal is approximated by Monte Carlo: several independent
random coordinate changes are applied and the initial ideals compared.
Unanimity across trials plus a strong-stability sanity check make silent
wrong answers very unlikely; disagreement surfaces loudly.

A trial's change is upper unitriangular in the ordering's variable rank:
x_j -> x_j + sum of c_ij x_i over the variables x_i ranked above x_j, with
integer c_ij.  That is enough (Galligo; Bayer-Stillman; Eisenbud,
*Commutative Algebra*, 15.9; Green, "Generic initial ideals", 1998).  A change
that sends each variable to a nonzero multiple of itself plus variables ranked
below it sends every term to a multiple of itself plus smaller terms, so it
keeps every initial ideal.  Such changes applied after unitriangular ones make
up the big Bruhat cell, which is dense in GL_n, and the changes g with
in(g.I) = gin(I) form a dense open set, so a generic unitriangular change
gives gin(I).  It draws n(n-1)/2 entries instead of n^2, needs no
invertibility check (its determinant is 1), fixes the top variable and gives
sparser images.

A trial runs in Z on packed monomials from end to end.  The generators are the
images of integer polynomials under a product map: the exponents of I under
the map of L for a distraction D_L(I) (``distraction.distract_ideal``), and
under the identity for monomial input, which ``PolyIdeal.from_monomial``
records as the distraction of I by the identical matrix.  General
polynomials go under the identity as the ideal's integer view: cleared to
content-free integers and checked once, when the ideal is built, or the
integer basis of a kernel result (``PolyIdeal._images`` gives either).
Since D_L(x^a) moved by g is D_{L.g}(x^a), ``gin`` composes each trial's
matrix g into the map, on integer rows, and the trial expands the images
straight into packed keys for Buchberger through the engine's one entrance
(``groebner._packed_images``, again at double width after an overflow).
``gin`` draws each trial's matrix, and its prime (below), from the trial's
seed; ``_trial`` draws nothing.  The majority of the trials' leading terms
becomes a ``MonomialIdeal``; they are the leading terms of a minimal basis,
pairwise non-dividing already, so they are only put in canonical order, not
minimalized again.

For monomial input under the identity (``from_monomial``, or a
``PolyIdeal`` of monomials) ``gin`` takes the core of the generators once
(``monomial.move_core``): the largest subset whose ideal J is closed under
the adjacent moves of the variable rank, the Borel-fixed part.  A trial
packs the core as it is and expands only the other generators under its
change.  That is exact for every draw, not only a generic one: each term of
the image of x^a under a unitriangular g is x^a moved along a chain of
adjacent moves, so g.J lies in J; g is invertible and keeps degrees, so
g.J = J, and g.I is J plus the images of the other generators, over Z and
mod every prime.  So Buchberger sees the same ideal, whose minimal leading
terms are unique.  When the core is every generator, the input is
Borel-fixed and every trial's ideal is the input itself, whose initial ideal
is its minimal generators: a Borel-fixed ideal is its own gin.  ``gin``
returns that at once, agreed and not suspicious, after drawing the trial
seeds as for any input, and draws no matrix or prime and runs no trial:
nothing random is left to check.  So a gin that runs trials on monomial
input and equals it is not strongly stable (the core is not every
generator); any other gin takes its own core.

Every trial's initial ideal has the Hilbert function of the input, so the
trials get a monomial ideal with that Hilbert function, ``known``, from the
cheapest source the gin holds:

- the input's own exponents when the mapped polynomials are monomials: for
  monomial input, and for a distraction D_L(I), which has the Hilbert
  function of I because a distraction matrix has the span property
  (``DistractionMatrix`` checks it);
- otherwise the leading terms of the input's own basis under the trials'
  ordering, as the Hilbert function depends neither on the coordinates nor
  on the graded term order.

``known`` is a ``groebner._Known``, which the trial hands to Buchberger as
its certificate.  The target, its Hilbert-Poincare numerator, is computed
only when a trial's leading terms, once its input has joined, are not exactly
``known``.  A trial that returns has shown that its leading terms have the
target numerator, so they become ``known`` for the later trials, packed once
per layout, and a later trial whose input already has those leading terms
computes no numerator.  So an input whose gin differs from its own leading
terms typically costs two numerators, theirs and trial 1's, and a
distraction of a strongly stable ideal, whose degrevlex gin is the ideal
itself, none.
Trials pack with an all-ones degree row on top of the ordering (unless its
first row is that already), which leaves the leading terms of homogeneous
polynomials as they are, and Buchberger stops each degree as soon as the
numerator says it is complete (``groebner.py``).  A trial whose initial ideal
has another numerator shows a fault in the kernel, not bad luck: it raises
``HilbertMismatchError``.  Every trial is certified against the input, so
a fault that gives every trial the same wrong Hilbert function cannot pass.

A trial whose coefficients would swell (``_modular``) runs its Buchberger
over F_p first, for one of the PRIMES largest primes below 2^30 drawn from
the trial's seed after its matrix (Traverso, "Groebner trace algorithms",
ISSAC 1988; Arnold, "Modular algorithms for computing Groebner bases", JSC
2003).  The target always comes from Q: the input's exponents or its own
basis, or the leading terms of a trial that reached it.  Mod p the images
span at most the Q dimension in each degree, so a run that reaches the
target, or ends on ``known``, has initial terms whose Pluecker coordinate is
nonzero mod p, hence nonzero over Z: it can fall short of the gin when p
divides an integer minor, as a Q trial can by bad luck, but it never
overshoots it, and unanimity and the strong-stability check keep their
meaning.  A run that misses the target mod p proves
nothing, as the prime may be bad: the trial runs again over Z, and only a
miss there raises ``HilbertMismatchError``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache

from .groebner import PolyIdeal, _Known, _OffTarget, _buchberger, _packed_images
from .monomial import MonomialIdeal, first_difference, move_core, series_values
from .polyring import LinearForm, OrderingSpec, _identity_map, _section, linear_form
from .reports import FAIL, INCONCLUSIVE, PASS

COEFF_BOUND = 1000
DEFAULT_TRIALS = 3
# A product-map input whose trials' images may have this many coefficient
# bits runs its trials over F_p (``_modular``), each with one of the PRIMES
# largest primes below 2^30.
SWELL_BITS = 80
PRIMES = 64
SUSPICIOUS_REASON = "unanimous gin is not strongly stable, which is impossible over Q"


class AmbiguousGinError(RuntimeError):
    """No strict majority across the random trials; raise the trial count."""


class HilbertMismatchError(RuntimeError):
    """A trial's initial ideal has another Hilbert function than the input,
    which is impossible over Q.  ``witness`` is {reason, degree, expected,
    got}: the reason names the trial, the least degree where its Hilbert
    function and the input's differ, and their values there."""

    def __init__(self, witness: dict):
        super().__init__("%(reason)s: degree %(degree)d, expected %(expected)d, got %(got)d" % witness)
        self.witness = witness


@dataclass(frozen=True)
class GinResult:
    """Outcome of a randomized generic-initial-ideal computation.

    ``agreed`` is True iff every trial produced the identical monomial ideal;
    ``ideal`` is the majority value.  ``suspicious`` flags a unanimous result
    that fails the strong-stability sanity check (over Q the generic initial
    ideal is Borel-fixed, hence strongly stable in its ordering's variables).
    """

    ideal: MonomialIdeal
    trials_used: int
    agreed: bool
    seeds: tuple
    suspicious: bool = False


def gin(
    I: PolyIdeal,
    ordering: OrderingSpec,
    trials: int = DEFAULT_TRIALS,
    rng_seed: int = 0,
) -> GinResult:
    """Randomized generic initial ideal of a nonzero homogeneous ideal.

    Each trial moves I by a random upper unitriangular change in the
    ordering's variable rank: the lower-triangular factor of the big Bruhat
    cell keeps initial ideals, so a generic unitriangular change gives gin(I).
    Every trial must have I's Hilbert function.  Its target is the
    numerator of a monomial ideal the trials know: I's own exponents for
    monomial input, and I's exponents for a distraction D_L(I), which has
    I's Hilbert function by the span property of L; otherwise the leading
    terms of a basis of the input itself.  The numerator is computed only
    when a trial's leading terms miss those, and each trial that returns
    becomes what the later trials know.  A trial off the target raises
    ``HilbertMismatchError``.  A trial whose coefficients would swell runs
    over F_p first and over Z only when that run misses,
    and a monomial input's trials move only the generators outside its core.
    A Borel-fixed monomial input, whose core is every generator, is its own
    gin: it runs no trial (the module docstring).
    """
    if I.is_zero():
        raise ValueError("the zero ideal has no generic initial ideal")
    if not I.homogeneous:
        raise ValueError("gin requires a homogeneous ideal")
    if trials < 2:
        raise ValueError("at least two trials are required")
    if ordering.n != I.n:
        raise ValueError("ordering and ideal live in different rings")
    n = I.n
    product, polys = I._images()
    exponents = [a for f in polys for a in f]
    master = random.Random(rng_seed)
    trial_seeds = tuple(master.randrange(1 << 32) for _ in range(trials))
    rank = _variable_rank(ordering)
    core = None  # the indices of the polys no trial moves (the module docstring)
    kept, moving = [], polys
    monomial = all(len(f) == 1 for f in polys)
    if monomial and product is _identity_map(n):
        core = move_core(n, exponents, rank)
        if len(core) == len(polys):  # Borel-fixed: every trial's ideal is the input
            return GinResult(MonomialIdeal(n, exponents), trials, True, trial_seeds, False)
        fixed = set(core)
        kept, moving = [polys[i] for i in core], [f for i, f in enumerate(polys) if i not in fixed]
    tops, degree = tuple(map(max, zip(*exponents))), max(map(sum, exponents))
    graded = ordering if ordering.rows[:1] == ((1,) * n,) else OrderingSpec("matrix", n, ((1,) * n,) + ordering.rows)
    own = tuple(sorted(exponents))
    modular = _modular(product, tops, degree, monomial)
    # a monomial ideal with the target numerator: the mapped monomials, or the input's own basis
    known = _Known(n, own if monomial else tuple(sorted(I.leading_terms(graded))))
    counts: Counter = Counter()
    for index, ts in enumerate(trial_seeds):
        rng = random.Random(ts)
        g = _unitriangular(rng, rank, COEFF_BOUND)
        change = product.composed(g, tops)
        if kept:
            change = _Kept(kept, change)
        prime = rng.choice(_primes()) if modular else 0
        try:
            leading, known = _trial(change, moving, graded, degree, known, prime)
        except _OffTarget as off:
            where = "trial %d, against the input" % (index + 1)
            raise HilbertMismatchError(_mismatch(n, known.numerator(), off.args[0], where)) from None
        counts[leading] += 1
    ranked = counts.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise AmbiguousGinError(
            "no majority over %d trials (seed %d); raise the trial count" % (trials, rng_seed)
        )
    ideal = MonomialIdeal._of_minimal(n, ranked[0][0])  # a trial's leading terms are minimal already
    agreed = len(ranked) == 1
    if agreed and (core is None or ranked[0][0] != own):  # else the gin is the input, whose core is known
        core = move_core(n, ideal.gens, rank)
    suspicious = agreed and len(core) < len(ideal.gens)
    return GinResult(ideal, trials, agreed, trial_seeds, suspicious)


def _mismatch(n: int, expected: list, got: list, where: str) -> dict:
    """The witness of two Hilbert-Poincare numerators that differ."""
    k = first_difference(expected, got)
    return {
        "reason": "initial ideal with another Hilbert function (%s)" % where,
        "degree": k,
        "expected": series_values(expected, n, k)[k],
        "got": series_values(got, n, k)[k],
    }


def _trial(change, polys: list, ordering: OrderingSpec, degree: int, known: _Known, prime: int) -> tuple:
    """(leading, known) of one trial: the sorted leading exponents of a
    minimal Groebner basis of the images of ``polys`` (degree at most
    ``degree``) under ``change``, and the ``_Known`` of the later trials:
    ``known`` again when the leading terms are its exponents, else the
    leading terms with their numerator.  ``known`` is what Buchberger
    certifies the run with, and ``ordering`` has the degree as first row; a
    run off its target raises ``_OffTarget``.  With a ``prime`` the run is
    over F_p first, and over Z only when that run misses the target."""

    def run(packing, images):
        return _buchberger(packing, images, known, prime)

    try:
        packing, basis = _packed_images(ordering, degree, change, polys, run)
    except _OffTarget:
        if not prime:
            raise
        prime = 0  # a miss mod p proves nothing: the prime may be bad
        packing, basis = _packed_images(ordering, degree, change, polys, run)
    leading = tuple(sorted(packing.unpack(entry[0]) for entry in basis))
    if leading == known.exponents:
        return leading, known
    # a run that missed ``known`` has computed its numerator already
    return leading, _Known(ordering.n, leading, known.numerator())


class _Kept:
    """A trial's map of monomial input under the identity: it packs the
    core's polys as they are and expands the others, the polys it is handed,
    under ``change``."""

    def __init__(self, core: list, change):
        self.core, self.change = core, change

    def expand(self, polys: list, units: tuple) -> list:
        return _identity_map(len(units)).expand(self.core, units) + self.change.expand(polys, units)


def _modular(product, tops: tuple, degree: int, monomial: bool) -> bool:
    """Whether the trials of a gin run over F_p first.

    Non-monomial input does.  A product-map input does when degree * (the
    bit length of n * COEFF_BOUND * norm) is at least SWELL_BITS, norm being
    the largest l1 norm of the forms its trials move (the first tops[j] of
    row j): a moved form then has an l1 norm of at most n * COEFF_BOUND *
    norm, so that bounds the bits of the images' coefficients a priori.
    Monomial input with small coefficients stays over Z, where its trials
    are cheaper than the modular reduction.  The rule is decided once per
    gin, as a scan of each trial's images costs more than it saves."""
    if not monomial:
        return True
    n = product.m
    norm = 1  # the identity's forms are the variables
    if product is not _identity_map(n):
        norm = max((sum(abs(c) for _, c in form) for row, top in zip(product.rows, tops) for form in row[:top]), default=0)
    return degree * (n * COEFF_BOUND * norm).bit_length() >= SWELL_BITS


@cache
def _primes() -> tuple:
    """The PRIMES largest primes below 2^30, built once: the odd q that pass
    the strong probable-prime test to the bases 2, 7 and 61, which no
    composite below 4.7 * 10^9 passes (Jaeschke, Math. Comp. 1993)."""
    out = []
    for q in range((1 << 30) - 1, 0, -2):
        s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s with d odd
        bases = [pow(a, (q - 1) >> s, q) for a in (2, 7, 61)]
        if all(x == 1 or q - 1 in [pow(x, 1 << r, q) for r in range(s)] for x in bases):
            out.append(q)
            if len(out) == PRIMES:
                return tuple(out)


def _variable_rank(ordering: OrderingSpec) -> list:
    """The variable indices ranked by ``ordering``, largest first (the
    identity for lex and degrevlex)."""
    return sorted(range(ordering.n), key=lambda i: [row[i] for row in ordering.rows], reverse=True)


def _unitriangular(rng: random.Random, rank: list, bound: int) -> list:
    """The rows of the identity plus g[rank[a]][rank[b]] in [-bound, bound]
    for a < b, drawn row-major: the change x_k -> sum_i g[i][k] x_i adds to
    each variable a multiple of every variable ranked above it."""
    n = len(rank)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            g[rank[a]][rank[b]] = rng.randint(-bound, bound)
    return g


def gin_verdict(I: PolyIdeal, ordering: OrderingSpec, trials: int, seed: int, expected, names):
    """Judge the randomized gin of I against ``expected``.

    Returns (ideal, status, witness).  Non-unanimous trials give
    INCONCLUSIVE, no ideal and the reason; a trial whose initial ideal has
    another Hilbert function gives FAIL, no ideal and the
    ``HilbertMismatchError`` witness; a suspicious gin gives FAIL with the
    reason and the gin; a gin other than ``expected`` (None accepts any)
    gives FAIL with ``{names[0]: gin, names[1]: expected}``; otherwise PASS.
    """
    try:
        res = gin(I, ordering, trials=trials, rng_seed=seed)
    except AmbiguousGinError as exc:
        return None, INCONCLUSIVE, {"reason": str(exc)}
    except HilbertMismatchError as exc:
        return None, FAIL, exc.witness
    if not res.agreed:
        return None, INCONCLUSIVE, {"reason": "non-unanimous trials (majority only), seed %d" % seed}
    if res.suspicious:
        return res.ideal, FAIL, {"reason": SUSPICIOUS_REASON, "gin": repr(res.ideal)}
    if expected is None or res.ideal == expected:
        return res.ideal, PASS, None
    return res.ideal, FAIL, {names[0]: repr(res.ideal), names[1]: repr(expected)}


def hyperplane_section(I: PolyIdeal, h: LinearForm, i: int) -> PolyIdeal:
    """The h-hyperplane section: image of I under the map eliminating x_i.

    The substitution is surjective, so the images of the generators generate
    the image ideal in the (n-1)-variable ring.
    """
    if h.n != I.n:
        raise ValueError("linear form dimension mismatch")
    return PolyIdeal(_section(h, i).apply(I.generators), n=I.n - 1)


def coordinate_form(n: int, i: int) -> LinearForm:
    """The linear form x_i, whose section sets x_i to zero."""
    return linear_form([int(j == i - 1) for j in range(n)])


def random_linear_form(n: int, rng_seed: int) -> LinearForm:
    """A random form with all coefficients nonzero integers in
    [-COEFF_BOUND, COEFF_BOUND]."""
    rng = random.Random(rng_seed)
    coeffs = []
    for _ in range(n):
        c = 0
        while c == 0:
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        coeffs.append(c)
    return linear_form(coeffs)
