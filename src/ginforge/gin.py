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
integer basis of a kernel result.  Since D_L(x^a) moved by g is D_{L.g}(x^a), a trial
composes its matrix g into the map, on integer rows, and expands the images
straight into packed keys for Buchberger (``groebner._packed_images``, again
at double width after an overflow, each width's layout built once).  The
majority of the trials' leading terms becomes a ``MonomialIdeal``; they are
the leading terms of a minimal basis, pairwise non-dividing already, so they
are only put in canonical order, not minimalized again.

Every trial's initial ideal has the Hilbert function of the input, so the
trials get a monomial ideal with that Hilbert function, ``known``, from the
cheapest source the gin holds:

- the input's own exponents when the mapped polynomials are monomials: for
  monomial input, and for a distraction D_L(I), which has the Hilbert
  function of I because a distraction matrix has the span property
  (``DistractionMatrix`` checks it);
- for a sparse non-monomial input (``_sparse``), the leading terms of its own
  basis under the trials' ordering, as the Hilbert function depends neither
  on the coordinates nor on the graded term order;
- otherwise the leading terms of trial 1.

The target, the Hilbert-Poincare numerator of ``known``, is computed only
when a trial's leading terms, once its input has joined, are not exactly
``known``.  A trial that returns has shown that its leading terms have the
target numerator, so they become ``known`` for the later trials, packed once
per layout, and a later trial whose input already has those leading terms
computes no numerator.  So a monomial input whose gin differs from it
typically costs two numerators, its own and trial 1's, and a distraction of a
strongly stable ideal, whose degrevlex gin is the ideal itself, none (a seeded
``gin_distraction`` pass of the benchmark computes none).  Trials pack with an all-ones degree row on top of the
ordering (unless its first row is that already), which leaves the leading
terms of homogeneous polynomials as they are, and Buchberger stops each degree
as soon as the numerator says it is complete (``groebner.py``).  A trial whose
initial ideal has another numerator shows a fault in the kernel, not bad luck:
it raises ``HilbertMismatchError``, which names the source of the target; so
a wrong target cannot pass.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb

from .groebner import PolyIdeal, _OffTarget, _buchberger, _packed_images, _packed_ints
from .monomial import MonomialIdeal, first_difference, hilbert_numerator, series_values, stability_flags
from .polyring import LinearForm, OrderingSpec, _identity_map, _section, linear_form
from .reports import FAIL, INCONCLUSIVE, PASS

COEFF_BOUND = 1000
DEFAULT_TRIALS = 3
# The sparsity rule of ``_sparse``.
SPARSE_FACTOR = 4
SUSPICIOUS_REASON = "unanimous gin is not strongly stable, which is impossible over Q"


class AmbiguousGinError(RuntimeError):
    """No strict majority across the random trials; raise the trial count."""


class HilbertMismatchError(RuntimeError):
    """A trial's initial ideal has another Hilbert function than the input,
    which is impossible over Q.  ``witness`` is {reason, degree, expected,
    got}: the least degree where the two Hilbert functions differ and their
    values there."""

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
    I's Hilbert function by the span property of L; the leading terms of a
    basis of the input itself when the input is sparse; otherwise the
    leading terms of trial 1.  The numerator is computed only when a trial's
    leading terms miss those, and each trial that returns becomes what the
    later trials know.  A trial off the target raises
    ``HilbertMismatchError``.
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
    # monomials under a distraction's map, or else the integer view under the identity
    product, polys = I._source or (_identity_map(n), I._ints)
    exponents = [a for f in polys for a in f]
    tops, degree = tuple(map(max, zip(*exponents))), max(map(sum, exponents))
    master = random.Random(rng_seed)
    trial_seeds = tuple(master.randrange(1 << 32) for _ in range(trials))
    graded = ordering
    if ordering.rows[:1] != ((1,) * n,):
        graded = OrderingSpec("matrix", n, ((1,) * n,) + ordering.rows)
    # a monomial ideal with the target numerator: the input's, its sparse basis's, or trial 1's
    known = None
    if all(len(f) == 1 for f in polys):
        known = _Known(n, tuple(sorted(exponents)))
    elif _sparse(n, polys):
        packing, basis = _packed_ints(graded, polys, _buchberger)
        known = _Known(n, tuple(sorted(packing.unpack(entry[0]) for entry in basis)))
    source = "the input" if known else "trial 1"
    counts: Counter = Counter()
    for index, ts in enumerate(trial_seeds):
        target = known.numerator if known else None
        try:
            leading, known = _trial(product, polys, tops, graded, degree, ts, target, known)
        except _OffTarget as off:
            where = "trial %d, against %s" % (index + 1, source)
            raise HilbertMismatchError(_mismatch(n, target(), off.args[0], where)) from None
        counts[leading] += 1
    ranked = counts.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise AmbiguousGinError(
            "no majority over %d trials (seed %d); raise the trial count" % (trials, rng_seed)
        )
    ideal = MonomialIdeal._of_minimal(n, ranked[0][0])  # a trial's leading terms are minimal already
    agreed = len(ranked) == 1
    suspicious = agreed and not _strongly_stable_in(ideal, ordering)
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


def _trial(product, polys: list, tops: tuple, ordering: OrderingSpec, degree: int, seed: int, target, known) -> tuple:
    """(leading, known) of one trial: the sorted leading exponents of a
    minimal Groebner basis of the images of ``polys`` (exponents at most
    ``tops``, degree at most ``degree``) under the product map followed by
    x_j -> sum_i g[i][j] x_i, g upper unitriangular in the variable rank of
    ``ordering`` and drawn from ``seed``, and the ``_Known`` of the later
    trials: ``known`` again when the leading terms are its exponents, else
    the leading terms with their numerator.  ``target`` (None for no target)
    is a zero-argument callable that gives the numerator they must have,
    ``known`` (a ``_Known``, or None) holds a monomial ideal with it,
    ``ordering`` has the degree as first row, and a run off the target raises
    ``_OffTarget``; such a run has called ``target``."""
    g = _unitriangular(random.Random(seed), _variable_rank(ordering), COEFF_BOUND)

    def run(packing, images):
        return _buchberger(packing, images, target, known.packed(packing) if known else frozenset())

    packing, basis = _packed_images(ordering, degree, product.composed(g, tops), polys, run)
    leading = tuple(sorted(packing.unpack(entry[0]) for entry in basis))
    if known is not None and leading == known.exponents:
        return leading, known
    # a run that missed ``known`` has called ``target`` already
    return leading, _Known(ordering.n, leading, target and target())


class _Known:
    """The sorted exponents of a monomial ideal whose Hilbert-Poincare
    numerator is the trials' target.  The numerator is computed on the first
    call of ``numerator`` unless it was given, and the packed exponents once
    per packing layout."""

    __slots__ = ("n", "exponents", "_numerator", "_packed")

    def __init__(self, n: int, exponents: tuple, numerator: list | None = None):
        self.n, self.exponents, self._numerator, self._packed = n, exponents, numerator, {}

    def numerator(self) -> list:
        if self._numerator is None:
            self._numerator = hilbert_numerator(self.n, self.exponents)
        return self._numerator

    def packed(self, packing) -> frozenset:
        fields = self._packed.get(packing)
        if fields is None:
            fields = self._packed[packing] = frozenset(map(packing.fields, self.exponents))
        return fields


def _sparse(n: int, polys: list) -> bool:
    """Whether a non-monomial homogeneous input is worth a basis of its own
    for trial 1's target: SPARSE_FACTOR times its terms is at most the
    number of monomials of its generators' degrees, summed over them.

    Measured on the 649 non-monomial gins of ``verify all --seed 1..8`` at
    ``--instances 0`` and 25 (CPython 3.11, 2 shared vCPUs): they took 7.00 s
    with no input basis, 2.28-2.29 s with factors 2 to 5 and 2.63 s with 8,
    and inputs below a ratio of 1.5 ran 6% slower with their basis.  Factor 4
    keeps the fixture sections of the verifier, at ratios 1.91 to 2, on trial
    1's target, where their own basis costs about as much as a trial."""
    dense = sum(comb(n - 1 + sum(next(iter(f))), n - 1) for f in polys)
    return SPARSE_FACTOR * sum(map(len, polys)) <= dense


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


def _strongly_stable_in(I: MonomialIdeal, ordering: OrderingSpec) -> bool:
    """Strong stability with the variables ranked by ``ordering``: a gin is
    Borel-fixed for it."""
    rank = _variable_rank(ordering)
    if rank != list(range(I.n)):
        I = MonomialIdeal._of_minimal(I.n, [tuple(t[i] for i in rank) for t in I.gens])
    return stability_flags(I)[1]


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
