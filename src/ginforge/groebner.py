"""Buchberger engine over Q on packed monomials.

Reduced Groebner bases, normal forms, initial ideals, ideal equality,
intersection via elimination, and saturation: of a homogeneous ideal by one
generic linear form, read off two degrevlex bases and certified by the
Hilbert polynomial (see ``saturate``), and via elimination when that
certificate fails or the ideal is not homogeneous.  An elimination keeps the
reduced basis entries with a t-free leading term: the result's reduced
degrevlex basis, which it caches.

The inner loop, elimination included, works on integer-coefficient,
content-free polynomials with pseudo-reduction (cross-multiplying by leading
coefficients), which keeps the arithmetic in Z, and so do the results: a
reduced basis is kept content-free with positive leading coefficients, which
makes it canonical, and the monic Fraction polynomials of ``generators`` and
``reduced_gb`` are built only when a caller reads them.  Everything is exact.

Each power product is one int, its packed exponent vector (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007):

- the low bits hold one field per variable, F bits of exponent under a guard
  bit; G masks the guard bits;
- the high bits hold the ordering's weight rows, the first row highest.  A row
  with a negative entry is first made nonnegative by adding a multiple of the
  sum of the earlier rows, already shifted; that keeps the order, because a
  row is read only where all earlier rows tie.  Each weight field is wide
  enough for any exponents below 2^F.

Then int comparison is the term order, x^a * x^b packs to Z(a) + Z(b), and t
divides s iff ((Z(s) | G) - Z(t)) & G == G.  F comes from the largest input
exponent, or from the degree for the images under a ring map that gin trials
and the shears of ``saturate`` pack (``_packed_images``).  Each basis entry
keeps the packed field-wise maximum of its exponents, and before a polynomial
is multiplied by a power product the guard bits of that maximum times the
power product are tested; on overflow the computation starts again with F
doubled, packing its input anew.  Packed keys never outlive one computation,
so results do not depend on F.  The layout of an (ordering, F), its shifts
and masks, is built once and shared (``_packing``); it holds no result.

Critical pairs are selected by the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please", ISSAC 1991): least sugar
first, then least lcm (under an ordering graded by degree, least packed lcm
below its degree row, which is the same for pairs of equal degree).  The
inputs join in order of (sugar, leading term), an input's sugar being its
largest term degree.  Each basis entry keeps its ecart e = sugar - deg(lt):
an input's sugar is taken once the basis has reduced it, and a reduced
S-polynomial keeps the sugar of its pair, which is deg(lcm) + max(e_i, e_j).
Under an ordering graded by degree every input has ecart 0, so a homogeneous
input pops its pairs by lcm alone; under lex and elimination orderings the
sugar keeps Buchberger from reaching high degrees early, where coefficients
swell.  Pairs are pruned once, by the update of Gebauer and Moller ("On an
installation of Buchberger's algorithm", JSC 1988), each time a polynomial h
joins the basis:

- B: an old pair (f, g) is dropped when lt(h) divides lcm(f, g) and that lcm
  differs from both lcm(f, h) and lcm(g, h);
- M: a new pair (g, h) is dropped when the lcm of another new pair strictly
  divides its lcm;
- F: of the new pairs with equal lcm only one is kept, and none when one of
  them has coprime leading terms (whose S-polynomial reduces to zero).

Basis entries whose leading term lt(h) divides then stop being reducers, so
the live entries always form a minimal basis.  Inside Buchberger only leading
terms are reduced; a reduced basis is tail-reduced once, bottom up, after it
(``_tail_reduced``), and an elimination tail-reduces only the entries it
keeps.

A gin trial knows the Hilbert function of the initial ideal it computes, as
the Hilbert-Poincare numerator T (``gin.py``), and uses it to stop early
(Traverso, "Hilbert functions and the Buchberger algorithm", JSC 1996).  Its
input is homogeneous and packed with the degree as first weight row, so a
pair's sugar is the degree of its lcm and of its S-polynomial, pairs pop
degree by degree, and each new leading term m of degree d updates the
numerator of J = <lt(live)> by N(J + m) = N(J) - t^d N(J : m).  J lies in the
initial ideal, so HF_J >= HF_T, and HF_J(d) drops by one with each new
leading term of degree d.  Before a pair of sugar d is reduced, let k be the
least degree where the numerators of J and T differ: there is none when J is
the initial ideal, and Buchberger stops; k > d means degree d is complete,
every remaining pair of that degree reduces to zero, and the pair is dropped.
The check first runs once the input has joined: the input's pairs wait for
it and are then formed in the order it joined, which gives the same pairs as
forming them as it joins.  A trial also knows a monomial ideal with the
numerator T; when J is exactly that ideal, J is the initial ideal and
Buchberger stops before T is even computed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, zip_longest
from math import gcd
from operator import mul
from typing import Iterable

from .monomial import ExponentFields, MonomialIdeal, first_difference
from .numeric import clear_denominators
from .polyring import OrderingSpec, Polynomial, _Substitution, _identity_map, degrevlex, matrix_ordering, pp_check

# Bits of headroom above the largest input exponent in the first packing.
HEADROOM_BITS = 2
# The packing layouts kept for reuse, by (ordering, width).
PACKINGS_CACHED = 64
# The linear form l = x_n - sum_{i<n} c_i x_i by which ``saturate`` saturates
# a homogeneous ideal: c_i = SHEAR_COEFFS[i % len(SHEAR_COEFFS)].
SHEAR_COEFFS = (3, -5, 2, -7, 4, 1)


def _to_int_poly(f: Polynomial) -> dict:
    _, ints = clear_denominators(f.terms.values())
    return _strip_content(dict(zip(f.terms, ints)))


def _strip_content(p: dict) -> dict:
    g = 0
    for v in p.values():
        g = gcd(g, v)
        if g == 1:
            return p
    return {e: v // g for e, v in p.items()}


def _check_exponents(n: int, polys: list) -> int:
    """The largest exponent of the polys (exponent tuple -> coefficient);
    pp_check's ValueError unless every exponent is a nonnegative int."""
    exps = list(chain.from_iterable(chain.from_iterable(polys)))
    if not set(map(type, exps)) <= {int} or min(exps, default=0) < 0:
        for p in polys:
            for e in p:
                pp_check(n, e)
    return max(exps, default=0)


class _Overflow(Exception):
    """A product would carry out of an exponent field."""


class _OffTarget(Exception):
    """A Buchberger run with a target ended with another numerator, args[0]."""


class _Packing(ExponentFields):
    """Power products of one ordering packed as ints with F-bit exponent
    fields; ``top`` is the shift of the first weight row.

    A critical pair is keyed by one int whose sugar is key >> sugar_shift.
    When the first row is the degree (``graded``), the key is the packed lcm
    with its ecart, sugar - deg(lcm), added into that row: it orders by
    sugar, then by the packed lcm below that row.  Otherwise ``pair_units``
    weigh the lcm with a degree row above the top row, the ecart is added
    into that row, and the key orders as (sugar, lcm)."""

    def __init__(self, ordering: OrderingSpec, width: int):
        n = ordering.n
        super().__init__(n, width)
        rows, total = [], [0] * n
        for row in ordering.rows:
            c = max((-(w // t) for w, t in zip(row, total) if w < 0), default=0)
            row = [w + c * t for w, t in zip(row, total)]
            rows.append(row)
            total = [t + w for t, w in zip(total, row)]
        units, pos = [1 << o for o in self.offsets], n * (width + 1)
        for row in reversed(rows):
            units = [u + (w << pos) for u, w in zip(units, row)]
            self.top = pos
            pos += (self.mask * sum(row)).bit_length()
        self.units = tuple(units)
        self.graded = rows[:1] == [[1] * n]
        self.sugar_shift = self.top if self.graded else pos
        self.pair_units = self.units if self.graded else tuple(u + (1 << pos) for u in units)

    def pack(self, p: dict) -> dict:
        """p with its exponent tuples packed, all below 2^F."""
        return {sum(map(mul, e, self.units)): c for e, c in p.items()}

    def unpack(self, z: int) -> tuple:
        return tuple((z >> o) & self.mask for o in self.offsets)

    def input_key(self, p: dict) -> int:
        """Under an ungraded packing, the key that orders packed inputs by
        (sugar, leading term), an input's sugar being its largest term degree."""
        return max(p) + (max(map(self.degree, p)) << self.sugar_shift)

    def pair_key(self, x: int, ecart: int) -> int:
        """The key of a pair whose lcm has the exponent fields of x and whose
        sugar is deg(lcm) + ecart."""
        return sum(map(mul, self.unpack(x), self.pair_units)) + (ecart << self.sugar_shift)

    def pair_lcm(self, key: int, ecart: int) -> int:
        """The packed lcm of the pair with this key and ecart."""
        if self.graded:
            return key - (ecart << self.top)
        return key & ((1 << self.sugar_shift) - 1)

    def entry(self, p: dict) -> tuple:
        """Basis entry (lt, lc, tail, top) of a packed content-free polynomial;
        top is the field-wise maximum of its exponents."""
        lt = max(p)
        top = reduce(self.join, [z & self.exponents for z in p])
        return lt, p[lt], [(z, c) for z, c in p.items() if z != lt], top


@lru_cache(maxsize=PACKINGS_CACHED)
def _packing(ordering: OrderingSpec, width: int) -> _Packing:
    """The layout of ``ordering`` with F = width.  A layout holds no result,
    only shifts and masks, so one is shared by every computation that packs
    with it."""
    return _Packing(ordering, width)


def _packed(ordering: OrderingSpec, largest: int, pack, run):
    """(packing, run(packing, pack(packing))), where ``pack`` gives the packed
    polynomials of a packing and ``largest`` bounds their exponents: F starts
    HEADROOM_BITS above its bit length and doubles after every overflow."""
    width = largest.bit_length() + HEADROOM_BITS
    while True:
        packing = _packing(ordering, width)
        try:
            return packing, run(packing, pack(packing))
        except _Overflow:
            width *= 2


def _packed_ints(ordering: OrderingSpec, polys: list, run):
    """``_packed`` for integer polys keyed by exponent tuples."""
    largest = _check_exponents(ordering.n, polys)
    return _packed(ordering, largest, lambda packing: [packing.pack(p) for p in polys], run)


def _packed_images(ordering: OrderingSpec, degree: int, change: _Substitution, polys: list, run):
    """``_packed`` for the content-free images under ``change`` of integer
    polys keyed by exponent tuples, of degree at most ``degree``."""

    def images(packing):
        return [_strip_content(p) for p in change.expand(polys, packing.units)]

    return _packed(ordering, degree, images, run)


def _leading_numerator(packing: _Packing, basis: Iterable[tuple]) -> list:
    """The Hilbert-Poincare numerator of the leading terms of basis entries
    packed with the degree as first weight row."""
    return packing.numerator([(lt >> packing.top, lt & packing.exponents) for lt, _, _, _ in basis])


def _reduce(f: dict, basis: Iterable[tuple], packing: _Packing, tail: bool) -> tuple[dict, int]:
    """Reduce the packed f by the basis entries, the first divisor first.

    With ``tail`` every term is reduced; without it f comes back as soon as
    its leading term is irreducible.  Returns (remainder, scale): during
    pseudo-reduction the pending part is cross-multiplied, so `scale` records
    the integer the input was multiplied by overall; the true remainder is the
    returned dict divided by it.
    """
    guards = packing.guards
    work = dict(f)
    rem: dict = {}
    heap = [-z for z in work]
    heapify(heap)
    scale = 1
    while heap:
        z = -heappop(heap)
        c = work.pop(z, 0)
        if not c:
            continue
        zg = z | guards
        for glt, glc, gtail, gtop in basis:
            if (zg - glt) & guards == guards:
                shift = z - glt
                if (shift + gtop) & guards:
                    raise _Overflow
                common = gcd(c, glc)
                mult_work = glc // common
                mult_g = c // common
                if mult_work != 1:
                    scale *= mult_work
                    for k in work:
                        work[k] *= mult_work
                    for k in rem:
                        rem[k] *= mult_work
                for m, a in gtail:
                    mm = m + shift
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -mult_g * a
                        heappush(heap, -mm)
                    else:
                        v -= mult_g * a
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            if not tail:
                work[z] = c
                return work, scale
            rem[z] = c
    return rem, scale


def _spoly(p: tuple, q: tuple, l: int, packing: _Packing) -> dict:
    """S-polynomial of the basis entries p and q, whose leading terms have lcm l."""
    lt1, lc1, tail1, top1 = p
    lt2, lc2, tail2, top2 = q
    s1 = l - lt1
    s2 = l - lt2
    if (s1 + top1) & packing.guards or (s2 + top2) & packing.guards:
        raise _Overflow
    common = gcd(lc1, lc2)
    m1 = lc2 // common
    m2 = lc1 // common
    out = {m + s1: m1 * a for m, a in tail1}
    for m, a in tail2:
        mm = m + s2
        v = out.get(mm, 0) - m2 * a
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return out


def _buchberger(packing: _Packing, polys: list, target=None, known: set = frozenset()) -> list:
    """Minimal Groebner basis of packed polynomials as entries, largest leading
    term first, not tail-reduced, with the pair update of the module docstring.

    ``target``, a zero-argument callable that gives the Hilbert-Poincare
    numerator of the initial ideal, is for homogeneous polys packed with the
    degree as first weight row; pairs are then pruned by the Hilbert function
    as the module docstring says.  ``known``, the packed exponents of a
    monomial ideal with that numerator, ends the computation at once when the
    input's leading terms are exactly those: an ideal inside the initial
    ideal with its numerator is the initial ideal.  Only otherwise is
    ``target`` called.  A run with a target returns only once it has shown
    that its leading terms equal ``known`` or have the target numerator;
    otherwise it raises ``_OffTarget`` with theirs."""
    guards, exponents, join = packing.guards, packing.exponents, packing.join
    graded, shift, degree = packing.graded, packing.sugar_shift, packing.degree
    entries: list = []  # every entry ever added; pairs index into it
    ecarts: list = []  # the sugar of each entry less the degree of its leading term
    live: dict = {}  # index -> entry of the current minimal basis
    pairs: list = []  # (-key, i, j), sorted so that pop() has the least (sugar, lcm)

    def joins(h: int):
        """Entry h joins the minimal basis, and the entries whose leading term
        it divides leave."""
        lt = entries[h][0]
        for g in [g for g, (glt, _, _, _) in live.items() if ((glt | guards) - lt) & guards == guards]:
            del live[g]
        live[h] = entries[h]

    def update(h: int):
        """The pair update for entry h against the live entries; then h joins."""
        lt, eh = entries[h][0], ecarts[h]
        e = lt & exponents

        def keeps(pair):  # criterion B
            l = -pair[0]
            if ((l | guards) - lt) & guards != guards:
                return True
            l &= exponents
            return join(entries[pair[1]][0] & exponents, e) == l or join(entries[pair[2]][0] & exponents, e) == l

        pairs[:] = filter(keeps, pairs)
        by_lcm: dict = {}  # criterion F: lcm -> the one new pair, None if coprime
        for g, (glt, _, _, _) in live.items():
            ge = glt & exponents
            l = join(ge, e)
            if l == ge + e:
                by_lcm[l] = None
            else:
                by_lcm.setdefault(l, g)
        for l, g in by_lcm.items():  # criterion M
            lg = l | guards
            if g is not None and not any(m != l and (lg - m) & guards == guards for m in by_lcm):
                pairs.append((-packing.pair_key(l, max(ecarts[g], eh)), g, h))
        pairs.sort()
        joins(h)

    for p in sorted(polys, key=max if graded else packing.input_key):
        r, _ = _reduce(p, live.values(), packing, False)
        if r:
            entries.append(packing.entry(_strip_content(r)))
            # its sugar is its largest term degree, that of its leading term when graded
            ecarts.append(0 if graded else max(map(degree, r)) - degree(entries[-1][0]))
            if target is None:
                update(len(entries) - 1)
            else:  # the input's pairs wait for the check below
                joins(len(entries) - 1)
    if target is not None:
        if {entry[0] & exponents for entry in live.values()} == known:
            return sorted(live.values(), reverse=True)
        target = target()
        # the numerator of <lt(live)>, and the least degree where it differs from the target
        series = _leading_numerator(packing, live.values())
        differ = first_difference(series, target)
        if differ is None:
            return sorted(live.values(), reverse=True)
        live.clear()
        for h in range(len(entries)):  # the pairs of the input, in the order it joined
            update(h)

    while pairs:
        key, i, j = pairs.pop()
        sugar = -key >> shift
        if target is not None:
            if differ is None:
                break
            if differ > sugar:
                continue
        s = _spoly(entries[i], entries[j], packing.pair_lcm(-key, max(ecarts[i], ecarts[j])), packing)
        if s:
            r, _ = _reduce(s, live.values(), packing, False)
            if r:  # it keeps the sugar of its pair
                h = len(entries)
                entries.append(packing.entry(_strip_content(r)))
                lt = entries[h][0]
                ecarts.append(sugar - (lt >> shift if graded else degree(lt)))
                if target is not None:
                    packing.add_generator(series, [glt & exponents for glt, _, _, _ in live.values()], lt & exponents, lt >> packing.top)
                    differ = first_difference(series, target)
                update(h)
    if target is not None and differ is not None:
        raise _OffTarget(series)
    return sorted(live.values(), reverse=True)


def _reduced_basis(packing: _Packing, polys: list) -> list:
    """The reduced Groebner basis as entries, largest leading term first,
    content-free with positive leading coefficients."""
    return _tail_reduced(packing, _buchberger(packing, polys))


def _tail_reduced(packing: _Packing, basis: list) -> list:
    """The entries of a minimal basis, largest leading term first, reduced:
    content-free with positive leading coefficients.

    It is reduced bottom up: each entry only by the reduced entries with
    smaller leading terms, as a larger leading term divides none of its
    terms; the reduced basis is unique, so the result is the same.  So the
    entries below any leading term reduce the same without those above it."""
    out: list = []
    for lt, lc, tail, _ in reversed(basis):
        r, _ = _reduce(dict([(lt, lc)] + tail), out, packing, True)
        r = _strip_content(r)
        if r[lt] < 0:
            r = {z: -c for z, c in r.items()}
        out.insert(0, packing.entry(r))
    return out


def _normal_form(packing: _Packing, polys: list) -> tuple[dict, int]:
    """(remainder, scale) of the first packed polynomial by the reduced basis after it."""
    f, *basis = polys
    return _reduce(f, [packing.entry(g) for g in basis], packing, True)


def _unpacked(n: int, packing: _Packing, basis: list) -> tuple:
    """The basis entries as integer polys in the packing's last n variables,
    keyed by exponent tuples, each with its leading term first."""
    skip = len(packing.offsets) - n
    return tuple({packing.unpack(z)[skip:]: c for z, c in [(lt, lc)] + tail} for lt, lc, tail, _ in basis)


def _monic(n: int, p: dict) -> Polynomial:
    """The integer poly p, its leading term first, as a monic polynomial."""
    lc = next(iter(p.values()))
    return Polynomial._of_terms(n, {e: Fraction(c, lc) for e, c in p.items()})


def _ideal_of_basis(n: int, packing: _Packing, basis: list) -> PolyIdeal:
    """The ideal with these reduced degrevlex basis entries, kept as its
    cached integer basis; its generators are built on first read."""
    ints = _unpacked(n, packing, basis)
    homogeneous = all(len({sum(e) for e in p}) == 1 for p in ints)
    return PolyIdeal._of_slots(n=n, homogeneous=homogeneous, _cache={degrevlex(n): ints}, _source=None)


class PolyIdeal:
    """A polynomial ideal given by generators, with cached reduced bases.

    The reduced Groebner basis for a fixed ordering is unique, monic and
    auto-reduced; recomputation from a permuted generator list yields the
    identical basis.  Generators are never mutated, so concurrent use of one
    value is safe (the cache only ever fills in the same results).

    Every internal consumer reads one private integer view, ``_ints``:
    content-free integer polys keyed by exponent tuples, one per generator.
    The cache holds reduced bases the same way, each poly with a positive
    leading coefficient and its leading term first; ``reduced_gb`` builds the
    monic polynomials from it when called.  An ideal is one of three kinds:

    - given by its generators: ``__init__`` clears them to ``_ints`` once
      and refuses any exponent that is not a power product in n variables,
      so every kernel consumer reads valid exponents;
    - a kernel result (``intersect``, ``saturate``): its ``_ints`` are its
      cached reduced degrevlex basis, and its ``generators``, the monic
      basis, are built on first read;
    - the images of monomials under a product map: ``_source`` is
      (product map, polys) when generator k is the image of the integer
      polynomial polys[k] under the ``polyring._Substitution``.
      ``distraction.distract_ideal`` and ``from_monomial`` (the identity,
      the map of the identical matrix) record one (``_of_images``).  Its
      polys are monomials, whose images under a distraction matrix are
      nonzero products of linear forms, so it is homogeneous and has one
      generator per poly.  Bases and ``gin`` expand its polys straight into
      packed keys (``_packed_images``); ``generators`` and ``_ints`` are
      expanded only when first read.

    Otherwise ``_source`` is None.  The fills of ``__getattr__`` write one
    value, the same whichever caller computes it, so concurrent use stays
    safe as it does for the cache.
    """

    __slots__ = ("n", "generators", "homogeneous", "_cache", "_source", "_ints")

    def __init__(self, generators: Iterable[Polynomial], n: int | None = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if n is None:
            if not gens:
                raise ValueError("ring dimension required for the zero ideal")
            n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError("generators live in different rings")
        ints = tuple(_to_int_poly(g) for g in gens)
        _check_exponents(n, ints)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "homogeneous", all(g.is_homogeneous() for g in gens))
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_source", None)
        object.__setattr__(self, "_ints", ints)

    def __setattr__(self, name, value):
        raise AttributeError("PolyIdeal is immutable")

    @classmethod
    def _of_slots(cls, **slots) -> "PolyIdeal":
        """The ideal with these slots set and the others left to ``__getattr__``."""
        J = object.__new__(cls)
        for name, value in slots.items():
            object.__setattr__(J, name, value)
        return J

    @classmethod
    def _of_images(cls, product: _Substitution, polys: tuple) -> "PolyIdeal":
        """The ideal of the images of the monomials ``polys`` under the
        product map of a distraction matrix (the identity for the identical
        matrix), with its generators and its integer view unexpanded."""
        return cls._of_slots(n=product.m, homogeneous=True, _cache={}, _source=(product, polys))

    def __getattr__(self, name):
        # only an unset slot gets here: ``generators`` of a kernel result, or
        # ``generators`` and ``_ints`` of an ideal built by _of_images
        if name not in ("generators", "_ints"):
            raise AttributeError(name)
        if self._source is None:
            value = self._cache[degrevlex(self.n)]
            if name == "generators":
                value = tuple(_monic(self.n, p) for p in value)
        else:
            product, polys = self._source
            if name == "generators":
                value = tuple(product.apply([Polynomial(product.n, p) for p in polys]))
            else:
                value = tuple(map(_strip_content, product.images(polys)))
        object.__setattr__(self, name, value)
        return value

    @classmethod
    def from_monomial(cls, I: MonomialIdeal) -> "PolyIdeal":
        """The ideal of the generators of I: the distraction of I by the
        identical matrix, with its generators unexpanded (``_of_images``)."""
        return cls._of_images(_identity_map(I.n), tuple({t: 1} for t in I.gens))

    def _count(self) -> int:
        """The number of generators, without expanding them."""
        return len(self._source[1]) if self._source else len(self._ints)

    def _values(self, point) -> list:
        """The generators' exact values at a point; the images of a source are
        evaluated as products of their forms' values, not expanded."""
        if self._source is None:
            return [g.evaluate(point) for g in self.generators]
        product, polys = self._source
        return product.evaluate(polys, point)

    def is_zero(self) -> bool:
        return not self._count()

    def __repr__(self) -> str:
        return "PolyIdeal(n=%d, %d generators)" % (self.n, self._count())

    def _packed(self, ordering: OrderingSpec, run):
        """``_packed`` of the generators: the images of the source straight
        into packed keys, or else the integer view."""
        if self._source is None:
            return _packed_ints(ordering, self._ints, run)
        product, polys = self._source
        return _packed_images(ordering, max((sum(a) for f in polys for a in f), default=0), product, polys, run)

    def _basis(self, ordering: OrderingSpec) -> tuple:
        """The reduced Groebner basis as the cache keeps it: content-free
        integer polys with positive leading coefficients, each leading term
        first, largest leading term first.  It is canonical."""
        cached = self._cache.get(ordering)
        if cached is None:
            packing, basis = self._packed(ordering, _reduced_basis)
            cached = self._cache[ordering] = _unpacked(self.n, packing, basis)
        return cached

    def reduced_gb(self, ordering: OrderingSpec) -> list:
        """The unique reduced Groebner basis, sorted descending by leading term."""
        return [_monic(self.n, p) for p in self._basis(ordering)]

    def leading_terms(self, ordering: OrderingSpec) -> list:
        """Leading exponents of a minimal Groebner basis (no tail reduction)."""
        cached = self._cache.get(ordering)
        if cached is not None:
            return [next(iter(p)) for p in cached]
        packing, basis = self._packed(ordering, _buchberger)
        return [packing.unpack(entry[0]) for entry in basis]

    def initial_ideal(self, ordering: OrderingSpec) -> MonomialIdeal:
        """Monomial ideal of leading terms; the zero ideal for zero input."""
        return MonomialIdeal(self.n, self.leading_terms(ordering))

    def normal_form(self, f: Polynomial, ordering: OrderingSpec) -> Polynomial:
        """Remainder of f on division by the reduced basis; zero iff f lies in the ideal."""
        if f.n != self.n:
            raise ValueError("polynomial lives in a different ring")
        if f.is_zero() or self.is_zero():
            return f
        den, ints = clear_denominators(f.terms.values())
        polys = [dict(zip(f.terms, ints)), *self._basis(ordering)]
        packing, (rem, scale) = _packed_ints(ordering, polys, _normal_form)
        return Polynomial(self.n, {packing.unpack(z): Fraction(v, den * scale) for z, v in rem.items()})


def ideal_equal(I: PolyIdeal, J: PolyIdeal, ordering: OrderingSpec) -> bool:
    """True iff the reduced bases coincide, compared as the canonical integer
    bases they are cached as."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    return I._basis(ordering) == J._basis(ordering)


def _elimination_ordering(main_n: int) -> OrderingSpec:
    """Block ordering: one auxiliary first variable, then degrevlex on the rest."""
    return matrix_ordering([(1,) + (0,) * main_n] + [(0,) + row for row in degrevlex(main_n).rows])


def _eliminate(n: int, polys: list) -> PolyIdeal:
    """The ideal of k[x] that the integer content-free polys, keyed by exponent
    tuples (t, x_1, .., x_n), meet it in: the reduced basis entries whose leading
    term, and so every term under the block ordering, is t-free.  Only those
    are tail-reduced: they lie below every entry with t."""

    def run(packing, packed):
        return _tail_reduced(packing, [entry for entry in _buchberger(packing, packed) if not entry[0] >> packing.top])

    packing, basis = _packed_ints(_elimination_ordering(n), polys, run)
    return _ideal_of_basis(n, packing, basis)


def intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I cap J by the auxiliary-variable trick: eliminate t from t*I + (1-t)*J,
    keeping the t-free entries, the result's reduced degrevlex basis, cached."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    n = I.n
    if I.is_zero() or J.is_zero():
        return PolyIdeal([], n=n)
    t_I = [{(1,) + e: c for e, c in p.items()} for p in I._ints]
    one_minus_t_J = [{(t,) + e: (-c if t else c) for t in (0, 1) for e, c in p.items()} for p in J._ints]
    return _eliminate(n, t_I + one_minus_t_J)


def _shear(n: int, coeffs: list) -> _Substitution:
    """The ring map x_n -> x_n + sum_{i<n} coeffs[i] x_i, fixing the other variables."""
    rows = [[[int(i == j) for i in range(n)]] for j in range(n - 1)]
    return _Substitution(rows + [[list(coeffs) + [1]]], n)


def _saturate_by_form(I: PolyIdeal, coeffs: list) -> PolyIdeal | None:
    """I : l^infinity for the homogeneous I and l = x_n - sum_{i<n} coeffs[i] x_i,
    with its reduced degrevlex basis cached, when the Hilbert polynomial
    certifies that it is the saturation; None otherwise."""
    n = I.n
    gens = I._ints
    packing, basis = _packed_images(degrevlex(n), max(map(sum, chain(*gens))), _shear(n, coeffs), gens, _buchberger)
    divided = []
    for lt, lc, tail, _ in basis:
        terms = [(packing.unpack(z), c) for z, c in [(lt, lc)] + tail]
        k = min(e[-1] for e, _ in terms)
        divided.append({e[:-1] + (e[-1] - k,): c for e, c in terms})
    unshear = _shear(n, [-c for c in coeffs])
    back, reduced = _packed_images(degrevlex(n), max(map(sum, chain(*divided))), unshear, divided, _reduced_basis)
    numerators = _leading_numerator(packing, basis), _leading_numerator(back, reduced)
    difference = [a - b for a, b in zip_longest(*numerators, fillvalue=0)]
    for _ in range(n):  # (1 - t)^n must divide it
        if sum(difference):
            return None
        difference = list(accumulate(difference))
    return _ideal_of_basis(n, back, reduced)


def _saturate_by_elimination(I: PolyIdeal) -> PolyIdeal:
    """I : (x_1,..,x_n)^infinity as the intersection of the saturations by
    the variables, each by elimination."""
    return reduce(intersect, [saturate(I, Polynomial.variable(I.n, i)) for i in range(1, I.n + 1)])


def saturate(I: PolyIdeal, f: Polynomial | None = None) -> PolyIdeal:
    """Saturation of I.

    With ``f`` given, returns I : f^infinity by eliminating t from
    I + (1 - t*f).  Without ``f``, returns I : (x_1,..,x_n)^infinity, the
    saturation I^sat.  Either way the generators are the reduced degrevlex
    basis, sorted descending, which the result caches when n > 0.

    For homogeneous I the saturation is I : l^infinity for a generic linear
    form l = x_n - sum_{i<n} c_i x_i (Bayer and Stillman, "A criterion for
    detecting m-regularity", Invent. Math. 1987).  The shear x_n -> x_n +
    sum c_i x_i takes l to x_n; dividing each element of a degrevlex basis of
    the sheared I by its largest power of x_n gives a basis of the sheared
    I : x_n^infinity, and shearing back gives J = I : l^infinity.  J always
    contains I^sat and is saturated, so it equals I^sat exactly when both
    have the Hilbert polynomial of I: when (1 - t)^n divides the difference
    of the Hilbert-Poincare numerators of the two bases' leading terms.  The
    one form tried takes its coefficients from SHEAR_COEFFS.  When its
    certificate fails, and for inhomogeneous I, the saturation is the
    intersection of the saturations by x_1, .., x_n: the full saturation, as
    every monomial of degree n*k is divisible by some x_i^k.
    """
    n = I.n
    if f is not None and f.n != n:
        raise ValueError("polynomial lives in a different ring")
    if I.is_zero():
        return I
    if f is None:
        if n == 0:  # I is the unit ideal, and (x_1,..,x_n) is zero
            return PolyIdeal([Polynomial.constant(0, 1)])
        if I.homogeneous:
            J = _saturate_by_form(I, [SHEAR_COEFFS[i % len(SHEAR_COEFFS)] for i in range(n - 1)])
            if J is not None:
                return J
        return _saturate_by_elimination(I)
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    den, ints = clear_denominators(f.terms.values())
    _check_exponents(n, [f.terms])
    one_minus_tf = _strip_content({(0,) * (n + 1): den, **{(1,) + e: -c for e, c in zip(f.terms, ints)}})
    return _eliminate(n, [{(0,) + e: c for e, c in p.items()} for p in I._ints] + [one_minus_tf])
