"""Buchberger engine over Q.

Reduced Groebner bases, normal forms, initial ideals, ideal equality,
intersection and saturation via elimination.

The inner loop works on integer-coefficient, content-free polynomials with
pseudo-reduction (cross-multiplying by leading coefficients), which keeps the
arithmetic in Z; results are converted back to monic Fraction polynomials at
the boundary.  Everything is exact.

Critical pairs are selected smallest lcm first and pruned once, by the update
of Gebauer and Moller ("On an installation of Buchberger's algorithm", JSC
1988), each time a polynomial h joins the basis:

- B: an old pair (f, g) is dropped when lt(h) divides lcm(f, g) and that lcm
  differs from both lcm(f, h) and lcm(g, h);
- M: a new pair (g, h) is dropped when the lcm of another new pair strictly
  divides its lcm;
- F: of the new pairs with equal lcm only one is kept, and none when one of
  them has coprime leading terms (whose S-polynomial reduces to zero).

Basis entries whose leading term lt(h) divides then stop being reducers, so
the live entries always form a minimal basis.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Iterable

from .monomial import MonomialIdeal
from .numeric import clear_denominators
from .polyring import (
    OrderingSpec,
    Polynomial,
    PowerProduct,
    degrevlex,
    matrix_ordering,
    pp_coprime,
    pp_divides,
    pp_lcm,
)

# internal basis entries are (leading exponent, leading coefficient, dict) with
# integer coefficients and content 1


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


def _make_key(ordering: OrderingSpec):
    """Memoized key on the negated weight rows: the larger power product gets
    the smaller key, so it sorts and pops from a heap first, with tuple
    comparisons that stay in C."""
    rows = [tuple(-w for w in r) for r in ordering.rows]
    rng = range(ordering.n)
    memo: dict = {}

    def key(e: PowerProduct):
        k = memo.get(e)
        if k is None:
            k = tuple(sum(r[i] * e[i] for i in rng) for r in rows)
            memo[e] = k
        return k

    return key


def _reduce(f: dict, basis: Iterable[tuple], key) -> tuple[dict, int]:
    """Fully reduce f by the basis.

    Returns (remainder, scale): during pseudo-reduction the pending part is
    cross-multiplied, so `scale` records the integer the input was multiplied
    by overall; the true remainder is the returned dict divided by it.
    """
    work = dict(f)
    rem: dict = {}
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    scale = 1
    while heap:
        _, e = heapq.heappop(heap)
        queued.discard(e)
        c = work.pop(e, 0)
        if not c:
            continue
        for glt, glc, g in basis:
            if all(a <= b for a, b in zip(glt, e)):
                shift = tuple(b - a for a, b in zip(glt, e))
                common = gcd(c, glc)
                mult_work = glc // common
                mult_g = c // common
                if mult_work != 1:
                    scale *= mult_work
                    for k in work:
                        work[k] *= mult_work
                    for k in rem:
                        rem[k] *= mult_work
                for m, a in g.items():
                    if m == glt:
                        continue
                    mm = tuple(x + y for x, y in zip(m, shift))
                    v = work.get(mm, 0) - mult_g * a
                    if v:
                        work[mm] = v
                        if mm not in queued:
                            heapq.heappush(heap, (key(mm), mm))
                            queued.add(mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[e] = c
    return rem, scale


def _spoly(p1: tuple, p2: tuple) -> dict:
    lt1, lc1, d1 = p1
    lt2, lc2, d2 = p2
    l = pp_lcm(lt1, lt2)
    s1 = tuple(a - b for a, b in zip(l, lt1))
    s2 = tuple(a - b for a, b in zip(l, lt2))
    common = gcd(lc1, lc2)
    m1 = lc2 // common
    m2 = lc1 // common
    out: dict = {}
    for m, a in d1.items():
        mm = tuple(x + y for x, y in zip(m, s1))
        out[mm] = out.get(mm, 0) + m1 * a
    for m, a in d2.items():
        mm = tuple(x + y for x, y in zip(m, s2))
        v = out.get(mm, 0) - m2 * a
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return out


def _buchberger(int_polys: list, key) -> list:
    """Minimal Groebner basis, largest leading term first, not tail-reduced,
    with the pair update of the module docstring."""
    entries: list = []  # every entry ever added; pairs index into it
    live: dict = {}  # index -> entry of the current minimal basis
    pairs: list = []  # (key of lcm, i, j, lcm), sorted so that pop() has the smallest lcm

    def add(p: dict):
        lt = min(p, key=key)
        h = len(entries)
        entries.append((lt, p[lt], p))
        pairs[:] = [  # criterion B
            pair
            for pair in pairs
            if not pp_divides(lt, pair[3])
            or pp_lcm(entries[pair[1]][0], lt) == pair[3]
            or pp_lcm(entries[pair[2]][0], lt) == pair[3]
        ]
        by_lcm: dict = {}  # criterion F: lcm -> the one new pair, None if coprime
        for g, (glt, _, _) in live.items():
            l = pp_lcm(glt, lt)
            if pp_coprime(glt, lt):
                by_lcm[l] = None
            else:
                by_lcm.setdefault(l, g)
        for l, g in by_lcm.items():  # criterion M
            if g is not None and not any(m != l and pp_divides(m, l) for m in by_lcm):
                pairs.append((key(l), g, h, l))
        pairs.sort()
        for g in [g for g, (glt, _, _) in live.items() if pp_divides(lt, glt)]:
            del live[g]
        live[h] = entries[h]

    for p in sorted(int_polys, key=lambda q: key(min(q, key=key)), reverse=True):
        r, _ = _reduce(p, live.values(), key)
        if r:
            add(_strip_content(r))

    while pairs:
        _, i, j, _ = pairs.pop()
        s = _spoly(entries[i], entries[j])
        if s:
            r, _ = _reduce(s, live.values(), key)
            if r:
                add(_strip_content(r))
    return sorted(live.values(), key=lambda entry: key(entry[0]))


def _monic_polynomial(n: int, p: dict, lt: PowerProduct) -> Polynomial:
    lc = p[lt]
    return Polynomial(n, {e: Fraction(v, lc) for e, v in p.items()})


class PolyIdeal:
    """A polynomial ideal given by generators, with cached reduced bases.

    The reduced Groebner basis for a fixed ordering is unique, monic and
    auto-reduced; recomputation from a permuted generator list yields the
    identical basis.  Generators are never mutated, so concurrent use of one
    value is safe (the cache only ever fills in the same results).
    """

    __slots__ = ("n", "generators", "homogeneous", "_cache")

    def __init__(self, generators: Iterable[Polynomial], n: int | None = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if n is None:
            if not gens:
                raise ValueError("ring dimension required for the zero ideal")
            n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError("generators live in different rings")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "homogeneous", all(g.is_homogeneous() for g in gens))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("PolyIdeal is immutable")

    @classmethod
    def from_monomial(cls, I: MonomialIdeal) -> "PolyIdeal":
        return cls([Polynomial.monomial(I.n, t) for t in I.gens], n=I.n)

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        return "PolyIdeal(n=%d, %d generators)" % (self.n, len(self.generators))

    def _int_generators(self) -> list:
        return [_to_int_poly(g) for g in self.generators]

    def reduced_gb(self, ordering: OrderingSpec) -> list:
        """The unique reduced Groebner basis, sorted descending by leading term."""
        cached = self._cache.get(ordering)
        if cached is not None:
            return list(cached)
        key = _make_key(ordering)
        basis = _buchberger(self._int_generators(), key)
        reduced = []
        for idx, (lt, _, p) in enumerate(basis):
            r, _ = _reduce(p, basis[:idx] + basis[idx + 1 :], key)
            reduced.append(_monic_polynomial(self.n, r, lt))
        self._cache[ordering] = tuple(reduced)
        return reduced

    def leading_terms(self, ordering: OrderingSpec) -> list:
        """Leading exponents of a minimal Groebner basis (no tail reduction)."""
        cached = self._cache.get(ordering)
        if cached is not None:
            return [f.leading_term(ordering)[0] for f in cached]
        key = _make_key(ordering)
        return [entry[0] for entry in _buchberger(self._int_generators(), key)]

    def initial_ideal(self, ordering: OrderingSpec) -> MonomialIdeal:
        """Monomial ideal of leading terms; the zero ideal for zero input."""
        return MonomialIdeal(self.n, self.leading_terms(ordering))

    def normal_form(self, f: Polynomial, ordering: OrderingSpec) -> Polynomial:
        """Remainder of f on division by the reduced basis; zero iff f lies in the ideal."""
        if f.n != self.n:
            raise ValueError("polynomial lives in a different ring")
        if f.is_zero() or self.is_zero():
            return f
        gb = self.reduced_gb(ordering)
        key = _make_key(ordering)
        den, ints = clear_denominators(f.terms.values())
        fi = dict(zip(f.terms, ints))
        basis = []
        for g in gb:
            gi = _to_int_poly(g)
            lt = min(gi, key=key)
            basis.append((lt, gi[lt], gi))
        rem, scale = _reduce(fi, basis, key)
        return Polynomial(self.n, {e: Fraction(v, den * scale) for e, v in rem.items()})


def ideal_equal(I: PolyIdeal, J: PolyIdeal, ordering: OrderingSpec) -> bool:
    """True iff the reduced bases coincide as sets of monic polynomials."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    return I.reduced_gb(ordering) == J.reduced_gb(ordering)


def _elimination_ordering(main_n: int) -> OrderingSpec:
    """Block ordering: one auxiliary first variable, then degrevlex on the rest."""
    return matrix_ordering([(1,) + (0,) * main_n] + [(0,) + row for row in degrevlex(main_n).rows])


def _prepend_variable(f: Polynomial, aux_degree: int = 0) -> Polynomial:
    return Polynomial(f.n + 1, {(aux_degree,) + e: c for e, c in f.terms.items()})


def _drop_aux(gb: Iterable[Polynomial], n: int) -> list:
    out = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial(n, {e[1:]: c for e, c in g.terms.items()}))
    return out


def intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I cap J by the auxiliary-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    n = I.n
    if I.is_zero() or J.is_zero():
        return PolyIdeal([], n=n)
    gens = [_prepend_variable(f, 1) for f in I.generators]
    for g in J.generators:
        lifted = _prepend_variable(g)
        gens.append(lifted - _prepend_variable(g, 1))
    aux = PolyIdeal(gens, n=n + 1)
    gb = aux.reduced_gb(_elimination_ordering(n))
    return PolyIdeal(_drop_aux(gb, n), n=n)


def saturate(I: PolyIdeal, f: Polynomial | None = None) -> PolyIdeal:
    """Saturation of I.

    With ``f`` given, returns I : f^infinity by eliminating t from
    I + (1 - t*f).  Without ``f``, returns I : (x_1,..,x_n)^infinity as the
    intersection of the single-variable saturations, which is the full
    saturation because every monomial of degree n*k is divisible by some
    x_i^k.
    """
    n = I.n
    if f is not None and f.n != n:
        raise ValueError("polynomial lives in a different ring")
    if I.is_zero():
        return I
    if f is None:
        result = saturate(I, Polynomial.variable(n, 1))
        for i in range(2, n + 1):
            result = intersect(result, saturate(I, Polynomial.variable(n, i)))
        return result
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    gens = [_prepend_variable(g) for g in I.generators]
    gens.append(Polynomial.constant(n + 1, 1) - _prepend_variable(f, 1))
    aux = PolyIdeal(gens, n=n + 1)
    gb = aux.reduced_gb(_elimination_ordering(n))
    return PolyIdeal(_drop_aux(gb, n), n=n)
