"""Buchberger engine over Q.

Reduced Groebner bases, normal forms, initial ideals, ideal equality,
intersection and saturation via elimination.

The inner loop works on integer-coefficient, content-free polynomials with
pseudo-reduction (cross-multiplying by leading coefficients), which keeps the
arithmetic in Z; results are converted back to monic Fraction polynomials at
the boundary.  Everything is exact.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

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
    rows = ordering.rows
    rng = range(ordering.n)
    memo: dict = {}

    def key(e: PowerProduct):
        k = memo.get(e)
        if k is None:
            k = tuple(sum(r[i] * e[i] for i in rng) for r in rows)
            memo[e] = k
        return k

    return key


class _NegKey(tuple):
    # heapq is a min-heap; wrap keys so the largest monomial pops first
    def __lt__(self, other):
        return tuple.__gt__(self, other)


def _reduce(f: dict, basis: Sequence[tuple], key) -> tuple[dict, int]:
    """Fully reduce f by the basis.

    Returns (remainder, scale): during pseudo-reduction the pending part is
    cross-multiplied, so `scale` records the integer the input was multiplied
    by overall; the true remainder is the returned dict divided by it.
    """
    work = dict(f)
    rem: dict = {}
    heap = [(_NegKey(key(e)), e) for e in work]
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
                            heapq.heappush(heap, (_NegKey(key(mm)), mm))
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
    """Minimal Groebner basis (leading terms pairwise non-dividing), not
    tail-reduced.  Normal pair selection with the coprimality and chain
    criteria."""
    G: list = []
    pairs: list = []
    pending: set = set()

    def add(p: dict):
        lt = max(p, key=key)
        idx = len(G)
        G.append((lt, p[lt], p))
        for i in range(idx):
            lti = G[i][0]
            if pp_coprime(lti, lt):
                continue  # coprime leading terms: S-poly reduces to zero
            l = pp_lcm(lti, lt)
            heapq.heappush(pairs, (key(l), i, idx))
            pending.add((i, idx))

    for p in sorted(int_polys, key=lambda q: key(max(q, key=key))):
        r, _ = _reduce(p, G, key)
        if r:
            add(_strip_content(r))

    while pairs:
        _, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lti, ltj = G[i][0], G[j][0]
        l = pp_lcm(lti, ltj)
        # chain criterion: skip if some k divides the lcm and both side pairs
        # are already settled
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if pp_divides(G[k][0], l):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly(G[i], G[j])
        if not s:
            continue
        r, _ = _reduce(s, G, key)
        if r:
            add(_strip_content(r))

    # minimalize: drop entries whose leading term is divisible by another's
    # (all leading terms are distinct, so strict divisibility is unambiguous)
    lts = [entry[0] for entry in G]
    return [
        entry
        for idx, entry in enumerate(G)
        if not any(k != idx and pp_divides(lts[k], lts[idx]) for k in range(len(G)))
    ]


def _minimal_basis(int_polys: list, key) -> list:
    basis = _buchberger(int_polys, key)
    basis.sort(key=lambda entry: key(entry[0]))
    return basis


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

    def __init__(
        self,
        generators: Iterable[Polynomial],
        n: int | None = None,
        homogeneous: bool | None = None,
    ):
        gens = tuple(g for g in generators if not g.is_zero())
        if n is None:
            if not gens:
                raise ValueError("ring dimension required for the zero ideal")
            n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError("generators live in different rings")
        homog = all(g.is_homogeneous() for g in gens)
        if homogeneous is True and not homog:
            raise ValueError("ideal flagged homogeneous has an inhomogeneous generator")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "homogeneous", homog)
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
        basis = _minimal_basis(self._int_generators(), key)
        reduced = []
        for idx, (lt, lc, p) in enumerate(basis):
            others = [basis[k] for k in range(len(basis)) if k != idx]
            r, _ = _reduce(p, others, key)
            reduced.append(_monic_polynomial(self.n, r, lt))
        reduced.sort(key=lambda f: key(f.leading_term(ordering)[0]), reverse=True)
        self._cache[ordering] = tuple(reduced)
        return reduced

    def leading_terms(self, ordering: OrderingSpec) -> list:
        """Leading exponents of a minimal Groebner basis (no tail reduction)."""
        cached = self._cache.get(ordering)
        if cached is not None:
            return [f.leading_term(ordering)[0] for f in cached]
        key = _make_key(ordering)
        return [entry[0] for entry in _minimal_basis(self._int_generators(), key)]

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
            lt = max(gi, key=key)
            basis.append((lt, gi[lt], gi))
        rem, scale = _reduce(fi, basis, key)
        return Polynomial(self.n, {e: Fraction(v, den * scale) for e, v in rem.items()})

    def contains(self, f: Polynomial, ordering: OrderingSpec | None = None) -> bool:
        ordering = ordering or degrevlex(self.n)
        return self.normal_form(f, ordering).is_zero()


def ideal_equal(I: PolyIdeal, J: PolyIdeal, ordering: OrderingSpec) -> bool:
    """True iff the reduced bases coincide as sets of monic polynomials."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    return I.reduced_gb(ordering) == J.reduced_gb(ordering)


def _elimination_ordering(main_n: int) -> OrderingSpec:
    """Block ordering: one auxiliary first variable, then degrevlex on the rest."""
    rows = [(1,) + (0,) * main_n, (0,) + (1,) * main_n]
    for k in range(main_n - 1):
        rows.append((0,) + tuple(-1 if i == main_n - 1 - k else 0 for i in range(main_n)))
    return matrix_ordering(rows)


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
    if I.is_zero():
        return I
    if f is None:
        result = saturate(I, Polynomial.variable(n, 1))
        for i in range(2, n + 1):
            result = intersect(result, saturate(I, Polynomial.variable(n, i)))
        return result
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    one = Polynomial.constant(n + 1, 1)
    t_f = Polynomial(n + 1, {(1,) + e: c for e, c in f.terms.items()})
    gens = [_prepend_variable(g) for g in I.generators]
    gens.append(one - t_f)
    aux = PolyIdeal(gens, n=n + 1)
    gb = aux.reduced_gb(_elimination_ordering(n))
    return PolyIdeal(_drop_aux(gb, n), n=n)
