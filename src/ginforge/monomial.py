"""Combinatorics of monomial ideals.

Minimal generators, stability predicates and closures, intersection,
saturation, irreducible decomposition, Hilbert-Poincare series and Hilbert
functions, Eliahou-Kervaire Betti tables, layered ideals and the closed-form
principal stable ideals built from them.

The zero ideal (no generators) and the unit ideal (generated by 1) are legal
values; each operation documents its degenerate behavior where relevant.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain
from math import comb
from operator import lshift
from typing import Iterable, Sequence

from .polyring import (
    PowerProduct,
    monomials_of_degree,
    pp_check,
    pp_deg,
    pp_divides,
    pp_lcm,
    pp_max_index,
    pp_mul,
    pp_one,
)

# Betti tables map (homological index, internal degree) -> count; Hilbert
# vectors are HF_{P/I}(0..d_max) as a plain list of counts.
BettiTable = dict
HilbertVector = list


class NotStableError(ValueError):
    """The operation is only defined for stable monomial ideals."""


class DegenerateInputError(ValueError):
    """The input is degenerate for this operation (e.g. the power product 1)."""


class MonomialIdeal:
    """A monomial ideal stored by its canonical minimal generating set.

    Generators are pairwise non-dividing and sorted descending by degrevlex
    (with a lex tie-break), so equality is structural.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: Iterable[PowerProduct] = ()):
        mins = []
        for t in sorted(_power_products(n, gens), key=pp_deg):
            if not any(pp_divides(s, t) for s in mins):
                mins.append(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", _canonical_order(mins))

    @classmethod
    def _of_minimal(cls, n: int, gens: Iterable[PowerProduct]) -> "MonomialIdeal":
        """The ideal of distinct, pairwise non-dividing power products of n
        nonnegative ints, such as the leading terms of a minimal Groebner
        basis: only sorted into canonical order, not validated or minimalized."""
        I = object.__new__(cls)
        object.__setattr__(I, "n", n)
        object.__setattr__(I, "gens", _canonical_order(gens))
        return I

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return "MonomialIdeal(n=%d, gens=%r)" % (self.n, list(self.gens))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[-1] == pp_one(self.n)

    def contains(self, t: PowerProduct) -> bool:
        return any(pp_divides(g, t) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def max_exponent(self) -> int:
        return max(chain.from_iterable(self.gens), default=0)

    def max_degree(self) -> int:
        return max((pp_deg(g) for g in self.gens), default=0)

    def is_zero_dimensional(self) -> bool:
        """True iff the ideal contains a power of every variable."""
        pure = {pp_max_index(g) for g in self.gens if sum(1 for a in g if a) == 1}
        return all(i + 1 in pure for i in range(self.n))


def _canonical_order(gens: Iterable[PowerProduct]) -> tuple:
    """The power products sorted descending by degrevlex, with a lex
    tie-break that never fires, as degrevlex is total.  Descending degrevlex
    is ascending (-degree, reversed exponents): of two power products of one
    degree, the larger has the smaller exponent at the last place they differ."""
    return tuple(sorted(gens, key=lambda t: (-sum(t), t[::-1])))


def _power_products(n: int, gens: Iterable[PowerProduct]) -> set:
    """The distinct tuples of ``gens``; ValueError unless each is n nonnegative integers."""
    out = set(tuple(g) for g in gens)
    for t in out:
        pp_check(n, t)
    return out


# ---------------------------------------------------------------------------
# stability


def stability_flags(I: MonomialIdeal) -> tuple[bool, bool]:
    """(is_stable, is_strongly_stable).

    Checking elementary moves on the minimal generators suffices: any monomial
    of the ideal is s*u for a generator u, and a move on s*u either acts on
    the cofactor s (staying inside the ideal trivially) or descends to a move
    on u itself.  Strong stability needs only the adjacent moves
    x_{j-1} u / x_j, as every move x_i u / x_j is a chain of them: the ideal
    is strongly stable iff its move core in the identity rank is every
    generator (``move_core``), and then it is stable.

    The special moves are tested on packed exponents (``ExponentFields``),
    with fields wide enough for an exponent one above the largest.
    """
    if len(move_core(I.n, I.gens, range(I.n))) == len(I.gens):
        return True, True
    fields = ExponentFields(I.n, (I.max_exponent() + 1).bit_length())
    guards = fields.guards
    units = [1 << o for o in fields.offsets]
    gens = [fields.fields(t) for t in I.gens]
    for t, z in zip(I.gens, gens):
        for i, j in _move_pairs(t, False):
            moved = (z + units[i - 1] - units[j - 1]) | guards
            if not any((moved - g) & guards == guards for g in gens):
                return False, False
    return True, False


def _move_pairs(t: PowerProduct, strongly: bool) -> list:
    """The 1-based (i, j) of the adjacent moves x_{j-1} t / x_j, or else of
    the special moves x_i t / x_m with m the largest index of t."""
    if strongly:
        return [(j - 1, j) for j in range(2, len(t) + 1) if t[j - 1] > 0]
    m = pp_max_index(t)
    return [(i, m) for i in range(1, m)]


def _moves(t: PowerProduct, strongly: bool) -> Iterable[PowerProduct]:
    """The power products that ``_move_pairs`` moves t to."""
    for i, j in _move_pairs(t, strongly):
        moved = list(t)
        moved[j - 1] -= 1
        moved[i - 1] += 1
        yield tuple(moved)


def closure(n: int, seeds: Iterable[PowerProduct], mode: str = "strongly_stable") -> MonomialIdeal:
    """Smallest stable / strongly stable ideal containing the given monomials.

    Breadth-first closure of the seed set under special elementary moves
    (``mode="stable"``) or adjacent moves, whose chains are all elementary
    moves (``mode="strongly_stable"``), then minimalized.  The ideal
    generated by the move-orbit is closed under moves because a move on s*u
    either acts on s or descends to u.
    """
    if mode not in ("stable", "strongly_stable"):
        raise ValueError("mode must be 'stable' or 'strongly_stable'")
    strongly = mode == "strongly_stable"
    seen = _power_products(n, seeds)
    if not seen:
        raise ValueError("closure needs a nonempty seed set")
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for moved in _moves(t, strongly):
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return MonomialIdeal(n, seen)


def move_core(n: int, gens: Sequence[PowerProduct], rank: Sequence[int]) -> list:
    """The indices of the core of the generators ``gens``, ascending: the
    largest subset whose ideal J is closed under the adjacent moves
    x_{rank[b-1]} u / x_{rank[b]}, rank a permutation of the variable indices
    (0-based).  For the identity rank the core is every generator iff their
    ideal is strongly stable.

    Each round keeps the generators whose moves all lie in the ideal of the
    generators the round started with, until a round keeps them all.  A
    subset whose ideal is closed survives every round, and the ideal of the
    last round's generators is closed, as moves of the generators suffice
    (``stability_flags``); so it is the largest.  A move keeps the degree:
    it lies in the ideal iff it is a generator of its degree, a set lookup,
    or a generator of lower degree divides it.  Moves are taken on packed
    exponents (``ExponentFields``)."""
    fields = ExponentFields(n, (max(chain.from_iterable(gens), default=0) + 1).bit_length())
    guards, offsets = fields.guards, [fields.offsets[k] for k in rank]
    steps = [((1 << a) - (1 << b), fields.mask << b) for a, b in zip(offsets, offsets[1:])]
    degrees, packed = [sum(t) for t in gens], [fields.fields(t) for t in gens]
    moves = [[(z + step) | guards for step, field in steps if z & field] for z in packed]
    core = list(range(len(gens)))

    def inside(m: int, d: int) -> bool:  # whether a move m of degree d lies in the ideal of the core
        return m in same or any(degrees[j] < d and (m - packed[j]) & guards == guards for j in core)

    while True:
        same = {packed[i] | guards for i in core}
        kept = [i for i in core if all(inside(m, degrees[i]) for m in moves[i])]
        if len(kept) == len(core):
            return kept
        core = kept


# ---------------------------------------------------------------------------
# intersection / saturation / decomposition


def intersect_mono(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I cap J via lcms of generator pairs, minimalized."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    if I.is_zero() or J.is_zero():
        return MonomialIdeal(I.n)
    return MonomialIdeal(I.n, (pp_lcm(s, t) for s in I.gens for t in J.gens))


def _saturate_variable(I: MonomialIdeal, i: int) -> MonomialIdeal:
    """I : x_i^infinity, obtained by zeroing the x_i-exponent of every generator."""
    gens = []
    for g in I.gens:
        e = list(g)
        e[i - 1] = 0
        gens.append(tuple(e))
    return MonomialIdeal(I.n, gens)


def saturate_mono(I: MonomialIdeal) -> MonomialIdeal:
    """The saturation I : (x_1,..,x_n)^infinity.

    Computed as the intersection of the single-variable saturations
    I : x_i^infinity; this is the full saturation because every monomial of
    degree n*k is divisible by some x_i^k.  For strongly stable input it
    coincides with I : x_n^infinity.
    """
    if I.is_zero() or I.is_unit():
        return I
    result = _saturate_variable(I, 1)
    for i in range(2, I.n + 1):
        result = intersect_mono(result, _saturate_variable(I, i))
    return result


def irreducible_decomposition(I: MonomialIdeal) -> list[MonomialIdeal]:
    """Irredundant irreducible components of a proper nonzero monomial ideal.

    Splits recursively on a generator t = u*v with coprime nontrivial parts
    (I = (I+(u)) cap (I+(v))), then keeps the components that contain no
    other component.  That prunes every component containing the
    intersection of the others: if an irreducible C contains none of the
    ideals J_k, the lcm of one monomial of each J_k outside C lies in their
    intersection but not in C.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("decomposition needs a proper nonzero ideal")

    def split(ideal: MonomialIdeal) -> list[MonomialIdeal]:
        for t in ideal.gens:
            support = [i for i, a in enumerate(t) if a]
            if len(support) > 1:
                k = support[0]
                u = tuple(a if i == k else 0 for i, a in enumerate(t))
                v = tuple(0 if i == k else a for i, a in enumerate(t))
                left = MonomialIdeal(ideal.n, ideal.gens + (u,))
                right = MonomialIdeal(ideal.n, ideal.gens + (v,))
                return split(left) + split(right)
        return [ideal]

    components = list(dict.fromkeys(split(I)))
    return [c for c in components if not any(d != c and c.contains_ideal(d) for d in components)]


# ---------------------------------------------------------------------------
# Hilbert functions and Betti numbers


class ExponentFields:
    """Exponent vectors packed as ints: one field of F bits per variable, x1
    lowest, each under a guard bit; G masks the guard bits.

    x^a * x^b packs to Z(a) + Z(b) while no field carries, t divides s iff
    ((Z(s) | G) - Z(t)) & G == G, and the guard bits of (Z(s) | G) - ONES,
    with ONES the packed (1, .., 1), mark the variables of s.
    """

    def __init__(self, n: int, width: int):
        step = width + 1
        self.width = width
        self.mask = (1 << width) - 1
        self.offsets = range(0, n * step, step)
        self.exponents = (1 << n * step) - 1
        self.ones = self.exponents // ((1 << step) - 1)
        self.guards = self.ones << width

    def join(self, a: int, b: int) -> int:
        """Field-wise maximum of exponent fields a and b: their lcm."""
        d = ((a | self.guards) - b) & self.guards
        m = d - (d >> self.width)
        return b ^ ((a ^ b) & m)

    def fields(self, t: PowerProduct) -> int:
        """The exponent tuple t packed."""
        return sum(map(lshift, t, self.offsets))

    def degree(self, z: int) -> int:
        """The total degree of the packed exponents z."""
        mask = self.mask
        return sum((z >> o) & mask for o in self.offsets)

    def numerator(self, gens: Iterable[tuple]) -> list:
        """The Hilbert-Poincare numerator N of S/(gens) for generators given
        as (degree, packed exponents): HS(S/(gens)) = N(t) / (1 - t)^n, N as
        its coefficient list without trailing zeros ([1] for no generators,
        [] for the unit ideal).

        The generators join one at a time by ``add_generator``, by degree
        and then by packed value.  In that order every colon of a stable
        ideal is generated by variables (the linear quotients behind the
        Eliahou-Kervaire resolution), which split off at once."""
        out: list = [1]
        done: list = []
        for d, z in sorted(gens):
            self.add_generator(out, done, z, d)
            done.append(z)
        while out and not out[-1]:
            out.pop()
        return out

    def _by_pivots(self, gens: list) -> list:
        # Bigatti's recursion ("Computation of Hilbert-Poincare series", JPAA
        # 1997) on (degree, exponents) pairs sorted by degree.  Variables
        # among the generators, and generators whose variables no other
        # generator has, split off as factors 1 - t^deg; on the rest, the
        # pivot p = x^e, x the variable most of them have and e its least
        # positive exponent, gives N(J) = N(J + p) + t^e N(J : p), where
        # J + p is p plus the generators free of x.
        if gens and not gens[0][0]:
            return []
        guards, ones, mask = self.guards, self.ones, self.mask
        mins: list = []
        linear = seen = shared = 0
        for d, z in gens:
            zg = z | guards
            s = (zg - ones) & guards
            if s & linear:
                continue
            if d == 1:
                linear |= s
            elif not any((zg - m) & guards == guards for _, m, _ in mins):
                shared |= seen & s
                seen |= s
                mins.append((d, z, s))
        split = [1] * linear.bit_count() + [d for d, _, s in mins if not s & shared]
        rest = [(d, z) for d, z, s in mins if s & shared]
        if rest:
            width = self.width
            counts = [(sum(1 for _, z in rest if (z >> o) & mask), o) for o in self.offsets if (shared >> (o + width)) & 1]
            o = max(counts, key=lambda c: c[0])[1]
            e = min(a for a in ((z >> o) & mask for _, z in rest) if a)
            free = [(d, z) for d, z in rest if not (z >> o) & mask]
            colon = sorted((d - e, z - (e << o)) if (z >> o) & mask else (d, z) for d, z in rest)
            plus = self._by_pivots(free)
            out = _add_shifted(_add_shifted(plus, plus, e, -1), self._by_pivots(colon), e, 1)
        else:
            out = [1]
        for d in split:
            out = _add_shifted(out, out, d, -1)
        return out

    def add_generator(self, numerator: list, gens: list, m: int, degree: int):
        """Turn ``numerator``, that of (gens), into the numerator of
        (gens) + (m), where m has the given degree, by
        N(J + m) = N(J) - t^deg(m) N(J : m); trailing zeros may remain.

        J : m is generated by the lcm(g, m) / m.  Those that are variables
        split off as factors 1 - t, together with every generator they
        divide; Bigatti's recursion takes the rest."""
        guards, ones, width = self.guards, self.ones, self.width
        linear = 0
        rest = []
        for g in gens:
            d = ((g | guards) - m) & guards
            c = (m ^ ((g ^ m) & (d - (d >> width)))) - m  # lcm(g, m) / m
            if not c:
                return
            if c & (c - 1) or not c & ones:
                rest.append(c)
            else:
                linear |= c
        r = linear.bit_count()
        if rest:
            divided = linear << width
            rest = [(self.degree(c), c) for c in rest if not ((c | guards) - ones) & guards & divided]
        if rest:
            colon = self._by_pivots(sorted(rest))
            for _ in range(r):
                colon = _add_shifted(colon, colon, 1, -1)
        else:
            colon = _one_minus_t_power(r)
        numerator.extend([0] * (degree + len(colon) - len(numerator)))
        for k, c in enumerate(colon, degree):
            numerator[k] -= c


@lru_cache(maxsize=None)
def _one_minus_t_power(r: int) -> tuple:
    """The coefficients of (1 - t)^r."""
    return tuple((-1) ** k * comb(r, k) for k in range(r + 1))


def _add_shifted(a: list, b: list, shift: int, sign: int) -> list:
    """a + sign * t^shift * b for coefficient lists, without trailing zeros."""
    out = a + [0] * (len(b) + shift - len(a))
    for k, c in enumerate(b, shift):
        out[k] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def first_difference(a: list, b: list):
    """The least index where the coefficient lists a and b differ (missing
    coefficients are 0), None if they are equal."""
    if a == b:
        return None
    size = max(len(a), len(b))
    a = a + [0] * (size - len(a))
    b = b + [0] * (size - len(b))
    return next((k for k in range(size) if a[k] != b[k]), None)


def hilbert_numerator(n: int, gens: Iterable[PowerProduct]) -> list:
    """``ExponentFields.numerator`` of the ideal generated by the exponent
    tuples ``gens``."""
    gens = list(gens)
    fields = ExponentFields(n, max(1, max(chain.from_iterable(gens), default=0).bit_length()))
    return fields.numerator([(sum(t), fields.fields(t)) for t in gens])


def series_values(numerator: list, n: int, d_max: int) -> HilbertVector:
    """The coefficients of t^0..t^d_max in numerator(t) / (1 - t)^n."""
    values = (numerator + [0] * (d_max + 1))[: d_max + 1]
    for _ in range(n):
        values = list(accumulate(values))
    return values


def hilbert(I: MonomialIdeal, d_max: int) -> HilbertVector:
    """HF_{P/I}(d) for d = 0..d_max, read off the Hilbert-Poincare series."""
    if d_max < 0:
        raise ValueError("degree bound must be >= 0")
    return series_values(hilbert_numerator(I.n, I.gens), I.n, d_max)


def ek_betti(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of a stable ideal by the Eliahou-Kervaire formula.

    beta_{i, d+i}(I) = sum over minimal generators u of degree d of
    binomial(m(u) - 1, i), where m(u) is the maximum index of u, taken as 1
    for u = 1: the unit ideal is free of rank 1 in degree 0.
    """
    if not stability_flags(I)[0]:
        raise NotStableError("Eliahou-Kervaire formula requires a stable ideal")
    table: BettiTable = {}
    for u in I.gens:
        d = pp_deg(u)
        m = max(pp_max_index(u), 1)
        for i in range(m):
            key = (i, d + i)
            table[key] = table.get(key, 0) + comb(m - 1, i)
    return table


# ---------------------------------------------------------------------------
# closed forms for principal stable ideals


def layered_ideal(n: int, ts: Sequence[PowerProduct], alphas: Sequence[int]) -> MonomialIdeal:
    """The layered ideal sum_j t_j (x_1,..,x_j)^{alpha_j}, layer j from the j-th entries of ts and alphas."""
    gens = []
    for j, (t, a) in enumerate(zip(ts, alphas), start=1):
        for block in monomials_of_degree(j, a):
            gens.append(pp_mul(t, block + (0,) * (n - j)))
    return MonomialIdeal(n, gens)


def principal_formulas(t: PowerProduct) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Closed forms attached to the principal stable ideal of t.

    First component: the smallest stable ideal containing t, as the layered
    ideal sum_j x_1^{a_1}..x_{j-1}^{a_{j-1}} (x_1,..,x_j)^{c_j} with
    c_j = sum_{k>=j} a_k.  Second component: its generic initial ideal
    sum_j x_1^{b_j} (x_1,..,x_j)^{c_j} with b_j = sum_{k<j} a_k.
    """
    n = len(t)
    if pp_deg(t) == 0:
        raise DegenerateInputError("the power product 1 has no principal stable ideal")
    c = [sum(t[j:]) for j in range(n)]
    prefixes = [t[:j] + (0,) * (n - j) for j in range(n)]
    x1_powers = [(sum(t[:j]),) + (0,) * (n - 1) for j in range(n)]
    return layered_ideal(n, prefixes, c), layered_ideal(n, x1_powers, c)


def sstable_intersection_form(t: PowerProduct) -> MonomialIdeal:
    """The smallest strongly stable ideal containing t as
    cap_{i=1}^n (x_1,..,x_i)^{beta_i} with beta_i = sum_{j<=i} a_j."""
    n = len(t)
    if pp_deg(t) == 0:
        raise DegenerateInputError("the power product 1 is degenerate here")
    result = None
    for i in range(1, n + 1):
        beta = sum(t[: i])
        factor = MonomialIdeal(n, (m + (0,) * (n - i) for m in monomials_of_degree(i, beta)))
        result = factor if result is None else intersect_mono(result, factor)
    return result


# ---------------------------------------------------------------------------
# helpers used by the gin machinery


def coordinate_section(I: MonomialIdeal, i: int) -> MonomialIdeal:
    """The x_i -> 0 section: generators free of x_i, with that coordinate dropped."""
    gens = [g[: i - 1] + g[i:] for g in I.gens if g[i - 1] == 0]
    return MonomialIdeal(I.n - 1, gens)


def embed(I: MonomialIdeal, extra: int = 1) -> MonomialIdeal:
    """Extension of I to a ring with `extra` more trailing variables."""
    return MonomialIdeal(I.n + extra, (g + (0,) * extra for g in I.gens))


def scale_by(I: MonomialIdeal, t: PowerProduct) -> MonomialIdeal:
    """The ideal t * I."""
    return MonomialIdeal(I.n, (pp_mul(t, g) for g in I.gens))

