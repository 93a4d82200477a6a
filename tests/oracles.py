"""Independent test oracles.

These deliberately avoid the code paths they are used to check: brute-force
enumeration for Hilbert functions, stability and the x_i-DegRev type, every elementary move on
the generators for stability, the alternating sum of a
Betti table as a second Hilbert function, inclusion-exclusion over the
generators for Hilbert-Poincare numerators, exact-rank homology of the Taylor
complex for Betti numbers, schoolbook single-divisor division for
divisibility, Gauss-Jordan elimination in ``Fraction`` for ranks, reduced row
echelon forms and inverses, a cofactor-expansion determinant, substitution by
schoolbook products of integer polynomials with the denominators cleared,
distraction by expanding products of ``Fraction`` polynomials, and a textbook
Buchberger with no criteria for reduced Groebner bases.  It also draws the
random layered ideals of the full family, beyond the equal-totals instances
the verifier draws, on which the tests check stability.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, lcm, prod
from operator import add
from types import SimpleNamespace

from ginforge.monomial import MonomialIdeal, layered_ideal
from ginforge.numeric import QMatrix
from ginforge.polyring import (
    LinearForm,
    OrderingSpec,
    Polynomial,
    monomials_of_degree,
    pp_deg,
    pp_divides,
    pp_lcm,
    pp_max_index,
    pp_mul,
    pp_one,
)


def is_degree_compatible_upto(ordering: OrderingSpec, d: int) -> bool:
    """True iff deg(t) > deg(t') implies t > t' for all degrees up to d."""
    n = ordering.n
    for k in range(d):
        top_low = max(ordering.key(t) for t in monomials_of_degree(n, k))
        bottom_high = min(ordering.key(t) for t in monomials_of_degree(n, k + 1))
        if not bottom_high > top_low:
            return False
    return True


def xi_degrev_type_upto(ordering: OrderingSpec, i: int, degree_bound: int) -> bool:
    """The x_i-DegRev type by enumeration up to ``degree_bound``: degree
    compatible, and in each degree the x_i-exponents never fall along the
    ordering's ascending sort."""
    if not is_degree_compatible_upto(ordering, degree_bound):
        return False
    for k in range(1, degree_bound + 1):
        exps = [t[i - 1] for t in ordering.sort_descending(monomials_of_degree(ordering.n, k))]
        if any(a > b for a, b in zip(exps, exps[1:])):
            return False
    return True


def pp_div(s: tuple, t: tuple) -> tuple:
    """s / t, assuming t divides s."""
    return tuple(a - b for a, b in zip(s, t))


def monomials_up_to_degree(n: int, d: int):
    """All exponent tuples in n variables of total degree at most d."""
    for k in range(d + 1):
        yield from monomials_of_degree(n, k)


def rref_rows(rows: list) -> tuple[list, int]:
    """Reduced row echelon form (all rows, zero rows last) and rank, by
    Gauss-Jordan elimination in ``Fraction``."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv = 0
    for col in range(ncols):
        if piv >= nrows:
            break
        pivot_row = next((r for r in range(piv, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[piv], m[pivot_row] = m[pivot_row], m[piv]
        inv = 1 / m[piv][col]
        m[piv] = [x * inv for x in m[piv]]
        for r in range(nrows):
            if r != piv and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[piv])]
        piv += 1
    return m, piv


def rank(m: QMatrix) -> int:
    return rref_rows(m.entries)[1]


def inverse(m: QMatrix) -> QMatrix:
    """The inverse of an invertible square matrix, from the RREF of [m | 1]."""
    n = m.rows
    aug = [list(m.entries[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    reduced, _ = rref_rows(aug)
    if any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return QMatrix([row[n:] for row in reduced])


def det_expansion(m: QMatrix) -> Fraction:
    """Determinant by cofactor expansion along the first row."""

    def expand(rows: list) -> Fraction:
        if not rows:
            return Fraction(1)
        total = Fraction(0)
        for j, a in enumerate(rows[0]):
            if a:
                minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
                total += (-1) ** j * a * expand(minor)
        return total

    return expand([list(row) for row in m.entries])


def hilbert_by_enumeration(I: MonomialIdeal, d_max: int) -> list:
    values = []
    for d in range(d_max + 1):
        count = 0
        for t in monomials_of_degree(I.n, d):
            if not any(pp_divides(g, t) for g in I.gens):
                count += 1
        values.append(count)
    return values


def numerator_by_inclusion_exclusion(I: MonomialIdeal) -> list:
    """The Hilbert-Poincare numerator of P/I as the alternating sum of
    t^deg(lcm(S)) over the subsets S of the minimal generators (the Taylor
    complex), coefficient list without trailing zeros."""
    coefficients: dict = {}
    gens = list(I.gens)
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            d = pp_deg(reduce(pp_lcm, subset, (0,) * I.n))
            coefficients[d] = coefficients.get(d, 0) + (-1) ** size
    out = [coefficients.get(d, 0) for d in range(max(coefficients) + 1)]
    while out and not out[-1]:
        out.pop()
    return out


def betti_to_hilbert(table: dict, n: int, d_max: int) -> list:
    """Hilbert function of P/I from the alternating sum of a Betti table of I."""
    # numerator coefficient at j: 1 at 0, minus sum_i (-1)^i beta_{i,j}
    numerator = {0: 1}
    for (i, j), b in table.items():
        numerator[j] = numerator.get(j, 0) - ((-1) ** i) * b
    values = []
    for d in range(d_max + 1):
        total = 0
        for j, c in numerator.items():
            if d - j >= 0:
                total += c * comb(d - j + n - 1, n - 1)
        values.append(total)
    return values


def hf_by_rank(I, d: int) -> int:
    """HF_{P/I}(d) from the exact rank of the degree-d coefficient matrix of
    the generator multiples (no Groebner machinery)."""
    n = I.n
    mons = list(monomials_of_degree(n, d))
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for g in I.generators:
        dg = g.degree()
        if dg > d:
            continue
        for m in monomials_of_degree(n, d - dg):
            row = [Fraction(0)] * len(mons)
            for e, c in g.terms.items():
                row[index[pp_mul(e, m)]] += c
            rows.append(row)
    dim_ideal = rank(QMatrix(rows)) if rows else 0
    return len(mons) - dim_ideal


def stability_flags_exhaustive(I: MonomialIdeal, d_max: int) -> tuple:
    """Stability checked on every monomial of the ideal up to degree d_max."""
    stable = sstable = True
    for d in range(d_max + 1):
        for t in monomials_of_degree(I.n, d):
            if not I.contains(t):
                continue
            m = pp_max_index(t)
            for i in range(1, m):
                moved = list(t)
                moved[m - 1] -= 1
                moved[i - 1] += 1
                if not I.contains(tuple(moved)):
                    stable = False
            for j in range(1, I.n + 1):
                if t[j - 1] == 0:
                    continue
                for i in range(1, j):
                    moved = list(t)
                    moved[j - 1] -= 1
                    moved[i - 1] += 1
                    if not I.contains(tuple(moved)):
                        sstable = False
    return stable, sstable


def stability_flags_by_all_moves(I: MonomialIdeal) -> tuple:
    """Stability checked by every elementary move x_i u / x_j, i < j, on
    every minimal generator u: the special moves (j the largest index of u)
    for stability, all of them for strong stability."""
    stable = sstable = True
    for u in I.gens:
        m = pp_max_index(u)
        for j in range(1, I.n + 1):
            if u[j - 1] == 0:
                continue
            for i in range(1, j):
                moved = list(u)
                moved[j - 1] -= 1
                moved[i - 1] += 1
                if not I.contains(tuple(moved)):
                    sstable = False
                    stable = stable and j != m
    return stable, sstable


def poly_divides(g: Polynomial, f: Polynomial, ordering: OrderingSpec) -> bool:
    """Schoolbook division by the single polynomial g; True iff g divides f."""
    if f.is_zero():
        return True
    if g.is_zero():
        return False
    glt, glc = g.leading_term(ordering)
    work = dict(f.terms)
    while work:
        e = max(work, key=ordering.key)
        if not pp_divides(glt, e):
            return False
        c = work.pop(e) / glc
        shift = pp_div(e, glt)
        for m, a in g.terms.items():
            if m == glt:
                continue
            mm = pp_mul(m, shift)
            v = work.get(mm, 0) - c * a
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return True


def taylor_betti(I: MonomialIdeal) -> dict:
    """Graded Betti numbers of I from the Taylor complex.

    The complex is restricted per multidegree; entries of the reduced
    differential are +-1 exactly where the lcm is unchanged, and homology
    ranks are computed by exact row reduction.  Faces of size k give
    homological index k-1 for the ideal.
    """
    gens = list(I.gens)
    r = len(gens)
    by_multidegree: dict = {}
    for size in range(1, r + 1):
        for face in combinations(range(r), size):
            a = reduce(pp_lcm, (gens[k] for k in face))
            by_multidegree.setdefault(a, []).append(face)
    table: dict = {}
    for a, faces in by_multidegree.items():
        by_size: dict = {}
        for face in faces:
            by_size.setdefault(len(face), []).append(face)
        ranks: dict = {}
        for k, source in by_size.items():
            target = by_size.get(k - 1, [])
            if not target:
                ranks[k] = 0
                continue
            tindex = {f: i for i, f in enumerate(target)}
            rows = []
            for f in source:
                row = [0] * len(target)
                for pos in range(k):
                    sub = f[:pos] + f[pos + 1 :]
                    if sub in tindex:
                        row[tindex[sub]] += (-1) ** pos
                rows.append(row)
            ranks[k] = rank(QMatrix(rows))
        j = pp_deg(a)
        for k, source in by_size.items():
            homology = len(source) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if homology:
                key = (k - 1, j)
                table[key] = table.get(key, 0) + homology
    return table


def _int_product(a: dict, b: dict) -> dict:
    """Schoolbook product of integer polynomials keyed by exponent tuples."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def expand_through(f: Polynomial, images: list, target_n: int) -> Polynomial:
    """Substitute x_j -> images[j] (0-based) into f, expanding schoolbook
    products of integer polynomials.

    Denominators are cleared once: d_j * images[j] is an integer polynomial
    with a table of its powers, and a term c x^e of f contributes
    F c prod_j d_j^(top_j - e_j) prod_j (d_j images[j])^(e_j), where F clears
    the denominators of f and top_j is the highest power of x_j in f.  The
    sum is divided by F prod_j d_j^top_j at the end.
    """
    tops = [max((e[j] for e in f.terms), default=0) for j in range(f.n)]
    dens = [lcm(*(c.denominator for c in image.terms.values())) for image in images]
    one = (0,) * target_n
    powers = []
    for image, d, top in zip(images, dens, tops):
        base = {e: int(c * d) for e, c in image.terms.items()}
        table = [{one: 1}]
        for _ in range(top):
            table.append(_int_product(table[-1], base))
        powers.append(table)
    F = lcm(*(c.denominator for c in f.terms.values()))
    total = {}
    for e, c in f.terms.items():
        term = {one: 1}
        for j, a in enumerate(e):
            if a:
                term = _int_product(term, powers[j][a])
        k = int(c * F) * prod(d ** (top - a) for d, top, a in zip(dens, tops, e))
        for m, v in term.items():
            total[m] = total.get(m, 0) + k * v
    scale = F * prod(d**top for d, top in zip(dens, tops))
    return Polynomial(target_n, {m: Fraction(v, scale) for m, v in total.items()})


def linear_change_by_expansion(f: Polynomial, g: QMatrix) -> Polynomial:
    """f under x_j -> sum_i g[i][j] x_i."""
    n = f.n
    images = [
        Polynomial(n, {tuple(int(r == i) for r in range(n)): g[i, j] for i in range(n) if g[i, j]})
        for j in range(n)
    ]
    return expand_through(f, images, n)


def section_by_expansion(f: Polynomial, i: int, h: LinearForm) -> Polynomial:
    """f under x_i -> -(1/h_i) * sum_{j != i} h_j x_j in n - 1 variables."""
    n = f.n
    m = n - 1
    hi = h.coeffs[i - 1]
    images = []
    for j in range(n):
        if j == i - 1:
            terms = {}
            for k in range(n):
                if k == i - 1 or h.coeffs[k] == 0:
                    continue
                pos = k if k < i - 1 else k - 1
                terms[tuple(int(r == pos) for r in range(m))] = -h.coeffs[k] / hi
            images.append(Polynomial(m, terms))
        else:
            pos = j if j < i - 1 else j - 1
            images.append(Polynomial.variable(m, pos + 1))
    return expand_through(f, images, m)


def distract_by_products(L, t) -> Polynomial:
    """The distraction of x^t: the product over variables i of the first t_i
    forms of row i of L, multiplied out one ``Fraction`` factor at a time."""
    result = Polynomial.constant(L.n, 1)
    for i in range(1, L.n + 1):
        for j in range(1, t[i - 1] + 1):
            result = result * L.entry(i, j).as_polynomial()
    return result


def _remainder(f: Polynomial, divisors: list, ordering: OrderingSpec) -> Polynomial:
    """Full remainder of f on division by the divisors, first divisor first."""
    leads = [g.leading_term(ordering) for g in divisors]
    rem = {}
    while not f.is_zero():
        e, c = f.leading_term(ordering)
        for g, (glt, glc) in zip(divisors, leads):
            if pp_divides(glt, e):
                f = f - g * Polynomial.monomial(f.n, pp_div(e, glt), c / glc)
                break
        else:
            rem[e] = c
            f = f - Polynomial.monomial(f.n, e, c)
    return Polynomial(f.n, rem)


def reduced_basis_textbook(gens: list, ordering: OrderingSpec) -> list:
    """Reduced Groebner basis, largest leading term first, by Buchberger's
    algorithm with no criteria: the S-polynomial of every pair is reduced,
    then the basis is minimalized, tail-reduced and made monic.  The
    ordering ranks each exponent once per call: leading terms are found
    again and again for exponents already ranked."""
    ordering = SimpleNamespace(key=lru_cache(maxsize=None)(ordering.key))
    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (lt_i, lc_i), (lt_j, lc_j) = G[i].leading_term(ordering), G[j].leading_term(ordering)
        l = pp_lcm(lt_i, lt_j)
        s = G[i] * Polynomial.monomial(G[i].n, pp_div(l, lt_i), 1 / lc_i) - G[j] * Polynomial.monomial(
            G[j].n, pp_div(l, lt_j), 1 / lc_j
        )
        r = _remainder(s, G, ordering)
        if not r.is_zero():
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    G.sort(key=lambda g: ordering.key(g.leading_term(ordering)[0]))
    minimal = []
    for g in G:
        if not any(pp_divides(h.leading_term(ordering)[0], g.leading_term(ordering)[0]) for h in minimal):
            minimal.append(g)
    reduced = [
        _remainder(g, minimal[:k] + minimal[k + 1 :], ordering).monic(ordering) for k, g in enumerate(minimal)
    ]
    return reduced[::-1]


def random_layered_instance(rng, n: int) -> MonomialIdeal:
    """A random layered ideal sum_j t_j (x_1..x_j)^{alpha_j} with t_1 = 1,
    m(t_j) < j, t_j | t_{j+1} and non-decreasing layer totals deg(t_j) +
    alpha_j, not only the equal totals of
    ``checks.random_layered_stable_instance``: the full family on which
    layered ideals are stable.  The t_j are drawn as that function draws
    them."""
    r = rng.randint(1, n)
    ts = [pp_one(n)]
    for j in range(2, r + 1):
        extra = [0] * n
        for _ in range(rng.randint(0, 2)):
            extra[rng.randrange(j - 1)] += 1
        ts.append(pp_mul(ts[-1], tuple(extra)))
    alphas = []
    prev_total = 0
    for j in range(1, r + 1):
        d = pp_deg(ts[j - 1])
        lo = 1 if j == 1 else max(0, prev_total - d)
        a = lo + rng.randint(0, 2)
        alphas.append(a)
        prev_total = d + a
    return layered_ideal(n, ts, alphas)
