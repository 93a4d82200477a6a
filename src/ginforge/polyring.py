"""Sparse multivariate polynomials over Q, power products and term orderings.

Power products are plain exponent tuples of length n.  Variable indices in
public signatures are 1-based (``i = 1..n``), matching the usual mathematical
convention; exponent tuples are 0-indexed internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from math import prod
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .numeric import QMatrix, clear_denominators, echelon_form

PowerProduct = tuple


class InvalidTransformError(ValueError):
    """The coordinate change matrix is singular or has the wrong shape."""


class InvalidSectionError(ValueError):
    """The linear form has zero coefficient on the eliminated variable."""


# ---------------------------------------------------------------------------
# power products


def pp_one(n: int) -> PowerProduct:
    return (0,) * n


def pp_check(n: int, t: PowerProduct) -> None:
    """ValueError unless t is a tuple of n nonnegative integers."""
    if len(t) != n or not all(isinstance(a, int) and a >= 0 for a in t):
        raise ValueError("not a power product in %d variables: %r" % (n, t))


def pp_deg(t: PowerProduct) -> int:
    return sum(t)


def pp_max_index(t: PowerProduct) -> int:
    """Largest 1-based index of a variable dividing t; 0 for the empty product."""
    for i in range(len(t) - 1, -1, -1):
        if t[i]:
            return i + 1
    return 0


def pp_mul(s: PowerProduct, t: PowerProduct) -> PowerProduct:
    return tuple(a + b for a, b in zip(s, t))


def pp_divides(s: PowerProduct, t: PowerProduct) -> bool:
    return all(a <= b for a, b in zip(s, t))


def pp_lcm(s: PowerProduct, t: PowerProduct) -> PowerProduct:
    return tuple(max(a, b) for a, b in zip(s, t))


def monomials_of_degree(n: int, d: int) -> Iterator[PowerProduct]:
    """All exponent tuples in n variables of total degree d."""
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# term orderings


def _degrevlex_rows(n: int) -> tuple:
    rows = [(1,) * n]
    for k in range(n - 1):
        rows.append(tuple(-1 if i == n - 1 - k else 0 for i in range(n)))
    return tuple(rows)


def _lex_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class OrderingSpec:
    """A term ordering: named (lex, degrevlex) or defined by an integer matrix.

    Every kind is normalized to comparison rows; ``t1 > t2`` iff
    ``rows @ t1 > rows @ t2`` lexicographically.  Admissibility (full rank,
    first nonzero entry of each column positive scanning rows top-down)
    guarantees a multiplication-compatible total order with 1 minimal.
    """

    kind: str  # "lex" | "degrevlex" | "matrix"
    n: int
    rows: tuple

    def key(self, t: PowerProduct):
        return tuple(sum(r[i] * t[i] for i in range(self.n)) for r in self.rows)

    def compare(self, t1: PowerProduct, t2: PowerProduct) -> int:
        """-1, 0 or 1 as t1 <, ==, > t2."""
        if len(t1) != self.n or len(t2) != self.n:
            raise ValueError("power product dimension mismatch")
        k1, k2 = self.key(t1), self.key(t2)
        return (k1 > k2) - (k1 < k2)

    def sort_descending(self, monomials: Iterable[PowerProduct]) -> list:
        return sorted(monomials, key=self.key, reverse=True)


def lex(n: int) -> OrderingSpec:
    return OrderingSpec("lex", n, _lex_rows(n))


def degrevlex(n: int) -> OrderingSpec:
    return OrderingSpec("degrevlex", n, _degrevlex_rows(n))


def matrix_ordering(rows: Sequence[Sequence[int]]) -> OrderingSpec:
    """Term ordering defined by an integer matrix, validated for admissibility."""
    rows = tuple(tuple(row) for row in rows)
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("ordering matrix entries must be integers")
    if not rows:
        raise ValueError("empty ordering matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged ordering matrix")
    if len(echelon_form(rows)) != n:
        raise ValueError("ordering matrix must have rank n")
    for j in range(n):
        lead = next((row[j] for row in rows if row[j] != 0), 0)
        if lead <= 0:
            raise ValueError("first nonzero entry of column %d must be positive" % (j + 1))
    return OrderingSpec("matrix", n, rows)


def restrict_ordering(ordering: OrderingSpec, i: int) -> OrderingSpec:
    """The restriction to power products in the variables other than x_i.

    For matrix orderings column i is deleted (zero rows dropped), which agrees
    with the original ordering on every pair of x_i-free power products.
    """
    if not 1 <= i <= ordering.n:
        raise ValueError("variable index out of range")
    if ordering.kind == "lex":
        return lex(ordering.n - 1)
    if ordering.kind == "degrevlex":
        return degrevlex(ordering.n - 1)
    rows = []
    for row in ordering.rows:
        cut = row[: i - 1] + row[i:]
        if any(cut):
            rows.append(cut)
    return matrix_ordering(rows)


def is_xi_degrev_type(ordering: OrderingSpec, i: int) -> bool:
    """Whether ``ordering`` is of x_i-DegRev type: degree compatible, and of
    two power products of equal degree the one with the smaller x_i-exponent
    is larger.

    Decided exactly from the rows.  The ordering is degree compatible on all
    of N^n iff its first nonzero row is a positive multiple of (1, .., 1).
    Then products of equal degree differ by a v of degree 0, which the later
    rows order, and the first of them that is not constant must be positive
    on every such v with v_i < 0: it is a*(1, .., 1) - c*e_i with c > 0.
    """
    if not 1 <= i <= ordering.n:
        raise ValueError("variable index out of range")
    first = next(row for row in ordering.rows if any(row))
    if len(set(first)) > 1 or first[0] <= 0:
        return False
    row = next((row for row in ordering.rows if len(set(row)) > 1), None)
    if row is None:  # one variable
        return True
    others = set(row[: i - 1] + row[i:])
    return len(others) == 1 and row[i - 1] < min(others)


# ---------------------------------------------------------------------------
# linear forms


@dataclass(frozen=True)
class LinearForm:
    """A homogeneous degree-1 form sum(c_i * x_i) given by its coefficients."""

    coeffs: tuple

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def as_polynomial(self) -> "Polynomial":
        n = self.n
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = tuple(int(j == i) for j in range(n))
                terms[e] = c
        return Polynomial(n, terms)


def linear_form(coeffs: Iterable) -> LinearForm:
    return LinearForm(tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial: finite map from exponent tuple to nonzero Fraction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(e) != n:
                        raise ValueError("exponent tuple of wrong length")
                    clean[tuple(e)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors

    @classmethod
    def _of_terms(cls, n: int, terms: dict) -> "Polynomial":
        """The polynomial with these terms, taken as they are: nonzero
        Fractions keyed by exponent tuples of length n, as the kernel builds
        them.  ``__init__`` normalizes what callers give."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "terms", terms)
        return f

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {pp_one(n): Fraction(c)})

    @classmethod
    def monomial(cls, n: int, exps: PowerProduct, coeff=1) -> "Polynomial":
        """coeff * x^exps; ValueError unless exps is n nonnegative integers."""
        exps = tuple(exps)
        pp_check(n, exps)
        return cls(n, {exps: Fraction(coeff)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable x_i (1-based)."""
        return cls.monomial(n, tuple(int(j == i - 1) for j in range(n)))

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((pp_deg(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {pp_deg(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_term(self, ordering: OrderingSpec) -> tuple:
        """(exponent, coefficient) of the greatest term; raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=ordering.key)
        return e, self.terms[e]

    def monic(self, ordering: OrderingSpec) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term(ordering)
        return self * (Fraction(1) / c)

    # -- arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) - c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = pp_mul(e1, e2)
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        out.pop(e, None)
            return Polynomial(self.n, out)
        return Polynomial(self.n, {e: c * Fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        names = default_variable_names(self.n)
        return "Polynomial(%s)" % poly_to_string(self, names, degrevlex(self.n))

    def evaluate(self, values: Sequence) -> Fraction:
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, a in zip(vals, e):
                if a:
                    term *= v**a
            total += term
        return total


# ---------------------------------------------------------------------------
# substitution


class _Substitution:
    """The ring map sending x^a to a product of linear forms in m variables.

    Variable x_j has a row of integer linear forms over one common
    denominator den (rational rows cleared together, or integer rows over
    the ``den`` given), and the last form of a row repeats.  The map keeps no
    state between calls: ``expand`` maps a list of integer polynomials to
    polynomials keyed by packed exponents, where the caller gives ``units``,
    units[k] the packed x_k, so a variable times a term is one add.  Each
    call builds the images of power products once, shared by its whole
    list, along the divisor chain: den^deg(a) * (image of x^a) is that of
    x^(a - e_j) times form a_j of row j, with x_j the last variable of x^a.
    A coordinate change, a section, a shear or the identity has rows of one
    form; a distraction has the rows of its matrix, and ``composed`` follows
    either by a coordinate change.
    """

    def __init__(self, rows: Sequence[Sequence[Sequence]], m: int, den: int | None = None):
        self.n = len(rows)
        self.m = m
        ints = (c for row in rows for form in row for c in form)
        if den is None:
            den, ints = clear_denominators(ints)
        self.den = den
        ints = iter(ints)
        self.rows = [[[(k, c) for k, c in enumerate(islice(ints, m)) if c] for _ in row] for row in rows]

    def composed(self, g: Sequence[Sequence[int]], tops: Iterable[int]) -> "_Substitution":
        """This map followed by the coordinate change x_k -> sum_i g[i][k] x_i
        of an integer m x m matrix g, for exponents below ``tops``: row j
        keeps its first tops[j] forms, each times den and moved by g.  Its
        image of x^a is den^deg(a) times this map's image of x^a, moved.
        The moved forms are integers already, so its den is 1."""
        m = range(self.m)
        out = object.__new__(_Substitution)
        out.n, out.m, out.den = self.n, self.m, 1
        out.rows = [
            [[(i, c) for i in m if (c := sum(g[i][k] * a for k, a in form))] for form in row[:top]]
            for row, top in zip(self.rows, tops)
        ]
        return out

    def expand(self, polys: Iterable[dict], units: tuple) -> list:
        """den^d * (image of f), without zero terms, for each integer
        polynomial f of degree d in polys, keyed by exponent tuples: the sum
        of c_a * den^(d - deg a) * image(a), or c * image(a) in one pass for
        one term c x^a."""
        forms = [[[(units[k], c) for k, c in form] for form in row] for row in self.rows]
        images = {pp_one(self.n): {0: 1}}

        def image(a: PowerProduct) -> dict:
            p = images.get(a)
            if p is not None:
                return p
            chain = []
            while a not in images:
                j = pp_max_index(a) - 1
                chain.append((a, j))
                a = a[:j] + (a[j] - 1,) + a[j + 1 :]
            p = images[a]
            for a, j in reversed(chain):
                row = forms[j]
                form = row[min(a[j], len(row)) - 1]
                q: dict = {}
                for z, v in p.items():
                    for u, c in form:
                        t = z + u
                        q[t] = q.get(t, 0) + v * c
                images[a] = p = q
            return p

        den = self.den
        out = []
        for f in polys:
            if len(f) == 1:
                ((a, c),) = f.items()
                out.append({z: c * v for z, v in image(a).items() if v})
                continue
            degrees = [sum(a) for a in f]
            d = max(degrees, default=0)
            total: dict = {}
            for (a, c), k in zip(f.items(), degrees):
                s = c * den ** (d - k)
                for z, v in image(a).items():
                    total[z] = total.get(z, 0) + s * v
            out.append({z: v for z, v in total.items() if v})
        return out

    def evaluate(self, polys: Sequence[dict], point: Sequence) -> list:
        """The integer values at ``point``, a point of Z^m, of the images of
        the integer polys keyed by exponent tuples, each term c x^a taken
        as c * den^deg(a) times its image: the product of its integer forms'
        values, each form evaluated once, without expanding it.  For a
        homogeneous poly of degree d that is den^d times the value of its
        image, so it is zero exactly when that value is."""
        values = [[sum(c * point[k] for k, c in form) for form in row] for row in self.rows]

        def value(a: PowerProduct):
            return prod(row[min(k, len(row)) - 1] for row, e in zip(values, a) for k in range(1, e + 1))

        return [sum(c * value(a) for a, c in f.items()) for f in polys]

    def images(self, polys: Sequence[dict]) -> list:
        """``expand`` keyed by exponent tuples: the integer images of the
        integer polys, expanded on plain exponent fields wide enough for the
        largest degree."""
        w = max([1, *(sum(a) for f in polys for a in f)]).bit_length()
        mask = (1 << w) - 1
        shifts = range(0, self.m * w, w)
        expanded = self.expand(polys, tuple(1 << s for s in shifts))
        return [{tuple([z >> s & mask for s in shifts]): v for z, v in p.items()} for p in expanded]

    def apply(self, polys: Sequence[Polynomial]) -> list:
        """The images of polys: ``images`` of the polys cleared to integers,
        each scaled back to Q once at the end."""
        for f in polys:
            for a in f.terms:
                pp_check(self.n, a)
        cleared = [clear_denominators(f.terms.values()) for f in polys]
        ints = [dict(zip(f.terms, nums)) for f, (_, nums) in zip(polys, cleared)]
        out = []
        for f, p, (lcd, _) in zip(polys, self.images(ints), cleared):
            scale = lcd * self.den ** max(map(sum, f.terms), default=0)
            out.append(Polynomial._of_terms(self.m, {e: Fraction(v, scale) for e, v in p.items()}))
        return out


class _Identity(_Substitution):
    """The identity ring map, whose ``expand`` only packs each polynomial's
    own exponent tuples."""

    def expand(self, polys: Iterable[dict], units: tuple) -> list:
        return [{sum(map(mul, e, units)): c for e, c in f.items()} for f in polys]


@cache
def _identity_map(n: int) -> _Identity:
    """The identity ring map of n variables, x_j -> x_j, built once per n:
    a map keeps no state between calls."""
    return _Identity([[[int(i == j) for i in range(n)]] for j in range(n)], n)


def apply_linear_change(f: Polynomial, g: QMatrix) -> Polynomial:
    """Apply the coordinate change x_j -> sum_i g[i][j] x_i and expand."""
    n = f.n
    if g.rows != n or g.cols != n:
        raise InvalidTransformError("matrix size does not match ring dimension")
    if not g.is_invertible():
        raise InvalidTransformError("coordinate change matrix is singular")
    return _Substitution([[[g[i, j] for i in range(n)]] for j in range(n)], n).apply([f])[0]


def substitute_variable(f: Polynomial, i: int, h: LinearForm) -> Polynomial:
    """Eliminate x_i via the hyperplane h: x_i -> -(1/h_i) * sum_{j != i} h_j x_j.

    Returns the image in the (n-1)-variable ring; the other variables map
    identically (reindexed past i).
    """
    if h.n != f.n:
        raise InvalidSectionError("linear form dimension mismatch")
    return _section(h, i).apply([f])[0]


def _section(h: LinearForm, i: int) -> _Substitution:
    """The ring map of the section by h that eliminates x_i, shared by every
    polynomial it maps."""
    n = h.n
    if not 1 <= i <= n:
        raise ValueError("variable index out of range")
    hi = h.coeffs[i - 1]
    if hi == 0:
        raise InvalidSectionError("coefficient of the eliminated variable is zero")
    rest = list(range(i - 1)) + list(range(i, n))
    rows = [[[int(k == j) for k in rest]] for j in range(n)]
    rows[i - 1] = [[Fraction(-h.coeffs[k], hi) for k in rest]]
    return _Substitution(rows, n - 1)


# ---------------------------------------------------------------------------
# printing


def default_variable_names(n: int) -> list:
    return ["x%d" % (i + 1) for i in range(n)]


def _format_monomial(e: PowerProduct, names: Sequence[str]) -> str:
    parts = []
    for i, a in enumerate(e):
        if a == 1:
            parts.append(names[i])
        elif a > 1:
            parts.append("%s^%d" % (names[i], a))
    return "*".join(parts)


def poly_to_string(f: Polynomial, names: Sequence[str], ordering: OrderingSpec) -> str:
    """Canonical printing with terms sorted descending by the given ordering."""
    if f.is_zero():
        return "0"
    pieces = []
    for e in ordering.sort_descending(f.terms):
        c = f.terms[e]
        mono = _format_monomial(e, names)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)
