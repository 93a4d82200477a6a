"""The benchmark's four seeded workloads.

Each workload has three parts:

* ``build(seed)`` makes the inputs from the workload seed.  Inputs are plain
  data (tuples, monomial ideals, term dictionaries); no ``PolyIdeal`` is built
  here, so no Groebner basis can be cached across items or passes.
* ``run_pass(inputs, tracer)`` runs every item once, in order, one at a time,
  and returns ``(outputs, latencies, speeds)``: one canonical output string,
  one latency in seconds and one host speed per item.  The speed is the mean
  time of the reference computation (``reference.py``) run right before and
  right after the item, outside the item's time.  Traced passes run no
  reference and return no speeds.  Items build fresh kernel objects inside
  the timed call.
* ``check(inputs, outputs, seed)`` is the exact oracle.  It runs outside the
  timed region and returns one boolean per item.

The item sets are fixed in shape: which ideals, supports and matrix sizes
appear does not depend on the seed.  The seed draws what a user's random
choices would draw (gin trial seeds, generic matrix entries, polynomial
coefficients), so the cost of a pass changes little from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

import reference
from ginforge import cli, reports
from ginforge.checks import radirred_certification_report
from ginforge.distraction import distract_ideal, is_sufficiently_generic, make_matrix
from ginforge.gin import AmbiguousGinError, gin
from ginforge.groebner import PolyIdeal, intersect, saturate
from ginforge.monomial import MonomialIdeal, closure, principal_formulas, saturate_mono
from ginforge.polyring import Polynomial, degrevlex, lex, monomials_of_degree, pp_max_index

# Fixed seed of the shape catalogues (ideals, supports).  Changing it changes
# every workload's inputs, so it is part of the benchmark definition.
CATALOGUE_SEED = 2003

# Offset of the single re-seeded gin retry, as the verifier's retry uses.
RETRY_OFFSET = 7919

GIN_TRIALS = 2

# Latencies are CPU time of the calling thread.  The kernel is synchronous and
# single-threaded and does no I/O, so an item's wall time is its CPU time plus
# time the thread was not running: waiting for a core held by another process,
# or host steal where the operating system accounts it.  ``run.py`` scales
# them to a nominal host speed with the reference samples.
CLOCK = time.thread_time


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    build: Callable[[int], list]
    run_pass: Callable
    check: Callable[[list, list, int], list]


def _ordering(n: int, kind: str):
    return degrevlex(n) if kind == "drl" else lex(n)


def _gin_with_retry(make_ideal, ordering, seed: int):
    """A 2-trial gin; a non-unanimous outcome is retried once with a fresh
    seed, as the verifier does.  Returns (result or None, seed used)."""
    for s in (seed, seed + RETRY_OFFSET):
        try:
            result = gin(make_ideal(), ordering, trials=GIN_TRIALS, rng_seed=s)
        except AmbiguousGinError:
            continue
        if result.agreed:
            return result, s
    return None, s


def _gin_output(result, seed_used: int) -> str:
    if result is None:
        return "no unanimous gin, last seed %d" % seed_used
    return "seed=%d %s" % (seed_used, list(result.ideal.gens))


def _flanking(references: list, pairs) -> list:
    return [(references[a] + references[b]) / 2 for a, b in pairs] if references else []


def _timed_items(items, run_item, tracer):
    outputs = []
    latencies = []
    clock = CLOCK
    references = [reference.sample(clock)] if tracer is None else []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = clock()
        out = run_item(item)
        latencies.append(clock() - start)
        outputs.append(out)
        if tracer is None:
            references.append(reference.sample(clock))
    return outputs, latencies, _flanking(references, ((i, i + 1) for i in range(len(items))))


# ---------------------------------------------------------------------------
# gin_principal


def _principal_terms():
    """Principal stable ideals with n <= 3 and degree <= 5, and n = 4 with
    degree <= 3, each counted once in its smallest ring."""
    terms = []
    for n, d_max in ((1, 5), (2, 5), (3, 5), (4, 3)):
        for d in range(1, d_max + 1):
            for t in monomials_of_degree(n, d):
                if n == 1 or pp_max_index(t) == n:
                    terms.append(t)
    return terms


def build_gin_principal(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for t in _principal_terms():
        I = closure(len(t), [t], "stable")
        for kind in ("drl", "lex"):
            items.append((t, kind, I, rng.randrange(1 << 30)))
    return items


def _run_principal_item(item) -> str:
    t, kind, I, seed = item
    result, used = _gin_with_retry(lambda: PolyIdeal.from_monomial(I), _ordering(len(t), kind), seed)
    return "%s %s %s" % (t, kind, _gin_output(result, used))


def run_gin_principal(items, tracer=None):
    return _timed_items(items, _run_principal_item, tracer)


def check_gin_principal(items, outputs, seed) -> list:
    ok = []
    for (t, kind, I, s), out in zip(items, outputs):
        expected = principal_formulas(t)[1]
        ok.append(out.startswith("%s %s seed=" % (t, kind)) and out.endswith(" %s" % list(expected.gens)))
    return ok


# ---------------------------------------------------------------------------
# gin_distraction

# ideals per ring dimension and the degree cap of their seed monomials; the
# caps keep any single item below a few percent of a pass
DISTRACTION_IDEALS = {2: (18, 5), 3: (18, 4), 4: (14, 3)}


def _random_term(rng: random.Random, n: int, max_deg: int) -> tuple:
    t = [0] * n
    for _ in range(rng.randint(1, max_deg)):
        t[rng.randrange(n)] += 1
    return tuple(t)


def _distraction_catalogue() -> list:
    crng = random.Random(CATALOGUE_SEED)
    ideals = []
    for n, (count, max_deg) in DISTRACTION_IDEALS.items():
        for _ in range(count):
            seeds = [_random_term(crng, n, max_deg) for _ in range(crng.randint(1, 3))]
            ideals.append(closure(n, seeds, "strongly_stable"))
    return ideals


def build_gin_distraction(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for J in _distraction_catalogue():
        N = max(2, min(J.max_exponent(), 4))
        for kind in ("classic", "generic"):
            matrix_seed = rng.randrange(1 << 32) if kind == "generic" else None
            items.append((J, kind, N, matrix_seed, rng.randrange(1 << 30)))
    return items


def _run_distraction_item(item) -> str:
    J, kind, N, matrix_seed, seed = item
    if kind == "generic":
        L = make_matrix("generic", J.n, N, rng_seed=matrix_seed)
    else:
        L = make_matrix("classic", J.n, N + 1)
    result, used = _gin_with_retry(lambda: distract_ideal(L, J), degrevlex(J.n), seed)
    return "%s %s %s" % (kind, N, _gin_output(result, used))


def run_gin_distraction(items, tracer=None):
    return _timed_items(items, _run_distraction_item, tracer)


def check_gin_distraction(items, outputs, seed) -> list:
    return [out.endswith(" %s" % list(item[0].gens)) and " seed=" in out for item, out in zip(items, outputs)]


# ---------------------------------------------------------------------------
# verify_all

VERIFY_INSTANCES = 0

# ``verify all`` draws one random instance of each statement even with
# ``--instances 0``; the ``points`` one lies in P^2 (a few ms) or in P^3 (15 to
# 50 ms) with even odds, which moves one line across the median.  A pass runs
# the verifier at this many seeds, so the median line rarely depends on the
# draws: it moves only when all of them land on the same side.
VERIFY_SEEDS = 4


def build_verify_all(seed: int) -> list:
    return [
        ["verify", "all", "--seed", str(VERIFY_SEEDS * seed + j), "--instances", str(VERIFY_INSTANCES)]
        for j in range(VERIFY_SEEDS)
    ]


def _verify_once(argv, tracer, first_item: int) -> tuple:
    """One in-process ``ginforge verify all``; one item per report line.

    The latency of a line is the time from the previous printed report's
    construction (or the call's start) to this report's construction, read
    from a timestamp taken when each ``CheckReport`` is built.  In an
    untraced pass the reference runs before the call and right after each
    timestamp, and its time is taken out of the next line's latency.
    """
    created = []
    references = []
    original = reports.CheckReport.__post_init__
    clock = CLOCK

    def stamped(report):
        original(report)
        created.append((clock() - sum(references), report, len(references)))
        if tracer is None:
            references.append(reference.sample(clock))
        else:
            tracer.item = first_item + len(created)

    if tracer is None:
        references.append(reference.sample(clock))
    out = io.StringIO()
    reports.CheckReport.__post_init__ = stamped
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = clock() - sum(references)
            code = cli.main(argv)
    finally:
        reports.CheckReport.__post_init__ = original
    lines = out.getvalue().splitlines()
    latencies = []
    pairs = []
    previous, before = start, 0
    k = 0
    for line in lines:
        while k < len(created) and reports.report_line(created[k][1]) != line:
            k += 1
        if k == len(created):
            raise RuntimeError("printed report line was never constructed: %s" % line)
        latencies.append(created[k][0] - previous)
        pairs.append((before, created[k][2]))
        previous, before = created[k][0], created[k][2]
        k += 1
    return ["exit=%d %s" % (code, line) for line in lines], latencies, _flanking(references, pairs)


def run_verify_all(inputs, tracer=None):
    outputs, latencies, speeds = [], [], []
    for argv in inputs:
        out, lat, speed = _verify_once(argv, tracer, len(outputs))
        outputs += out
        latencies += lat
        speeds += speed
    return outputs, latencies, speeds


def check_verify_all(inputs, outputs, seed) -> list:
    ok = []
    for out in outputs:
        code, line = out.split(" ", 1)
        ok.append(code in ("exit=0", "exit=3") and json.loads(line)["status"] != reports.FAIL)
    return ok


# ---------------------------------------------------------------------------
# elim_validate

ELIM_COEFFS = [c for c in range(-5, 6) if c]


def _support(crng: random.Random, n: int, degree: int, terms: int) -> tuple:
    monomials = list(monomials_of_degree(n, degree))
    return tuple(sorted(crng.sample(monomials, min(terms, len(monomials)))))


def _elim_catalogue() -> list:
    """Shapes of the elimination items, in run order.

    Polynomial shapes are supports (one tuple of exponents per generator);
    the seed fills in the coefficients.  A single-exponent support is a
    monomial generator with coefficient 1.
    """
    crng = random.Random(CATALOGUE_SEED + 1)
    S = _support
    shapes = []
    for k in range(24):
        if k % 2 == 0:
            # forms plus monomials: the saturation removes the embedded
            # component the monomials add
            sat = [S(crng, 3, 2, 4), S(crng, 3, 3, 5)]
            sat += [(t,) for t in crng.sample(list(monomials_of_degree(3, 4)), 3)]
            shapes.append(("saturate", 3, sat))
            shapes.append(
                ("intersect", 3, [S(crng, 3, 2, 4), S(crng, 3, 3, 4)], [S(crng, 3, 2, 4), S(crng, 3, 2, 4)])
            )
            shapes.append(("lex_gb", 3, [S(crng, 3, 3, 4) for _ in range(3)]))
        else:
            sat = [S(crng, 4, 2, 3), S(crng, 4, 2, 3)]
            sat += [(t,) for t in crng.sample(list(monomials_of_degree(4, 3)), 2)]
            shapes.append(("saturate", 4, sat))
            shapes.append(("intersect", 4, [S(crng, 4, 2, 4)], [S(crng, 4, 2, 4), S(crng, 4, 2, 4)]))
            shapes.append(("lex_gb", 4, [S(crng, 4, 2, 3) for _ in range(3)]))
        mono = MonomialIdeal(0)
        while mono.is_zero() or mono.is_unit():
            gens = [_random_term(crng, 3, 3) for _ in range(crng.randint(2, 4))]
            mono = saturate_mono(MonomialIdeal(3, gens))
        shapes.append(("radical_cert", 3, mono))
        if k < 4:
            shapes.append(("generic_matrix", 4))
        if k < 2:
            shapes.append(("generic_matrix", 5))
    return shapes


def _fill(rng: random.Random, n: int, supports) -> tuple:
    polys = []
    for support in supports:
        if len(support) == 1:
            polys.append(((support[0], 1),))
        else:
            polys.append(tuple((e, rng.choice(ELIM_COEFFS)) for e in support))
    return polys


def build_elim_validate(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for shape in _elim_catalogue():
        kind, n = shape[0], shape[1]
        if kind == "intersect":
            items.append((kind, n, _fill(rng, n, shape[2]), _fill(rng, n, shape[3])))
        elif kind in ("saturate", "lex_gb"):
            items.append((kind, n, _fill(rng, n, shape[2])))
        elif kind == "radical_cert":
            I = shape[2]
            items.append((kind, n, I, max(I.max_exponent(), 1), rng.randrange(1 << 32)))
        else:
            items.append((kind, n, 4, rng.randrange(1 << 32)))
    return items


def _ideal(n: int, polys) -> PolyIdeal:
    return PolyIdeal([Polynomial(n, dict(p)) for p in polys], n=n)


def poly_text(f: Polynomial) -> str:
    """Canonical text of a polynomial: ``e1,e2,..:coeff`` terms in exponent
    order, separated by spaces."""
    return " ".join("%s:%s" % (",".join(map(str, e)), c) for e, c in sorted(f.terms.items()))


def matrix_text(L) -> str:
    """Canonical text of a distraction matrix: rows separated by `` / ``,
    forms by spaces, coefficients by commas."""
    return " / ".join(" ".join(",".join(map(str, form.coeffs)) for form in row) for row in L.rows)


def _run_elim_item(item) -> str:
    kind, n = item[0], item[1]
    if kind == "saturate":
        result = saturate(_ideal(n, item[2])).generators
    elif kind == "intersect":
        result = intersect(_ideal(n, item[2]), _ideal(n, item[3])).generators
    elif kind == "lex_gb":
        result = _ideal(n, item[2]).reduced_gb(lex(n))
    elif kind == "radical_cert":
        _, _, I, N, matrix_seed = item
        L = make_matrix("generic", n, N, rng_seed=matrix_seed)
        return "%s %s" % (kind, radirred_certification_report(I, L).status)
    else:
        _, _, N, matrix_seed = item
        L = make_matrix("generic", n, N, rng_seed=matrix_seed)
        return "%s %s %s" % (kind, is_sufficiently_generic(L), matrix_text(L))
    return "%s %s" % (kind, " | ".join(poly_text(f) for f in result))


def run_elim_validate(items, tracer=None):
    return _timed_items(items, _run_elim_item, tracer)


def check_elim_validate(items, outputs, seed) -> list:
    from elim_oracle import check_elim

    return check_elim(items, outputs, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gin_principal",
            "70 principal stable ideals (n<=3 deg<=5, n=4 deg<=3) x {degrevlex, lex} = 140 gins of 2 trials",
            build_gin_principal,
            run_gin_principal,
            check_gin_principal,
        ),
        Workload(
            "gin_distraction",
            "50 strongly stable ideals (n=2,3,4) x {classic, generic} matrix = 100 distraction gins of 2 trials",
            build_gin_distraction,
            run_gin_distraction,
            check_gin_distraction,
        ),
        Workload(
            "verify_all",
            "ginforge verify all --instances 0 at 4 seeds: 4 x 20 reports of the 8 statements",
            build_verify_all,
            run_verify_all,
            check_verify_all,
        ),
        Workload(
            "elim_validate",
            "24 each of saturate, intersect, lex basis (n=3,4) and radical certification; 4 n=4 and 2 n=5 generic N=4 matrices",
            build_elim_validate,
            run_elim_validate,
            check_elim_validate,
        ),
    )
}
