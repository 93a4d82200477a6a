"""Command-line surface.

Subcommands delegate to the kernel modules; output is canonical (generators
sorted descending by the session ordering) in table or JSON form, so identical
inputs and seeds produce byte-identical output.  Exit codes: 0 success/pass,
1 mathematical failure, 2 usage error, 3 inconclusive, 4 internal error (a
bug: the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import checks
from .distraction import MatrixConstructionError, distract_ideal, make_matrix
from .gin import DEFAULT_TRIALS, SUSPICIOUS_REASON, AmbiguousGinError, HilbertMismatchError, gin
from .groebner import PolyIdeal, intersect, saturate
from .monomial import (
    MonomialIdeal,
    closure,
    ek_betti,
    hilbert,
    intersect_mono,
    irreducible_decomposition,
    saturate_mono,
)
from .points import points_from_ideal
from .polyring import (
    OrderingSpec,
    Polynomial,
    degrevlex,
    default_variable_names,
    lex,
    matrix_ordering,
    poly_to_string,
)
from .reports import FAIL, INCONCLUSIVE, report_line, worst_status

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

ALIASES = ("x", "y", "z", "w")


class CliError(Exception):
    """Usage-level error: bad grammar, unknown variable, malformed flags."""


@dataclass
class SessionConfig:
    n: int
    varnames: list
    ordering: OrderingSpec
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    fmt: str = "table"

    def name_map(self) -> dict:
        mapping = {name: i for i, name in enumerate(self.varnames)}
        if self.n <= 4:
            for i, alias in enumerate(ALIASES[: self.n]):
                if alias not in mapping:
                    mapping[alias] = i
        return mapping


# ---------------------------------------------------------------------------
# polynomial grammar: signed sum of terms; term = [coefficient *] factor
# {* factor}; factor = variable [^ positive integer]; coefficient = integer or
# integer/integer; explicit '*' required; whitespace ignored


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise CliError("syntax error at position %d: unexpected %r" % (i, ch))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str, config: SessionConfig) -> Polynomial:
    """Exact parse of the term-sum grammar; round-trips through printing."""
    tokens = _tokenize(text)
    names = config.name_map()
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise CliError("syntax error at position %d: expected %s" % (tok[2], kind))
        pos += 1
        return tok

    def parse_factor():
        tok = take("name")
        if tok[1] not in names:
            raise CliError("unknown variable %r at position %d" % (tok[1], tok[2]))
        index = names[tok[1]]
        exponent = 1
        if peek()[0] == "^":
            take("^")
            etok = take("num")
            if etok[1] < 1:
                raise CliError("exponent must be positive at position %d" % etok[2])
            exponent = etok[1]
        return index, exponent

    def parse_term():
        coeff = Fraction(1)
        exps = [0] * config.n
        if peek()[0] == "num":
            numer = take("num")[1]
            denom = 1
            if peek()[0] == "/":
                take("/")
                dtok = take("num")
                if dtok[1] == 0:
                    raise CliError("zero denominator at position %d" % dtok[2])
                denom = dtok[1]
            coeff = Fraction(numer, denom)
            if peek()[0] != "*":
                return coeff, tuple(exps)
            take("*")
        index, exponent = parse_factor()
        exps[index] += exponent
        while peek()[0] == "*":
            take("*")
            index, exponent = parse_factor()
            exps[index] += exponent
        return coeff, tuple(exps)

    terms: dict = {}

    def accumulate(sign):
        coeff, exps = parse_term()
        value = terms.get(exps, Fraction(0)) + sign * coeff
        if value:
            terms[exps] = value
        else:
            terms.pop(exps, None)

    sign = Fraction(1)
    if peek()[0] == "-":
        take("-")
        sign = Fraction(-1)
    elif peek()[0] == "+":
        take("+")
    accumulate(sign)
    while peek()[0] in ("+", "-"):
        sign = Fraction(1) if take(peek()[0])[0] == "+" else Fraction(-1)
        accumulate(sign)
    take("end")
    return Polynomial(config.n, terms)


def parse_generators(texts, config: SessionConfig) -> list:
    return [parse_polynomial(t, config) for t in texts]


def parse_monomial_ideal(texts, config: SessionConfig) -> MonomialIdeal:
    gens = []
    for text in texts:
        gens.append(parse_polynomial(text, config))
        if _monomial_ideal_or_none(gens[-1:], config.n) is None:
            raise CliError("expected a monomial, got %r" % text)
    return _monomial_ideal_or_none(gens, config.n)


def _monomial_ideal_or_none(gens, n: int):
    """The monomial ideal of ``gens`` when every generator is one term; over
    Q its coefficient does not change the ideal."""
    if all(len(f.terms) == 1 for f in gens):
        return MonomialIdeal(n, [next(iter(f.terms)) for f in gens])
    return None


# ---------------------------------------------------------------------------
# flag handling


def _parse_ordering(spec: str, n: int) -> OrderingSpec:
    if spec == "drl":
        return degrevlex(n)
    if spec == "lex":
        return lex(n)
    if spec.startswith("matrix:"):
        try:
            ordering = matrix_ordering(json.loads(spec[len("matrix:") :]))
        except (ValueError, TypeError) as exc:
            raise CliError("bad ordering matrix: %s" % exc)
        if ordering.n != n:
            raise CliError("bad ordering matrix: expected %d columns (--n), got %d" % (n, ordering.n))
        return ordering
    raise CliError("unknown ordering %r (use drl, lex or matrix:[[...],...])" % spec)


def _ordering_json(ordering: OrderingSpec):
    if ordering.kind == "degrevlex":
        return "drl"
    if ordering.kind == "lex":
        return "lex"
    return {"matrix": [list(r) for r in ordering.rows]}


def _read_ideal_lines(path: str) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(line)
    return out


def _generator_texts(text, path) -> list:
    """Generators from a comma-separated flag value, then from a file."""
    texts = [s.strip() for s in text.split(",") if s.strip()] if text else []
    if path:
        texts.extend(_read_ideal_lines(path))
    return texts


def _session_and_ideal(args, parse):
    """The session and the generators of --ideal/--ideal-file, read by ``parse``."""
    config = _session(args)
    texts = _generator_texts(args.ideal, args.ideal_file)
    if not texts:
        raise CliError("no generators given (use --ideal or --ideal-file)")
    return config, parse(texts, config)


def _seed(args) -> int:
    """--seed, else $GINFORGE_SEED, else 0."""
    return args.seed if args.seed is not None else int(os.environ.get("GINFORGE_SEED", "0"))


def _session(args) -> SessionConfig:
    n = args.n
    if n is None or n < 1:
        raise CliError("a positive ring dimension --n is required")
    if args.vars:
        varnames = [v.strip() for v in args.vars.split(",")]
        if len(varnames) != n or len(set(varnames)) != n or not all(varnames):
            raise CliError("--vars must list %d distinct names" % n)
    else:
        varnames = default_variable_names(n)
    return SessionConfig(
        n=n,
        varnames=varnames,
        ordering=_parse_ordering(args.ord, n),
        seed=_seed(args),
        trials=args.trials,
        fmt=args.format,
    )


# ---------------------------------------------------------------------------
# output


def _mono_strings(I: MonomialIdeal, config: SessionConfig) -> list:
    ordered = config.ordering.sort_descending(I.gens)
    return [poly_to_string(Polynomial.monomial(I.n, g), config.varnames, config.ordering) for g in ordered]


def _poly_strings(polys, config: SessionConfig) -> list:
    return [poly_to_string(f, config.varnames, config.ordering) for f in polys]


def _emit(config: SessionConfig, result: dict, seeds: list, table_lines: list) -> None:
    if config.fmt == "json":
        doc = {
            "ring": {"n": config.n, "vars": list(config.varnames)},
            "ordering": _ordering_json(config.ordering),
            "result": result,
            "seeds": seeds,
        }
        print(json.dumps(doc))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gin(args) -> int:
    config, gens = _session_and_ideal(args, parse_generators)
    try:
        res = gin(PolyIdeal(gens, n=config.n), config.ordering, config.trials, config.seed)
    except AmbiguousGinError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except HilbertMismatchError as exc:
        print("fail: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    strings = _mono_strings(res.ideal, config)
    result = {"gens": strings, "agreed": res.agreed, "suspicious": res.suspicious}
    _emit(config, result, [config.seed], ["gens: " + ", ".join(strings), "agreed: %s" % res.agreed])
    if res.suspicious:
        print("fail: %s" % SUSPICIOUS_REASON, file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if res.agreed else EXIT_INCONCLUSIVE


def _cmd_in(args) -> int:
    config, gens = _session_and_ideal(args, parse_generators)
    M = PolyIdeal(gens, n=config.n).initial_ideal(config.ordering)
    strings = _mono_strings(M, config)
    _emit(config, {"gens": strings}, [], ["gens: " + ", ".join(strings)])
    return EXIT_OK


def _cmd_gb(args) -> int:
    config, gens = _session_and_ideal(args, parse_generators)
    basis = PolyIdeal(gens, n=config.n).reduced_gb(config.ordering)
    strings = _poly_strings(basis, config)
    _emit(config, {"basis": strings}, [], ["basis:"] + ["  " + s for s in strings])
    return EXIT_OK


def _cmd_distract(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    L = make_matrix(args.kind, config.n, args.N, rng_seed=config.seed)
    D = distract_ideal(L, I)
    strings = _poly_strings(D.generators, config)
    _emit(config, {"gens": strings}, [config.seed], ["gens:"] + ["  " + s for s in strings])
    return EXIT_OK


def _cmd_closure(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    mode = "strongly_stable" if args.mode == "strongly-stable" else "stable"
    C = closure(config.n, I.gens, mode)
    strings = _mono_strings(C, config)
    _emit(config, {"gens": strings}, [], ["gens: " + ", ".join(strings)])
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    values = hilbert(I, args.dmax)
    _emit(config, {"values": values}, [], ["values: " + " ".join(map(str, values))])
    return EXIT_OK


def _cmd_betti(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    table = ek_betti(I)
    entries = [[i, j, c] for (i, j), c in sorted(table.items())]
    lines = ["beta(%d, %d) = %d" % (i, j, c) for i, j, c in entries]
    _emit(config, {"entries": entries}, [], lines)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    comps = irreducible_decomposition(I)
    strings = [_mono_strings(c, config) for c in comps]
    lines = ["(%s)" % ", ".join(s) for s in strings]
    _emit(config, {"components": strings}, [], lines)
    return EXIT_OK


def _cmd_saturate(args) -> int:
    config, gens = _session_and_ideal(args, parse_generators)
    M = _monomial_ideal_or_none(gens, config.n)
    if M is not None:
        strings = _mono_strings(saturate_mono(M), config)
    else:
        S = saturate(PolyIdeal(gens, n=config.n))
        strings = _poly_strings(S.reduced_gb(config.ordering), config)
    _emit(config, {"gens": strings}, [], ["gens: " + ", ".join(strings)])
    return EXIT_OK


def _cmd_intersect(args) -> int:
    config = _session(args)
    first = _generator_texts(args.ideal, args.ideal_file)
    second = _generator_texts(args.ideal2, args.ideal2_file)
    if not first or not second:
        raise CliError("intersect needs --ideal and --ideal2 (or file variants)")
    gens1 = parse_generators(first, config)
    gens2 = parse_generators(second, config)
    M1, M2 = _monomial_ideal_or_none(gens1, config.n), _monomial_ideal_or_none(gens2, config.n)
    if M1 is not None and M2 is not None:
        strings = _mono_strings(intersect_mono(M1, M2), config)
    else:
        result = intersect(PolyIdeal(gens1, n=config.n), PolyIdeal(gens2, n=config.n))
        strings = _poly_strings(result.reduced_gb(config.ordering), config)
    _emit(config, {"gens": strings}, [], ["gens: " + ", ".join(strings)])
    return EXIT_OK


def _cmd_points(args) -> int:
    config, I = _session_and_ideal(args, parse_monomial_ideal)
    L = make_matrix(args.kind, config.n + 1, args.N, rng_seed=config.seed)
    construction = points_from_ideal(I, L)
    point_rows = [",".join(str(c) for c in p.coords) for p in construction.points]
    ext_names = list(config.varnames) + ["x%d" % (config.n + 1)]
    ideal_strings = [
        poly_to_string(f, ext_names, degrevlex(config.n + 1))
        for f in construction.defining_ideal.generators
    ]
    result = {"points": point_rows, "defining_ideal": ideal_strings}
    _emit(config, result, [config.seed], point_rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        reports = checks.run_statement(
            args.statement, seed=_seed(args), instances=args.instances, trials=args.trials
        )
    except MatrixConstructionError as exc:
        print("construction failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    for r in reports:
        print(report_line(r))
    worst = worst_status(reports)
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    print(
        "summary: %s" % " ".join("%s=%d" % (k, counts[k]) for k in sorted(counts)),
        file=sys.stderr,
    )
    if worst == FAIL:
        return EXIT_FAIL
    if worst == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, help="ring dimension")
    p.add_argument("--vars", help="comma-separated variable names (default x1..xn)")
    p.add_argument("--ord", default="drl", help="drl | lex | matrix:[[...],...]")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default $GINFORGE_SEED or 0)")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--ideal", help="comma-separated generators")
    p.add_argument("--ideal-file", dest="ideal_file", help="file with one generator per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginforge",
        description="Exact kernel for monomial-ideal distractions, Groebner bases and randomized generic initial ideals over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("gin", _cmd_gin),
        ("in", _cmd_in),
        ("gb", _cmd_gb),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("distract")
    _add_common(p)
    p.add_argument("--kind", choices=("identical", "classic", "generic"), default="classic")
    p.add_argument("--N", type=int, default=6)
    p.set_defaults(handler=_cmd_distract)

    p = sub.add_parser("closure")
    _add_common(p)
    p.add_argument("--mode", choices=("stable", "strongly-stable"), default="strongly-stable")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("hilbert")
    _add_common(p)
    p.add_argument("--dmax", type=int, default=8)
    p.set_defaults(handler=_cmd_hilbert)

    for name, handler in (("betti", _cmd_betti), ("decompose", _cmd_decompose), ("saturate", _cmd_saturate)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("intersect")
    _add_common(p)
    p.add_argument("--ideal2", help="comma-separated generators of the second ideal")
    p.add_argument("--ideal2-file", dest="ideal2_file")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("points")
    _add_common(p)
    p.add_argument("--kind", choices=("identical", "classic", "generic"), default="classic")
    p.add_argument("--N", type=int, default=4)
    p.set_defaults(handler=_cmd_points)

    p = sub.add_parser("verify")
    p.add_argument("statement", choices=(*checks.STATEMENTS, "all"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--instances", type=int, default=25)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
