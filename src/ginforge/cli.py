"""Command-line surface.

One table, ``SUBCOMMANDS``, drives the ideal subcommands: each row names an
input reader, a handler and the subcommand's own flags.  ``build_parser``
gives every row the common flags (``COMMON_FLAGS``), and ``_run`` builds the
session from them, reads the input and calls the handler.  There are three
readers: the generators, a monomial ideal (each generator parsed and checked
to be one term, in order) and the two ideals of ``intersect``.  The handlers
leave the choice of algorithm to the kernel: ``saturate`` and ``intersect``
run on polynomial ideals whether or not their generators are monomials.
``verify`` has a parser and a handler of its own.

Output is canonical (generators sorted descending by the session ordering)
in table or JSON form, so identical inputs and seeds produce byte-identical
output.  Exit codes: 0 success/pass, 1 mathematical failure, 2 usage error,
3 inconclusive, 4 internal error (a bug: the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import checks
from .distraction import MatrixConstructionError, distract_ideal, make_matrix
from .gin import DEFAULT_TRIALS, SUSPICIOUS_REASON, AmbiguousGinError, HilbertMismatchError, gin
from .groebner import PolyIdeal, intersect, saturate
from .monomial import MonomialIdeal, closure, ek_betti, hilbert, irreducible_decomposition
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
# The most values ``hilbert --dmax`` prints: HF(0..dmax) needs dmax < HILBERT_VALUES.
# The ideal's degree has the same bound, as its Hilbert-Poincare numerator has that degree.
HILBERT_VALUES = 10**6


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
        ch, j = text[i], i + 1
        if "0" <= ch <= "9":
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[i:j]), i))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif ch in "+-*/^":
            tokens.append((ch, ch, i))
        elif not ch.isspace():
            raise CliError("syntax error at position %d: unexpected %r" % (i, ch))
        i = j
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

    def accumulate(sign):  # Polynomial drops the terms that cancel
        coeff, exps = parse_term()
        terms[exps] = terms.get(exps, 0) + sign * coeff

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


def _generator_texts(text, path) -> list:
    """Generators from a comma-separated flag value, then from a file with
    one per line and ``#`` comments; an unreadable file is a ``CliError``."""
    texts = [s.strip() for s in text.split(",") if s.strip()] if text else []
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliError(str(exc)) from exc
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if line:
                texts.append(line)
    return texts


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
# input readers: (args, config) -> the handler's input


def _ideal_texts(args) -> list:
    texts = _generator_texts(args.ideal, args.ideal_file)
    if not texts:
        raise CliError("no generators given (use --ideal or --ideal-file)")
    return texts


def _read_generators(args, config: SessionConfig) -> list:
    return parse_generators(_ideal_texts(args), config)


def _read_monomial_ideal(args, config: SessionConfig) -> MonomialIdeal:
    """The ideal of one-term generators, each checked as it is parsed; over Q
    a coefficient does not change the ideal a term generates."""
    exponents = []
    for text in _ideal_texts(args):
        f = parse_polynomial(text, config)
        if len(f.terms) != 1:
            raise CliError("expected a monomial, got %r" % text)
        exponents.extend(f.terms)
    return MonomialIdeal(config.n, exponents)


def _read_two_ideals(args, config: SessionConfig) -> tuple:
    first = _generator_texts(args.ideal, args.ideal_file)
    second = _generator_texts(args.ideal2, args.ideal2_file)
    if not first or not second:
        raise CliError("intersect needs --ideal and --ideal2 (or file variants)")
    return parse_generators(first, config), parse_generators(second, config)


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


def _emit_gens(config: SessionConfig, strings: list) -> None:
    _emit(config, {"gens": strings}, [], ["gens: " + ", ".join(strings)])


# ---------------------------------------------------------------------------
# subcommands: (config, input, args) -> exit code


def _cmd_gin(config: SessionConfig, gens: list, args) -> int:
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


def _cmd_in(config: SessionConfig, gens: list, args) -> int:
    M = PolyIdeal(gens, n=config.n).initial_ideal(config.ordering)
    _emit_gens(config, _mono_strings(M, config))
    return EXIT_OK


def _cmd_gb(config: SessionConfig, gens: list, args) -> int:
    basis = PolyIdeal(gens, n=config.n).reduced_gb(config.ordering)
    strings = _poly_strings(basis, config)
    _emit(config, {"basis": strings}, [], ["basis:"] + ["  " + s for s in strings])
    return EXIT_OK


def _cmd_distract(config: SessionConfig, I: MonomialIdeal, args) -> int:
    L = make_matrix(args.kind, config.n, args.N, rng_seed=config.seed)
    D = distract_ideal(L, I)
    strings = _poly_strings(D.generators, config)
    _emit(config, {"gens": strings}, [config.seed], ["gens:"] + ["  " + s for s in strings])
    return EXIT_OK


def _cmd_closure(config: SessionConfig, I: MonomialIdeal, args) -> int:
    mode = "strongly_stable" if args.mode == "strongly-stable" else "stable"
    C = closure(config.n, I.gens, mode)
    _emit_gens(config, _mono_strings(C, config))
    return EXIT_OK


def _cmd_hilbert(config: SessionConfig, I: MonomialIdeal, args) -> int:
    if args.dmax >= HILBERT_VALUES:
        raise CliError("--dmax %d asks for more than %d values" % (args.dmax, HILBERT_VALUES))
    if I.max_degree() >= HILBERT_VALUES:
        raise CliError("--ideal has degree %d, not below %d" % (I.max_degree(), HILBERT_VALUES))
    values = hilbert(I, args.dmax)
    _emit(config, {"values": values}, [], ["values: " + " ".join(map(str, values))])
    return EXIT_OK


def _cmd_betti(config: SessionConfig, I: MonomialIdeal, args) -> int:
    table = ek_betti(I)
    entries = [[i, j, c] for (i, j), c in sorted(table.items())]
    lines = ["beta(%d, %d) = %d" % (i, j, c) for i, j, c in entries]
    _emit(config, {"entries": entries}, [], lines)
    return EXIT_OK


def _cmd_decompose(config: SessionConfig, I: MonomialIdeal, args) -> int:
    comps = irreducible_decomposition(I)
    strings = [_mono_strings(c, config) for c in comps]
    lines = ["(%s)" % ", ".join(s) for s in strings]
    _emit(config, {"components": strings}, [], lines)
    return EXIT_OK


def _cmd_saturate(config: SessionConfig, gens: list, args) -> int:
    S = saturate(PolyIdeal(gens, n=config.n))
    _emit_gens(config, _poly_strings(S.reduced_gb(config.ordering), config))
    return EXIT_OK


def _cmd_intersect(config: SessionConfig, ideals: tuple, args) -> int:
    gens1, gens2 = ideals
    result = intersect(PolyIdeal(gens1, n=config.n), PolyIdeal(gens2, n=config.n))
    _emit_gens(config, _poly_strings(result.reduced_gb(config.ordering), config))
    return EXIT_OK


def _cmd_points(config: SessionConfig, I: MonomialIdeal, args) -> int:
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


STATUS_EXITS = {FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}


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
    counts = Counter(r.status for r in reports)
    print(
        "summary: %s" % " ".join("%s=%d" % (k, counts[k]) for k in sorted(counts)),
        file=sys.stderr,
    )
    return STATUS_EXITS.get(worst_status(reports), EXIT_OK)


# ---------------------------------------------------------------------------
# argument wiring

COMMON_FLAGS = (
    ("--n", {"type": int, "help": "ring dimension"}),
    ("--vars", {"help": "comma-separated variable names (default x1..xn)"}),
    ("--ord", {"default": "drl", "help": "drl | lex | matrix:[[...],...]"}),
    ("--seed", {"type": int, "default": None, "help": "RNG seed (default $GINFORGE_SEED or 0)"}),
    ("--trials", {"type": int, "default": DEFAULT_TRIALS}),
    ("--format", {"choices": ("table", "json"), "default": "table"}),
    ("--ideal", {"help": "comma-separated generators"}),
    ("--ideal-file", {"help": "file with one generator per line"}),
)
KIND_FLAG = ("--kind", {"choices": ("identical", "classic", "generic"), "default": "classic"})

# name -> (input reader, handler, the subcommand's own flags), in --help order
SUBCOMMANDS = {
    "gin": (_read_generators, _cmd_gin, ()),
    "in": (_read_generators, _cmd_in, ()),
    "gb": (_read_generators, _cmd_gb, ()),
    "distract": (_read_monomial_ideal, _cmd_distract, (KIND_FLAG, ("--N", {"type": int, "default": 6}))),
    "closure": (
        _read_monomial_ideal,
        _cmd_closure,
        (("--mode", {"choices": ("stable", "strongly-stable"), "default": "strongly-stable"}),),
    ),
    "hilbert": (_read_monomial_ideal, _cmd_hilbert, (("--dmax", {"type": int, "default": 8}),)),
    "betti": (_read_monomial_ideal, _cmd_betti, ()),
    "decompose": (_read_monomial_ideal, _cmd_decompose, ()),
    "saturate": (_read_generators, _cmd_saturate, ()),
    "intersect": (
        _read_two_ideals,
        _cmd_intersect,
        (("--ideal2", {"help": "comma-separated generators of the second ideal"}), ("--ideal2-file", {})),
    ),
    "points": (_read_monomial_ideal, _cmd_points, (KIND_FLAG, ("--N", {"type": int, "default": 4}))),
}


def _run(args) -> int:
    """An ideal subcommand: the session, its input, then its handler."""
    read, handler, _ = SUBCOMMANDS[args.command]
    config = _session(args)
    return handler(config, read(args, config), args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ginforge",
        description="Exact kernel for monomial-ideal distractions, Groebner bases and randomized generic initial ideals over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, options in COMMON_FLAGS + flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=_run)

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
    except (CliError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
