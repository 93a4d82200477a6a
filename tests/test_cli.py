import contextlib
import dataclasses
import io
import json
import pathlib
import random
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginforge import checks, cli
from ginforge.cli import (
    CliError,
    SessionConfig,
    main,
    parse_polynomial,
)
from ginforge.distraction import MatrixConstructionError
from ginforge.gin import AmbiguousGinError
from ginforge.polyring import Polynomial, degrevlex, default_variable_names, poly_to_string
from ginforge.reports import FAIL, INCONCLUSIVE


GOLDEN = pathlib.Path(__file__).parent / "golden"
PROMPT = "$ ginforge "


def _config(n=3, **kw):
    return SessionConfig(n=n, varnames=default_variable_names(n), ordering=degrevlex(n), **kw)


def test_parse_basic_polynomial():
    f = parse_polynomial("x1^2*x2 - 3/2*x3", _config())
    assert f == Polynomial(3, {(2, 1, 0): 1, (0, 0, 1): "-3/2"})


def test_parse_rejects_parentheses():
    with pytest.raises(CliError) as err:
        parse_polynomial("x*(x-w)", _config(4))
    assert "position" in str(err.value)


def test_parse_zero():
    assert parse_polynomial("0", _config()).is_zero()
    assert parse_polynomial("x1 - x1", _config()).is_zero()


def test_parse_unknown_variable():
    with pytest.raises(CliError):
        parse_polynomial("x9", _config(2))


def test_parse_zero_denominator():
    with pytest.raises(CliError):
        parse_polynomial("1/0*x1", _config(2))


def test_parse_aliases_for_small_rings():
    f = parse_polynomial("x*y - w^2", _config(4))
    assert f == Polynomial(4, {(1, 1, 0, 0): 1, (0, 0, 0, 2): -1})


def test_parse_requires_explicit_star():
    with pytest.raises(CliError):
        parse_polynomial("2x1", _config(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 30))
def test_parse_print_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    config = _config(n)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        c = rng.randint(-9, 9)
        d = rng.randint(1, 5)
        if c:
            terms[e] = "%d/%d" % (c, d)
    f = Polynomial(n, terms)
    text = poly_to_string(f, config.varnames, config.ordering)
    assert parse_polynomial(text, config) == f


def test_gin_subcommand_json(capsys):
    code = main(
        [
            "gin",
            "--n",
            "3",
            "--ord",
            "drl",
            "--ideal",
            "x1^2, x1*x2, x2^2, x2*x3",
            "--seed",
            "7",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["gens"] == ["x1^2", "x1*x2", "x2^2", "x1*x3"]
    assert doc["result"]["agreed"] is True
    assert doc["ring"] == {"n": 3, "vars": ["x1", "x2", "x3"]}


def test_gin_under_a_variable_swapping_ordering_is_not_suspicious(capsys):
    argv = ["gin", "--n", "2", "--ord", "matrix:[[0,1],[1,0]]", "--ideal", "x1*x2", "--format", "json"]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["gens"] == ["x2^2"]
    assert doc["result"]["suspicious"] is False


def test_suspicious_gin_exits_1(monkeypatch, capsys):
    real_gin = cli.gin
    monkeypatch.setattr(cli, "gin", lambda *a, **kw: dataclasses.replace(real_gin(*a, **kw), suspicious=True))
    code = main(["gin", "--n", "2", "--ideal", "x1^2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["result"]["suspicious"] is True
    assert captured.err.startswith("fail:")


def test_internal_error_exits_4(monkeypatch, capsys):
    # an OSError is a usage error only where an input file is opened
    for planted, message in ((KeyError("planted"), "KeyError: 'planted'"), (OSError("planted"), "OSError: planted")):

        def broken_gin(*args, **kwargs):
            raise planted

        monkeypatch.setattr(cli, "gin", broken_gin)
        code = main(["gin", "--n", "2", "--ideal", "x1^2"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INTERNAL == 4
        assert "Traceback" in err
        assert err.rstrip().endswith("internal error: " + message)


def test_ambiguous_gin_exits_3(monkeypatch, capsys):
    def ambiguous_gin(*args, **kwargs):
        raise AmbiguousGinError("planted")

    monkeypatch.setattr(cli, "gin", ambiguous_gin)
    assert main(["gin", "--n", "2", "--ideal", "x1^2"]) == cli.EXIT_INCONCLUSIVE == 3
    assert capsys.readouterr() == ("", "inconclusive: planted\n")


def test_verify_construction_failure_exits_1(monkeypatch, capsys):
    def no_matrix(*args, **kwargs):
        raise MatrixConstructionError("planted")

    monkeypatch.setattr(checks, "run_statement", no_matrix)
    assert main(["verify", "gindl", "--instances", "0"]) == cli.EXIT_FAIL == 1
    assert capsys.readouterr() == ("", "construction failure: planted\n")


@pytest.mark.parametrize("status, code", [(FAIL, 1), (INCONCLUSIVE, 3)])
def test_verify_exits_with_the_worst_status(monkeypatch, capsys, status, code):
    # both gindl fixtures answer ``status``; an inconclusive one is retried and answers it again
    monkeypatch.setattr(checks, "gin_verdict", lambda *args: (None, status, {"reason": "planted"}))
    assert main(["verify", "gindl", "--instances", "0"]) == code
    captured = capsys.readouterr()
    assert [json.loads(line)["status"] for line in captured.out.splitlines()] == [status, status]
    assert captured.err == "summary: %s=2\n" % status


def test_output_byte_identical(capsys):
    argv = ["gin", "--n", "2", "--ideal", "x1^2, x1*x2, x2^2", "--seed", "3", "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_gb_and_in_subcommands(capsys):
    code = main(["gb", "--n", "2", "--ideal", "x1^2 - x2^2, x1*x2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["basis"] == ["x2^3", "x1^2 - x2^2", "x1*x2"]
    main(["in", "--n", "2", "--ideal", "x1^2 - x2^2, x1*x2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["gens"] == ["x2^3", "x1^2", "x1*x2"]


def test_closure_hilbert_betti_decompose(capsys):
    main(["closure", "--n", "4", "--mode", "stable", "--ideal", "x1*x2, x2*x3*x4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert "x2*x3*x4" in doc["result"]["gens"] and len(doc["result"]["gens"]) == 6

    main(["hilbert", "--n", "3", "--ideal", "x1^2, x1*x2, x2^2, x2*x3", "--dmax", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["values"] == [1, 3, 2, 2]
    main(["hilbert", "--n", "3", "--ideal", "x1^2, x1*x2, x2^2, x2*x3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["values"] == [1, 3, 2, 2, 2, 2, 2, 2, 2]

    main(["betti", "--n", "2", "--ideal", "x1, x2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["entries"] == [[0, 1, 2], [1, 2, 1]]

    main(["decompose", "--n", "3", "--ideal", "x1^2*x2^2, x1^2*x3^2, x2^2*x3^2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["result"]["components"]) == 3


def test_hilbert_refuses_a_dmax_beyond_its_bound(monkeypatch, capsys):
    """--dmax asks for dmax + 1 values: at most HILBERT_VALUES, or a usage
    error before any value is computed.  The ideal's degree has the same
    bound."""
    args = ["hilbert", "--n", "2", "--ideal", "x1^2"]
    with monkeypatch.context() as m:
        m.setattr(cli, "hilbert", lambda *_: pytest.fail("a refused --dmax was computed"))
        for dmax in (cli.HILBERT_VALUES, 10**8):
            assert main(args + ["--dmax", str(dmax)]) == cli.EXIT_USAGE == 2
            assert capsys.readouterr() == ("", "error: --dmax %d asks for more than 1000000 values\n" % dmax)
        assert main(["hilbert", "--n", "3", "--ideal", "x1^1000000"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --ideal has degree 1000000, not below 1000000\n")
    assert main(args + ["--dmax", str(cli.HILBERT_VALUES - 1)]) == 0
    assert capsys.readouterr().out.split()[-3:] == ["2"] * 3


def test_distract_refuses_an_ideal_of_degree_beyond_the_bound(monkeypatch, capsys):
    """Each distracted generator is a product of as many linear forms as its
    degree: an ideal of degree HILBERT_VALUES or more is a usage error before
    any matrix is built, as for ``hilbert``."""
    with monkeypatch.context() as m:
        m.setattr(cli, "make_matrix", lambda *_, **__: pytest.fail("a refused ideal was distracted"))
        for exponent in (cli.HILBERT_VALUES, 99999999999):
            assert main(["distract", "--n", "2", "--ideal", "x1^%d" % exponent]) == cli.EXIT_USAGE
            assert capsys.readouterr() == ("", "error: --ideal has degree %d, not below 1000000\n" % exponent)
    assert main(["distract", "--n", "2", "--kind", "classic", "--N", "3", "--ideal", "x1^2*x2"]) == 0
    assert capsys.readouterr().out == "gens:\n  x1^2*x2 - x1*x2^2\n"


def test_saturate_and_intersect(capsys):
    main(["saturate", "--n", "3", "--ideal", "x^2, x*y, y^2, x*z", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["gens"] == ["x2^2", "x1"]
    # (x + y) (x, y, z) saturates to its linear factor
    main(["saturate", "--n", "3", "--ideal", "x^2 + x*y, x*y + y^2, x*z + y*z", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["gens"] == ["x1 + x2"]

    main(["intersect", "--n", "3", "--ideal", "x, y^2", "--ideal2", "x^2, y, z", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["result"]["gens"]) == {"x1^2", "x1*x2", "x2^2", "x1*x3"}

    assert main(["intersect", "--n", "2", "--ideal", "x1 + x2", "--ideal2", "x1 - x2, x1*x2"]) == 0
    assert capsys.readouterr().out == "gens: x1^2 - x2^2, x1*x2 + x2^2\n"


def test_monomial_input_ignores_coefficients(capsys):
    # over Q a coefficient does not change the ideal a monomial generates
    def output(command, *ideals):
        flags = [flag for name, ideal in zip(("--ideal", "--ideal2"), ideals) for flag in (name, ideal)]
        runs = []
        for extra in ([], ["--ord", "lex", "--format", "json"]):
            assert main([command, "--n", "3", *flags, *extra]) == 0
            runs.append(capsys.readouterr())
        return runs

    assert output("saturate", "2*x^2, x*y, 3*y^2*z") == output("saturate", "x^2, x*y, y^2*z")
    assert output("intersect", "-x, 5*y^2", "x^2, 1/2*y, z") == output("intersect", "x, y^2", "x^2, y, z")


def test_ideal_file_input(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("# generators\nx1^2\nx2^2  # tail comment\n\n", encoding="utf-8")
    code = main(["in", "--n", "2", "--ideal-file", str(path), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["gens"] == ["x1^2", "x2^2"]


def test_points_subcommand(capsys):
    code = main(
        ["points", "--n", "2", "--kind", "classic", "--N", "3", "--ideal", "x1^2, x1*x2, x2^2", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["points"] == ["0,0,1", "0,1,1", "1,0,1"]


def test_points_table_is_one_point_per_line(capsys):
    main(["points", "--n", "2", "--kind", "classic", "--N", "3", "--ideal", "x1^2, x1*x2, x2^2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0,0,1", "0,1,1", "1,0,1"]


def test_betti_of_the_unit_ideal(capsys):
    # the ring is free of rank 1 in degree 0; the table used to be empty
    assert main(["betti", "--n", "2", "--ideal", "1"]) == 0
    assert capsys.readouterr().out == "beta(0, 0) = 1\n"


def test_points_refuse_a_matrix_that_is_not_radical(capsys):
    # the refusal is a NotRadicalError, a ValueError, with the message it always had
    argv = ["points", "--n", "2", "--kind", "identical", "--N", "3", "--ideal", "x1^2, x1*x2, x2^2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: matrix is not radical for the extended ideal\n")


def test_usage_errors_exit_2(capsys):
    assert main(["gin", "--n", "2", "--ideal", "x*(x-w)"]) == 2
    assert main(["gin", "--n", "2"]) == 2  # no generators
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-statement"])
    assert exc.value.code == 2


def test_verify_refuses_a_negative_instance_count(capsys):
    # a negative count used to run the fixtures alone and exit 0
    assert main(["verify", "gcd", "--instances", "-3"]) == 2
    assert capsys.readouterr().err == "error: the number of instances must be nonnegative\n"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_only_ascii_digits_are_numbers(capsys, digit):
    assert main(["gin", "--n", "2", "--ideal", "x1^" + digit]) == 2
    assert capsys.readouterr().err == "error: syntax error at position 3: unexpected %r\n" % digit


def test_verify_counterexample_exits_zero(capsys):
    code = main(["verify", "counterexample", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert all(entry["status"] == "pass" for entry in lines)


def test_verify_all_golden_transcript(capsys):
    # the verifier's report lines (stdout) and summary (stderr), byte for byte
    code = main(["verify", "all", "--seed", "1", "--instances", "1"])
    captured = capsys.readouterr()
    golden = pathlib.Path(__file__).parent / "golden" / "verify_all-seed1.txt"
    assert code == 0
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("statement", ["points", "radical"])
def test_verify_statement_golden_transcript(capsys, statement):
    # 25 random instances each: the matrix searches, the point sets and the certification
    code = main(["verify", statement, "--seed", "3", "--instances", "25"])
    captured = capsys.readouterr()
    golden = GOLDEN / ("verify_%s-seed3.txt" % statement)
    assert code == 0
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")


def test_verify_all_golden_transcript_five_instances(capsys):
    # five random instances per statement, so the retry and the matrix searches run more than once
    code = main(["verify", "all", "--seed", "2", "--instances", "5"])
    captured = capsys.readouterr()
    golden = pathlib.Path(__file__).parent / "golden" / "verify_all-seed2.txt"
    assert code == 0
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")


def test_cli_pipeline_distract_then_gin_recovers_input(tmp_path, capsys):
    # distraction generators printed by one invocation parse back in another,
    # and the randomized gin of the distracted ideal recovers the input
    main(
        [
            "distract",
            "--n",
            "4",
            "--kind",
            "classic",
            "--N",
            "6",
            "--ideal",
            "x^5, x^4*y, x^4*z, x^3*y^2, x^2*y^3",
            "--format",
            "json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    path = tmp_path / "distracted.txt"
    path.write_text("\n".join(doc["result"]["gens"]) + "\n", encoding="utf-8")
    code = main(["gin", "--n", "4", "--ideal-file", str(path), "--seed", "3", "--format", "json"])
    doc2 = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc2["result"]["agreed"] is True
    assert doc2["result"]["gens"] == ["x1^5", "x1^4*x2", "x1^3*x2^2", "x1^2*x2^3", "x1^4*x3"]


def test_custom_variable_names(capsys):
    code = main(["in", "--n", "2", "--vars", "a,b", "--ideal", "a^2 - b^2, a*b", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["ring"]["vars"] == ["a", "b"]
    assert doc["result"]["gens"] == ["b^3", "a^2", "a*b"]


def test_matrix_ordering_flag(capsys):
    # the four-variable weight matrix accepted through the --ord flag
    code = main(
        [
            "in",
            "--n",
            "4",
            "--ord",
            "matrix:[[1,1,1,1],[0,0,0,-1],[1,0,0,0],[0,1,0,0]]",
            "--ideal",
            "x*z - w^2",
            "--format",
            "json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    # the weight matrix penalizes w, so x*z leads
    assert doc["result"]["gens"] == ["x1*x3"]
    assert doc["ordering"] == {"matrix": [[1, 1, 1, 1], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]}


def test_bad_ordering_matrix_rejected(capsys):
    assert main(["in", "--n", "2", "--ord", "matrix:[[1,1]]", "--ideal", "x1"]) == 2
    assert main(["in", "--n", "2", "--ord", "sillylex", "--ideal", "x1"]) == 2
    assert main(["gb", "--n", "2", "--ord", "matrix:[[0.9,1],[1,0]]", "--ideal", "x1+x2"]) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, n, rows",
    [
        ("gb", 3, "[[1,1],[1,0]]"),
        ("gin", 3, "[[1,1],[1,0]]"),
        ("gb", 2, "[[1,1,1],[1,0,0],[0,1,0]]"),
    ],
)
def test_ordering_matrix_width_must_match_n(capsys, command, n, rows):
    code = main([command, "--n", str(n), "--ord", "matrix:" + rows, "--ideal", "x1*x2"])
    assert code == 2
    assert "expected %d columns" % n in capsys.readouterr().err


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("GINFORGE_SEED", "7")
    main(["gin", "--n", "3", "--ideal", "x1^2, x1*x2, x2^2, x2*x3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == [7]


def render_case(argv) -> str:
    """One case of a CLI golden transcript: the command line, the exit code,
    then every stdout line tagged ``out|`` and every stderr line ``err|``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = [PROMPT + shlex.join(argv), "exit %d" % code]
    for tag, text in (("out", out.getvalue()), ("err", err.getvalue())):
        *body, tail = text.split("\n")
        lines += ["%s| %s" % (tag, line) for line in body]
        if tail:
            lines += ["%s| %s" % (tag, tail), "%s: no newline at end" % tag]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("cli-*.txt")), ids=lambda path: path.name)
def test_cli_golden_transcript(monkeypatch, path):
    # every command line of the transcript, replayed: exit code, stdout and stderr byte for byte
    monkeypatch.delenv("GINFORGE_SEED", raising=False)
    golden = path.read_text(encoding="utf-8")
    argvs = [shlex.split(line[len(PROMPT) :]) for line in golden.splitlines() if line.startswith(PROMPT)]
    assert argvs
    assert "\n".join(render_case(argv) for argv in argvs) == golden
