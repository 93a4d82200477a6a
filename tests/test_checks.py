import json

import pytest

from ginforge import checks, points
from ginforge.checks import (
    COUNTER_GIN_DISTRACTED,
    COUNTER_GIN_PLAIN,
    GENERIC_MATRIX_TRIES,
    STATEMENTS,
    _search_matrix,
    build_radical_witness,
    check_gcd_corollary,
    check_gindl,
    check_main_theorem,
    check_stable_pair_gins,
    check_sumprinc,
    layered_ideal_from_pairs,
    radical_verdict_report,
    radirred_certification_report,
    random_layered_stable_instance,
    run_statement,
    sufficiently_generic_matrix,
)
from ginforge.cli import main
from ginforge.distraction import make_matrix
from ginforge.groebner import PolyIdeal
from ginforge.monomial import MonomialIdeal, closure, stability_flags
from ginforge.polyring import Polynomial
from ginforge.reports import INCONCLUSIVE, CheckReport, report_line, worst_status
from oracles import random_layered_instance
import random


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("main", "x", "fail", (), None)  # fail needs a witness
    with pytest.raises(ValueError):
        CheckReport("main", "x", "bogus")
    r = CheckReport("main", "x", "pass", (1,))
    assert r.passed
    parsed = json.loads(report_line(r))
    assert parsed["statement"] == "main" and parsed["status"] == "pass"


def test_worst_status_ordering():
    mk = lambda s: CheckReport("main", "x", s, (), None if s == "pass" else {"r": 1})
    assert worst_status([mk("pass"), mk("skipped")]) == "skipped"
    assert worst_status([mk("pass"), mk("inconclusive"), mk("fail")]) == "fail"


def test_main_theorem_fixture():
    I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    report = check_main_theorem(I, sufficiently_generic_matrix(2, 3, seed=1))
    assert report.passed


def test_main_theorem_skips_outside_hypotheses():
    stable_not_strong = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    report = check_main_theorem(stable_not_strong, sufficiently_generic_matrix(3, 3, seed=2))
    assert report.status == "skipped"
    assert "strongly stable" in report.witness["reason"]


def test_gindl_with_identical_matrix_is_fixed_point_case():
    I = closure(3, [(0, 2, 1)], "strongly_stable")
    report = check_gindl(I, make_matrix("identical", 3, 2), seed=5, trials=2)
    assert report.passed


def test_stable_pair_fixture():
    assert check_stable_pair_gins(seed=1, trials=3).passed


def test_counterexample_gins_differ_in_one_generator_each():
    # the sharp instance: distraction trades x1*x3^2*x4 for x2^2*x3*x4 among the minimal generators
    plain, distracted = MonomialIdeal(4, COUNTER_GIN_PLAIN).gens, MonomialIdeal(4, COUNTER_GIN_DISTRACTED).gens
    assert set(plain) - set(distracted) == {(1, 0, 2, 1)}
    assert set(distracted) - set(plain) == {(0, 2, 1, 1)}


def test_matrix_search_keeps_the_first_accepted_draw():
    drawn = []

    def draw():
        drawn.append(len(drawn))
        return drawn[-1]

    assert _search_matrix(draw, lambda k: k >= 3) == 3
    assert drawn == [0, 1, 2, 3]
    drawn.clear()
    assert _search_matrix(draw, lambda k: False) is None
    assert drawn == list(range(GENERIC_MATRIX_TRIES))


def test_layered_instances_respect_hypotheses():
    rng = random.Random(3)
    for _ in range(10):
        I, pairs = random_layered_stable_instance(rng, rng.choice((2, 3, 4)))
        assert stability_flags(I)[0]
        twin = layered_ideal_from_pairs(I.n, pairs)
        assert stability_flags(twin)[0]
    for _ in range(10):
        assert stability_flags(random_layered_instance(rng, rng.choice((2, 3, 4))))[0]


def test_layered_pairs_witness_off_equal_totals():
    # With unequal layer totals the (degree, exponent) pairs do not determine
    # the Hilbert function: the early (x1)^3 layer prunes the later layer's
    # minimal generators differently for t_3 = x1*x2 than for t_3 = x1^2.
    from ginforge.checks import layered_ideal
    from ginforge.monomial import hilbert

    I = layered_ideal(3, [(0, 0, 0), (0, 0, 0), (1, 1, 0)], [3, 5, 3])
    twin = layered_ideal_from_pairs(3, ((0, 3), (0, 5), (2, 3)))
    assert stability_flags(I)[0] and stability_flags(twin)[0]
    assert hilbert(I, 6) != hilbert(twin, 6)


def test_radical_verdicts_and_certification():
    assert radical_verdict_report(seed=1).passed
    I = MonomialIdeal(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    L = make_matrix("generic", 3, 2, rng_seed=9)
    assert radirred_certification_report(I, L).passed


def test_radical_witness_trivial_case():
    J, report = build_radical_witness(PolyIdeal.from_monomial(MonomialIdeal(2, [(1, 0)])), False, seed=4, trials=2)
    assert report.passed
    assert J is not None and len(J.generators) == 1 and J.generators[0].degree() == 1


def test_radical_witness_saturated_case():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]))
    J, report = build_radical_witness(I, True, seed=6, trials=2)
    assert report.passed


def test_radical_witness_depth_zero_skips_plain_route():
    I = PolyIdeal.from_monomial(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]))
    _, report = build_radical_witness(I, False, seed=6, trials=2)
    assert report.status == "skipped"


def test_hyperplane_check_on_strongly_stable_monomial_input():
    # coordinate case: both sides collapse to the truncated ideal
    from ginforge.checks import check_hyperplane_theorem
    from ginforge.polyring import degrevlex

    I = closure(3, [(1, 1, 1)], "strongly_stable")
    report = check_hyperplane_theorem(PolyIdeal.from_monomial(I), degrevlex(3), 3, seed=4, trials=2)
    assert report.passed


def test_sumprinc_fixture():
    L = make_matrix("classic", 2, 3)
    assert check_sumprinc((1, 1), L, seed=3, trials=2).passed
    # pure powers collapse to the fixed-point case
    assert check_sumprinc((3, 0), L, seed=3, trials=2).passed


def test_gcd_corollary_fixture():
    J = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
    F = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    L = make_matrix("classic", 3, 3)
    report = check_gcd_corollary(J, 1, F, L, seed=2, trials=2)
    assert report.passed


def test_gcd_corollary_degree_zero_reduces_to_distraction_case():
    J = MonomialIdeal(2, [(2, 0), (1, 1)])
    L = make_matrix("classic", 2, 3)
    one = Polynomial.constant(2, 1)
    assert check_gcd_corollary(J, 0, one, L, seed=2, trials=2).passed


def test_gcd_corollary_skips_bad_factor():
    J = MonomialIdeal(2, [(1, 0), (0, 1)])
    L = make_matrix("classic", 2, 2)
    inhomogeneous = Polynomial(2, {(1, 0): 1, (0, 0): 1})
    assert check_gcd_corollary(J, 1, inhomogeneous, L, seed=2).status == "skipped"


def test_reports_reproducible_bit_for_bit():
    a = run_statement("gindl", seed=12, instances=2, trials=2)
    b = run_statement("gindl", seed=12, instances=2, trials=2)
    assert [report_line(r) for r in a] == [report_line(r) for r in b]


def test_unknown_statement_rejected():
    with pytest.raises(ValueError):
        run_statement("nope", seed=0, instances=1)


def test_every_randomized_check_goes_through_the_retry(monkeypatch):
    # every gin answers inconclusive: each such report must be one the retry
    # returned, fixtures (the displayed sections, the radical witnesses) too
    def inconclusive(*args):
        return None, INCONCLUSIVE, {"reason": "planted"}

    monkeypatch.setattr(checks, "gin_verdict", inconclusive)
    monkeypatch.setattr(points, "gin_verdict", inconclusive)
    retried = []
    with_retry = checks._with_retry

    def recording(*args, **kwargs):
        retried.append(with_retry(*args, **kwargs))
        return retried[-1]

    monkeypatch.setattr(checks, "_with_retry", recording)
    for name in STATEMENTS:
        reports = run_statement(name, seed=1, instances=1)
        returned = {id(r) for r in retried}
        escaped = [r.instance_description for r in reports if r.status == INCONCLUSIVE and id(r) not in returned]
        assert not escaped, "%s: inconclusive without retry: %s" % (name, escaped)
        assert name == "main" or any(r.status == INCONCLUSIVE for r in reports), name


def test_hyperplane_section_fixture_is_retried_at_seed_59():
    # seed 60 leaves the W-ordering generic section non-unanimous; its retry
    # at 60 + 7919 passes
    reports = run_statement("hyperplane", seed=59, instances=0)
    assert [r.status for r in reports] == ["pass"] * 4
    assert reports[0].instance_description == "W ordering, generic section"
    assert reports[0].seeds == (7979,)
    assert main(["verify", "hyperplane", "--seed", "59"]) == 0
