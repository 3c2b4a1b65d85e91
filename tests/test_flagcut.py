"""Curves cut on the flag threefold and the Koszul count of the xi witness."""

import json

import pytest

from flatcert import flagcut, groebner
from flatcert import (
    METHOD_RANK,
    Ideal,
    PlaneCurvePair,
    fermat_pair,
    gamma_curve_ideal,
    ideal_dimension,
    incidence_form,
    koszul_hilbert_polynomial,
    run_xi_trials,
    xi_formula,
    xy_universe,
)
from flatcert.cli import main
from flatcert.groebner import _product_numerator
from flatcert.hilbert import (
    bigraded_hilbert_function,
    interpolate_hilbert_polynomial,
    tabulate_diagonal,
)

UNI = xy_universe(2)


def fit_gamma(pair, t_max=8, method=None):
    ideal = gamma_curve_ideal(pair)
    kwargs = {} if method is None else {"method": method}
    table = tabulate_diagonal(ideal, t_max, **kwargs)
    return interpolate_hilbert_polynomial(table, dim_bound=1)


def test_flag_threefold_hilbert_function():
    ideal = Ideal(UNI, [incidence_form(UNI)])
    assert [bigraded_hilbert_function(ideal, t, t) for t in range(4)] == [1, 8, 27, 64]
    assert [bigraded_hilbert_function(ideal, t, t, METHOD_RANK)
            for t in range(4)] == [1, 8, 27, 64]
    assert ideal_dimension(ideal) == 3


def test_pair_validation():
    with pytest.raises(ValueError):
        PlaneCurvePair(UNI.parse("y1"), UNI.parse("y2"))  # f0 not x-pure
    with pytest.raises(ValueError):
        PlaneCurvePair(UNI.parse("x1"), UNI.parse("x2"))  # f1 not y-pure
    with pytest.raises(ValueError):
        PlaneCurvePair(UNI.parse("x1 + x2^2"), UNI.parse("y1"))  # inhomogeneous
    with pytest.raises(ValueError):
        PlaneCurvePair(UNI.zero(), UNI.parse("y1"))
    pair = PlaneCurvePair(UNI.parse("x1^2 - x2*x3"), UNI.parse("y1"))
    assert pair.degrees == (2, 1)


def test_two_lines_give_a_conic_section():
    pair = PlaneCurvePair(UNI.parse("x1"), UNI.parse("y1"))
    assert ideal_dimension(gamma_curve_ideal(pair)) == 1
    assert str(fit_gamma(pair)) == "2t+1"
    # the rank route agrees without touching any basis computation
    assert str(fit_gamma(pair, t_max=6, method=METHOD_RANK)) == "2t+1"
    assert str(xi_formula(1, 1)) == "2t+1"


def test_line_and_conic():
    pair = PlaneCurvePair(UNI.parse("x1"), UNI.parse("y2^2 - y1*y3"))
    assert ideal_dimension(gamma_curve_ideal(pair)) == 1
    assert str(fit_gamma(pair)) == "4t+1"
    assert koszul_hilbert_polynomial(1, 2) == fit_gamma(pair)


def test_two_conics():
    pair = PlaneCurvePair(UNI.parse("x1^2 - x2*x3"), UNI.parse("y2^2 - y1*y3"))
    got = fit_gamma(pair)
    assert str(got) == "8t"
    assert koszul_hilbert_polynomial(2, 2) == got
    # the closed formula predicts 4t here; the computed fibers disagree
    assert xi_formula(2, 2) != got


def test_koszul_values():
    assert [str(koszul_hilbert_polynomial(*p))
            for p in [(1, 1), (1, 2), (2, 2), (2, 3)]] == [
        "2t+1", "4t+1", "8t", "12t-3"]
    assert koszul_hilbert_polynomial(1, 1) == xi_formula(1, 1)


@pytest.mark.parametrize("d0,d1", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_koszul_and_xi_share_constant_term(d0, d1):
    assert koszul_hilbert_polynomial(d0, d1).evaluate(0) == xi_formula(d0, d1).evaluate(0)


def test_swap_symmetry():
    # a (1,2) pair once drawn at random, and the same curve with the two
    # plane factors exchanged: f1 read in x, f0 in y
    pair = PlaneCurvePair(
        UNI.parse("6*x1 - x2 + 7*x3"),
        UNI.parse("2*y1^2 - 5*y1*y2 + 3*y1*y3 - 9*y2^2 + 2*y2*y3 + 6*y3^2"))
    swapped = PlaneCurvePair(
        UNI.parse("2*x1^2 - 5*x1*x2 + 3*x1*x3 - 9*x2^2 + 2*x2*x3 + 6*x3^2"),
        UNI.parse("6*y1 - y2 + 7*y3"))
    assert swapped.degrees == (2, 1)
    # same Hilbert polynomial, the (1,2) Koszul count 4t+1
    assert str(fit_gamma(pair)) == str(fit_gamma(swapped)) == "4t+1"


def koszul_product(d0, d1):
    """(1 - s1^d0)(1 - s2^d1)(1 - s1 s2) expanded term by term, zero
    coefficients dropped; written out apart from the library's product."""
    out = {}
    for a0, b0, c0 in [(0, 0, 1), (d0, 0, -1)]:
        for a1, b1, c1 in [(0, 0, 1), (0, d1, -1)]:
            for a2, b2, c2 in [(0, 0, 1), (1, 1, -1)]:
                key = (a0 + a1 + a2, b0 + b1 + b2)
                out[key] = out.get(key, 0) + c0 * c1 * c2
    return {key: c for key, c in out.items() if c}


def test_fermat_witness_has_the_koszul_numerator():
    pairs = [(d0, d1) for d0 in range(1, 26) for d1 in range(1, 26) if d0 * d1 <= 25]
    assert len(pairs) == 87
    for d0, d1 in pairs + [(10, 10)]:
        witness = fermat_pair(d0, d1)
        assert witness.degrees == (d0, d1)
        numerator = gamma_curve_ideal(witness).series_numerator()
        assert numerator == koszul_product(d0, d1), (d0, d1, numerator)
    # (1,1): the s1*s2 terms cancel, and no zero coefficient is kept
    assert koszul_product(1, 1) == {(0, 0): 1, (1, 0): -1, (0, 1): -1,
                                    (2, 1): 1, (1, 2): 1, (2, 2): -1}


def test_n1_control_is_not_the_koszul_product():
    # at n = 1, x.y = x1*y1 + x2*y2 lies in <x1, y2>: x.y, x1, y2 is not a
    # regular sequence, and the numerator is (1 - s1)(1 - s2) alone
    uni = xy_universe(1)
    ideal = Ideal(uni, [incidence_form(uni), uni.parse("x1"), uni.parse("y2")])
    numerator = ideal.series_numerator()
    assert numerator == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    assert numerator != koszul_product(1, 1)
    assert numerator != _product_numerator([(1, 0), (0, 1), (1, 1)])


def test_xi_equals_the_koszul_count_only_at_1_1():
    # d0 + d1 = 2*d0*d1 forces (2*d0 - 1)(2*d1 - 1) = 1
    for d0 in range(1, 31):
        for d1 in range(1, 31):
            same = xi_formula(d0, d1) == koszul_hilbert_polynomial(d0, d1)
            assert same == (d0 == d1 == 1), (d0, d1)
            assert same == ((2 * d0 - 1) * (2 * d1 - 1) == 1)


def test_trials_on_lines_confirm_the_closed_formula():
    report = run_xi_trials(1, 1)
    assert report.numerator_identity
    assert report.verdict == "PASS"
    assert report.xi_match and report.koszul_match
    assert str(report.xi_expected) == str(report.polynomial) == "2t+1"
    assert report.to_json_dict()["xi_matches"] == 1


def test_trials_on_conics_report_the_discrepancy():
    report = run_xi_trials(2, 2)
    # the witness fits the Koszul count, never the closed formula
    assert report.numerator_identity
    assert report.koszul_match and not report.xi_match
    assert report.verdict == "FAIL"
    assert str(report.koszul_expected) == str(report.polynomial) == "8t"
    assert str(report.xi_expected) == "4t"
    assert str(report.witness.f0) == "x1^2 + x2^2 + x3^2"
    assert str(report.witness.f1) == "y1^2 + y2^2 + y3^2"


def test_numerator_mismatch_fails_even_where_xi_fits(monkeypatch):
    # drop the (1,1) factor from the expected product: the identity fails
    # and the verdict is FAIL, although the fit still matches xi at (1,1)
    monkeypatch.setattr(flagcut, "_product_numerator",
                        lambda degrees: _product_numerator(degrees[:2]))
    report = run_xi_trials(1, 1)
    assert not report.numerator_identity and report.xi_match
    assert report.verdict == "FAIL"
    assert main(["xi-trials", "1", "1"]) == 1


@pytest.fixture()
def buchberger_calls(monkeypatch):
    """The orders of every groebner.buchberger call made during the test."""
    calls = []
    original = groebner.buchberger

    def counting(gens, order=None):
        calls.append(order)
        return original(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return calls


def test_one_completion_per_draw(buchberger_calls):
    run_xi_trials(2, 2)
    # the numerator, the dimension check and the Hilbert table share one basis
    assert len(buchberger_calls) == 1


def test_short_table_is_one_draw_per_trial_and_inconclusive(buchberger_calls, capsys):
    # t = 0..3 cannot fix the (1,3) curve's polynomial, whatever --trials says
    assert main(["xi-trials", "1", "3", "--t-max", "3", "--trials", "3"]) == 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert len(buchberger_calls) == 1
    assert [r["polynomial"] for r in report["records"]] == [None]
    assert report["records"][0]["numerator_identity"] and not report["passed"]


def test_trials_are_deterministic_and_worker_independent():
    a = run_xi_trials(1, 2)
    b = run_xi_trials(1, 2)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.witness == b.witness == fermat_pair(1, 2)


def test_trials_json_shape():
    d = run_xi_trials(1, 1).to_json_dict()
    assert sorted(d) == ["d0", "d1", "koszul_expected", "koszul_matches", "passed",
                         "records", "xi_expected", "xi_matches"]
    assert d["d0"] == 1 and len(d["records"]) == 1
    assert sorted(d["records"][0]) == ["f0", "f1", "koszul_match", "numerator_identity",
                                       "polynomial", "xi_match"]
