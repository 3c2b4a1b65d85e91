"""Curves cut on the flag threefold and the degree-formula trials."""

import json
import random

import pytest

from flatcert import groebner
from flatcert import (
    METHOD_RANK,
    Ideal,
    PlaneCurvePair,
    gamma_curve_ideal,
    ideal_dimension,
    incidence_form,
    koszul_hilbert_polynomial,
    random_plane_curve,
    run_xi_trials,
    xi_formula,
    xy_universe,
)
from flatcert.cli import main
from flatcert.flagcut import CURVE_COEFF_BOUND
from flatcert.hilbert import (
    bigraded_hilbert_function,
    interpolate_hilbert_polynomial,
    tabulate_diagonal,
)

UNI = xy_universe(2)


def fit_gamma(pair, t_max=8, method=None):
    ideal = gamma_curve_ideal(pair)
    kwargs = {} if method is None else {"method": method}
    table = tabulate_diagonal(ideal, range(t_max + 1), **kwargs)
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


def test_random_curves_respect_block_and_degree():
    rng = random.Random(4)
    f = random_plane_curve(3, rng, block="x")
    assert f.bidegree() == (3, 0)
    g = random_plane_curve(2, rng, block="y")
    assert g.bidegree() == (0, 2)
    assert all(abs(c) <= CURVE_COEFF_BOUND for c in g.terms.values())
    with pytest.raises(ValueError):
        random_plane_curve(2, rng, block="z")


def test_random_curves_are_reproducible():
    a = random_plane_curve(2, random.Random(9))
    b = random_plane_curve(2, random.Random(9))
    assert a == b


def test_swap_symmetry():
    rng = random.Random(12)
    pair = PlaneCurvePair(random_plane_curve(1, rng), random_plane_curve(2, rng, block="y"))
    # the same curve with the two plane factors exchanged: f1 read in x, f0 in y
    swapped = PlaneCurvePair(
        UNI.parse("2*x1^2 - 5*x1*x2 + 3*x1*x3 - 9*x2^2 + 2*x2*x3 + 6*x3^2"),
        UNI.parse("6*y1 - y2 + 7*y3"))
    assert pair.f0 == UNI.parse("6*x1 - x2 + 7*x3")
    assert pair.f1 == UNI.parse("2*y1^2 - 5*y1*y2 + 3*y1*y3 - 9*y2^2 + 2*y2*y3 + 6*y3^2")
    assert swapped.degrees == (2, 1)
    # same Hilbert polynomial, the (1,2) Koszul count 4t+1
    assert str(fit_gamma(pair)) == str(fit_gamma(swapped)) == "4t+1"


def test_trials_on_lines_confirm_the_closed_formula():
    report = run_xi_trials(1, 1, trials=4, seed=0)
    assert report.passed
    assert report.xi_matches == 4 and report.koszul_matches == 4
    assert str(report.xi_expected) == "2t+1"
    assert all(r.retries == [] for r in report.records)


def test_trials_on_conics_report_the_discrepancy():
    report = run_xi_trials(2, 2, trials=2, seed=0)
    # every sampled fiber fits the Koszul count, never the closed formula
    assert report.koszul_matches == 2
    assert report.xi_matches == 0
    assert not report.passed
    assert str(report.koszul_expected) == "8t"
    assert str(report.xi_expected) == "4t"
    assert all(str(r.polynomial) == "8t" for r in report.records)


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
    report = run_xi_trials(2, 2, trials=2, seed=0)
    # the dimension check and the Hilbert table share one basis per draw
    assert len(buchberger_calls) == report.trials + report.total_retries


def test_short_table_is_one_draw_per_trial_and_inconclusive(buchberger_calls, capsys):
    # t = 0..3 cannot fix the (1,3) curve's polynomial: no trial redraws
    assert main(["xi-trials", "1", "3", "--t-max", "3", "--trials", "3"]) == 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert len(buchberger_calls) == 3
    assert [r["polynomial"] for r in report["records"]] == [None] * 3
    assert report["total_retries"] == 0 and not report["passed"]


def test_trials_are_deterministic_and_worker_independent():
    a = run_xi_trials(1, 2, trials=3, seed=5)
    b = run_xi_trials(1, 2, trials=3, seed=5)
    assert a.to_json_dict() == b.to_json_dict()
    assert [r.seed for r in a.records] == [r.seed for r in b.records]


def test_trials_json_shape():
    report = run_xi_trials(1, 1, trials=2, seed=1)
    d = report.to_json_dict()
    assert d["d0"] == 1 and d["trials"] == 2
    assert len(d["records"]) == 2
    rec = d["records"][0]
    assert {"index", "seed", "f0", "f1", "polynomial", "xi_match", "koszul_match"} <= set(rec)
