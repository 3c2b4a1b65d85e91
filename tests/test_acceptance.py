"""Acceptance gate: ten end-to-end criteria, one test and one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints
"AC<k> <name>: PASS|FAIL - detail".  AC8 asserts the gap between the
closed xi formula and the curves actually computed: the formula matches at
(1,1) only, and every curve fits 2*d0*d1 t - d0*d1*(d0+d1-4)/2.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from flatcert import (
    HilbertPolynomialQ,
    chi_graph,
    component_primes,
    conic_graph_identities,
    diagonal_ideal,
    family_ideal_J,
    flatness_certificate,
    gamma_curve_ideal,
    gauss_graph_ideal,
    incidence_form,
    is_groebner_basis,
    methods_agree,
    nonzerodivisor_check,
    primary_intersection_check,
    random_chart_point,
    run_xi_trials,
    special_fiber_ideal,
    torus_action_check,
    xi_formula,
    xy_universe,
)
from flatcert import quadfam
from flatcert.cli import main as cli_main
from flatcert.hilbert import (
    METHOD_INITIAL,
    METHOD_RANK,
    bigraded_hilbert_function,
    interpolate_hilbert_polynomial,
    tabulate_diagonal,
)


def report(k, name, ok, detail):
    print(f"AC{k} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def joint_orders(n):
    """The (n+1)! lex orders that permute the x and y indices together."""
    return [tuple(f"x{i}" for i in p) + tuple(f"y{i}" for i in p)
            for p in permutations(range(1, n + 2))]


def reference_key(order, uni):
    """The lex key of a permutation of x/y names, computed here so that AC1
    shares no order code with the kernel it referees."""
    perm = [uni.names.index(name) for name in order]
    return lambda e: tuple(e[i] for i in perm)


def shuffled_orders(seed=0, n=2, extra=3):
    """Lex orders on three seeded random permutations of the variables."""
    names = list(xy_universe(n).names)
    orders = []
    for k in range(extra):
        rng = random.Random(seed + k)
        perm = names[:]
        rng.shuffle(perm)
        orders.append(tuple(perm))
    return orders


def test_ac01_groebner_certificate():
    """Minors of [x;y] certify as a basis under every lex order that permutes
    x and y together and under three shuffled-name lex orders.  Every term
    order gives the minors the leading terms of one of the joint orders
    (see cli._run_verify_groebner), and the joint orders give (n+1)!
    pairwise distinct sets, so every configuration is checked."""
    checked = orders = 0
    for n in (1, 2, 3):
        ideal = diagonal_ideal(n)
        gens = ideal.generators
        joint = joint_orders(n)
        leads = {frozenset(max(g.terms, key=reference_key(order, ideal.universe)) for g in gens)
                 for order in joint}
        assert len(leads) == len(joint) == factorial(n + 1)
        for order in joint + shuffled_orders(seed=0, n=n):
            ok, spairs = is_groebner_basis(gens, order)
            assert ok, (n, order)
            assert all(sp["remainder_zero"] for sp in spairs)
            checked += len(spairs)
            orders += 1
    assert report(1, "universal basis certificate", True,
                  f"n=1..3, all 2+6+24 joint x/y lex orders and 3 shuffled ones each"
                  f" ({orders} orders), {checked} S-pairs reduced to zero")


def test_ac02_diagonal_hilbert_identity():
    """Diagonal counts match C(2t+n, n) by both routes; routes agree on a corpus."""
    for n in (1, 2, 3):
        ideal = diagonal_ideal(n)
        for t in range(7):
            want = comb(2 * t + n, n)
            assert bigraded_hilbert_function(ideal, t, t, METHOD_INITIAL) == want
            assert bigraded_hilbert_function(ideal, t, t, METHOD_RANK) == want
    corpus = [
        special_fiber_ideal(1), special_fiber_ideal(2), special_fiber_ideal(3),
        diagonal_ideal(1), diagonal_ideal(2),
        gauss_graph_ideal([[1, 0, 0], [0, 1, 0], [0, 0, 1]], xy_universe(2)),
    ]
    assert all(methods_agree(ideal, range(7)) for ideal in corpus)
    assert report(2, "diagonal Hilbert identity", True,
                  "C(2t+n,n) for n<=3, t<=6, both methods; corpus agreement")


def test_ac03_special_fiber_polynomial():
    """The degenerate fiber interpolates to the same polynomial as the graph."""
    rendered = []
    for n in (1, 2, 3):
        ideal = special_fiber_ideal(n)
        table = tabulate_diagonal(ideal, n + 6)
        poly = interpolate_hilbert_polynomial(table, dim_bound=n - 1)
        assert poly == chi_graph(n), (n, str(poly))
        for t in range(3, 6):
            assert bigraded_hilbert_function(ideal, t, t, METHOD_RANK) == poly.evaluate(t)
        rendered.append(str(poly))
    assert report(3, "special fiber polynomial", True, ", ".join(rendered))


@pytest.mark.parametrize("n", [1, 2])
def test_ac04_flatness_certificate(n):
    """Eight fibers (origin, all-ones, 3 generic, 3 degenerate) share one polynomial."""
    rng = random.Random(90 + n)
    extras = [random_chart_point(n, rng) for _ in range(3)]
    extras += [random_chart_point(n, rng, degenerate=True) for _ in range(3)]
    result = flatness_certificate(n, extra_points=tuple(extras), t_max=8)
    assert result.verdict == "PASS", result.divergent
    assert result.expected == chi_graph(n)
    assert len(result.fibers) == 8
    assert all(fb.matches for fb in result.fibers)
    degenerate = sum(1 for fb in result.fibers if not all(fb.point.d))
    assert degenerate >= 3
    assert report(4, f"flatness certificate n={n}", True,
                  f"8 fibers all fit {result.expected}")


def test_ac05_negative_control():
    """Dropping a generator must break the certificate and exit 1."""
    result = flatness_certificate(2, t_max=7, corrupt="drop-generator:1")
    assert result.verdict == "FAIL"
    assert result.divergent, "a divergent fiber must be named"
    labels = [fb.point.label() for fb in result.divergent]
    code = cli_main(["verify-flatness", "--n", "2", "--t-max", "7",
                     "--corrupt", "drop-generator:1", "--output", "/dev/null"])
    assert code == 1
    assert report(5, "negative control", True,
                  f"corrupted family diverges at {labels[0]}, exit 1")


def test_ac06_torus_equivariance():
    """Each family generator rescales by a c-monomial under the torus."""
    scalars = {}
    for n in (1, 2):
        rep = torus_action_check(n)
        assert rep.passed and rep.param_law_ok
        scalars[n] = rep.generator_scalars
    assert scalars[1] == ["1", "c1"]
    assert scalars[2] == ["1", "c1", "c1*c2", "c2"]
    assert report(6, "torus equivariance", True,
                  "symbolic scalars " + ", ".join(scalars[2]))


def test_ac07_primary_structure():
    """Component intersection identity plus the nonzerodivisor cross-check."""
    for n in (1, 2, 3, 4):
        assert primary_intersection_check(n), n
    ideal = special_fiber_ideal(2)
    mons = [g for g in ideal.generators if len(g.terms) == 1]
    primes = component_primes(2)
    assert nonzerodivisor_check(incidence_form(ideal.universe), mons, primes)
    assert not nonzerodivisor_check(ideal.universe.parse("x1"), mons, primes)
    assert report(7, "primary structure", True,
                  "intersection identity n<=4; x.y avoids every minimal prime")


def test_ac08_xi_formula_trials():
    """The Fermat witness: its numerator is the Koszul product, so every
    curve pair fits the curve's Hilbert polynomial (flagcut's theorem), and
    xi_formula misses it beyond (1,1) by an exact degree gap.

    With H1, H2 the hyperplane classes of P2 x P2* (H1^2 H2^2 = 1), the
    curve C = {f0=0} . {f1=0} . {x.y=0} has deg O(1,1)|C =
    (H1+H2)^2 . d0H1 . d1H2 = 2*d0*d1 and, by adjunction with
    K_C = O(d0-2, d1-2)|C, chi(O_C) = -d0*d1*(d0+d1-4)/2.  The closed
    formula xi = (d0+d1)t - d0*d1*(d0+d1-4)/2 has the same constant term
    but leading coefficient d0+d1, so it matches only at (1,1).  The
    report still measures the witness against xi_formula.
    """
    outcomes = []
    for d0, d1 in [(1, 1), (1, 2), (2, 2)]:
        curve = HilbertPolynomialQ.from_coefficients(
            [Fraction(-d0 * d1 * (d0 + d1 - 4), 2), 2 * d0 * d1])
        xi = xi_formula(d0, d1)
        rep = run_xi_trials(d0, d1)
        assert rep.numerator_identity
        assert rep.polynomial == curve, (d0, d1, str(rep.polynomial))
        assert rep.koszul_match
        # the miss is only in the degree coefficient
        assert xi.coefficients[0] == curve.coefficients[0]
        assert curve.coefficients[1] - xi.coefficients[1] == 2 * d0 * d1 - (d0 + d1)
        if (d0, d1) == (1, 1):
            assert rep.xi_match and rep.verdict == "PASS"
        else:
            assert not rep.xi_match and rep.verdict == "FAIL"
            # the Groebner-free rank oracle refits the witness
            table = tabulate_diagonal(gamma_curve_ideal(rep.witness), 6, METHOD_RANK)
            assert interpolate_hilbert_polynomial(table, dim_bound=1) == curve
        outcomes.append(f"({d0},{d1}) fit={curve} xi={xi} {'match' if rep.xi_match else 'miss'}")
    assert report(8, "xi formula trials", True,
                  "; ".join(outcomes) + " [numerator = Koszul product;"
                  " fit is 2*d0*d1 t - d0*d1*(d0+d1-4)/2]")


def test_ac09_conic_global_equations(monkeypatch):
    """The graph equations of the complete conic as three polynomial
    identities; with the factor 2 of the parametrization made 1, the
    parametrization identity must fail."""
    assert conic_graph_identities() == {"adjugate": True, "graph_minors": True,
                                        "parametrization": True}

    def factor_one(z, b, q):
        qq, bq = quadfam._bilinear(z, q, q), quadfam._bilinear(z, b, q)
        return [qq * b[k] - bq * q[k] for k in range(3)]

    monkeypatch.setattr(quadfam, "conic_parametrization", factor_one)
    assert not conic_graph_identities()["parametrization"]
    assert report(9, "conic global equations", True,
                  "3 identities over Q[z, x, b, q]; the factor-1 parametrization fails")


def test_ac10_determinism():
    """Same config and seed twice: byte-identical reports."""
    import io
    from contextlib import redirect_stdout

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    pairs = [
        ["verify-flatness", "--n", "1", "--t-max", "6", "--seed", "3"],
        ["xi-trials", "1", "1", "--trials", "3", "--seed", "11"],
        ["torus-check", "--n", "2"],
    ]
    for argv in pairs:
        assert capture(argv) == capture(argv), argv
    argv = [sys.executable, "-m", "flatcert", "verify-groebner", "--n", "2"]
    proc1 = subprocess.run(argv, capture_output=True)
    proc2 = subprocess.run(argv, capture_output=True)
    assert proc1.stdout == proc2.stdout and proc1.returncode == proc2.returncode == 0
    json.loads(proc1.stdout)
    assert report(10, "determinism", True,
                  "3 in-process suites and 1 subprocess suite byte-identical")
