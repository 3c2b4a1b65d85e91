"""The quadric family: charts, fibers, torus action, and flatness."""

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from flatcert import quadfam
from flatcert import (
    ChartPoint,
    HilbertPolynomialQ,
    Ideal,
    apply_corruption,
    bigraded_hilbert_function,
    chi_graph,
    closed_orbit_limit_check,
    component_primes,
    conic_graph_identities,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    family_universe,
    fiber_matrix,
    flatness_certificate,
    gauss_graph_ideal,
    incidence_form,
    nonzerodivisor_check,
    polynomial_text,
    primary_intersection_check,
    primed_coordinates,
    random_chart_point,
    special_fiber_ideal,
    torus_action_check,
    xy_universe,
)
from flatcert.cli import main as cli_main
from flatcert.hilbert import rank_matrix_shape
from flatcert.util import mat_mul


# --- value types ---

def test_chart_point_constructors_and_json():
    sp = ChartPoint.special(2)
    assert sp.to_json_dict() == {"u": [[0], [0, 0]], "d": [0, 0]}
    assert not all(sp.d)
    ones = ChartPoint.all_ones(2)
    assert all(ones.d)
    assert ones.label() == "(u=[0;0,0], d=(1,1))"
    back = ChartPoint.from_json_dict(ones.to_json_dict())
    assert back == ones
    made = ChartPoint.from_strict_lower([[Fraction(3)], [Fraction(4), Fraction(-8)]],
                                        [Fraction(-1), Fraction(8)])
    assert ChartPoint.from_json_dict(made.to_json_dict()) == made
    # d, then u by rows: the order of family_universe(2)'s parameters
    assert made.parameters() == (-1, 8, 3, 4, -8)
    assert family_universe(2).param_names == ("d1", "d2", "u2_1", "u3_1", "u3_2")
    rng = random.Random(5)
    for n in range(1, 6):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(i)]
                for i in range(1, n + 1)]
        d = [Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(n)]
        rational = ChartPoint.from_strict_lower(rows, d)
        assert ChartPoint.from_json_dict(rational.to_json_dict()) == rational


def test_value_types_refuse_float_and_bool():
    # exact rationals only, as in the ring: 0.1 is not 1/10
    for make in [lambda: ChartPoint.from_strict_lower([[True]], [Fraction(1, 10)]),
                 lambda: ChartPoint.from_strict_lower([[1]], [0.1]),
                 lambda: ChartPoint(((1, 0), (0.5, 1)), (1,))]:
        with pytest.raises(TypeError):
            make()


def test_chart_point_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ChartPoint.from_strict_lower([[Fraction(1), Fraction(2)]], [Fraction(1)])
    with pytest.raises(ValueError):
        ChartPoint.from_strict_lower([[Fraction(1)]], [Fraction(1), Fraction(2)])


def test_random_points_are_reproducible():
    a = random_chart_point(2, random.Random(7))
    b = random_chart_point(2, random.Random(7))
    assert a == b and all(a.d)
    assert not all(random_chart_point(2, random.Random(1), degenerate=True).d)


# --- the three base ideals ---

def test_diagonal_and_special_fiber_generators():
    texts = [polynomial_text(g) for g in diagonal_ideal(2).generators]
    assert texts == ["x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y3 - x3*y2"]
    texts = [polynomial_text(g) for g in special_fiber_ideal(2).generators]
    assert texts == ["x1*y2", "x1*y3", "x2*y3", "x1*y1 + x2*y2 + x3*y3"]


def test_gauss_graph_identity_quadric():
    ideal = gauss_graph_ideal([[1, 0], [0, 1]], xy_universe(1))
    texts = [polynomial_text(g) for g in ideal.generators]
    assert texts == ["x1*y1 + x2*y2", "-x1*y2 + x2*y1"]
    assert bigraded_hilbert_function(ideal, 3, 3) == 2


# --- the family and its fibers ---

def test_family_ideal_n1_expansion():
    J = family_ideal_J(1)
    texts = [polynomial_text(g) for g in J.generators]
    assert texts == [
        "x1*y1 + x2*y2",
        "-x1*y1*u2_1 + x1*y2 - x2*y1*d1 - x2*y1*u2_1^2 + x2*y2*u2_1",
    ]
    # x' = u^T x and y' = u^{-1} y, as column vectors
    assert [[polynomial_text(p) for p in v] for v in primed_coordinates(J.universe, 1)] == [
        ["x1 + x2*u2_1", "x2"], ["y1", "-y1*u2_1 + y2"]]


def test_family_generators_match_primed_coordinates():
    # rebuild the cancelled minors from x' = u^T x, y' = u^{-1} y directly
    uni = family_universe(2)
    xp, yp = primed_coordinates(uni, 2)
    inc = incidence_form(uni)
    d1, d2 = uni.parse("d1"), uni.parse("d2")
    scales = {(0, 1): d1, (0, 2): d1 * d2, (1, 2): d2}
    expected = [inc]
    for i in range(3):
        for j in range(i + 1, 3):
            expected.append(xp[i] * yp[j] - scales[(i, j)] * (yp[i] * xp[j]))
    got = list(family_ideal_J(2).generators)
    assert [polynomial_text(g) for g in got] == [polynomial_text(e) for e in expected]


@pytest.mark.parametrize("n", range(1, 7))
def test_unipotent_inverse(n):
    uni = family_universe(n)
    u = quadfam._unipotent_matrix(uni, n)
    product = mat_mul(u, quadfam._unipotent_inverse(u))
    assert product == [[uni.one() if i == j else uni.zero() for j in range(n + 1)]
                       for i in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2])
def test_specialization_identity(n):
    """At the origin chart point the family collapses to the special fiber."""
    J = family_ideal_J(n)
    fiber = evaluate_family_at(J, ChartPoint.special(n))
    target = special_fiber_ideal(n)
    got = {polynomial_text(g) for g in fiber.generators}
    want = set()
    for g in target.generators:
        want.add(polynomial_text(g))
        want.add(polynomial_text(-1 * g))
    assert got <= want
    # and the ideals agree exactly: a reduced basis under one order is unique
    assert fiber.groebner_basis() == target.groebner_basis()


@pytest.mark.parametrize("n", [1, 2])
def test_fiber_agrees_with_gauss_graph(n):
    rng = random.Random(11)
    for point in [ChartPoint.all_ones(n), random_chart_point(n, rng)]:
        fiber = evaluate_family_at(family_ideal_J(n), point)
        graph = evaluate_family_at(gauss_graph_ideal(fiber_matrix(n), family_universe(n)), point)
        assert fiber.groebner_basis() == graph.groebner_basis()
        for t in range(5):
            assert bigraded_hilbert_function(fiber, t, t) == bigraded_hilbert_function(graph, t, t)


@pytest.mark.parametrize("point_n", [2, 4])
def test_fiber_needs_a_point_of_the_same_n(point_n):
    with pytest.raises(ValueError, match=r"one value for each of the 9 parameters \(d1, .*\), got"):
        evaluate_family_at(family_ideal_J(3), ChartPoint.all_ones(point_n))


def test_fiber_matrix_values():
    def at(point):
        return [[entry.substitute(point.parameters()) for entry in row]
                for row in fiber_matrix(2)]

    def diagonal(values):
        return [[values[i] if i == j else 0 for j in range(3)] for i in range(3)]

    assert at(ChartPoint.special(2)) == diagonal((1, 0, 0))
    assert at(ChartPoint.all_ones(2)) == diagonal((1, 1, 1))
    # u = I leaves diag(1, d1, d1*d2): a zero ratio kills every later entry
    plain = [[0], [0, 0]]
    assert at(ChartPoint.from_strict_lower(plain, [0, 5])) == diagonal((1, 0, 0))
    assert at(ChartPoint.from_strict_lower(plain, [3, 4])) == diagonal((1, 3, 12))


@pytest.mark.parametrize("n", range(1, 6))
def test_gauss_graph_link_is_an_identity(n):
    """Over d != 0, J is the Gauss graph of A = u diag(a) u^T with
    a_j = d_1...d_{j-1}, as identities in Q[u, d][x, y]: with
    P_ij = y'_i a_j x'_j - y'_j a_i x'_i, P_ij = -a_i J_ij, and P_ij is
    the combination of the graph's minors G_kl by the 2x2 minors of u^{-1}."""
    uni = family_universe(n)
    J = family_ideal_J(n).generators
    G = gauss_graph_ideal(fiber_matrix(n), uni).generators
    assert J[0] == G[0] == incidence_form(uni)
    xp, yp = primed_coordinates(uni, n)
    uinv = quadfam._unipotent_inverse(quadfam._unipotent_matrix(uni, n))
    pairs = list(combinations(range(n + 1), 2))

    def minors(a):
        return [yp[i] * a[j] * xp[j] - yp[j] * a[i] * xp[i] for i, j in pairs]

    a = [uni.one()]
    for k in range(1, n + 1):
        a.append(a[-1] * uni.variable(f"d{k}"))
    P = minors(a)
    assert P == [-a[i] * J[1 + p] for p, (i, _) in enumerate(pairs)]
    for (i, j), p_ij in zip(pairs, P):
        assert p_ij == sum((G[1 + q] * (uinv[i][k] * uinv[j][l] - uinv[i][l] * uinv[j][k])
                            for q, (k, l) in enumerate(pairs)), uni.zero())
    # negative control: one extra factor d1 in a_{n+1} breaks the first identity
    bad = [*a[:-1], a[-1] * uni.variable("d1")]
    assert minors(bad) != [-bad[i] * J[1 + p] for p, (i, _) in enumerate(pairs)]


# --- torus action ---

@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_action_symbolic(n):
    report = torus_action_check(n)
    assert report.passed and report.param_law_ok
    # scalar for minor (i, j) is c_i ... c_{j-1}; incidence is fixed
    want = ["1"]
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            name = "*".join(f"c{k}" for k in range(i, j))
            want.append(name)
    assert report.generator_scalars == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_orbit_limit(n):
    assert closed_orbit_limit_check(n)


# (variable, wrong weight): d_k moved by c_k instead of c_k^2, or a u entry not moved
WRONG_WEIGHTS = [("d1", (1, 0)), ("d2", (0, 1)),
                 ("u2_1", (0, 0)), ("u3_1", (0, 0)), ("u3_2", (0, 0))]


@pytest.mark.parametrize("name,weight", WRONG_WEIGHTS, ids=[w[0] for w in WRONG_WEIGHTS])
def test_torus_checks_fail_on_a_wrong_weight(name, weight, monkeypatch):
    assert torus_action_check(2).passed and closed_orbit_limit_check(2)

    table = quadfam.torus_weights
    monkeypatch.setattr(quadfam, "torus_weights", lambda n: {**table(n), name: weight})
    symbolic = torus_action_check(2)
    assert not symbolic.passed and "not proportional" in symbolic.generator_scalars
    assert not symbolic.param_law_ok
    # c_k still sends d_k to 0 as c -> 0; an unmoved u entry stays put at
    # every chart point where it is nonzero, so the limit check fails
    # without a point that happens to have that entry nonzero
    assert closed_orbit_limit_check(2) == name.startswith("d")


def test_torus_checks_reject_the_trivial_action(monkeypatch):
    # weight 0 everywhere fixes every generator, but it is not conjugation
    # by diag(gamma), so only the law catches it
    table = quadfam.torus_weights
    monkeypatch.setattr(quadfam, "torus_weights",
                        lambda n: {name: (0,) * n for name in table(n)})
    symbolic = torus_action_check(2)
    assert symbolic.generator_scalars == ["1"] * 4
    assert not symbolic.param_law_ok and not symbolic.passed
    assert not closed_orbit_limit_check(2)


# --- primary structure of the special fiber ---

def test_component_primes_and_minimal_primes():
    # with the intersection identity, distinct primes of one size that
    # contain one another nowhere are exactly the minimal primes
    assert component_primes(2) == [("y2", "y3"), ("x1", "y3"), ("x1", "x2")]
    for n in range(1, 9):
        primes = [set(p) for p in component_primes(n)]
        assert len(primes) == n + 1 and {len(p) for p in primes} == {n}
        assert all(not p <= q for p in primes for q in primes if p is not q), n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primary_intersection(n):
    assert primary_intersection_check(n)


def _special_monomials(n):
    return [g for g in special_fiber_ideal(n).generators if len(g.terms) == 1]


def test_nonzerodivisor_desk_values():
    uni = xy_universe(2)
    mons, primes = _special_monomials(2), component_primes(2)
    assert nonzerodivisor_check(incidence_form(uni), mons, primes)
    assert not nonzerodivisor_check(uni.parse("x1"), mons, primes)
    assert not nonzerodivisor_check(uni.parse("y3"), mons, primes)
    assert nonzerodivisor_check(uni.parse("x3"), mons, primes)
    assert nonzerodivisor_check(uni.parse("y1"), mons, primes)


def test_nonzerodivisor_check_raises_on_a_wrong_prime_list():
    # without P_0 = <y2, y3>, y2 avoids the primes left (y3 would not: it is
    # in P_1 = <x1, y3>), but y2 * x1 is in M, and the numerators see it
    uni = xy_universe(2)
    mons, primes = _special_monomials(2), component_primes(2)
    assert not nonzerodivisor_check(uni.parse("y2"), mons, primes)
    with pytest.raises(RuntimeError, match="disagree"):
        nonzerodivisor_check(uni.parse("y2"), mons, primes[1:])


def test_nonzerodivisor_on_coprime_generators():
    # <x1, y2, x2*y1> has pairwise coprime generators, and its numerator
    # (1 - s1)(1 - s2)(1 - s1*s2) has a cancelled s1*s2 term, which must not
    # be kept as a zero coefficient when the numerators are compared
    uni = xy_universe(1)
    f, mons = uni.parse("x2*y1"), [uni.parse("x1"), uni.parse("y2")]
    assert Ideal(uni, [*mons, f]).series_numerator() == {
        (0, 0): 1, (1, 0): -1, (0, 1): -1, (2, 1): 1, (1, 2): 1, (2, 2): -1}
    assert nonzerodivisor_check(f, mons, [("x1", "y2")])
    assert not nonzerodivisor_check(uni.parse("x1*y1"), mons, [("x1", "y2")])


# --- the complete-conics graph ---

def test_conic_matrix_identity():
    assert conic_graph_identities() == {"adjugate": True, "graph_minors": True,
                                        "parametrization": True}


def test_cross_product_adjugate_over_fractions():
    # det(b) = 1, so b adj(b) = I
    b = [[Fraction(2), Fraction(0), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)]]
    assert mat_mul(b, quadfam._adjugate(b)) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    # b and the conic's z are symmetric, where adj and its transpose agree;
    # c is not, and det(c) = 25
    c = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(3)],
         [Fraction(4), Fraction(0), Fraction(1)]]
    assert mat_mul(c, quadfam._adjugate(c)) == [
        [Fraction(25 if i == j else 0) for j in range(3)] for i in range(3)]


def _flip_one_cofactor(check):
    def flipped(z, w):
        w = [list(row) for row in w]
        w[0][1] = -w[0][1]
        return check(z, w)
    return flipped


def _parametrization_with_factor_one(z, b, q):
    qq, bq = quadfam._bilinear(z, q, q), quadfam._bilinear(z, b, q)
    return [qq * b[k] - bq * q[k] for k in range(3)]


_graph_minors_vanish = quadfam._graph_minors_vanish
# identity -> the quadfam name to patch and its broken stand-in
CONIC_MUTATIONS = {
    "adjugate": ("_adjugate_identity", _flip_one_cofactor(quadfam._adjugate_identity)),
    "graph_minors": ("_graph_minors_vanish", lambda z, w, x: _graph_minors_vanish(z, z, x)),
    "parametrization": ("conic_parametrization", _parametrization_with_factor_one),
}


@pytest.mark.parametrize("identity", sorted(CONIC_MUTATIONS))
def test_a_mutated_conic_identity_fails(identity, monkeypatch):
    monkeypatch.setattr(quadfam, *CONIC_MUTATIONS[identity])
    assert conic_graph_identities() == {name: name != identity for name in CONIC_MUTATIONS}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["conic-equations"]) == 1
    assert json.loads(out.getvalue())["report"]["passed"] is False


# --- flatness certificates ---

def test_flatness_certificate_n1():
    report = flatness_certificate(1, t_max=6)
    assert report.verdict == "PASS"
    assert report.expected == chi_graph(1)
    assert all(fb.matches for fb in report.fibers)
    assert report.divergent == []


def test_flatness_certificate_n2_with_extra_point():
    extra = ChartPoint.from_strict_lower(
        [[Fraction(2)], [Fraction(-1), Fraction(3)]], [Fraction(1), Fraction(-2)]
    )
    report = flatness_certificate(2, extra_points=(extra,), t_max=7)
    assert report.verdict == "PASS"
    assert report.expected == chi_graph(2)
    assert len(report.fibers) >= 3
    assert {fb.dimension for fb in report.fibers} == {1}
    d = report.to_json_dict()
    assert d["verdict"] == "PASS" and d["n"] == 2


def test_flatness_certificate_default_t_max_fits_n_8():
    # the library default follows the command line's: max(8, n + 1), so the
    # n = 8 fit gets the n + 2 samples that a flat fiber of dimension 7 needs
    report = flatness_certificate(8)
    assert report.t_max == 9
    assert report.verdict == "PASS"


def test_flatness_detects_corruption():
    report = flatness_certificate(2, t_max=7, corrupt="drop-generator:1")
    assert report.verdict == "FAIL"
    assert report.divergent
    assert any(not fb.matches for fb in report.fibers)


@pytest.mark.parametrize("method", ["initial", "rank"])
def test_unit_fiber_has_the_zero_polynomial(method):
    # no dimension, an all-zero table: the fit of degree 0 is the polynomial 0
    uni = family_universe(1)
    check = quadfam._check_fiber(Ideal(uni, [uni.one()]), 0, ChartPoint.special(1), 4,
                                 method, chi_graph(1))
    assert (check.polynomial, check.dimension, check.failure) == (HilbertPolynomialQ(()), None, None)
    assert check.polynomial.stabilization_threshold == 0 and not check.matches


# --- straightened fibers ---

def _straightening_case(case: str) -> tuple[Ideal, ChartPoint]:
    """(J, point): a seeded point at n = 1..5 ("n3-degenerate"), a rational
    u ("rational"), or a J with one generator dropped ("drop-generator")."""
    if case == "rational":
        return family_ideal_J(3), ChartPoint.from_strict_lower(
            [[Fraction(1, 2)], [3, Fraction(-2, 3)], [0, 5, Fraction(7, 4)]],
            [2, 0, Fraction(-3, 5)])
    if case == "drop-generator":
        return (apply_corruption(family_ideal_J(3), "drop-generator:2"),
                random_chart_point(3, random.Random(5)))
    n, kind = int(case[1]), case[3:]
    rng = random.Random(38 + n)
    return family_ideal_J(n), random_chart_point(n, rng, degenerate=kind == "degenerate")


STRAIGHTENING_CASES = [f"n{n}-{kind}" for n in range(1, 6)
                       for kind in ("nondegenerate", "degenerate")] + ["rational", "drop-generator"]


def _at_identity(point: ChartPoint) -> ChartPoint:
    return ChartPoint.from_strict_lower([[0] * len(row) for row in point.rows], point.d)


@pytest.mark.parametrize("case", STRAIGHTENING_CASES)
def test_straightened_fiber_is_the_fiber_at_the_identity(case):
    """x -> u^-T x, y -> u y undoes the chart change: the fiber at (u, d)
    becomes the fiber at (I, d), term for term and in generator order."""
    J, point = _straightening_case(case)
    assert any(map(any, point.rows))
    straight = quadfam._straightened(evaluate_family_at(J, point), point)
    want = evaluate_family_at(J, _at_identity(point))
    assert straight.universe == want.universe
    assert [g.terms_sorted() for g in straight.generators] == \
        [g.terms_sorted() for g in want.generators]


@pytest.mark.parametrize("n", range(1, 6))
def test_straightening_at_the_identity_changes_nothing(n):
    rng = random.Random(n)
    for point in [ChartPoint.special(n), ChartPoint.all_ones(n),
                  _at_identity(random_chart_point(n, rng, degenerate=True))]:
        fiber = evaluate_family_at(family_ideal_J(n), point)
        assert list(quadfam._straightened(fiber, point).generators) == list(fiber.generators)


@pytest.mark.parametrize("case", [c for c in STRAIGHTENING_CASES if c[:2] in ("n1", "n2", "n3")]
                         + ["rational", "drop-generator"])
def test_straightening_keeps_the_hilbert_series_and_the_rank_budget(case):
    """The unstraightened fiber is the referee: the same Hilbert-series
    numerator.  The rank route's budget reads the Koszul-pruned shape, which
    follows lex leading terms.  On a correct J the shape is the same; with
    generator 2 dropped it is smaller from t = 3 on.  Either way it is the
    shape at (I, 0), the fiber every certificate checks first, so a
    MAX_MACAULAY_ENTRIES refusal still comes at that fiber with the same
    message."""
    J, point = _straightening_case(case)
    fiber = evaluate_family_at(J, point)
    straight = quadfam._straightened(fiber, point)
    first = evaluate_family_at(J, ChartPoint.special(point.n))
    assert straight.series_numerator() == fiber.series_numerator()
    for t in range(6):
        (rows, cols), (referee_rows, referee_cols) = (rank_matrix_shape(straight, t),
                                                      rank_matrix_shape(fiber, t))
        assert (rows, cols) == rank_matrix_shape(first, t) and cols == referee_cols
        if case == "drop-generator" and t >= 3:
            assert rows < referee_rows
        else:
            assert rows == referee_rows


def test_apply_corruption_validation():
    J = family_ideal_J(1)
    dropped = apply_corruption(J, "drop-generator:0")
    assert len(dropped.generators) == len(J.generators) - 1
    with pytest.raises(ValueError):
        apply_corruption(J, "drop-generator:99")
    for bad in ("nonsense", "drop-generator:x", "drop-generator:-1", "drop-generator:"):
        with pytest.raises(ValueError, match="expected drop-generator:K"):
            apply_corruption(J, bad)
