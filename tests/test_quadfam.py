"""The quadric family: charts, fibers, torus action, and flatness."""

import random
from fractions import Fraction
from math import gcd

import pytest

from flatcert import quadfam
from flatcert import (
    ChartPoint,
    NondegeneracyRequiredError,
    SymmetricMatrixQ,
    TorusElement,
    apply_corruption,
    bigraded_hilbert_function,
    chi_graph,
    closed_orbit_limit_check,
    component_primes,
    conic_global_equations_check,
    conic_matrix_identity_symbolic,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    family_universe,
    fiber_matrix,
    find_rational_point,
    flatness_certificate,
    gauss_graph_ideal,
    incidence_form,
    leading_monomial,
    minimal_primes_of_monomial_ideal,
    nonzerodivisor_check,
    normal_form,
    polynomial_text,
    primary_intersection_check,
    primed_coordinates,
    proportionality_ratio,
    random_chart_point,
    random_conic_with_rational_point,
    random_torus_element,
    special_fiber_ideal,
    torus_action_check,
    xy_universe,
)


# --- value types ---

def test_symmetric_matrix_validation():
    with pytest.raises(ValueError):
        SymmetricMatrixQ.from_rows([[1, 2], [3, 4]])
    m = SymmetricMatrixQ.from_rows([[1, 2], [2, 5]])
    assert m.determinant() == 1
    assert m.is_nondegenerate()
    assert not SymmetricMatrixQ.diagonal((1, 0, 1)).is_nondegenerate()
    assert SymmetricMatrixQ.identity(3).to_json_dict() == {
        "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    }


def test_chart_point_constructors_and_json():
    sp = ChartPoint.special(2)
    assert sp.to_json_dict() == {"u": [[0], [0, 0]], "d": [0, 0]}
    assert not sp.is_nondegenerate()
    ones = ChartPoint.all_ones(2)
    assert ones.is_nondegenerate()
    assert ones.label() == "(u=[0;0,0], d=(1,1))"
    back = ChartPoint.from_json_dict(ones.to_json_dict())
    assert back == ones
    made = ChartPoint.from_strict_lower([[Fraction(3)], [Fraction(4), Fraction(-8)]],
                                        [Fraction(-1), Fraction(8)])
    assert ChartPoint.from_json_dict(made.to_json_dict()) == made


def test_chart_point_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ChartPoint.from_strict_lower([[Fraction(1), Fraction(2)]], [Fraction(1)])
    with pytest.raises(ValueError):
        ChartPoint.from_strict_lower([[Fraction(1)]], [Fraction(1), Fraction(2)])


def test_torus_element_gamma():
    c = TorusElement((Fraction(2), Fraction(3)))
    assert [c.gamma(j) for j in (1, 2, 3)] == [1, 2, 6]
    assert c.to_json_dict() == {"c": [2, 3]}


def test_random_points_are_reproducible():
    a = random_chart_point(2, random.Random(7))
    b = random_chart_point(2, random.Random(7))
    assert a == b and a.is_nondegenerate()
    assert random_chart_point(2, random.Random(1), degenerate=True).is_nondegenerate() is False
    t = random_torus_element(2, random.Random(3))
    assert all(v != 0 for v in t.c)


# --- the three base ideals ---

def test_diagonal_and_special_fiber_generators():
    texts = [polynomial_text(g) for g in diagonal_ideal(2).generators]
    assert texts == ["x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y3 - x3*y2"]
    texts = [polynomial_text(g) for g in special_fiber_ideal(2).generators]
    assert texts == ["x1*y2", "x1*y3", "x2*y3", "x1*y1 + x2*y2 + x3*y3"]


def test_gauss_graph_identity_quadric():
    ideal = gauss_graph_ideal(SymmetricMatrixQ.identity(2))
    texts = [polynomial_text(g) for g in ideal.generators]
    assert texts == ["x1*y1 + x2*y2", "-x1*y2 + x2*y1"]
    assert bigraded_hilbert_function(ideal, 3, 3) == 2


def test_gauss_graph_requires_smooth_quadric():
    with pytest.raises(NondegeneracyRequiredError):
        gauss_graph_ideal(SymmetricMatrixQ.diagonal((1, 0, 1)))


# --- the family and its fibers ---

def test_family_ideal_n1_expansion():
    J = family_ideal_J(1)
    texts = [polynomial_text(g) for g in J.generators]
    assert texts == [
        "x1*y1 + x2*y2",
        "-x1*y1*u2_1 + x1*y2 - x2*y1*d1 - x2*y1*u2_1^2 + x2*y2*u2_1",
    ]


def test_family_generators_match_primed_coordinates():
    # rebuild the cancelled minors from x' = u x, y' = (u^{-1})^T y directly
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
    # and the ideals agree exactly
    gb = target.groebner_basis()
    assert all(normal_form(g, gb).is_zero() for g in fiber.generators)
    gb2 = fiber.groebner_basis()
    assert all(normal_form(g, gb2).is_zero() for g in target.generators)


@pytest.mark.parametrize("n", [1, 2])
def test_fiber_agrees_with_gauss_graph(n):
    rng = random.Random(11)
    for point in [ChartPoint.all_ones(n), random_chart_point(n, rng)]:
        fiber = evaluate_family_at(family_ideal_J(n), point)
        graph = gauss_graph_ideal(fiber_matrix(point))
        gbf, gbg = fiber.groebner_basis(), graph.groebner_basis()
        assert all(normal_form(g, gbg).is_zero() for g in fiber.generators)
        assert all(normal_form(g, gbf).is_zero() for g in graph.generators)
        for t in range(5):
            assert bigraded_hilbert_function(fiber, t, t) == bigraded_hilbert_function(graph, t, t)


@pytest.mark.parametrize("point_n", [2, 4])
def test_fiber_needs_a_point_of_the_same_n(point_n):
    with pytest.raises(ValueError, match="does not assign exactly"):
        evaluate_family_at(family_ideal_J(3), ChartPoint.all_ones(point_n))


def test_fiber_matrix_values():
    assert fiber_matrix(ChartPoint.special(2)).to_json_dict() == {
        "entries": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    }
    assert fiber_matrix(ChartPoint.all_ones(2)) == SymmetricMatrixQ.identity(3)
    # u = I leaves diag(1, d1, d1*d2): a zero ratio kills every later entry
    plain = [[0], [0, 0]]
    assert fiber_matrix(ChartPoint.from_strict_lower(plain, [0, 5])) == \
        SymmetricMatrixQ.diagonal((1, 0, 0))
    assert fiber_matrix(ChartPoint.from_strict_lower(plain, [3, 4])) == \
        SymmetricMatrixQ.diagonal((1, 3, 12))


# --- torus action ---

@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_action_symbolic(n):
    report = torus_action_check(n)
    assert report.mode == "symbolic"
    assert report.passed and report.param_law_ok
    # scalar for minor (i, j) is c_i ... c_{j-1}; incidence is fixed
    want = ["1"]
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            name = "*".join(f"c{k}" for k in range(i, j))
            want.append(name)
    assert report.generator_scalars == want


def test_torus_action_numeric():
    report = torus_action_check(
        2, point=ChartPoint.all_ones(2), c=TorusElement((Fraction(2), Fraction(3)))
    )
    assert report.mode == "numeric"
    assert report.passed and report.param_law_ok
    assert report.generator_scalars == ["1", "2", "6", "3"]
    trivial = torus_action_check(
        2, point=ChartPoint.all_ones(2), c=TorusElement((Fraction(1), Fraction(1)))
    )
    assert trivial.generator_scalars == ["1", "1", "1", "1"]


@pytest.mark.parametrize("n", [1, 2])
def test_closed_orbit_limit(n):
    assert closed_orbit_limit_check(n, ChartPoint.all_ones(n))
    assert closed_orbit_limit_check(n, random_chart_point(n, random.Random(2)))


# (variable, wrong weight): d_k moved by c_k instead of c_k^2, or a u entry not moved
WRONG_WEIGHTS = [("d1", (1, 0)), ("d2", (0, 1)),
                 ("u2_1", (0, 0)), ("u3_1", (0, 0)), ("u3_2", (0, 0))]


@pytest.mark.parametrize("name,weight", WRONG_WEIGHTS, ids=[w[0] for w in WRONG_WEIGHTS])
def test_torus_checks_fail_on_a_wrong_weight(name, weight, monkeypatch):
    point = ChartPoint.from_strict_lower([[3], [4, -8]], [-1, 8])
    c = TorusElement((Fraction(7), Fraction(4)))
    assert torus_action_check(2).passed and torus_action_check(2, point, c).passed
    assert closed_orbit_limit_check(2, point)

    table = quadfam.torus_weights
    monkeypatch.setattr(quadfam, "torus_weights", lambda n: {**table(n), name: weight})
    symbolic = torus_action_check(2)
    numeric = torus_action_check(2, point, c)
    assert not symbolic.passed and "not proportional" in symbolic.generator_scalars
    assert not symbolic.param_law_ok
    assert not numeric.passed and not numeric.param_law_ok
    # c_k still sends d_k to 0 as c -> 0; an unmoved nonzero u entry stays put
    assert closed_orbit_limit_check(2, point) == name.startswith("d")


def test_torus_checks_reject_the_trivial_action(monkeypatch):
    # weight 0 everywhere fixes every generator, but it is not conjugation
    # by diag(gamma), so only the law catches it
    table = quadfam.torus_weights
    monkeypatch.setattr(quadfam, "torus_weights",
                        lambda n: {name: (0,) * n for name in table(n)})
    symbolic = torus_action_check(2)
    assert symbolic.generator_scalars == ["1"] * 4
    assert not symbolic.param_law_ok and not symbolic.passed
    numeric = torus_action_check(2, ChartPoint.all_ones(2),
                                 TorusElement((Fraction(2), Fraction(3))))
    assert numeric.generator_scalars == ["1"] * 4
    assert not numeric.param_law_ok and not numeric.passed
    assert not closed_orbit_limit_check(2, ChartPoint.all_ones(2))


# --- primary structure of the special fiber ---

def test_component_primes_and_minimal_primes():
    assert component_primes(2) == [("y2", "y3"), ("x1", "y3"), ("x1", "x2")]
    ideal = special_fiber_ideal(2)
    mons = [leading_monomial(g) for g in ideal.generators if len(g.terms) == 1]
    got = minimal_primes_of_monomial_ideal(ideal.universe, mons)
    assert sorted(got) == sorted(tuple(sorted(p)) for p in component_primes(2))


def test_minimal_primes_rejects_nonsquarefree():
    uni = xy_universe(1)
    with pytest.raises(ValueError):
        minimal_primes_of_monomial_ideal(uni, [leading_monomial(uni.parse("x1^2"))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primary_intersection(n):
    assert primary_intersection_check(n)


def test_nonzerodivisor_desk_values():
    ideal = special_fiber_ideal(2)
    uni = ideal.universe
    mons = [leading_monomial(g) for g in ideal.generators if len(g.terms) == 1]
    assert nonzerodivisor_check(incidence_form(uni), mons)
    assert not nonzerodivisor_check(uni.parse("x1"), mons)
    assert not nonzerodivisor_check(uni.parse("y3"), mons)
    assert nonzerodivisor_check(uni.parse("x3"), mons)
    assert nonzerodivisor_check(uni.parse("y1"), mons)


# --- conic helpers ---

def test_conic_matrix_identity():
    assert conic_matrix_identity_symbolic()


def test_rational_point_search():
    assert find_rational_point(SymmetricMatrixQ.diagonal((1, 1, -1))) == (-1, 0, -1)
    # x^2 + y^2 + z^2 = 0 has no real point at all
    assert find_rational_point(SymmetricMatrixQ.diagonal((1, 1, 1))) is None


def _cube_scan(z, height):
    """Reference search: the whole cube [-h, h]^3 at every height, keeping
    only its shell, in Fraction arithmetic."""
    m = [list(row) for row in z.entries]
    for h in range(1, height + 1):
        for a in range(-h, h + 1):
            for b in range(-h, h + 1):
                for c in range(-h, h + 1):
                    if max(abs(a), abs(b), abs(c)) != h or gcd(gcd(a, b), c) != 1:
                        continue
                    v = (Fraction(a), Fraction(b), Fraction(c))
                    if sum(m[i][j] * v[i] * v[j] for i in range(3) for j in range(3)) == 0:
                        return (a, b, c)
    return None


def test_rational_point_search_matches_cube_scan():
    rng = random.Random(11)
    conics = [SymmetricMatrixQ.diagonal((1, 1, 1)),
              SymmetricMatrixQ.diagonal((1, 1, -1)),
              SymmetricMatrixQ.from_rows([[Fraction(1, 2), Fraction(1, 3), 0],
                                          [Fraction(1, 3), -1, Fraction(-1, 5)],
                                          [0, Fraction(-1, 5), Fraction(3, 7)]])]
    for _ in range(16):
        v = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(6)]
        conics.append(SymmetricMatrixQ.from_rows([[v[0], v[1], v[2]],
                                                  [v[1], v[3], v[4]],
                                                  [v[2], v[4], v[5]]]))
    found = [find_rational_point(z, 5) for z in conics]
    assert found == [_cube_scan(z, 5) for z in conics]
    assert found[0] is None and found[1] == (-1, 0, -1)
    assert any(p is None for p in found[3:]) and any(p is not None for p in found[3:])
    assert find_rational_point(conics[0]) is None  # the full default height


def test_conic_global_equations():
    report = conic_global_equations_check(SymmetricMatrixQ.diagonal((1, 1, -1)),
                                          samples=6, seed=0)
    assert report.identity_ok and report.passed
    assert report.base_point == (-1, 0, -1)
    assert report.points_checked == 6 and not report.sampling_skipped
    # pointless conic: identity still holds, sampling skipped
    empty = conic_global_equations_check(SymmetricMatrixQ.diagonal((1, 1, 1)))
    assert empty.passed and empty.sampling_skipped and empty.points_checked == 0
    with pytest.raises(NondegeneracyRequiredError):
        conic_global_equations_check(SymmetricMatrixQ.diagonal((1, 1, 0)))


def test_random_conic_is_reproducible():
    a, tries_a = random_conic_with_rational_point(random.Random(5))
    b, tries_b = random_conic_with_rational_point(random.Random(5))
    assert a == b and tries_a == tries_b
    assert a.is_nondegenerate()
    assert find_rational_point(a) is not None


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


def test_flatness_detects_corruption():
    report = flatness_certificate(2, t_max=7, corrupt="drop-generator:1")
    assert report.verdict == "FAIL"
    assert report.divergent
    assert any(not fb.matches for fb in report.fibers)


def test_apply_corruption_validation():
    J = family_ideal_J(1)
    dropped = apply_corruption(J, "drop-generator:0")
    assert len(dropped.generators) == len(J.generators) - 1
    with pytest.raises(ValueError):
        apply_corruption(J, "drop-generator:99")
    for bad in ("nonsense", "drop-generator:x", "drop-generator:-1", "drop-generator:"):
        with pytest.raises(ValueError, match="expected drop-generator:K"):
            apply_corruption(J, bad)


def test_proportionality_ratio():
    uni = xy_universe(1)
    assert proportionality_ratio(uni.parse("2*x1*y2"), uni.parse("x1*y2")) == 2
    assert proportionality_ratio(uni.parse("x1*y1"), uni.parse("x1*y2")) is None
    with pytest.raises(ValueError):
        proportionality_ratio(uni.parse("x1"), uni.zero())
