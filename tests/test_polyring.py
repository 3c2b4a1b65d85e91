"""Ring arithmetic, parsing, and bidegree bookkeeping."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from flatcert import (
    BiPolynomial,
    VariableUniverse,
    family_ideal_J,
    family_universe,
    parse_polynomial,
    polynomial_text,
    xy_universe,
)
from flatcert.groebner import monomial_divides
from flatcert.quadfam import ChartPoint, evaluate_family_at, random_chart_point
from monomials import iter_exponents_of_bidegree

UNI = xy_universe(2)


def poly_strategy(universe=UNI, max_terms=4):
    names = list(universe.names)
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    term = st.tuples(
        coeff,
        st.lists(st.sampled_from(names), min_size=0, max_size=3),
    )

    def build(terms):
        total = universe.zero()
        for c, vs in terms:
            mono = universe.one()
            for v in vs:
                mono = mono * universe.variable(v)
            total = total + c * mono
        return total

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + UNI.zero() == f
    assert f * UNI.one() == f
    assert f - f == UNI.zero()


@given(poly_strategy())
def test_canonical_no_zero_coefficients(f):
    assert all(c != 0 for c in f.terms.values())
    assert f.is_zero() == (not f.terms)


@given(poly_strategy())
def test_text_parse_roundtrip(f):
    assert parse_polynomial(UNI, polynomial_text(f)) == f


def test_parse_basics():
    f = UNI.parse("x1*y1 - 3/2*x2*y2")
    assert polynomial_text(f) == "x1*y1 - 3/2*x2*y2"
    assert f.bidegree() == (1, 1)
    assert UNI.parse("0").is_zero()
    assert polynomial_text(UNI.parse("2*x1^3")) == "2*x1^3"
    # whitespace and explicit + both accepted
    assert UNI.parse(" x1 * y2 + x2*y1 ") == UNI.parse("x1*y2+x2*y1")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match=r"expected a factor, got '\*'"):
        UNI.parse("x1**")
    with pytest.raises(ValueError, match="dangling sign at end of input"):
        UNI.parse("x1 +")
    # juxtaposed terms need an operator between them: no implied '+'
    for text in ["x1 y1", "2 x1", "3 4", "x1*y2 x2*y1"]:
        with pytest.raises(ValueError, match=r"expected '\+' or '-' between terms"):
            UNI.parse(text)
    with pytest.raises(ValueError, match="unknown variable 'z9'"):
        UNI.parse("x1*z9")
    # a name looked up directly reads the same as one met in a parse
    with pytest.raises(ValueError, match="unknown variable 'z9'"):
        UNI.variable("z9")


def test_bidegree_of_mixed_polynomial_is_none():
    f = UNI.parse("x1 + y1")
    assert f.bidegree() is None


def test_bidegree_counts_blocks_separately():
    assert UNI.parse("x1^2*y3").bidegree() == (2, 1)
    assert UNI.parse("y1*y2").bidegree() == (0, 2)
    # params carry bidegree (0, 0)
    fam = family_universe(1)
    assert fam.parse("d1*x1*y2").bidegree() == (1, 1)
    assert fam.parse("u2_1^3").bidegree() == (0, 0)


def test_monomials_of_bidegree_count():
    # n+1 choices per block, with multiplicity: C(a+n, n) * C(b+n, n)
    ms = list(iter_exponents_of_bidegree(UNI, 1, 1))
    assert len(ms) == 9
    assert len(set(ms)) == 9
    assert all(UNI.bidegree_of(e) == (1, 1) for e in ms)
    assert len(list(iter_exponents_of_bidegree(UNI, 2, 0))) == 6
    assert len(list(iter_exponents_of_bidegree(UNI, 0, 0))) == 1


def test_substitute_takes_only_rationals():
    fam = family_universe(1)
    f = fam.parse("d1*x1*y1 + 2*u2_1*x2*y2")
    with pytest.raises(TypeError):
        f.substitute([UNI.parse("y1 + y3"), Fraction(1)])
    g = UNI.parse("x1*y1 + 2*x2*y2")
    assert g.substitute(()) == g


def test_substitute_assigns_exactly_the_parameters():
    # one value per parameter, in param_names order (d1, u2_1)
    fam = family_universe(1)
    f = fam.parse("d1*x1*y1 + u2_1*x2*y2")
    for bad in ((1, 2, 3), (1,), ()):
        with pytest.raises(ValueError, match=r"2 parameters \(d1, u2_1\), got"):
            f.substitute(bad)
    with pytest.raises(ValueError, match="0 parameters"):
        UNI.parse("x1*y1").substitute([Fraction(2)])
    assert polynomial_text(f.substitute((2, Fraction(-1, 3)))) == "2*x1*y1 - 1/3*x2*y2"


def test_scalars_are_ints_and_fractions_only():
    fam = family_universe(1)
    f = fam.parse("d1*x1*y1 + x2*y2")
    e = (1, 0, 0, 1, 0, 0)
    for bad in (True, False, 0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            f.substitute([bad, Fraction(1)])
        with pytest.raises(TypeError):
            BiPolynomial(UNI, {e: bad})
        with pytest.raises(TypeError):
            UNI.constant(bad)
        with pytest.raises(TypeError):
            f + bad
        with pytest.raises(TypeError):
            f * bad
        assert f != bad
    assert BiPolynomial(UNI, {e: 3}) == UNI.parse("3*x1*y1")
    assert UNI.constant(Fraction(1, 2)) == UNI.parse("1/2")


def reference_substitute(f, assignment):
    """(terms, universe) of f.substitute(assignment), for an assignment of
    every parameter, by the Fraction loop the integer kernel replaced: each
    coefficient times v**e for every parameter, then accumulated term by
    term over the x/y universe."""
    uni = f.universe
    values = {uni.index[name]: Fraction(v) for name, v in assignment.items()}
    target = VariableUniverse(uni.n, uni.x_names, uni.y_names)
    out = {}
    for exps, coeff in f.terms.items():
        for i, v in values.items():
            if exps[i]:
                coeff *= v ** exps[i]
        if not coeff:
            continue
        e = exps[:uni.num_xy]
        c = out.get(e)
        if c is None:
            out[e] = coeff
            continue
        c += coeff
        if c:
            out[e] = c
        else:
            del out[e]
    return out, target


def assert_matches_reference(f, assignment):
    g = f.substitute([assignment[p] for p in f.universe.param_names])
    terms, universe = reference_substitute(f, assignment)
    assert g.terms == terms
    assert g.universe == universe
    return g


FAM2 = family_universe(2)
# denominators 1..5 and the value 0, which kills every term it divides
_small_values = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=1, max_value=5))
_assignments = st.fixed_dictionaries({name: _small_values for name in FAM2.param_names})


@given(poly_strategy(FAM2, max_terms=8), _assignments)
def test_substitute_matches_reference_loop(f, assignment):
    assert_matches_reference(f, assignment)


@given(poly_strategy(FAM2), poly_strategy(FAM2), _small_values, _assignments)
def test_substitute_cancellation_matches_reference_loop(p, q, v, rest):
    # p * (d1 - v) vanishes at d1 = v, term by term after expansion
    f = p * (FAM2.variable("d1") - v) + q
    assignment = {**rest, "d1": v}
    g = assert_matches_reference(f, assignment)
    assert g == q.substitute([assignment[p] for p in FAM2.param_names])
    if q.is_zero():
        assert g.is_zero()


# the n=4 chart point of scripts/run_verification.py, with denominators 2..4
CHART_N4 = ChartPoint.from_strict_lower(
    [[3], [-4, Fraction(5, 3)], [7, -3, 4], [Fraction(5, 2), -6, 3, -8]],
    [3, Fraction(-7, 4), 5, 9])


def _rational_chart_point(n, rng):
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(i)]
            for i in range(1, n + 1)]
    d = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
    return ChartPoint.from_strict_lower(rows, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family_fibers_match_reference_loop(n):
    J = family_ideal_J(n)
    points = [random_chart_point(n, Random(seed)) for seed in range(2)]
    points += [random_chart_point(n, Random(n), degenerate=True),
               ChartPoint.special(n), _rational_chart_point(n, Random(n))]
    if n == 4:
        points.append(CHART_N4)
    for point in points:
        # built here, not from quadfam's name lists, so that the referee
        # shares no layout code with the code it checks
        assignment = {f"d{k}": v for k, v in enumerate(point.d, start=1)}
        for i, row in enumerate(point.rows, start=2):
            for j, v in enumerate(row, start=1):
                assignment[f"u{i}_{j}"] = v
        want = [reference_substitute(g, assignment) for g in J.generators]
        want = [(terms, uni) for terms, uni in want if terms]
        fiber = evaluate_family_at(J, point)
        assert [(g.terms, g.universe) for g in fiber.generators] == want


def test_universe_mismatch_rejected():
    other = xy_universe(3)
    with pytest.raises(ValueError, match="universes differ"):
        UNI.variable("x1") + other.variable("x1")


def test_universe_shape():
    assert UNI.num_xy == 6
    assert UNI.names[:3] == ("x1", "x2", "x3")
    fam = family_universe(2)
    assert "d1" in fam.param_names and "u3_2" in fam.param_names
    assert fam.parse("d1").bidegree() == (0, 0)


def test_monomial_divides():
    a, b = next(iter_exponents_of_bidegree(UNI, 1, 0)), next(iter_exponents_of_bidegree(UNI, 2, 0))
    # x1 divides x1^2
    assert monomial_divides(a, b)
    assert not monomial_divides(b, a)
