"""Ring arithmetic, parsing, and bidegree bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flatcert import (
    BiPolynomial,
    NonBihomogeneousError,
    ParseError,
    UniverseMismatchError,
    UnknownVariableError,
    family_ideal_J,
    family_universe,
    monomials_of_bidegree,
    parse_polynomial,
    polynomial_text,
    xy_universe,
)
from flatcert.groebner import monomial_divides

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
    with pytest.raises(ParseError):
        UNI.parse("x1**")
    with pytest.raises(ParseError):
        UNI.parse("x1 +")
    with pytest.raises(UnknownVariableError):
        UNI.parse("x1*z9")


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
    ms = monomials_of_bidegree(UNI, 1, 1)
    assert len(ms) == 9
    assert len(set(ms)) == 9
    assert all(m.bidegree == (1, 1) for m in ms)
    assert len(monomials_of_bidegree(UNI, 2, 0)) == 6
    assert len(monomials_of_bidegree(UNI, 0, 0)) == 1


def test_substitute_at_a_rational():
    f = UNI.parse("x1*y1 + 2*x2*y2")
    g = f.substitute({"x2": Fraction(3)})
    assert polynomial_text(g) == "x1*y1 + 6*y2"
    assert g.universe == UNI


def test_substitute_takes_only_known_names_and_rationals():
    f = UNI.parse("x1*y1 + 2*x2*y2")
    with pytest.raises(TypeError):
        f.substitute({"y2": UNI.parse("y1 + y3")})
    with pytest.raises(UnknownVariableError):
        f.substitute({"d1": Fraction(2)})
    assert f.substitute({}) is f


def test_substitute_drops_constant_params():
    fam = family_universe(1)
    f = fam.parse("d1*x1*y1")
    dropped = f.substitute({"x1": Fraction(1), "d1": Fraction(5)})
    assert polynomial_text(dropped) == "5*y1"
    assert "d1" not in dropped.universe.param_names


_rationals = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=5))


@given(st.lists(_rationals, min_size=5, max_size=5))
def test_substitute_in_steps_equals_substitute_at_once(values):
    J = family_ideal_J(2)
    d = dict(zip(("d1", "d2"), values))
    u = dict(zip(("u2_1", "u3_1", "u3_2"), values[2:]))
    for g in J.generators:
        at_once = g.substitute({**d, **u})
        assert at_once.universe.param_names == ()
        assert g.substitute(d).substitute(u) == at_once


def test_universe_mismatch_rejected():
    other = xy_universe(3)
    with pytest.raises(UniverseMismatchError):
        UNI.variable("x1") + other.variable("x1")


def test_universe_shape():
    assert UNI.num_xy == 6
    assert UNI.names[:3] == ("x1", "x2", "x3")
    fam = family_universe(2)
    assert "d1" in fam.param_names and "u3_2" in fam.param_names
    assert fam.parse("d1").bidegree() == (0, 0)


def test_monomial_divides():
    a, b = monomials_of_bidegree(UNI, 1, 0)[0], monomials_of_bidegree(UNI, 2, 0)[0]
    # x1 divides x1^2
    assert monomial_divides(a.exponents, b.exponents)
    assert not monomial_divides(b.exponents, a.exponents)
