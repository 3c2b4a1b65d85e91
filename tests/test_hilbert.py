"""Hilbert functions two ways, interpolation, and the closed forms."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from flatcert import (
    BiMonomial,
    ChartPoint,
    HilbertPolynomialQ,
    Ideal,
    METHOD_INITIAL,
    METHOD_RANK,
    NoStabilizationError,
    NonBihomogeneousError,
    SymmetricMatrixQ,
    bigraded_hilbert_function,
    chi_graph,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    gauss_graph_ideal,
    ideal_dimension,
    interpolate_hilbert_polynomial,
    methods_agree,
    special_fiber_ideal,
    xi_formula,
    xy_universe,
)
from flatcert import hilbert
from flatcert.cli import parse_ideal_file
from flatcert.groebner import _integer_terms, monomial_mul
from flatcert.hilbert import (
    MAX_MACAULAY_ENTRIES,
    MacaulayBudgetError,
    binomial_basis_coordinates,
    normalize_method,
    rank_matrix_shape,
    tabulate_diagonal,
)
from flatcert.polyring import iter_exponents_of_bidegree
from flatcert.util import sparse_integer_rank


def test_chi_graph_closed_forms():
    assert [str(chi_graph(n)) for n in (1, 2, 3)] == ["2", "4t+1", "4t^2+4t+1"]
    assert chi_graph(2).evaluate(4) == 17
    assert chi_graph(3).evaluate(2) == 25
    assert chi_graph(1).degree == 0
    assert chi_graph(3).degree == 2


def test_xi_formula_values():
    assert str(xi_formula(1, 1)) == "2t+1"
    assert str(xi_formula(1, 2)) == "3t+1"
    assert str(xi_formula(2, 3)) == "5t-3"
    # (d0+d1)t - d0*d1*(d0+d1-4)/2 at a point
    assert xi_formula(2, 3).evaluate(10) == 50 - 3
    assert xi_formula(4, 4).evaluate(0) == -32


def test_xi_formula_rejects_nonpositive_degrees():
    with pytest.raises(ValueError):
        xi_formula(0, 4)
    with pytest.raises(ValueError):
        xi_formula(2, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chi_matches_gauss_graph_hilbert_function(n):
    # identity quadric: the graph's diagonal Hilbert function lands on chi(n)
    ideal = gauss_graph_ideal(SymmetricMatrixQ.identity(n + 1))
    poly = chi_graph(n)
    for t in range(1, 7):
        assert bigraded_hilbert_function(ideal, t, t) == poly.evaluate(t)


def test_methods_agree_on_corpus():
    corpus = [
        special_fiber_ideal(1),
        special_fiber_ideal(2),
        special_fiber_ideal(3),
        diagonal_ideal(1),
        diagonal_ideal(2),
        gauss_graph_ideal(SymmetricMatrixQ.identity(3)),
    ]
    for ideal in corpus:
        assert methods_agree(ideal, range(7))


def test_methods_agree_off_diagonal():
    ideal = special_fiber_ideal(1)
    for i in range(4):
        for j in range(4):
            a = bigraded_hilbert_function(ideal, i, j, method=METHOD_INITIAL)
            b = bigraded_hilbert_function(ideal, i, j, method=METHOD_RANK)
            assert a == b, (i, j, a, b)


def test_methods_agree_on_rational_coefficients():
    # generators with coefficients like 21/2: the rank route clears denominators
    path = Path(__file__).parent / "data" / "fiber_n4_chart.ideal"
    ideal = parse_ideal_file(str(path))
    assert any(c.denominator > 1 for g in ideal.generators for c in g.terms.values())
    for i, j in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        a = bigraded_hilbert_function(ideal, i, j, method=METHOD_INITIAL)
        b = bigraded_hilbert_function(ideal, i, j, method=METHOD_RANK)
        assert a == b, (i, j, a, b)


def test_bigraded_values_for_principal_monomial():
    # S/(x1*y2) in two pairs of variables: count (i+1)(j+1) - i*j
    uni = xy_universe(1)
    ideal = Ideal(uni, [uni.parse("x1*y2")])
    for i in range(4):
        for j in range(4):
            want = (i + 1) * (j + 1) - i * j
            assert bigraded_hilbert_function(ideal, i, j) == want


def _enumerated_value(uni, lead, i, j):
    """The count by enumeration: bidegree-(i,j) monomials outside <lead>."""
    return sum(1 for e in iter_exponents_of_bidegree(uni, i, j)
               if not any(all(a <= b for a, b in zip(m, e)) for m in lead))


@st.composite
def _monomial_ideals(draw):
    """(n, exponents) for n = 1, 2, each generator of bidegree <= (3, 3)."""
    n = draw(st.sampled_from([1, 2]))

    def block():
        picks = draw(st.lists(st.integers(0, n), max_size=3))
        return tuple(picks.count(v) for v in range(n + 1))

    return n, [block() + block() for _ in range(draw(st.integers(1, 6)))]


@given(_monomial_ideals())
@example((1, [(0, 0, 0, 0)]))  # the unit ideal
@example((2, [(1, 0, 0, 0, 2, 0)]))  # one generator: the only colon is empty
@example((1, [(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)]))  # a repeated generator
def test_numerator_matches_enumeration(case):
    n, exps = case
    uni = xy_universe(n)
    ideal = Ideal(uni, [BiMonomial(uni, e).as_polynomial() for e in exps])
    for i in range(5):
        for j in range(5):
            assert bigraded_hilbert_function(ideal, i, j) == _enumerated_value(uni, exps, i, j)


# --- the pruned rank oracle against the unpruned builder ---

def unpruned_rank_value(ideal, i, j):
    """The rank oracle without echelon form or Koszul pruning: every
    bidegree-(i,j) multiple m*g of every generator is a row."""
    uni = ideal.universe
    cols = {e: c for c, e in enumerate(iter_exponents_of_bidegree(uni, i, j))}
    rows = []
    for g in ideal.generators:
        a, b = g.bidegree()
        ints, _ = _integer_terms(g.terms)
        for m in iter_exponents_of_bidegree(uni, i - a, j - b):
            rows.append({cols[monomial_mul(e, m)]: v for e, v in ints.items()})
    return len(cols) - sparse_integer_rank(rows)


_BIDEGREES = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]


def random_bihomogeneous_ideal(n, rng):
    """A few sparse generators of mixed bidegrees with rational coefficients,
    plus a proportional copy, a repeat and a linear combination of two
    generators of one bidegree, shuffled."""
    uni = xy_universe(n)
    gens = []
    for _ in range(rng.randint(3, 5)):
        monomials = list(iter_exponents_of_bidegree(uni, *rng.choice(_BIDEGREES)))
        picks = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        gens.append(sum((BiMonomial(uni, e).as_polynomial()
                         * Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                         for e in picks), uni.zero()))
    f, g = rng.sample(gens, 2)
    gens.append(f * Fraction(-3, 2))
    gens.append(g)
    same = [h for h in gens if h.bidegree() == f.bidegree()]
    gens.append(same[0] * 2 + same[-1] * Fraction(1, 3))
    rng.shuffle(gens)
    return Ideal(uni, gens)


@pytest.mark.parametrize("n, seed", [(1, s) for s in range(10)] + [(2, s) for s in range(10)])
def test_pruned_rank_oracle_matches_unpruned_builder(n, seed, monkeypatch):
    ideal = random_bihomogeneous_ideal(n, Random(seed))
    kept = []
    monkeypatch.setattr(hilbert, "sparse_integer_rank",
                        lambda rows: kept.append(len(rows)) or sparse_integer_rank(rows))
    top = 4 if n == 1 else 3
    for i in range(top + 1):
        for j in range(top + 1):
            value = hilbert._rank_oracle_value(ideal, i, j)
            assert value == unpruned_rank_value(ideal, i, j), (i, j)
            assert value == bigraded_hilbert_function(ideal, i, j, METHOD_INITIAL), (i, j)
            if i == j:
                assert rank_matrix_shape(ideal, i)[0] == kept[-1]


def test_rank_route_refuses_matrices_over_the_budget():
    path = Path(__file__).parent / "data" / "fiber_n4_chart.ideal"
    ideal = parse_ideal_file(str(path))
    rows, cols = rank_matrix_shape(ideal, 5)
    assert (rows, cols) == (24760, 15876) and rows * cols > MAX_MACAULAY_ENTRIES
    with pytest.raises(MacaulayBudgetError, match="MAX_MACAULAY_ENTRIES"):
        tabulate_diagonal(ideal, range(6), METHOD_RANK)
    # the initial-ideal route has no Macaulay matrix to bound
    assert tabulate_diagonal(ideal, range(6)).values[5] == chi_graph(4).evaluate(5)


def _strata(n):
    """The 2^n chart points (I, d) with d in {0, 1}^n."""
    return [ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)],
                                         [(mask >> k) & 1 for k in range(n)])
            for mask in range(2 ** n)]


@pytest.mark.parametrize("n, t_max", [(2, 8), (3, 4)])
def test_methods_agree_on_every_stratum(n, t_max):
    J = family_ideal_J(n)
    for point in _strata(n):
        assert methods_agree(evaluate_family_at(J, point), range(t_max + 1)), point.label()


def test_rank_oracle_never_calls_groebner(monkeypatch):
    import flatcert.groebner as gb

    def boom(*args, **kwargs):
        raise AssertionError("rank oracle must not run Buchberger")

    monkeypatch.setattr(gb, "buchberger", boom)
    ideal = Ideal(xy_universe(1), [xy_universe(1).parse("x1*y2")])
    uni = ideal.universe
    fresh = Ideal(uni, ideal.generators)
    assert bigraded_hilbert_function(fresh, 2, 2, method=METHOD_RANK) == 5


def test_nonbihomogeneous_input_rejected():
    uni = xy_universe(1)
    bad = Ideal(uni, [uni.parse("x1 + y1")])
    with pytest.raises(NonBihomogeneousError):
        bigraded_hilbert_function(bad, 1, 1)


def test_tabulate_and_interpolate_recover_chi():
    ideal = gauss_graph_ideal(SymmetricMatrixQ.identity(3))
    table = tabulate_diagonal(ideal, range(8))
    assert table.values == {0: 1, 1: 5, 2: 9, 3: 13, 4: 17, 5: 21, 6: 25, 7: 29}
    dim = ideal_dimension(ideal, projective=True)
    poly = interpolate_hilbert_polynomial(table, dim_bound=dim)
    assert poly == chi_graph(2)
    assert poly.stabilization_threshold == 0
    rows = table.to_json_rows()
    assert rows[0] == {"t": 0, "value": 1, "method": METHOD_INITIAL}


def test_interpolation_stability_on_corpus():
    # interpolate, then confirm the fit reproduces the table past the threshold
    for ideal in [special_fiber_ideal(1), special_fiber_ideal(2), diagonal_ideal(2)]:
        dim = ideal_dimension(ideal, projective=True)
        table = tabulate_diagonal(ideal, range(dim + 9))
        poly = interpolate_hilbert_polynomial(table, dim_bound=dim)
        assert poly.degree == dim
        thr = poly.stabilization_threshold
        for t, v in table.values.items():
            if t >= thr:
                assert poly.evaluate(t) == v


def test_interpolation_needs_enough_samples():
    ideal = special_fiber_ideal(2)
    table = tabulate_diagonal(ideal, range(3))
    with pytest.raises(ValueError):
        interpolate_hilbert_polynomial(table, dim_bound=1)


def test_interpolation_flags_nonstabilizing_fit():
    # a strictly linear table cannot match a degree-0 bound
    ideal = gauss_graph_ideal(SymmetricMatrixQ.identity(3))
    table = tabulate_diagonal(ideal, range(8))
    with pytest.raises(NoStabilizationError) as exc:
        interpolate_hilbert_polynomial(table, dim_bound=0)
    assert exc.value.residuals


def test_polynomial_type_basics():
    p = HilbertPolynomialQ.from_coefficients([1, 4])
    assert str(p) == "4t+1"
    assert p == chi_graph(2)
    assert p != chi_graph(3)
    assert p.evaluate(Fraction(1, 2)) == 3
    d = p.to_json_dict()
    assert d["rendered"] == "4t+1"
    assert d["coefficients"] == ["1", "4"]
    zero = HilbertPolynomialQ.from_coefficients([])
    assert str(zero) == "0" and zero.degree == -1


def test_binomial_basis_coordinates():
    assert binomial_basis_coordinates(chi_graph(2)) == [-3, 4]
    assert binomial_basis_coordinates(chi_graph(3)) == [1, -8, 8]
    # chi values are integer combinations of C(t+k, k); xi too
    assert all(c.denominator == 1 for c in binomial_basis_coordinates(xi_formula(2, 3)))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_xi_is_symmetric(d0, d1):
    assert xi_formula(d0, d1) == xi_formula(d1, d0)


def test_normalize_method():
    assert normalize_method("rank") == METHOD_RANK
    assert normalize_method("initial") == METHOD_INITIAL
    assert normalize_method(METHOD_RANK) == METHOD_RANK
    with pytest.raises(ValueError):
        normalize_method("bogus")


def test_tabulate_diagonal_checks_the_method_up_front():
    ideal = special_fiber_ideal(1)
    # an empty range must not hide a bad method, nor tag a table with it
    for ts in ([], range(3)):
        with pytest.raises(ValueError, match="unknown method"):
            tabulate_diagonal(ideal, ts, "bogus")
    assert tabulate_diagonal(ideal, [], "rank").method == METHOD_RANK
