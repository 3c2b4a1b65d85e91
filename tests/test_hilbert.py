"""Hilbert functions two ways, interpolation, and the closed forms."""

from fractions import Fraction
from math import comb, factorial
from operator import add
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from flatcert import (
    DEFAULT_ORDER,
    BiPolynomial,
    ChartPoint,
    HilbertPolynomialQ,
    Ideal,
    METHOD_INITIAL,
    METHOD_RANK,
    NoStabilizationError,
    VariableUniverse,
    apply_corruption,
    bigraded_hilbert_function,
    buchberger,
    chi_graph,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    fermat_pair,
    gamma_curve_ideal,
    gauss_graph_ideal,
    ideal_dimension,
    interpolate_hilbert_polynomial,
    methods_agree,
    random_chart_point,
    special_fiber_ideal,
    xi_formula,
    xy_universe,
)
from flatcert import groebner, hilbert
from flatcert.cli import parse_ideal_file
from flatcert.groebner import _integer_terms, monomial_divides
from flatcert.hilbert import (
    MAX_MACAULAY_ENTRIES,
    normalize_method,
    rank_matrix_shape,
    tabulate_diagonal,
)
from flatcert.util import _eliminate, dependent_rows, sparse_integer_rank
from monomials import iter_exponents_of_bidegree


def identity_graph(n):
    """The Gauss graph of the identity quadric x1^2 + ... + x{n+1}^2."""
    return gauss_graph_ideal([[int(i == j) for j in range(n + 1)] for i in range(n + 1)],
                             xy_universe(n))


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
    ideal = identity_graph(n)
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
        identity_graph(2),
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
    ideal = Ideal(uni, [BiPolynomial(uni, {e: 1}) for e in exps])
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
            rows.append({cols[tuple(map(add, e, m))]: v for e, v in ints.items()})
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
        gens.append(sum((BiPolynomial(uni, {e: 1})
                         * Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                         for e in picks), uni.zero()))
    f, g = rng.sample(gens, 2)
    gens.append(f * Fraction(-3, 2))
    gens.append(g)
    same = [h for h in gens if h.bidegree() == f.bidegree()]
    gens.append(same[0] * 2 + same[-1] * Fraction(1, 3))
    rng.shuffle(gens)
    return Ideal(uni, gens)


def reference_echelon_generators(ideal):
    """Each bidegree's reduced row echelon form, as (bidegree, lead, row)
    in `_echelon_generators`' order, by a Fraction loop: within a bidegree
    each generator, reduced by the monic rows so far, becomes monic under
    its largest exponent tuple and reduces them in turn; each row is then
    scaled to primitive integers."""
    def subtract_multiple(row, c, other):
        for e, v in other.items():
            nv = row.get(e, 0) - c * v
            if nv:
                row[e] = nv
            else:
                del row[e]

    groups = {}
    for g in ideal.generators:
        groups.setdefault(g.bidegree(), []).append(g.terms)
    out = []
    for deg in sorted(groups):
        basis = {}
        for terms in groups[deg]:
            row = dict(terms)
            for lead, b in basis.items():
                if lead in row:
                    subtract_multiple(row, row[lead], b)
            if not row:
                continue
            lead = max(row)
            row = {e: v / row[lead] for e, v in row.items()}
            for b in basis.values():
                if lead in b:
                    subtract_multiple(b, b[lead], row)
            basis[lead] = row
        out += [(deg, lead, _integer_terms(basis[lead])[0]) for lead in sorted(basis, reverse=True)]
    return out


def _chart_fibers():
    """Four seeded chart fibers for each n = 1..4, every other one with a d_i = 0."""
    return [evaluate_family_at(family_ideal_J(n),
                               random_chart_point(n, Random(seed), degenerate=seed % 2 == 1))
            for n in range(1, 5) for seed in range(4)]


def _dropped_generator_fibers():
    """Every drop-generator:K fiber at n <= 3, at a seeded chart point."""
    out = []
    for n in range(1, 4):
        J = family_ideal_J(n)
        point = random_chart_point(n, Random(n))
        out += [evaluate_family_at(apply_corruption(J, f"drop-generator:{k}"), point)
                for k in range(len(J.generators))]
    return out


@pytest.mark.parametrize("ideals", [
    _chart_fibers,
    _dropped_generator_fibers,
    lambda: [gamma_curve_ideal(fermat_pair(*d)) for d in [(2, 2), (3, 1), (1, 4), (5, 5)]],
    lambda: [f(n) for n in range(1, 5) for f in (special_fiber_ideal, diagonal_ideal)],
    lambda: [random_bihomogeneous_ideal(n, Random(seed)) for n in (1, 2, 3) for seed in range(15)],
], ids=["chart-fibers", "drop-generator", "xi-witnesses", "special-and-diagonal", "random"])
def test_echelon_generators_match_the_fraction_loop(ideals):
    # the kernel's rows keep their tails unreduced, so they are compared
    # with the reduced Fraction loop by leads and by span: the reduced
    # echelon form of a span is unique, so equal reduced forms mean equal spans
    for ideal in ideals():
        generators = hilbert._echelon_generators(ideal)
        reference = reference_echelon_generators(ideal)
        assert [g[:2] for g in generators] == [g[:2] for g in reference]
        rows = Ideal(ideal.universe, [BiPolynomial(ideal.universe, terms)
                                      for _, _, terms in generators])
        assert reference_echelon_generators(rows) == reference


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
                assert rank_matrix_shape(ideal, i)[0] >= kept[-1]


@pytest.mark.parametrize("n, seed", [(1, s) for s in range(5)] + [(2, s) for s in range(5)])
def test_rank_values_do_not_depend_on_the_call_order(n, seed):
    # one Ideal keeps the signatures every call stores, so an order that
    # reaches a bidegree from other levels first builds other rows for it
    ideal = random_bihomogeneous_ideal(n, Random(seed))
    top = 4 if n == 1 else 3
    grid = [(i, j) for i in range(top + 1) for j in range(top + 1)]
    expected = {ij: bigraded_hilbert_function(ideal, *ij, METHOD_INITIAL) for ij in grid}
    for order in (grid, grid[::-1], Random(seed).sample(grid, len(grid))):
        fresh = Ideal(ideal.universe, ideal.generators)
        for ij in order:
            assert bigraded_hilbert_function(fresh, *ij, METHOD_RANK) == expected[ij], (order, ij)


# (the fiber's builder, t_max, its table, the dependent rows harvested at t = 2, 3, ..)
@pytest.mark.parametrize("fiber, t_max, table, harvest", [
    (lambda: evaluate_family_at(family_ideal_J(3), ChartPoint.from_strict_lower(
        [[3], [-5, 2], [4, -7, 6]], [2, -9, 5])), 5, [1, 9, 25, 49, 81, 121], [16, 10]),
    (lambda: parse_ideal_file(str(Path(__file__).parent / "data" / "fiber_n4_chart.ideal")),
     3, [1, 14, 55, 140], [50, 30]),
], ids=["n3", "n4"])
def test_rank_oracle_on_a_chart_fiber(fiber, t_max, table, harvest, monkeypatch):
    # at t=3 rows still vanish after the signatures of t=2 are used, and
    # the rows of the levels after the harvest are independent
    harvested = []
    original = hilbert.dependent_rows

    def recording(rows):
        dependent = original(rows)
        harvested.append(len(dependent))
        return dependent

    monkeypatch.setattr(hilbert, "dependent_rows", recording)
    ideal = fiber()
    assert tabulate_diagonal(ideal, t_max, METHOD_RANK) == table
    assert tabulate_diagonal(ideal, t_max, METHOD_INITIAL) == table
    assert harvested == harvest


def tuple_keyed_rows(ideal, i, j):
    """The rank oracle's bidegree-(i,j) rows on a fresh Ideal, each entry
    keyed by the exponent tuple of its monomial, the tuple sum of e and m.
    Like the oracle it walks the levels (i-k, j-k) upward, lists rows in
    signature order (generator, then multiplier ascending), skips the
    Koszul multiples and those of stored signatures, and stores the
    multipliers of the rows `dependent_rows` names, with the exponent
    tuples themselves as the columns."""
    uni = ideal.universe
    generators = hilbert._echelon_generators(ideal)
    stored = [[] for _ in generators]
    for k in range(min(i, j), -1, -1):
        li, lj = i - k, j - k
        rows, signatures, leads = [], [], []
        for r, ((a, b), lead, int_terms) in enumerate(generators):
            for m in sorted(iter_exponents_of_bidegree(uni, li - a, lj - b)):
                if not any(monomial_divides(p, m) for p in leads + stored[r]):
                    rows.append({tuple(x + y for x, y in zip(e, m)): v
                                 for e, v in int_terms.items()})
                    signatures.append((r, m))
            leads.append(lead)
        for row_id in dependent_rows(rows):
            r, m = signatures[row_id]
            stored[r].append(m)
    return [list(row.items()) for row in rows]


def _oracle_rows(ideal, i, j, monkeypatch):
    """The matrix of the oracle's top level (i, j), on a fresh Ideal."""
    captured = []
    monkeypatch.setattr(hilbert, "sparse_integer_rank", lambda rows: captured.append(rows) or 0)
    hilbert._rank_oracle_value(Ideal(ideal.universe, ideal.generators), i, j)
    return captured[-1]


def _decoded(rows, base, width):
    """rows with each key e_1*base^(width-1) + .. + e_width read back as
    the exponent tuple e, entry order kept."""
    def exponents(key):
        digits = []
        for _ in range(width):
            key, digit = divmod(key, base)
            digits.append(digit)
        assert key == 0
        return tuple(reversed(digits))
    return [[(exponents(key), v) for key, v in row.items()] for row in rows]


@pytest.mark.parametrize("n, seed", [(1, s) for s in range(5)] + [(2, s) for s in range(5)])
def test_packed_columns_give_the_tuple_keyed_rows(n, seed, monkeypatch):
    # every (i, j) up to 3, so (0, j), (i, 0) and off-diagonal pieces too;
    # rows and their entries must come out in the same order
    ideal = random_bihomogeneous_ideal(n, Random(seed))
    for i in range(4):
        for j in range(4):
            rows = _oracle_rows(ideal, i, j, monkeypatch)
            assert _decoded(rows, max(i, j) + 1, 2 * n + 2) == tuple_keyed_rows(ideal, i, j), (i, j)


@pytest.mark.parametrize("i, j", [(1, 1), (4, 1), (1, 4), (2, 6), (5, 5)])
def test_packed_columns_reach_the_radix_edge(i, j, monkeypatch):
    # x1*y1 is a term of a generator of the chart fiber, and its multiple
    # x1^(i-1)*y1^(j-1) has the column x1^i*y1^j, whose largest exponent
    # is max(i, j): the largest digit the radix max(i, j) + 1 allows.  At
    # (1, 1) a radix of max(i, j) would be 1 and merge distinct columns.
    ideal = parse_ideal_file(str(Path(__file__).parent / "data" / "fiber_n2_chart.ideal"))
    base = max(i, j) + 1
    rows = _oracle_rows(ideal, i, j, monkeypatch)
    assert _decoded(rows, base, 6) == tuple_keyed_rows(ideal, i, j)
    edge = i * base**5 + j * base**2  # x1^i*y1^j: digits (i, 0, 0, j, 0, 0)
    assert any(edge in row for row in rows)


@pytest.mark.parametrize("fiber", [
    lambda: parse_ideal_file(str(Path(__file__).parent / "data" / "fiber_n2_chart.ideal")),
    lambda: evaluate_family_at(family_ideal_J(2),
                               ChartPoint.from_strict_lower([[-8], [6, 4]], [0, -7])),
], ids=["chart", "degenerate"])
def test_packed_rows_at_the_rank_referee_level(fiber, monkeypatch):
    # level (8, 8) of an n=2 fiber, the top of every rank-referee benchmark
    # item: the signatures stored at t = 2 and 3 skip 420 of the rows that
    # Koszul pruning alone keeps
    ideal = fiber()
    rows = _oracle_rows(ideal, 8, 8, monkeypatch)
    assert _decoded(rows, 9, 6) == tuple_keyed_rows(ideal, 8, 8)
    assert rank_matrix_shape(ideal, 8)[0] - len(rows) == 420


def test_a_generator_above_the_level_gives_no_rows(monkeypatch):
    # at level (1, 3) the (2, 1) generator has no multiplier of bidegree
    # (-1, 2), so only the (1, 1) generator's rows are built
    uni = xy_universe(2)
    low = uni.parse("x1*y2 - 3*x2*y3")
    both = Ideal(uni, [low, uni.parse("x1^2*y1 + 2*x2*x3*y2")])
    rows = _oracle_rows(both, 1, 3, monkeypatch)
    assert [g[0] for g in hilbert._echelon_generators(both)] == [(1, 1), (2, 1)]
    assert _decoded(rows, 4, 6) == tuple_keyed_rows(both, 1, 3)
    assert rows == _oracle_rows(Ideal(uni, [low]), 1, 3, monkeypatch) != []


def _pivot_monomials(ideal, t, monkeypatch):
    """The exponents of the pivot columns that `_eliminate` finds on the
    oracle's level (t, t)."""
    pivots, _ = _eliminate(_oracle_rows(ideal, t, t, monkeypatch))
    return {e for e, _ in _decoded([pivots], t + 1, ideal.universe.num_xy)[0]}


def _lex_leading_multiples(ideal, t):
    """The bidegree-(t,t) monomials that some natural lex leading monomial
    of the reduced Groebner basis divides: the leading monomials of I_(t,t)."""
    basis, _ = buchberger(ideal.generators, DEFAULT_ORDER)
    leads = [max(g.terms) for g in basis]
    return {m for m in iter_exponents_of_bidegree(ideal.universe, t, t)
            if any(monomial_divides(lead, m) for lead in leads)}


# (n, seed of a chart point or None for the special fiber, zero one d_i, t_max)
@pytest.mark.parametrize("n, seed, degenerate, t_max", [
    (2, 0, False, 5), (2, 1, True, 5), (2, None, False, 5),
    (3, 0, False, 4), (3, 1, True, 4), (3, None, False, 4)])
def test_rank_route_pivots_are_the_lex_leading_monomials(n, seed, degenerate, t_max,
                                                         monkeypatch):
    # each pivot row sits under its highest column, and no two share one, so
    # the pivot columns of a level are the leading monomials of I_(t,t)
    # under the columns' order, natural lex (Lazard, EUROCAL 1983)
    point = (ChartPoint.special(n) if seed is None
             else random_chart_point(n, Random(seed), degenerate))
    ideal = evaluate_family_at(family_ideal_J(n), point)
    for t in range(t_max + 1):
        assert _pivot_monomials(ideal, t, monkeypatch) == _lex_leading_multiples(ideal, t), t


def test_lex_leading_monomials_tell_a_chart_fiber_from_the_special_fiber(monkeypatch):
    # the control of the test above: natural lex is not the chart order,
    # so a chart fiber and the special fiber lead differently there
    J = family_ideal_J(3)
    chart = evaluate_family_at(J, random_chart_point(3, Random(0)))
    special = evaluate_family_at(J, ChartPoint.special(3))
    assert _pivot_monomials(chart, 3, monkeypatch) != _pivot_monomials(special, 3, monkeypatch)
    assert _lex_leading_multiples(chart, 3) != _lex_leading_multiples(special, 3)


def test_rank_route_refuses_matrices_over_the_budget():
    path = Path(__file__).parent / "data" / "fiber_n4_chart.ideal"
    ideal = parse_ideal_file(str(path))
    rows, cols = rank_matrix_shape(ideal, 5)
    assert (rows, cols) == (24760, 15876) and rows * cols > MAX_MACAULAY_ENTRIES
    with pytest.raises(ValueError, match="over the budget MAX_MACAULAY_ENTRIES"):
        tabulate_diagonal(ideal, 5, METHOD_RANK)
    # the initial-ideal route has no Macaulay matrix to bound
    assert tabulate_diagonal(ideal, 5)[5] == chi_graph(4).evaluate(5)


def _strata(n):
    """The 2^n chart points (I, d) with d in {0, 1}^n."""
    return [ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)],
                                         [(mask >> k) & 1 for k in range(n)])
            for mask in range(2 ** n)]


@pytest.mark.parametrize("n, t_max", [(2, 8), (3, 4), (4, 3)])
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
    with pytest.raises(ValueError, match=r"generator is not bihomogeneous: x1 \+ y1"):
        bigraded_hilbert_function(bad, 1, 1)


UNCHECKED_IDEALS = {
    "inhomogeneous": (lambda uni: Ideal(uni, [uni.parse("x1*y1 + x2"), uni.parse("x1*y2")]),
                      xy_universe(1), "generator is not bihomogeneous"),
    "parametric": (lambda uni: Ideal(uni, [uni.parse("a*x1*y1 - x2*y2")]),
                   VariableUniverse.standard(1, ("a",)), "specialize parameter variables"),
}
ENTRY_POINTS = {
    "dimension": ideal_dimension,
    "initial": lambda ideal: bigraded_hilbert_function(ideal, 1, 1),
    "rank": lambda ideal: bigraded_hilbert_function(ideal, 1, 1, METHOD_RANK),
}


@pytest.mark.parametrize("first", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(UNCHECKED_IDEALS))
def test_unchecked_ideal_raises_from_every_entry_point(kind, first):
    # one Ideal throughout: whichever entry point runs first must not leave
    # a cached numerator behind that lets a later one count
    make, uni, message = UNCHECKED_IDEALS[kind]
    ideal = make(uni)
    for name in [first, *sorted(set(ENTRY_POINTS) - {first})]:
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[name](ideal)


def test_tabulate_and_interpolate_recover_chi():
    ideal = identity_graph(2)
    table = tabulate_diagonal(ideal, 7)
    assert table == [1, 5, 9, 13, 17, 21, 25, 29]
    dim = ideal_dimension(ideal)
    poly = interpolate_hilbert_polynomial(table, dim_bound=dim)
    assert poly == chi_graph(2)
    assert poly.stabilization_threshold == 0


def test_series_numerator_once_per_ideal(monkeypatch):
    calls = []
    original = groebner._series_numerator

    def counting(lead, k):
        calls.append(k)
        return original(lead, k)

    monkeypatch.setattr(groebner, "_series_numerator", counting)
    ideal = identity_graph(2)
    # the dimension and the table read the same numerator
    assert ideal_dimension(ideal) == 1
    once = len(calls)  # the recursion's calls for one numerator
    assert once > 0
    assert tabulate_diagonal(ideal, 7)[7] == 29
    assert len(calls) == once
    # nothing outlives the Ideal: the same generators in a new one recount
    assert bigraded_hilbert_function(Ideal(ideal.universe, ideal.generators), 1, 1) == 5
    assert len(calls) == 2 * once


def test_interpolation_stability_on_corpus():
    # interpolate, then confirm the fit reproduces the table past the threshold
    for ideal in [special_fiber_ideal(1), special_fiber_ideal(2), diagonal_ideal(2)]:
        dim = ideal_dimension(ideal)
        table = tabulate_diagonal(ideal, dim + 8)
        poly = interpolate_hilbert_polynomial(table, dim_bound=dim)
        assert poly.degree == dim
        thr = poly.stabilization_threshold
        for t, v in enumerate(table):
            if t >= thr:
                assert poly.evaluate(t) == v


def test_interpolation_needs_enough_samples():
    ideal = special_fiber_ideal(2)
    table = tabulate_diagonal(ideal, 2)
    with pytest.raises(NoStabilizationError, match="need at least dim_bound\\+3 = 4"):
        interpolate_hilbert_polynomial(table, dim_bound=1)


def test_interpolation_flags_nonstabilizing_fit():
    # a strictly linear table cannot match a degree-0 bound
    ideal = identity_graph(2)
    table = tabulate_diagonal(ideal, 7)
    with pytest.raises(NoStabilizationError) as exc:
        interpolate_hilbert_polynomial(table, dim_bound=0)
    # the walk back stops at the first sample below the fit point t = 7
    assert str(exc.value) == ("table does not stabilize onto a degree<=0 polynomial"
                              " [t=6: table 25 vs fit 29]")


# --- the integer closed forms and fit against Fraction references ---

def _ref_poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, v in enumerate(a):
        for j, w in enumerate(b):
            out[i + j] += v * w
    return out


def _ref_binomial_in_t(n, slope, shift):
    """C(slope*t + shift, n) in Fraction coefficients."""
    out = [Fraction(1)]
    for i in range(1, n + 1):
        out = _ref_poly_mul(out, [Fraction(shift - n + i), Fraction(slope)])
    return [v * Fraction(1, factorial(n)) for v in out]


def _ref_diagonal_polynomial(numerator, k):
    """sum c_ab C(t-a+k-1, k-1) C(t-b+k-1, k-1), term by term in Fractions."""
    total = []
    for (a, b), c in numerator.items():
        term = _ref_poly_mul(_ref_binomial_in_t(k - 1, 1, k - 1 - a),
                             _ref_binomial_in_t(k - 1, 1, k - 1 - b))
        total = _ref_poly_add(total, [v * c for v in term])
    return total


def _ref_lagrange(points):
    total = [Fraction(0)]
    for i, (ti, vi) in enumerate(points):
        basis = [Fraction(1)]
        denom = 1
        for j, (tj, _) in enumerate(points):
            if j == i:
                continue
            basis = _ref_poly_mul(basis, [Fraction(-tj), Fraction(1)])
            denom *= ti - tj
        total = _ref_poly_add(total, [v * Fraction(vi, denom) for v in basis])
    return total


@given(st.integers(2, 5),
       st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)), st.integers(-50, 50),
                       max_size=8))
@example(3, {})
@example(3, {(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (3, 1): 1, (1, 3): 1, (2, 2): 1,
             (3, 3): -1})  # the Koszul product at (2, 2)
def test_diagonal_polynomial_matches_the_fraction_reference(k, numerator):
    num, den = hilbert._diagonal_polynomial(numerator, k)
    assert den == factorial(k - 1) ** 2
    assert [Fraction(c, den) for c in num] == _ref_diagonal_polynomial(numerator, k)
    start = max((max(a, b) for a, b in numerator), default=0)
    for t in range(start, start + 2 * k):
        assert Fraction(hilbert._poly_eval(num, t), den) == hilbert._numerator_value(
            numerator, k, t, t), t


@given(st.integers(0, 6), st.integers(-3, 3), st.integers(-9, 9))
def test_binomial_in_t_matches_the_fraction_reference(n, slope, shift):
    assert [Fraction(c, factorial(n)) for c in hilbert._binomial_in_t(n, slope, shift)] == (
        _ref_binomial_in_t(n, slope, shift))


def test_chi_graph_is_the_difference_of_two_binomials():
    for n in range(1, 17):
        poly = chi_graph(n)
        assert poly.degree == n - 1
        for t in range(1, 3 * n + 1):
            assert poly.evaluate(t) == comb(2 * t + n, n) - comb(2 * t - 2 + n, n), (n, t)


@given(st.integers(-20, 20), st.lists(st.integers(-1000, 1000), min_size=1, max_size=8))
@example(-3, [7])  # a single point
def test_newton_matches_the_reference_lagrange(t0, values):
    num, den = hilbert._newton(t0, values)
    assert den == factorial(len(values) - 1)
    assert [Fraction(c, den) for c in num] == _ref_lagrange(
        [(t0 + i, v) for i, v in enumerate(values)])


def _reference_newton(points):
    """Newton's forward differences over (t, value) points, which must be
    consecutive in t: the fit of the dict-keyed tables, kept as the referee
    of the list-based one."""
    t0 = points[0][0]
    if [t for t, _ in points] != list(range(t0, t0 + len(points))):
        raise ValueError(f"Newton interpolation needs consecutive points, got {points}")
    m = len(points) - 1
    diffs = [v for _, v in points]
    falling = [1]
    num = [0] * (m + 1)
    for k in range(m + 1):
        scale = diffs[0] * (factorial(m) // factorial(k))
        for d, v in enumerate(falling):
            num[d] += scale * v
        falling = hilbert._int_poly_mul(falling, [-t0 - k, 1])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return num, factorial(m)


def reference_interpolation(values, dim_bound):
    """The fit of a table given as a dict t -> value: it searches for the
    trailing run of consecutive t, fits the run's last dim_bound + 1
    samples and walks the run backwards.  A failed walk names every
    residual row it kept, sorted by t."""
    if dim_bound is None or dim_bound < 0:
        dim_bound = 0
    ts = sorted(values)
    run = []
    for t in reversed(ts):
        if not run or t == run[-1] - 1:
            run.append(t)
        else:
            break
    run.reverse()
    need = dim_bound + 3
    if len(run) < need:
        raise NoStabilizationError(
            f"need at least dim_bound+3 = {need} consecutive trailing samples, have {len(run)}")
    num, den = _reference_newton([(t, values[t]) for t in run[-(dim_bound + 1):]])
    matched, residuals = [], {}
    for t in reversed(run):
        pred = hilbert._poly_eval(num, t)
        if pred == values[t] * den:
            matched.append(t)
        else:
            residuals[t] = (values[t], Fraction(pred, den))
            break
    if len(matched) < dim_bound + 2:
        rows = ", ".join(f"t={t}: table {obs} vs fit {pred}"
                         for t, (obs, pred) in sorted(residuals.items()))
        raise NoStabilizationError(
            f"table does not stabilize onto a degree<={dim_bound} polynomial [{rows}]")
    return HilbertPolynomialQ.from_coefficients([Fraction(c, den) for c in num],
                                                stabilization_threshold=min(matched))


@st.composite
def _tables(draw):
    """(table, dim_bound): an integer-valued polynomial of degree <= 4 (an
    integer combination of C(t, k)) at t = 0..11 at most, with up to three
    samples moved anywhere, the tail included; dim_bound is None or in -1..4."""
    length = draw(st.integers(1, 12))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    table = [sum(c * comb(t, k) for k, c in enumerate(coeffs)) for t in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        table[draw(st.integers(0, length - 1))] += draw(st.integers(-5, 5))
    return table, draw(st.none() | st.integers(-1, 4))


@given(_tables())
@example(([1, 5, 9, 13, 17, 21, 25, 29], 1))  # chi_graph(2) from t = 0
@example(([7, 3, 9, 13, 17], 1))  # settles at t = 2
@example(([1, 5, 9, 13, 17], 4))  # too short for the bound
@example(([0, 0, 0, 0], None))  # the whole ring's table
@example(([1, 5, 9, 13, 17, 21, 25, 29], 0))  # breaks at t = 6, the sample below the fit
def test_fit_matches_the_dict_reference(case):
    table, dim_bound = case
    try:
        want = reference_interpolation(dict(enumerate(table)), dim_bound)
    except NoStabilizationError as exc:
        with pytest.raises(NoStabilizationError) as got:
            interpolate_hilbert_polynomial(table, dim_bound)
        assert str(got.value) == str(exc)
    else:
        got = interpolate_hilbert_polynomial(table, dim_bound)
        assert got.coefficients == want.coefficients
        assert got.stabilization_threshold == want.stabilization_threshold


@pytest.mark.parametrize("method", [METHOD_INITIAL, METHOD_RANK])
def test_tabulate_diagonal_lists_t_0_to_t_max(method):
    for ideal, t_max in [(special_fiber_ideal(2), 5), (diagonal_ideal(1), 0),
                         (random_bihomogeneous_ideal(2, Random(3)), 4)]:
        table = tabulate_diagonal(ideal, t_max, method)
        assert len(table) == t_max + 1
        assert table == [bigraded_hilbert_function(ideal, t, t, method)
                         for t in range(t_max + 1)]


def _polynomial_degree(ideal):
    """The degree of the exact diagonal polynomial of the numerator, -1 for 0."""
    num, _ = hilbert._diagonal_polynomial(ideal.series_numerator(), ideal.universe.n + 1)
    return max((d for d, c in enumerate(num) if c), default=-1)


@given(_monomial_ideals())
@example((2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]))  # <x1, x2, x3>
@example((1, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))  # artinian
def test_projective_dimension_bounds_the_polynomial_degree(case):
    n, exps = case
    uni = xy_universe(n)
    ideal = Ideal(uni, [BiPolynomial(uni, {e: 1}) for e in exps])
    degree = _polynomial_degree(ideal)
    if degree >= 0:  # P = 0 for artinian quotients, where the value is -2
        assert ideal_dimension(ideal) >= degree


def _program_ideals():
    out = []
    for n in (2, 3, 4):
        J = family_ideal_J(n)
        rng = Random(n)
        out += [(f"chart n={n}{' degenerate' * degenerate}",
                 evaluate_family_at(J, random_chart_point(n, rng, degenerate)))
                for degenerate in (False, True)]
    for n in (1, 2, 3, 4):
        out += [(f"special n={n}", special_fiber_ideal(n)), (f"diagonal n={n}", diagonal_ideal(n))]
    for d0, d1 in [(1, 1), (2, 2), (5, 5), (25, 1), (1, 25)]:
        out.append((f"fermat {d0},{d1}", gamma_curve_ideal(fermat_pair(d0, d1))))
    return out


def test_projective_dimension_is_the_polynomial_degree_on_program_ideals():
    for label, ideal in _program_ideals():
        assert ideal_dimension(ideal) == _polynomial_degree(ideal), label


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


@pytest.mark.parametrize("bad", [0.1, True, "1", None])
def test_polynomial_coefficients_are_int_or_fraction(bad):
    # a float would be read as its binary expansion, a bool as 0 or 1
    with pytest.raises(TypeError, match="a coefficient must be an int or Fraction"):
        HilbertPolynomialQ.from_coefficients([bad, 1])
    assert HilbertPolynomialQ.from_coefficients([Fraction(1, 2), 3]).coefficients == (
        Fraction(1, 2), Fraction(3))


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
    # an empty table must not hide a bad method
    for t_max in (-1, 2):
        with pytest.raises(ValueError, match="unknown method"):
            tabulate_diagonal(ideal, t_max, "bogus")
    assert tabulate_diagonal(ideal, -1, "rank") == []
