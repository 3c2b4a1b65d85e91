"""Monomial orders, Buchberger, and basis certification."""

import json
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import add
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from flatcert import groebner
from flatcert import (
    DEFAULT_ORDER,
    BiPolynomial,
    VariableUniverse,
    PlaneCurvePair,
    DimensionUndefinedError,
    UniverseMismatchError,
    Ideal,
    apply_corruption,
    buchberger,
    chart_order,
    diagonal_ideal,
    evaluate_family_at,
    fermat_pair,
    family_ideal_J,
    gamma_curve_ideal,
    ideal_dimension,
    is_groebner_basis,
    normal_form,
    random_chart_point,
    special_fiber_ideal,
    spolynomial,
    xy_universe,
)
from flatcert.groebner import (
    _INITIAL_WIDTH,
    BuchbergerRun,
    SPairEvent,
    _FieldOverflow,
    _gdata,
    _packed,
    _packed_terms,
    _packing,
    _reduce_terms,
    _spair,
    intersect_monomial_exponents,
    minimalize_monomial_exponents,
    monomial_divides,
    monomial_lcm,
    order_json,
)
from flatcert.polyring import iter_exponents_of_bidegree

UNI = xy_universe(2)


def order_for(label, universe):
    """lex, the chart order every `Ideal` completes under, or lex on seeded
    shuffled x/y variables, like the shuffled orders AC1 checks:
    "lex_permuted" shuffles with seed 1 and "lex_shuffle<k>" with seed k.
    (On the n=3 fiber seed 0 gives y1 > x2 > y2 > x3 > x1 > x4 > y4 > y3,
    and seed 2 y2 > x4 > y1 > x2 > x3 > y3 > y4 > x1: see AUDIT_CASES.)"""
    if label == "lex":
        return DEFAULT_ORDER
    if label == "chart":
        return chart_order(universe)
    seed = 1 if label == "lex_permuted" else int(label.removeprefix("lex_shuffle"))
    names = list(universe.x_names + universe.y_names)
    Random(seed).shuffle(names)
    return tuple(names)


ORDER_LABELS = ["lex", "lex_permuted", "chart"]


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def reference_key(order, uni):
    """The order as a per-term Python key, natural lex included, read from
    the permutation by name here and not by the kernel's code."""
    names = uni.x_names + uni.y_names if order is None else order
    perm = [uni.names.index(name) for name in names]
    nxy = uni.num_xy
    return lambda e: tuple(e[i] for i in perm) + e[nxy:]


def reference_lead(f, keyf):
    """(exponents, coefficient) of the leading term of f under keyf."""
    e = max(f.terms, key=keyf)
    return e, f.terms[e]


def exponent_strategy(universe=UNI, max_exp=3):
    return st.tuples(
        *[st.integers(min_value=0, max_value=max_exp) for _ in universe.names]
    )


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy(), b=exponent_strategy(), c=exponent_strategy())
def test_order_respects_multiplication(label, a, b, c):
    key = _packing(UNI, order_for(label, UNI), _INITIAL_WIDTH).pack
    if key(a) < key(b):
        assert key(monomial_mul(a, c)) < key(monomial_mul(b, c))


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy())
def test_order_has_one_as_minimum(label, a):
    key = _packing(UNI, order_for(label, UNI), _INITIAL_WIDTH).pack
    one = tuple(0 for _ in UNI.names)
    if a != one:
        assert key(one) < key(a)


@given(a=exponent_strategy(), b=exponent_strategy())
def test_lcm_divisibility(a, b):
    l = monomial_lcm(a, b)
    assert monomial_divides(a, l) and monomial_divides(b, l)
    assert monomial_divides(l, monomial_mul(a, b))


def test_buchberger_diagonal_n2():
    # 2x2 minors of a generic 2x3 matrix: the generators are already a basis
    basis, run = buchberger(diagonal_ideal(2).generators)
    assert len(basis) == 3
    assert all(ev.action in ("reduced_to_zero", "skipped_coprime") for ev in run.events)
    ok, spairs = is_groebner_basis(basis)
    assert ok
    assert all(sp["remainder_zero"] for sp in spairs)


def test_buchberger_adds_spolynomials_when_needed():
    uni = xy_universe(1)
    f = uni.parse("x1*y1 + x2*y2")
    g = uni.parse("x1*y2 - x2*y1")
    ok, _ = is_groebner_basis([f, g])
    assert not ok
    basis, run = buchberger([f, g])
    assert len(basis) > 2
    assert any(ev.action == "new_generator" for ev in run.events)
    ok, _ = is_groebner_basis(basis)
    assert ok
    # every generator reduces to zero against the basis
    assert normal_form(f, basis).is_zero()
    assert normal_form(g, basis).is_zero()


@pytest.mark.parametrize("label", ORDER_LABELS)
def test_buchberger_terminates_under_every_order(label):
    order = order_for(label, UNI)
    basis, _ = buchberger(special_fiber_ideal(2).generators, order)
    ok, _ = is_groebner_basis(basis, order)
    assert ok


def test_normal_form_frozen_example():
    # x1^2*y2^2 modulo the 2x2 minors rewrites to x2^2*y1^2 under lex
    ideal = diagonal_ideal(2)
    f = UNI.parse("x1^2*y2^2")
    nf = normal_form(f, ideal.groebner_basis(), DEFAULT_ORDER)
    assert nf == UNI.parse("x2^2*y1^2")


def test_normal_form_is_idempotent_and_linear():
    ideal = diagonal_ideal(2)
    basis = ideal.groebner_basis()
    f = UNI.parse("x1^2*y2^2 + 3*x1*y3")
    nf = normal_form(f, basis)
    assert normal_form(nf, basis) == nf
    g = UNI.parse("x2*y3")
    assert normal_form(f + g, basis) == normal_form(f, basis) + normal_form(g, basis)


def test_spolynomial_cancels_leading_terms():
    uni = xy_universe(1)
    f = uni.parse("x1*y2 - x2*y1")
    g = uni.parse("x1*y1 + x2*y2")
    sp = spolynomial(f, g)
    assert sp == uni.parse("-x2*y1^2 - x2*y2^2")


def test_initial_ideal_of_minors():
    init = diagonal_ideal(2).initial_ideal()
    assert init == ((1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1))
    assert [UNI.monomial_text(e) for e in init] == ["x1*y2", "x1*y3", "x2*y3"]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2)])
def test_initial_ideal_is_the_descending_lex_leads_of_the_basis(n, seed):
    fiber = evaluate_family_at(family_ideal_J(n), random_chart_point(n, Random(seed), True))
    for ideal in (fiber, special_fiber_ideal(n), diagonal_ideal(n)):
        keyf = reference_key(chart_order(ideal.universe), ideal.universe)
        leads = [reference_lead(g, keyf)[0] for g in ideal.groebner_basis()]
        assert ideal.initial_ideal() == tuple(sorted(leads, reverse=True))
        assert minimalize_monomial_exponents(leads) == list(ideal.initial_ideal())


def _initial_cases():
    """Ideals whose initial ideal the completion reports: seeded chart
    fibers, a fiber with generator 1 dropped, the (25, 1) xi witness, and
    one generator whose exponent overflows the first packing width."""
    cases = {}
    for n in (1, 2, 3, 4):
        for seed in range(2):
            point = random_chart_point(n, Random(seed), degenerate=seed == 1)
            cases[f"chart-n{n}-seed{seed}"] = lambda n=n, p=point: evaluate_family_at(
                family_ideal_J(n), p)
    cases["drop-generator-1"] = lambda: evaluate_family_at(
        apply_corruption(family_ideal_J(2), "drop-generator:1"), random_chart_point(2, Random(0)))
    cases["xi-witness-25-1"] = lambda: gamma_curve_ideal(fermat_pair(25, 1))
    cases["wide-exponent"] = lambda: Ideal(UNI, [UNI.parse("x1^100000000*y1")])
    return cases


_INITIAL_CASES = _initial_cases()


@pytest.mark.parametrize("name", sorted(_INITIAL_CASES))
def test_initial_ideal_is_the_packed_leads_of_the_basis(name):
    # the referee packs every term of every basis element under chart_order
    # and takes the largest key, at the first width that holds them
    ideal = _INITIAL_CASES[name]()
    basis = ideal.groebner_basis()

    def leads(pk):
        return [pk.unpack(max(map(pk.pack, g.terms))) for g in basis]
    want = sorted(_packed(leads, ideal.universe, chart_order(ideal.universe)), reverse=True)
    assert ideal.initial_ideal() == tuple(want)


def test_leading_monomial_respects_order():
    f = UNI.parse("x1*y2 + x2*y1")
    for order, want in [(None, "x1*y2"), (("x2", "x1", "x3", "y1", "y2", "y3"), "x2*y1")]:
        pk = _packing(UNI, order, _INITIAL_WIDTH)
        lead = pk.unpack(max(_packed_terms(f, pk)[0]))
        assert UNI.monomial_text(lead) == want


def test_order_is_a_permutation_of_the_xy_variables():
    f, g = UNI.parse("x1*y2 + x2*y1"), UNI.parse("x2*y3 - x3*y2")
    names = ["y1", "x1", "x2", "x3", "y2", "y3"]
    assert buchberger([f, g], names)[0] == buchberger([f, g], tuple(names))[0]
    puni = VariableUniverse.standard(2, ("a",))
    fa = puni.parse("a*x1*y2 + x2*y1")
    for bad, message in [(names[:-1], "exactly once"), (names + ["y3"], "exactly once"),
                         (names[:-1] + ["z"], "not an x/y variable"),
                         (names[:-1] + ["a"], "not an x/y variable")]:
        with pytest.raises(ValueError, match=message):
            normal_form(fa, [fa], bad)


def test_ideal_caches_one_basis(monkeypatch):
    ideal = special_fiber_ideal(2)
    calls = []
    original = groebner.buchberger

    def counting(gens, order=None):
        calls.append(order)
        return original(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    b1 = ideal.groebner_basis()
    assert ideal.initial_ideal() and ideal.groebner_basis() is b1
    assert calls == [chart_order(ideal.universe)]
    # other orders go through buchberger itself
    permuted = order_for("lex_permuted", ideal.universe)
    b3, _ = buchberger(ideal.generators, permuted)
    ok, _ = is_groebner_basis(b3, permuted)
    assert ok


def special_fiber_initial_ideal(uni):
    """<x1y1, x_i y_j (i < j), x_k y_k^2 (k >= 2)>, descending."""
    m = uni.n + 1
    gens = []
    for i in range(m):
        for j in range(i, m):
            e = [0] * uni.num_xy
            e[i] = 1
            e[m + j] = 2 if i == j > 0 else 1
            gens.append(tuple(e))
    return tuple(sorted(gens, reverse=True))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_fibers_share_the_special_fibers_initial_ideal(n):
    # phi_u keeps every leading term under chart_order, so a fiber completes
    # along the special fiber's path; a corrupted fiber does not
    J = family_ideal_J(n)
    want = special_fiber_initial_ideal(xy_universe(n))
    assert special_fiber_ideal(n).initial_ideal() == want
    for seed in range(4):
        point = random_chart_point(n, Random(seed), degenerate=seed % 2 == 1)
        assert evaluate_family_at(J, point).initial_ideal() == want, seed
    corrupted = apply_corruption(J, "drop-generator:1")
    for seed in range(2):
        point = random_chart_point(n, Random(seed), degenerate=seed % 2 == 1)
        assert evaluate_family_at(corrupted, point).initial_ideal() != want, seed


def chart_change(f, u):
    """phi_u(f): x_j -> sum_i u[i][j] x_i and y_j -> sum_i v[j][i] y_i,
    v = u^-1 by forward substitution, for u lower unipotent."""
    uni = f.universe
    m = uni.n + 1
    v = [[int(i == j) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            v[i][j] = -sum(u[i][k] * v[k][j] for k in range(j, i))
    xs = [uni.variable(name) for name in uni.x_names]
    ys = [uni.variable(name) for name in uni.y_names]
    images = ([sum((u[i][j] * xs[i] for i in range(m)), uni.zero()) for j in range(m)]
              + [sum((v[j][i] * ys[i] for i in range(m)), uni.zero()) for j in range(m)])
    out = uni.zero()
    for e, c in f.terms.items():
        term = c * uni.one()
        for image, k in zip(images, e):
            for _ in range(k):
                term = term * image
        out = out + term
    return out


@st.composite
def chart_changes(draw):
    """(u, f): u lower unipotent with entries in [-3, 3], f bihomogeneous
    with nonzero integer coefficients, n = 1..3."""
    n = draw(st.integers(min_value=1, max_value=3))
    uni = xy_universe(n)
    entry = st.integers(min_value=-3, max_value=3)
    u = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n + 1)]
         for i in range(n + 1)]
    bidegree = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    monomials = list(iter_exponents_of_bidegree(uni, *bidegree))
    picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coeff = st.integers(min_value=-5, max_value=5).filter(bool)
    return u, BiPolynomial(uni, {e: draw(coeff) for e in picked})


@given(chart_changes())
def test_chart_change_keeps_the_leading_term_under_chart_order(case):
    u, f = case
    keyf = reference_key(chart_order(f.universe), f.universe)
    assert reference_lead(chart_change(f, u), keyf) == reference_lead(f, keyf)


def test_chart_change_can_move_the_leading_term_under_natural_lex():
    # u21 = 1 sends y2 to y2 - y1, and natural lex puts y1 first
    uni = xy_universe(1)
    f, u = uni.parse("x1*y2"), [[1, 0], [1, 1]]
    image = chart_change(f, u)
    assert image == uni.parse("x1*y2 + x2*y2 - x1*y1 - x2*y1")
    lex, chart = reference_key(DEFAULT_ORDER, uni), reference_key(chart_order(uni), uni)
    assert reference_lead(image, lex) != reference_lead(f, lex)
    assert reference_lead(image, chart) == reference_lead(f, chart)


def test_ideal_dimension_desk_values():
    # projective dimensions in P2 x P2: the special fiber is a curve, the
    # minors cut out the diagonal P2, and the irrelevant ideal nothing (-2)
    assert ideal_dimension(special_fiber_ideal(2)) == 1
    assert ideal_dimension(diagonal_ideal(2)) == 2
    full = Ideal(UNI, [UNI.variable(nm) for nm in UNI.names])
    assert ideal_dimension(full) == -2
    with pytest.raises(DimensionUndefinedError):
        ideal_dimension(Ideal(UNI, [UNI.one()]))


def reference_dimension(exponents, num_vars):
    """Projective dimension of a monomial quotient by subset enumeration:
    the largest set of variables that contains no generator's support,
    less 2 for the two projective scalings."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in exponents]
    if frozenset() in supports:
        raise DimensionUndefinedError("the ideal is the whole ring")
    for size in range(num_vars, -1, -1):
        for combo in combinations(range(num_vars), size):
            if not any(sup <= set(combo) for sup in supports):
                return size - 2
    raise AssertionError("the empty set contains no nonempty support")


def _monomial_ideals(n):
    nxy = 2 * (n + 1)
    exponent = st.sampled_from([0, 0, 0, 1, 2, 3])  # non-squarefree, mostly sparse
    return st.tuples(st.just(n), st.lists(st.tuples(*[exponent] * nxy), min_size=1, max_size=6))


@given(st.integers(min_value=1, max_value=2).flatmap(_monomial_ideals))
@example((2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]))  # one block
@example((2, [(0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 3)]))
@example((1, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)]))  # zero-dimensional
@example((1, [(1, 1, 0, 0), (0, 0, 0, 0)]))  # the unit ideal
@example((1, [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)]))
def test_ideal_dimension_matches_subset_enumeration(case):
    n, exponents = case
    uni = xy_universe(n)
    ideal = Ideal(uni, [BiPolynomial(uni, {e: Fraction(1)}) for e in exponents])
    try:
        want = reference_dimension(exponents, uni.num_xy)
    except DimensionUndefinedError:
        with pytest.raises(DimensionUndefinedError):
            ideal_dimension(ideal)
    else:
        assert ideal_dimension(ideal) == want


def test_ideal_dimension_is_cheap_at_huge_exponents():
    # the numerator K = 1 - s^(10^8 + 1) is summed sparsely: no list of
    # 10^8 coefficients, and its order at s = 1 is 1
    f = BiPolynomial(UNI, {(10 ** 8, 0, 0, 1, 0, 0): 1})
    tracemalloc.start()
    try:
        assert ideal_dimension(Ideal(UNI, [f])) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ideal_requires_a_generator():
    with pytest.raises(ValueError):
        Ideal(UNI, [])


def test_monomial_intersection_and_minimalization():
    uni = xy_universe(1)
    a = list(iter_exponents_of_bidegree(uni, 1, 1))
    # <all degree (1,1) monomials> meet <x1^2>, then minimalized
    b = [uni.parse("x1^2").terms_sorted()[0][0]]
    meet = intersect_monomial_exponents(a, b)
    meet = minimalize_monomial_exponents(meet)
    rendered = sorted(uni.monomial_text(e) for e in meet)
    assert rendered == ["x1^2*y1", "x1^2*y2"]


# The kernel's entry points, each called on f and a second polynomial g.
ENTRY_POINTS = {
    "buchberger": lambda f, g: buchberger([f, g]),
    "is_groebner_basis": lambda f, g: is_groebner_basis([f, g]),
    "normal_form": lambda f, g: normal_form(f, [f, g]),
    "spolynomial": spolynomial,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_check_their_polynomials(entry):
    call = ENTRY_POINTS[entry]
    uni = xy_universe(1)
    f = uni.parse("x1*y1 + x2*y2")
    # a parameter the kernel would drop, and another dimension
    for other in (VariableUniverse.standard(1, ("a",)).parse("x1*y2 + a*x2*y1"),
                  xy_universe(2).parse("x1*y2 - x2*y1")):
        with pytest.raises(UniverseMismatchError):
            call(f, other)
    with pytest.raises(ValueError, match="polynomial 1 is the zero polynomial"):
        call(f, uni.zero())


def test_certificate_reports_every_pair():
    basis, _ = buchberger(special_fiber_ideal(2).generators)
    uni = xy_universe(1)
    not_a_basis = [uni.parse("x1*y1 + x2*y2"), uni.parse("x1*y2 - x2*y1")]
    for gens, want in [(basis, True), (not_a_basis, False),
                       (diagonal_ideal(3).generators, True)]:
        ok, spairs = is_groebner_basis(gens)
        assert ok is want
        assert ok == all(sp["remainder_zero"] for sp in spairs)
        assert [sp["pair"] for sp in spairs] == [list(p) for p in combinations(range(len(gens)), 2)]
        assert all(set(sp) == {"pair", "lcm", "reduction_steps", "remainder_zero"}
                   for sp in spairs)


# --- the audit trail against a reference completion loop ---

def monic(f, keyf):
    _, lc = reference_lead(f, keyf)
    return f if lc == 1 else f / lc


def reference_gdata(basis, keyf):
    return [(*reference_lead(g, keyf), g.terms) for g in basis]


def reference_reduce_terms(terms, gdata, keyf):
    """The division algorithm over Fraction, rescanning h with max() for
    the leading term on every step."""
    h = dict(terms)
    r = {}
    steps = 0
    while h:
        lead = max(h, key=keyf)
        c = h[lead]
        for lm, lc, gterms in gdata:
            if monomial_divides(lm, lead):
                shift = tuple(a - b for a, b in zip(lead, lm))
                factor = c / lc
                for ge, gc in gterms.items():
                    e = tuple(a + b for a, b in zip(ge, shift))
                    v = h.get(e, Fraction(0)) - factor * gc
                    if v:
                        h[e] = v
                    else:
                        h.pop(e, None)
                steps += 1
                break
        else:
            r[lead] = c
            del h[lead]
    return r, steps


def reference_spolynomial(f, g, keyf):
    """The S-polynomial by BiPolynomial multiplication and subtraction."""
    (lmf, lcf), (lmg, lcg) = reference_lead(f, keyf), reference_lead(g, keyf)
    lcm = monomial_lcm(lmf, lmg)
    mf = BiPolynomial(f.universe, {tuple(a - b for a, b in zip(lcm, lmf)): 1 / lcf})
    mg = BiPolynomial(g.universe, {tuple(a - b for a, b in zip(lcm, lmg)): 1 / lcg})
    return mf * f - mg * g


def reference_interreduce(basis, keyf):
    """Minimalize leading terms, then reduce tails until nothing changes."""
    minimal = []
    for g in sorted(basis, key=lambda g: keyf(reference_lead(g, keyf)[0])):
        lm = reference_lead(g, keyf)[0]
        if not any(monomial_divides(reference_lead(h, keyf)[0], lm) for h in minimal):
            minimal.append(monic(g, keyf))
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1:]
            if others:
                r, _ = reference_reduce_terms(g.terms, reference_gdata(others, keyf), keyf)
                rp = monic(BiPolynomial(g.universe, _canonical=r), keyf)
                if rp != g:
                    minimal[i], changed = rp, True
    return sorted(minimal, key=lambda g: keyf(reference_lead(g, keyf)[0]))


def reference_buchberger(gens, order):
    """Completion that rescans every pending pair with min() on each step,
    by x/y degree of the lcm, then the lcm in the order, then the pair."""
    uni = gens[0].universe
    keyf = reference_key(order, uni)
    run = BuchbergerRun(order=order)
    G = [monic(g, keyf) for g in gens]
    lms = [reference_lead(g, keyf)[0] for g in G]

    def selection(ij):
        lcm = monomial_lcm(lms[ij[0]], lms[ij[1]])
        return sum(lcm[:uni.num_xy]), keyf(lcm), ij

    pending = set(combinations(range(len(G)), 2))
    while pending:
        best = min(pending, key=selection)
        pending.remove(best)
        i, j = best
        lcm = monomial_lcm(lms[i], lms[j])
        if lcm == monomial_mul(lms[i], lms[j]):
            run.events.append(SPairEvent(i, j, lcm, "skipped_coprime"))
            continue
        chain = False
        for k in range(len(G)):
            if k in (i, j) or not monomial_divides(lms[k], lcm):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 not in pending and p2 not in pending:
                chain = True
                break
        if chain:
            run.events.append(SPairEvent(i, j, lcm, "skipped_chain"))
            continue
        s = reference_spolynomial(G[i], G[j], keyf)
        r, steps = reference_reduce_terms(s.terms, reference_gdata(G, keyf), keyf)
        if r:
            g_new = monic(BiPolynomial(uni, _canonical=r), keyf)
            G.append(g_new)
            lms.append(reference_lead(g_new, keyf)[0])
            m = len(G) - 1
            pending.update((t, m) for t in range(m))
            run.events.append(SPairEvent(i, j, lcm, "new_generator", steps))
        else:
            run.events.append(SPairEvent(i, j, lcm, "reduced_to_zero", steps))
    basis = tuple(reference_interreduce(G, keyf))
    run.basis = basis
    return basis, run


def random_plane_curve(degree, rng, block, universe):
    """A nonzero form pure in one block, coefficients drawn from [-9, 9] in
    iter_exponents_of_bidegree's order until one is nonzero: the xi curves
    the library used to sample, so the xi22 inputs keep their values."""
    bidegree = (degree, 0) if block == "x" else (0, degree)
    while True:
        terms = {e: rng.randint(-9, 9) for e in iter_exponents_of_bidegree(universe, *bidegree)}
        if any(terms.values()):
            return BiPolynomial(universe, terms)


def xi_pair_generators(seed):
    rng = Random(seed)
    uni = xy_universe(2)
    pair = PlaneCurvePair(random_plane_curve(2, rng, "x", uni),
                          random_plane_curve(2, rng, "y", uni))
    return gamma_curve_ideal(pair).generators


AUDIT_INPUTS = {
    "xi22-seed0": lambda: xi_pair_generators(0),
    "xi22-seed1": lambda: xi_pair_generators(1),
    "fiber-n3": lambda: evaluate_family_at(
        family_ideal_J(3), random_chart_point(3, Random(2))).generators,
    "fiber-n4": lambda: evaluate_family_at(
        family_ideal_J(4), random_chart_point(4, Random(3))).generators,
}
# The n=4 chart fiber is the benchmark's input class.  The two shuffles of
# the n=3 fiber are the lex orders on which completion that popped the
# smallest lcm in the order first, whatever its degree, ran past a 30 s
# alarm; popping the smallest lcm degree first, they take about 0.01 s.
AUDIT_CASES = [(name, label) for name in sorted(AUDIT_INPUTS) for label in ORDER_LABELS]
AUDIT_CASES += [("fiber-n3", "lex_shuffle0"), ("fiber-n3", "lex_shuffle2")]


@pytest.mark.parametrize("name, label", AUDIT_CASES,
                         ids=[f"{name}-{label}" for name, label in AUDIT_CASES])
def test_audit_trail_matches_reference_loop(name, label):
    gens = AUDIT_INPUTS[name]()
    order = order_for(label, gens[0].universe)
    basis, run = buchberger(gens, order)
    ref_basis, ref_run = reference_buchberger(gens, order)
    assert basis == ref_basis
    assert run.to_json_dict() == ref_run.to_json_dict()
    assert any(ev.action == "new_generator" for ev in run.events)
    assert is_groebner_basis(basis, order)[0]


def random_polynomial(rng, universe, bidegree, num_terms):
    """Bihomogeneous, with coefficients p/q, |p| <= 50 and q in 1..12."""
    monomials = list(iter_exponents_of_bidegree(universe, *bidegree))
    picked = rng.sample(monomials, min(num_terms, len(monomials)))
    return BiPolynomial(universe, {
        e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 12))
        for e in picked})


@pytest.mark.parametrize("label", ORDER_LABELS)
def test_normal_form_matches_reference_kernel(label):
    order = order_for(label, UNI)
    keyf = reference_key(order, UNI)
    pk = _packing(UNI, order, _INITIAL_WIDTH)
    steps_seen = 0
    for seed in range(40):
        rng = Random(seed)
        basis = [random_polynomial(rng, UNI, rng.choice([(1, 1), (1, 0), (0, 2)]),
                                   rng.randint(2, 5)) for _ in range(rng.randint(2, 4))]
        f = random_polynomial(rng, UNI, (2, 2), rng.randint(4, 12))
        r, steps = _reduce_terms(*_packed_terms(f, pk), _gdata(basis, pk), pk)
        r = {pk.unpack(k): c for k, c in r.items()}
        ref_r, ref_steps = reference_reduce_terms(f.terms, reference_gdata(basis, keyf), keyf)
        assert r == ref_r and steps == ref_steps, seed
        assert normal_form(f, basis, order).terms == ref_r
        assert spolynomial(*basis[:2], order) == reference_spolynomial(*basis[:2], keyf)
        steps_seen += steps
    assert steps_seen > 0


# --- packed monomials ---

PUNI = VariableUniverse.standard(2, ("a", "b"))  # parameters get fields too


def packing_for(label):
    order = order_for(label, PUNI)
    return _packing(PUNI, order, _INITIAL_WIDTH), reference_key(order, PUNI)


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy(PUNI, 9), b=exponent_strategy(PUNI, 9))
def test_packed_keys_compare_as_the_order_key(label, a, b):
    pk, key = packing_for(label)
    assert (pk.pack(a) < pk.pack(b)) == (key(a) < key(b))
    assert (pk.pack(a) == pk.pack(b)) == (a == b)


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy(PUNI, 9), b=exponent_strategy(PUNI, 9), divisible=st.booleans())
def test_guard_bits_test_divisibility(label, a, b, divisible):
    pk, _ = packing_for(label)
    if divisible:
        b = monomial_lcm(a, b)
    assert (not (pk.pack(b) - pk.pack(a)) & pk.guard) == monomial_divides(a, b)


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy(PUNI, 9))
def test_pack_then_unpack_is_the_identity(label, a):
    pk, _ = packing_for(label)
    assert pk.unpack(pk.pack(a)) == a
    assert pk.pack(a) & pk.guard == 0


@pytest.mark.parametrize("label", ORDER_LABELS)
@given(a=exponent_strategy(PUNI, 4), b=exponent_strategy(PUNI, 4))
def test_packed_keys_add(label, a, b):
    pk, _ = packing_for(label)
    assert pk.pack(a) + pk.pack(b) == pk.pack(monomial_mul(a, b))


# Exponents past the initial field width (at most 63): in an input (130
# would spill into the next field, past its own guard bit), and only in
# the basis (up to 185), through lcms and non-homogeneous steps.
OVERFLOW_INPUTS = {
    "input": ("y1^2*x1 - y2^130*x2", "x1^2 - x2*x1"),
    "growth": ("x1^60*y1 - x2^60*y2", "x1^5*y2^3 - x2^2*y1^6"),
}


@pytest.mark.parametrize("label", ORDER_LABELS)
@pytest.mark.parametrize("name", sorted(OVERFLOW_INPUTS))
def test_field_overflow_matches_reference_loop(name, label):
    uni = xy_universe(1)
    gens = [uni.parse(text) for text in OVERFLOW_INPUTS[name]]
    order = order_for(label, uni)
    basis, run = buchberger(gens, order)
    ref_basis, ref_run = reference_buchberger(gens, order)
    assert basis == ref_basis
    assert run.to_json_dict() == ref_run.to_json_dict()
    assert max(max(e) for g in basis for e in g.terms) >= 1 << _INITIAL_WIDTH


def test_packed_fields_never_wrap():
    uni = xy_universe(1)
    keyf = reference_key(DEFAULT_ORDER, uni)
    pk = _packing(uni, DEFAULT_ORDER, _INITIAL_WIDTH)
    with pytest.raises(_FieldOverflow):
        pk.pack((0, 0, 0, 130))
    f, g = uni.parse("x1^8*y1 + y2"), uni.parse("x1 - x2^8")
    with pytest.raises(_FieldOverflow):
        _reduce_terms(*_packed_terms(f, pk), _gdata([g], pk), pk)
    ref_r, _ = reference_reduce_terms(f.terms, reference_gdata([g], keyf), keyf)
    assert normal_form(f, [g]).terms == ref_r == {(0, 64, 1, 0): 1, (0, 0, 0, 1): 1}
    # the S-pair shifts x2^60 by x2^50
    p, q = uni.parse("x1^60 - x2^60"), uni.parse("x1*x2^50 + y1")
    with pytest.raises(_FieldOverflow):
        _spair(*_gdata([p, q], pk), pk.pack((60, 50, 0, 0)), pk)
    assert spolynomial(p, q) == reference_spolynomial(p, q, keyf) == uni.parse("-x2^110 - x1^59*y1")


def test_packed_fields_follow_the_permutation():
    uni = xy_universe(2)
    e = (2, 0, 1, 0, 3, 1)
    for order, fields in [(None, e),
                          (("y1", "x1", "x2", "x3", "y2", "y3"), (0, 2, 0, 1, 3, 1))]:
        pk = _packing(uni, order, _INITIAL_WIDTH)
        stride = _INITIAL_WIDTH + 1
        assert pk.pack(e) == sum(f << (stride * (len(fields) - 1 - k))
                                 for k, f in enumerate(fields))


def test_order_renders_as_json():
    gens = diagonal_ideal(1).generators
    perm = ("y1", "y2", "x1", "x2")
    for order, text in [(perm, '["y1", "y2", "x1", "x2"]'), (None, "null")]:
        want = '{"kind": "lex", "variable_permutation": %s}' % text
        _, run = buchberger(gens, order)
        assert json.dumps(run.to_json_dict()["order"]) == want
        assert json.dumps(order_json(order)) == want
