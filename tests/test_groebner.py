"""Monomial orders, Buchberger, and basis certification."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from flatcert import groebner
from flatcert import (
    DEFAULT_ORDER,
    BiPolynomial,
    PlaneCurvePair,
    DimensionUndefinedError,
    Ideal,
    MonomialOrderSpec,
    buchberger,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    gamma_curve_ideal,
    ideal_dimension,
    is_groebner_basis,
    leading_monomial,
    monomials_of_bidegree,
    normal_form,
    random_chart_point,
    random_plane_curve,
    special_fiber_ideal,
    spolynomial,
    xy_universe,
)
from flatcert.groebner import (
    BuchbergerRun,
    SPairEvent,
    _gdata,
    _integer_terms,
    _monic,
    _reduce_terms,
    intersect_monomial_exponents,
    leading_term,
    minimalize_monomial_exponents,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

UNI = xy_universe(2)


def order_for(label, universe):
    """lex, grevlex, or lex on seeded shuffled x/y variables, as
    verify-groebner samples them.  (Shuffle seed 0 puts y1 > x2 > y2 > x3 >
    x1 > x4 > y4 > y3 on the n=3 fiber, where completion runs for minutes.)"""
    if label != "lex_permuted":
        return MonomialOrderSpec(label)
    names = list(universe.x_names + universe.y_names)
    Random(1).shuffle(names)
    return MonomialOrderSpec("lex", tuple(names))


ORDER_LABELS = [*MonomialOrderSpec.KINDS, "lex_permuted"]
ORDERS = [order_for(label, UNI) for label in ORDER_LABELS]


def exponent_strategy(universe=UNI, max_exp=3):
    return st.tuples(
        *[st.integers(min_value=0, max_value=max_exp) for _ in universe.names]
    )


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_LABELS)
@given(a=exponent_strategy(), b=exponent_strategy(), c=exponent_strategy())
def test_order_respects_multiplication(order, a, b, c):
    key = order.key_function(UNI)
    if key(a) < key(b):
        assert key(monomial_mul(a, c)) < key(monomial_mul(b, c))


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_LABELS)
@given(a=exponent_strategy())
def test_order_has_one_as_minimum(order, a):
    key = order.key_function(UNI)
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
    ok, cert = is_groebner_basis(basis)
    assert ok and cert.passed
    assert all(sp["remainder_zero"] for sp in cert.spairs)


def test_buchberger_adds_spolynomials_when_needed():
    uni = xy_universe(1)
    f = uni.parse("x1*y1 + x2*y2")
    g = uni.parse("x1*y2 - x2*y1")
    ok, _ = is_groebner_basis([f, g])
    assert not ok
    basis, run = buchberger([f, g])
    assert len(basis) > 2
    assert any(ev.action == "new_generator" for ev in run.events)
    ok, cert = is_groebner_basis(basis)
    assert ok
    # every generator reduces to zero against the basis
    assert normal_form(f, basis).is_zero()
    assert normal_form(g, basis).is_zero()


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_LABELS)
def test_buchberger_terminates_under_every_order(order):
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
    texts = sorted(repr(m) for m in init)
    assert texts == [
        "BiMonomial('x1*y2')",
        "BiMonomial('x1*y3')",
        "BiMonomial('x2*y3')",
    ]


def test_leading_monomial_respects_order():
    f = UNI.parse("x1*y2 + x2*y1")
    assert repr(leading_monomial(f, MonomialOrderSpec("lex"))) == "BiMonomial('x1*y2')"


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
    assert calls == [DEFAULT_ORDER]
    # other orders go through buchberger itself
    grevlex = MonomialOrderSpec("grevlex")
    b3, _ = buchberger(ideal.generators, grevlex)
    ok, _ = is_groebner_basis(b3, grevlex)
    assert ok


def test_ideal_dimension_desk_values():
    # special fiber: 3 affine / 1 projective; minors: 4 affine
    assert ideal_dimension(special_fiber_ideal(2)) == 3
    assert ideal_dimension(special_fiber_ideal(2), projective=True) == 1
    assert ideal_dimension(diagonal_ideal(2)) == 4
    full = Ideal(UNI, [UNI.variable(nm) for nm in UNI.names])
    assert ideal_dimension(full) == 0
    with pytest.raises(DimensionUndefinedError):
        ideal_dimension(Ideal(UNI, [UNI.one()]))


def test_ideal_requires_a_generator():
    with pytest.raises(ValueError):
        Ideal(UNI, [])


def test_monomial_intersection_and_minimalization():
    uni = xy_universe(1)
    a = [m.exponents for m in monomials_of_bidegree(uni, 1, 1)]
    # <all degree (1,1) monomials> meet <x1^2>, then minimalized
    b = [uni.parse("x1^2").terms_sorted()[0][0]]
    meet = intersect_monomial_exponents(a, b)
    meet = minimalize_monomial_exponents(meet)
    rendered = sorted(uni.monomial_text(e) for e in meet)
    assert rendered == ["x1^2*y1", "x1^2*y2"]


def test_certificate_reports_every_pair():
    basis, _ = buchberger(special_fiber_ideal(2).generators)
    ok, cert = is_groebner_basis(basis)
    assert ok
    n = len(basis)
    assert len(cert.spairs) == n * (n - 1) // 2
    assert cert.order.kind == "lex"


# --- the audit trail against a reference completion loop ---

def reference_key(order, uni):
    """The order key as a per-term Python function, natural lex included."""
    if order.kind != "lex":
        return order.key_function(uni)
    perm = order.permutation_indices(uni)
    nxy = uni.num_xy
    return lambda e: tuple(e[i] for i in perm) + e[nxy:]


def reference_gdata(basis, keyf):
    return [(*leading_term(g, keyf), g.terms) for g in basis]


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
    (lmf, lcf), (lmg, lcg) = leading_term(f, keyf), leading_term(g, keyf)
    lcm = monomial_lcm(lmf, lmg)
    mf = BiPolynomial(f.universe, {tuple(a - b for a, b in zip(lcm, lmf)): 1 / lcf})
    mg = BiPolynomial(g.universe, {tuple(a - b for a, b in zip(lcm, lmg)): 1 / lcg})
    return mf * f - mg * g


def reference_interreduce(basis, keyf):
    """Minimalize leading terms, then reduce tails until nothing changes."""
    minimal = []
    for g in sorted(basis, key=lambda g: keyf(leading_term(g, keyf)[0])):
        lm = leading_term(g, keyf)[0]
        if not any(monomial_divides(leading_term(h, keyf)[0], lm) for h in minimal):
            minimal.append(_monic(g, keyf))
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1:]
            if others:
                r, _ = reference_reduce_terms(g.terms, reference_gdata(others, keyf), keyf)
                rp = _monic(BiPolynomial(g.universe, _canonical=r), keyf)
                if rp != g:
                    minimal[i], changed = rp, True
    return sorted(minimal, key=lambda g: keyf(leading_term(g, keyf)[0]))


def reference_buchberger(gens, order):
    """Completion that rescans every pending pair with min() on each step."""
    uni = gens[0].universe
    keyf = reference_key(order, uni)
    run = BuchbergerRun(order=order)
    G = [_monic(g, keyf) for g in gens]
    lms = [leading_term(g, keyf)[0] for g in G]
    pending = set(combinations(range(len(G)), 2))
    while pending:
        best = min(pending, key=lambda ij: (keyf(monomial_lcm(lms[ij[0]], lms[ij[1]])), ij))
        pending.remove(best)
        i, j = best
        lcm = monomial_lcm(lms[i], lms[j])
        lcm_text = uni.monomial_text(lcm)
        if lcm == monomial_mul(lms[i], lms[j]):
            run.events.append(SPairEvent(i, j, lcm_text, "skipped_coprime"))
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
            run.events.append(SPairEvent(i, j, lcm_text, "skipped_chain"))
            continue
        s = reference_spolynomial(G[i], G[j], keyf)
        r, steps = reference_reduce_terms(s.terms, reference_gdata(G, keyf), keyf)
        if r:
            g_new = _monic(BiPolynomial(uni, _canonical=r), keyf)
            G.append(g_new)
            lms.append(leading_term(g_new, keyf)[0])
            m = len(G) - 1
            pending.update((t, m) for t in range(m))
            run.events.append(SPairEvent(i, j, lcm_text, "new_generator", steps))
        else:
            run.events.append(SPairEvent(i, j, lcm_text, "reduced_to_zero", steps))
    basis = tuple(reference_interreduce(G, keyf))
    run.basis = basis
    return basis, run


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
}


@pytest.mark.parametrize("label", ORDER_LABELS)
@pytest.mark.parametrize("name", sorted(AUDIT_INPUTS))
def test_audit_trail_matches_reference_loop(name, label):
    gens = AUDIT_INPUTS[name]()
    order = order_for(label, gens[0].universe)
    basis, run = buchberger(gens, order)
    ref_basis, ref_run = reference_buchberger(gens, order)
    assert basis == ref_basis
    assert run.to_json_dict() == ref_run.to_json_dict()
    assert any(ev.action == "new_generator" for ev in run.events)


def random_polynomial(rng, universe, bidegree, num_terms):
    """Bihomogeneous, with coefficients p/q, |p| <= 50 and q in 1..12."""
    monomials = [m.exponents for m in monomials_of_bidegree(universe, *bidegree)]
    picked = rng.sample(monomials, min(num_terms, len(monomials)))
    return BiPolynomial(universe, {
        e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 12))
        for e in picked})


@pytest.mark.parametrize("label", ORDER_LABELS)
def test_normal_form_matches_reference_kernel(label):
    order = order_for(label, UNI)
    keyf = order.key_function(UNI)
    steps_seen = 0
    for seed in range(40):
        rng = Random(seed)
        basis = [random_polynomial(rng, UNI, rng.choice([(1, 1), (1, 0), (0, 2)]),
                                   rng.randint(2, 5)) for _ in range(rng.randint(2, 4))]
        f = random_polynomial(rng, UNI, (2, 2), rng.randint(4, 12))
        r, steps = _reduce_terms(*_integer_terms(f.terms), _gdata(basis, keyf), keyf)
        ref_r, ref_steps = reference_reduce_terms(f.terms, reference_gdata(basis, keyf), keyf)
        assert r == ref_r and steps == ref_steps, seed
        assert normal_form(f, basis, order).terms == ref_r
        assert spolynomial(*basis[:2], order) == reference_spolynomial(*basis[:2], keyf)
        steps_seen += steps
    assert steps_seen > 0


def test_natural_lex_key_is_the_exponent_tuple():
    uni = xy_universe(2)
    key = DEFAULT_ORDER.key_function(uni)
    e = (2, 0, 1, 0, 3, 1)
    assert key(e) is e
    assert key(e) == reference_key(DEFAULT_ORDER, uni)(e)
    permuted = MonomialOrderSpec("lex", ("y1", "x1", "x2", "x3", "y2", "y3"))
    assert permuted.key_function(uni)(e) == (0, 2, 0, 1, 3, 1)
