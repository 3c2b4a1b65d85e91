"""Monomial orders, Buchberger completion, reduced bases, initial ideals,
and Hilbert-series numerators of monomial quotients, with the dimension.

Determinism notes.  Reduction always rewrites the largest reducible term by
the first applicable divisor in the basis's stored order.  Completion
selects the pending S-pair whose lcm has the smallest x/y total degree
(parameters count 0), then the smallest lcm in the active order, then the
lexicographically smallest generator index pair; pairs are skipped by the
coprimality criterion and the chain criterion.  The selection rule fixes
only the audit trail: the reduced basis of an ideal under an order is
unique, so it does not depend on the rule.  Verification
(is_groebner_basis) reduces every S-pair with no skipping and returns one
plain record per pair with its reduction chain length, so certificates are
reproducible run to run.  Initial ideals are exponent tuples too:
`Ideal.initial_ideal()` returns the minimal leading exponents, descending.

Orders.  The kernel is lex-only, so an order is its variable permutation:
a tuple of x/y variable names, most significant first, or None
(`DEFAULT_ORDER`) for natural lex, x1 > ... > x{n+1} > y1 > ... > y{n+1}.
`_Packing` is the one reader of a permutation.  Under natural lex the
leading exponent of a polynomial g is `max(g.terms)`, since tuples compare
lexicographically.  Parameter variables compare below all x/y variables in
every order, so leading terms are taken with respect to x/y content when
chart parameters are still symbolic.  `DEFAULT_ORDER` is the default of
`buchberger`, `normal_form` and `is_groebner_basis`, but every `Ideal`
completes under `chart_order`, x1 > ... > x{n+1} > y{n+1} > ... > y1.
Under it the chart change x' = u^T.x, y' = u^-1.y (u lower unipotent) is
triangular: x'_j leads with x_j and y'_j with y_j, so it keeps every
leading term, and a chart fiber completes along the special fiber's path
to the same initial ideal, with fewer S-pairs than under natural lex.  No
report depends on the choice: an `Ideal`'s basis feeds only its Hilbert
series and dimension, which are the same for every term order.

Arithmetic.  Inside `normal_form`, `spolynomial`, `buchberger` (with its
interreduction) and `is_groebner_basis`, each monomial is one int
(`_Packing`): one field per exponent, in the order's significance order,
with a guard bit above each field.  Multiplying monomials adds their ints,
comparing them compares monomials, and a divides b exactly when b - a sets
no guard bit.  Reduction runs fraction-free inside `_reduce_terms`: the
working polynomial is integers over one common denominator, each basis
element is a primitive integer polynomial built once per basis, S-pairs are
formed from the integer tails, and the leading term comes off a heap of
ints.  A field that would overflow raises `_FieldOverflow` before any term
is stored, and the whole call restarts at twice the field width, so
results never depend on the width.  Exponent tuples and `Fraction` appear
only at the API boundary: converting an input, storing a remainder term,
and the `BuchbergerRun` audit trail.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import comb, gcd, lcm
from operator import itemgetter, le, lshift
from typing import Callable, Iterable, Sequence, TypeVar

from .polyring import (
    BiPolynomial,
    Exponents,
    UniverseMismatchError,
    VariableUniverse,
)


class DimensionUndefinedError(ValueError):
    """Dimension was requested for the whole ring (the ideal contains a unit)."""


# x/y variable names, most significant first, or None for natural lex
# (see "Orders" above)
Order = tuple[str, ...] | None

DEFAULT_ORDER: Order = None


def chart_order(universe: VariableUniverse) -> Order:
    """x1 > ... > x{n+1} > y{n+1} > ... > y1, the order `Ideal` completes
    under (see "Orders" above)."""
    return (*universe.x_names, *reversed(universe.y_names))


def order_json(order: Order) -> dict:
    """The report form of an order; a permutation prints as a list."""
    return {"kind": "lex", "variable_permutation": None if order is None else list(order)}


def _permutation_indices(universe: VariableUniverse, order: Order) -> tuple[int, ...]:
    """The indices of the x/y variables of `order`, most significant first."""
    nxy = universe.num_xy
    if order is None:
        return tuple(range(nxy))
    idx = []
    for name in order:
        i = universe.index.get(name)
        if i is None or i >= nxy:
            raise ValueError(f"{name!r} is not an x/y variable of this universe")
        idx.append(i)
    if sorted(idx) != list(range(nxy)):
        raise ValueError("variable_permutation must list every x/y variable exactly once")
    return tuple(idx)


# --- monomial helpers on raw exponent tuples ---

def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))

def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


# --- packed monomials ---

class _FieldOverflow(Exception):
    """An exponent outgrew its packed field; `_packed` retries wider."""


class _Packing:
    """The monomials of one universe as ints, for one order and field width.

    A monomial's key has one field per exponent, the most significant first:
    the x/y variables in `_permutation_indices` order, then the parameters.
    Each field is `width` bits with a guard bit above it, kept zero.  Keys
    compare as the monomials do, add field by field as the monomials
    multiply, and a divides b exactly when b - a has no guard bit set: a
    field of b smaller than a's borrows from the guard bit above it.
    """

    __slots__ = ("universe", "guard", "_limit", "_shifts", "_fields", "_exponents")

    def __init__(self, universe: VariableUniverse, order: Order, width: int):
        params = tuple(range(universe.num_xy, universe.num_vars))
        variables = _permutation_indices(universe, order) + params
        stride = width + 1
        self._shifts = tuple(range(stride * (len(variables) - 1), -1, -stride))
        self.universe = universe
        self._limit = (1 << width) - 1
        self.guard = sum(1 << (s + width) for s in self._shifts)
        self._fields = itemgetter(*variables)
        self._exponents = itemgetter(*map(variables.index, range(len(variables))))

    def pack(self, e: Exponents) -> int:
        """The key of e; raises _FieldOverflow if a field cannot hold it."""
        fields = self._fields(e)
        if max(fields) > self._limit:
            raise _FieldOverflow
        return sum(map(lshift, fields, self._shifts))

    def unpack(self, key: int) -> Exponents:
        limit = self._limit
        return self._exponents([(key >> s) & limit for s in self._shifts])


@lru_cache(maxsize=32)
def _packing(universe: VariableUniverse, order: Order, width: int) -> _Packing:
    return _Packing(universe, order, width)


# Field width of a first attempt: exponents up to 63.  A field that
# overflows restarts the whole computation at twice the width.
_INITIAL_WIDTH = 6

_T = TypeVar("_T")


def _packed(run: Callable[[_Packing], _T], universe: VariableUniverse,
            order: Order) -> _T:
    """run(packing), at the first width from _INITIAL_WIDTH up, doubling,
    where no exponent overflows its field.  A permutation given as a list
    is taken as a tuple, the hashable form the `_packing` cache needs."""
    if order is not None:
        order = tuple(order)
    width = _INITIAL_WIDTH
    while True:
        try:
            return run(_packing(universe, order, width))
        except _FieldOverflow:
            width *= 2


# --- reduction ---

def _integer_terms(terms: dict) -> tuple[dict, int]:
    """(h, scale) with integer h and terms == h / scale."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}, scale


def _packed_terms(f: BiPolynomial, pk: _Packing) -> tuple[dict[int, int], int]:
    """(h, scale) with integer h keyed by packed key and f == h / scale."""
    ints, scale = _integer_terms(f.terms)
    return {pk.pack(e): c for e, c in ints.items()}, scale


def _polynomial(terms: dict[int, Fraction], pk: _Packing) -> BiPolynomial:
    return BiPolynomial(pk.universe, _canonical={pk.unpack(k): c for k, c in terms.items()})


# One record per basis element, built once: the key of the leading
# monomial, the element scaled to a primitive integer polynomial with
# positive leading coefficient, split into that coefficient and its tail,
# and the bitwise or of the tail's keys, which bounds every tail field for
# the overflow test.
_Divisor = tuple[int, int, tuple[tuple[int, int], ...], int]


def _divisor(h: dict[int, int], pk: _Packing) -> _Divisor:
    """The record of the nonzero polynomial h (integer, keyed by key)."""
    lm = max(h)
    content = gcd(*h.values())
    if h[lm] < 0:
        content = -content
    tail = tuple((k, c // content) for k, c in h.items() if k != lm)
    bits = 0
    for k, _ in tail:
        bits |= k
    return lm, h[lm] // content, tail, bits


def _gdata(basis: Sequence[BiPolynomial], pk: _Packing) -> list[_Divisor]:
    return [_divisor(_packed_terms(g, pk)[0], pk) for g in basis]


def _monic_polynomial(d: _Divisor, pk: _Packing) -> BiPolynomial:
    lm, lc, tail, _ = d
    return _polynomial({lm: Fraction(1), **{k: Fraction(c, lc) for k, c in tail}}, pk)


def _reduce_terms(h: dict[int, int], scale: int, gdata: Sequence[_Divisor],
                  pk: _Packing) -> tuple[dict[int, Fraction], int]:
    """Full division-algorithm remainder of h / scale plus the reduction
    chain length; h is consumed.

    The working polynomial stays h / scale with integer h.  A step by a
    divisor with integer leading coefficient lc cancels the leading term c
    by h <- (lc/g)*h - (c/g)*shift*tail, g = gcd(c, lc), fraction-free as
    in Bareiss elimination, and divides out the content when lc/g is not 1.
    Leading terms come off a heap of negated keys; a term is pushed when it
    appears in h, and a popped term no longer in h is skipped.  A step
    whose shifted tail would overflow a field raises _FieldOverflow before
    it changes h.
    """
    if not h:
        return {}, 0
    heap = [-k for k in h]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    guard = pk.guard
    r: dict[int, Fraction] = {}
    steps = 0
    while heap:
        lead = -heappop(heap)
        c = h.pop(lead, 0)
        if not c:
            continue
        for lm, lc, tail, bits in gdata:
            shift = lead - lm
            if shift & guard:
                continue
            if (bits + shift) & guard:
                raise _FieldOverflow
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a != 1:
                for e in h:
                    h[e] *= a
                scale *= a
            for e, gc in tail:
                e += shift
                v = h.get(e)
                if v is None:
                    h[e] = -b * gc
                    heappush(heap, -e)
                else:
                    v -= b * gc
                    if v:
                        h[e] = v
                    else:
                        del h[e]
            if a != 1:
                content = gcd(scale, *h.values())
                if content != 1:
                    scale //= content
                    for e in h:
                        h[e] //= content
            steps += 1
            break
        else:
            r[lead] = Fraction(c, scale)
    return r, steps


def _universe(polys: Sequence[BiPolynomial],
              universe: VariableUniverse | None = None) -> VariableUniverse:
    """The one universe of polys (universe, if given), checked on entry to
    the kernel: ValueError for no polynomials or a zero one,
    UniverseMismatchError for a polynomial over another universe."""
    if not polys:
        raise ValueError("need at least one polynomial")
    uni = polys[0].universe if universe is None else universe
    for k, g in enumerate(polys):
        if g.universe != uni:
            raise UniverseMismatchError(f"polynomial {k} lives over another universe")
        if g.is_zero():
            raise ValueError(f"polynomial {k} is the zero polynomial")
    return uni


def normal_form(f: BiPolynomial, basis: Sequence[BiPolynomial],
                order: Order = DEFAULT_ORDER) -> BiPolynomial:
    """Deterministic full remainder of f modulo the listed polynomials."""
    uni = _universe(basis, f.universe)

    def run(pk: _Packing) -> BiPolynomial:
        r, _ = _reduce_terms(*_packed_terms(f, pk), _gdata(basis, pk), pk)
        return _polynomial(r, pk)
    return _packed(run, uni, order)


def _spair(p: _Divisor, q: _Divisor, lcm_key: int, pk: _Packing) -> tuple[dict[int, int], int]:
    """The S-polynomial x^(L-lm p) p/lc p - x^(L-lm q) q/lc q, L the lcm of
    the leading monomials (lcm_key its key), as (h, scale).  The leading
    terms cancel by construction, so it is built from the two tails alone."""
    lcp, lcq = p[1], q[1]
    g = gcd(lcp, lcq)
    a, b = lcq // g, lcp // g
    h: dict[int, int] = {}
    for (lm, _, tail, bits), factor in ((p, a), (q, -b)):
        shift = lcm_key - lm
        if (bits + shift) & pk.guard:
            raise _FieldOverflow
        for e, c in tail:
            e += shift
            v = h.get(e, 0) + factor * c
            if v:
                h[e] = v
            else:
                del h[e]
    return h, lcp * a


def spolynomial(f: BiPolynomial, g: BiPolynomial,
                order: Order = DEFAULT_ORDER) -> BiPolynomial:
    uni = _universe((f, g))

    def run(pk: _Packing) -> BiPolynomial:
        p, q = _gdata((f, g), pk)
        lcm_key = pk.pack(monomial_lcm(pk.unpack(p[0]), pk.unpack(q[0])))
        h, scale = _spair(p, q, lcm_key, pk)
        return _polynomial({k: Fraction(c, scale) for k, c in h.items()}, pk)
    return _packed(run, uni, order)


# --- Buchberger completion ---

@dataclass
class SPairEvent:
    i: int
    j: int
    lcm: Exponents
    action: str  # reduced_to_zero | new_generator | skipped_coprime | skipped_chain
    reduction_steps: int = 0

    def to_json_dict(self, universe: VariableUniverse) -> dict:
        return {"pair": [self.i, self.j], "lcm": universe.monomial_text(self.lcm),
                "action": self.action, "reduction_steps": self.reduction_steps}


@dataclass
class BuchbergerRun:
    """Audit trail of one completion: per-pair events, the reduced basis and
    its leading exponents `initial`, the minimal generators of the initial
    ideal in the basis's order, which the report form leaves out."""

    order: Order
    events: list[SPairEvent] = field(default_factory=list)
    basis: tuple[BiPolynomial, ...] = ()
    initial: tuple[Exponents, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "order": order_json(self.order),
            "events": [ev.to_json_dict(self.basis[0].universe) for ev in self.events],
            "basis": [str(g) for g in self.basis],
        }


def _interreduce(gdata: list[_Divisor], pk: _Packing) -> list[_Divisor]:
    """Minimalize leading terms, then reduce every tail once."""
    minimal: list[_Divisor] = []
    for d in sorted(gdata, key=itemgetter(0)):
        if all((d[0] - m[0]) & pk.guard for m in minimal):
            minimal.append(d)
    # one pass suffices: reduction keeps every leading term, so a tail
    # reduced against them stays reduced when the others change
    for i, (lm, lc, tail, _) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            r, _ = _reduce_terms({lm: lc, **dict(tail)}, 1, others, pk)
            minimal[i] = _divisor(_integer_terms(r)[0], pk)
    minimal.sort(key=itemgetter(0))
    return minimal


def buchberger(gens: Sequence[BiPolynomial],
               order: Order = DEFAULT_ORDER) -> tuple[tuple[BiPolynomial, ...], BuchbergerRun]:
    """Reduced Groebner basis of <gens> plus the S-pair audit trail."""
    gens = list(gens)
    uni = _universe(gens)
    return _packed(lambda pk: _complete(gens, order, pk), uni, order)


def _complete(gens: list[BiPolynomial], order: Order,
              pk: _Packing) -> tuple[tuple[BiPolynomial, ...], BuchbergerRun]:
    """`buchberger` under one packing."""
    guard = pk.guard
    run = BuchbergerRun(order=order)
    gdata = _gdata(gens, pk)
    keys = [d[0] for d in gdata]
    lms = list(map(pk.unpack, keys))
    # Pairs pop by (x/y degree of the lcm, key of the lcm, (i, j)): the
    # normal strategy (Buchberger 1985), which on input homogeneous in x/y
    # is also the sugar strategy (Giovini et al. 1991).  Under lex, ordering
    # by the key alone runs high-degree pairs first and can blow up.  The
    # reduced basis does not depend on the selection; only the audit trail
    # does.  `pending` holds the pairs not yet popped, which is what the
    # chain criterion asks about.
    nxy = pk.universe.num_xy
    heap: list[tuple[int, int, tuple[int, int], Exponents]] = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int) -> None:
        lcm_e = monomial_lcm(lms[i], lms[j])
        heapq.heappush(heap, (sum(lcm_e[:nxy]), pk.pack(lcm_e), (i, j), lcm_e))
        pending.add((i, j))

    for i, j in combinations(range(len(gdata)), 2):
        push(i, j)

    while heap:
        _, lcm_key, best, lcm_e = heapq.heappop(heap)
        pending.remove(best)
        i, j = best
        if lcm_key == keys[i] + keys[j]:
            run.events.append(SPairEvent(i, j, lcm_e, "skipped_coprime"))
            continue
        chain = False
        for k, key in enumerate(keys):
            if (lcm_key - key) & guard or k == i or k == j:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chain = True
                break
        if chain:
            run.events.append(SPairEvent(i, j, lcm_e, "skipped_chain"))
            continue
        r, steps = _reduce_terms(*_spair(gdata[i], gdata[j], lcm_key, pk), gdata, pk)
        if r:
            gdata.append(_divisor(_integer_terms(r)[0], pk))
            keys.append(gdata[-1][0])
            lms.append(pk.unpack(keys[-1]))
            m = len(gdata) - 1
            for t in range(m):
                push(t, m)
            run.events.append(SPairEvent(i, j, lcm_e, "new_generator", steps))
        else:
            run.events.append(SPairEvent(i, j, lcm_e, "reduced_to_zero", steps))

    minimal = _interreduce(gdata, pk)
    run.basis = tuple(_monic_polynomial(d, pk) for d in minimal)
    run.initial = tuple(pk.unpack(d[0]) for d in minimal)
    return run.basis, run


def is_groebner_basis(basis: Sequence[BiPolynomial],
                      order: Order = DEFAULT_ORDER) -> tuple[bool, list[dict]]:
    """Reduce every S-pair of `basis`; no criteria, no shortcuts.  Returns
    (passed, spairs): one record {"pair", "lcm", "reduction_steps",
    "remainder_zero"} per pair i < j, and passed when every remainder is zero."""
    basis = list(basis)
    uni = _universe(basis)

    def run(pk: _Packing) -> list[dict]:
        gdata = _gdata(basis, pk)
        lms = [pk.unpack(d[0]) for d in gdata]
        spairs = []
        for i, j in combinations(range(len(basis)), 2):
            lcm_e = monomial_lcm(lms[i], lms[j])
            r, steps = _reduce_terms(*_spair(gdata[i], gdata[j], pk.pack(lcm_e), pk), gdata, pk)
            spairs.append({
                "pair": [i, j],
                "lcm": pk.universe.monomial_text(lcm_e),
                "reduction_steps": steps,
                "remainder_zero": not r,
            })
        return spairs
    spairs = _packed(run, uni, order)
    return all(sp["remainder_zero"] for sp in spairs), spairs


# --- ideals ---

class NonBihomogeneousError(ValueError):
    """A generator mixes bidegrees; Hilbert bookkeeping needs bihomogeneity."""

    def __init__(self, generator: BiPolynomial):
        self.generator = generator
        super().__init__(f"generator is not bihomogeneous: {generator}")


class Ideal:
    """A finitely generated bihomogeneous ideal with its reduced basis under
    `chart_order`, that basis's leading exponent tuples (`initial_ideal()`)
    and its `series_numerator()`, each computed on first use and cached,
    as is what the rank oracle learns (`hilbert._RankState`).
    The Hilbert function and `ideal_dimension` both read the numerator,
    which is the same under every term order, so the order only sets the
    cost: a chart fiber completes along the special fiber's path under
    `chart_order` (see "Orders" above).

    Other orders go through `buchberger(generators, order)` directly.
    """

    __slots__ = ("universe", "generators", "_computed", "_numerator", "_rank_state")

    def __init__(self, universe: VariableUniverse, generators: Iterable[BiPolynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal here needs at least one generator")
        for g in gens:
            if not isinstance(g, BiPolynomial):
                raise TypeError("generators must be BiPolynomial")
            if g.universe != universe:
                raise UniverseMismatchError("generator universe differs from the ideal's")
            if g.is_zero():
                raise ValueError("zero generator")
        self.universe = universe
        self.generators = gens
        self._computed: tuple[tuple[BiPolynomial, ...], tuple[Exponents, ...]] | None = None
        self._numerator: Numerator | None = None
        self._rank_state: object | None = None  # filled by hilbert's rank oracle

    def _basis_and_initial(self) -> tuple[tuple[BiPolynomial, ...], tuple[Exponents, ...]]:
        if self._computed is None:
            basis, run = buchberger(self.generators, chart_order(self.universe))
            self._computed = (basis, tuple(sorted(run.initial, reverse=True)))
        return self._computed

    def groebner_basis(self) -> tuple[BiPolynomial, ...]:
        return self._basis_and_initial()[0]

    def initial_ideal(self) -> tuple[Exponents, ...]:
        """Minimal generators of the ideal of leading terms, as exponent
        tuples in descending order: the leading exponents of the reduced
        basis under `chart_order`."""
        return self._basis_and_initial()[1]

    def series_numerator(self) -> Numerator:
        """K(s1, s2), the Hilbert series of S/in(I) being K / ((1-s1)(1-s2))^(n+1);
        the generators are validated before any basis is computed."""
        if self._numerator is None:
            _require_bihomogeneous(self)
            self._numerator = _series_numerator(self.initial_ideal(), self.universe.n + 1)
        return self._numerator

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return f"Ideal({gens}{more})"


def _require_bihomogeneous(ideal: Ideal) -> None:
    """The check every Hilbert count makes first, on either route."""
    if ideal.universe.param_names:
        raise ValueError("specialize parameter variables before Hilbert computations")
    for g in ideal.generators:
        if g.bidegree() is None:
            raise NonBihomogeneousError(g)


def ideal_dimension(ideal: Ideal) -> int:
    """dim S/in(I) - 2 (= dim S/I - 2): the Krull dimension of S/in(I), the
    pole order at s = 1 of K(s, s) / (1-s)^(2n+2) (Hilbert-Serre), less 2 for
    the two projective scalings.  The order of K(s, s) = sum c_m s^m at s = 1
    is the first k with K^(k)(1) / k! = sum c_m C(m, k) nonzero; the
    coefficients are summed by total degree m into a dict, so the cost does
    not grow with the exponents.

    This is the dimension of the zero set in P^n x P^n unless every
    top-dimensional component lies in x = 0 or y = 0; then it is too large
    (<x1, x2, x3> at n = 2, empty in P2 x P2*, gives 1).  It always bounds
    the degree of the diagonal Hilbert polynomial: the standard monomials
    split into pieces u*Q[F] with |F| <= dim S/in(I), and a piece whose F
    holds p x- and q y-variables counts C(t-a+p-1, p-1) * C(t-b+q-1, q-1)
    on the diagonal, degree p+q-2, or eventually 0 when p or q is 0.  So it
    is a sound dim_bound for interpolate_hilbert_polynomial, whose fit of
    degree at most the bound recovers any polynomial of lower degree."""
    coeffs: dict[int, int] = {}
    for (a, b), c in ideal.series_numerator().items():
        coeffs[a + b] = coeffs.get(a + b, 0) + c
    if not any(coeffs.values()):
        raise DimensionUndefinedError("the ideal is the whole ring")
    order = next(k for k in count() if sum(c * comb(m, k) for m, c in coeffs.items()))
    return ideal.universe.num_xy - order - 2


# --- monomial ideal utilities ---

def minimalize_monomial_exponents(exps: Iterable[Exponents]) -> list[Exponents]:
    """Minimal generators: drop any monomial divisible by another one."""
    unique = sorted(set(exps), key=lambda e: (sum(e), e))
    out: list[Exponents] = []
    for e in unique:
        if not any(monomial_divides(kept, e) for kept in out):
            out.append(e)
    return sorted(out, reverse=True)


def intersect_monomial_exponents(a: Iterable[Exponents], b: Iterable[Exponents]) -> list[Exponents]:
    """Intersection of two monomial ideals via pairwise lcms."""
    return minimalize_monomial_exponents(monomial_lcm(x, y) for x in a for y in b)


Numerator = dict[tuple[int, int], int]  # (a, b) -> coefficient of s1^a s2^b


def _subtract_shifted(acc: Numerator, other: Numerator, deg: tuple[int, int]) -> None:
    """acc -= s^deg * other, in place."""
    for (a, b), c in other.items():
        key = (a + deg[0], b + deg[1])
        acc[key] = acc.get(key, 0) - c


def _product_numerator(degrees: Iterable[tuple[int, int]]) -> Numerator:
    """prod (1 - s^deg): the numerator of pairwise coprime generators, with
    no zero coefficients, so that equal numerators compare equal."""
    out: Numerator = {(0, 0): 1}
    for deg in degrees:
        _subtract_shifted(out, dict(out), deg)
    return {key: c for key, c in out.items() if c}


def _series_numerator(lead: Iterable[Exponents], k: int) -> Numerator:
    """Numerator K of the bigraded Hilbert series K / ((1-s1)^k (1-s2)^k) of
    S/<lead>, where the first k exponents are the x-block and the next k the
    y-block.  Adds the minimal generators in descending exponent order:
    K(<m_1..m_r>) = K(<m_1..m_(r-1)>) - s^deg(m_r) K(<m_1..m_(r-1)> : m_r)
    (Bayer and Stillman, "Computation of Hilbert functions", 1992)."""
    gens = minimalize_monomial_exponents(lead)

    def deg(e: Exponents) -> tuple[int, int]:
        return (sum(e[:k]), sum(e[k:]))

    support = [i for e in gens for i, v in enumerate(e) if v]
    if len(support) == len(set(support)):  # pairwise coprime
        return _product_numerator(deg(e) for e in gens)
    out: Numerator = {(0, 0): 1}
    for r, m in enumerate(gens):
        colon = [tuple([a - b if a > b else 0 for a, b in zip(g, m)]) for g in gens[:r]]
        _subtract_shifted(out, _series_numerator(colon, k), deg(m))
    return {key: c for key, c in out.items() if c}
