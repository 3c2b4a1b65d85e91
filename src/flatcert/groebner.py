"""Monomial orders, Buchberger completion, reduced bases, initial ideals,
and combinatorial dimension of monomial quotients.

Determinism notes.  Reduction always rewrites the largest reducible term by
the first applicable divisor in the basis's stored order.  Completion
selects the pending S-pair with the smallest lcm in the active order, ties
broken lexicographically on the generator index pair; pairs are skipped by
the coprimality criterion and the chain criterion.  Verification
(is_groebner_basis) reduces every S-pair with no skipping and reports the
reduction chain lengths, so certificates are reproducible run to run.

Parameter variables compare below all x/y variables in every order, so
leading terms are taken with respect to x/y content when chart parameters
are still symbolic.

Arithmetic.  Reduction runs fraction-free inside `_reduce_terms`: the
working polynomial is integers over one common denominator, each basis
element is a primitive integer polynomial built once per basis, S-pairs are
formed from the integer tails, and the leading term comes off a heap.
`Fraction` appears only at the API boundary: converting an input and
storing a remainder term.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import add, itemgetter, le, neg, sub
from typing import Callable, ClassVar, Iterable, Sequence

from .polyring import (
    BiMonomial,
    BiPolynomial,
    Exponents,
    UniverseMismatchError,
    VariableUniverse,
)

OrderKey = Callable[[Exponents], tuple]


class DimensionUndefinedError(ValueError):
    """Dimension was requested for the whole ring (the ideal contains a unit)."""


@dataclass(frozen=True)
class MonomialOrderSpec:
    """A monomial order: kind plus an optional ordering of the x/y variables.

    variable_permutation lists x/y variable names from most to least
    significant; None means the natural order x1 > ... > x{n+1} > y1 > ...
    > y{n+1}.  Parameters always compare below every x/y variable, among
    themselves by universe order.
    """

    kind: str = "lex"
    variable_permutation: tuple[str, ...] | None = None

    KINDS: ClassVar[tuple[str, ...]] = ("lex", "grevlex")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}; choose from {self.KINDS}")
        if self.variable_permutation is not None:
            object.__setattr__(self, "variable_permutation", tuple(self.variable_permutation))

    def permutation_indices(self, universe: VariableUniverse) -> tuple[int, ...]:
        nxy = universe.num_xy
        if self.variable_permutation is None:
            return tuple(range(nxy))
        idx = []
        for name in self.variable_permutation:
            i = universe.index.get(name)
            if i is None or universe.is_param_index(i):
                raise ValueError(f"{name!r} is not an x/y variable of this universe")
            idx.append(i)
        if sorted(idx) != list(range(nxy)):
            raise ValueError("variable_permutation must list every x/y variable exactly once")
        return tuple(idx)

    def key_function(self, universe: VariableUniverse) -> OrderKey:
        """Additive key; comparing keys compares monomials.

        Natural lex (the default order) compares exponent tuples as they
        are, so its key is `tuple`, which returns a tuple argument itself
        without a Python-level call per term.
        """
        perm = self.permutation_indices(universe)
        nxy = universe.num_xy
        if self.kind == "lex" and perm == tuple(range(nxy)):
            return tuple
        if self.kind == "lex":
            permuted = itemgetter(*perm)

            def key(e: Exponents) -> tuple:
                return permuted(e) + e[nxy:]
        else:  # grevlex
            reversed_xy = itemgetter(*reversed(perm))

            def key(e: Exponents) -> tuple:
                xy = reversed_xy(e)
                return (sum(xy),) + tuple(map(neg, xy)) + e[nxy:]
        return key

    def to_json_dict(self) -> dict:
        return {"kind": self.kind,
                "variable_permutation": list(self.variable_permutation) if self.variable_permutation else None}


DEFAULT_ORDER = MonomialOrderSpec("lex", None)


def _resolve(order: MonomialOrderSpec | None) -> MonomialOrderSpec:
    return DEFAULT_ORDER if order is None else order


# --- monomial helpers on raw exponent tuples ---

def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))

def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))

def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def leading_term(f: BiPolynomial, keyf: OrderKey) -> tuple[Exponents, Fraction]:
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    e = max(f.terms, key=keyf)
    return e, f.terms[e]


def leading_monomial(f: BiPolynomial, order: MonomialOrderSpec | None = None) -> BiMonomial:
    keyf = _resolve(order).key_function(f.universe)
    e, _ = leading_term(f, keyf)
    return BiMonomial(f.universe, e)


# --- reduction ---

def _integer_terms(terms: dict[Exponents, Fraction]) -> tuple[dict[Exponents, int], int]:
    """(h, scale) with integer h and terms == h / scale."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}, scale


# One record per basis element, built once: the support bitmask of the
# leading monomial (for quick rejection), the leading monomial, and the
# element scaled to a primitive integer polynomial, split into its leading
# coefficient and its tail.
_Divisor = tuple[int, Exponents, int, tuple[tuple[Exponents, int], ...]]


def _divisor(g: BiPolynomial, keyf: OrderKey) -> _Divisor:
    lm, _ = leading_term(g, keyf)
    ints, _ = _integer_terms(g.terms)
    content = gcd(*ints.values())
    mask = sum(1 << i for i, v in enumerate(lm) if v)
    tail = tuple((e, c // content) for e, c in ints.items() if e != lm)
    return mask, lm, ints[lm] // content, tail


def _gdata(basis: Sequence[BiPolynomial], keyf: OrderKey) -> list[_Divisor]:
    return [_divisor(g, keyf) for g in basis]


def _negated(keyf: OrderKey) -> OrderKey:
    """The key whose smallest value is the largest monomial, for heapq."""
    if keyf is tuple:
        return lambda e: tuple(map(neg, e))
    return lambda e: tuple(map(neg, keyf(e)))


def _reduce_terms(h: dict[Exponents, int], scale: int, gdata: Sequence[_Divisor],
                  keyf: OrderKey) -> tuple[dict[Exponents, Fraction], int]:
    """Full division-algorithm remainder of h / scale plus the reduction
    chain length; h is consumed.

    The working polynomial stays h / scale with integer h.  A step by a
    divisor with integer leading coefficient lc cancels the leading term c
    by h <- (lc/g)*h - (c/g)*shift*tail, g = gcd(c, lc), fraction-free as
    in Bareiss elimination, and divides out the content when lc/g is not 1.
    Leading terms come off a heap of negated order keys; a term is pushed
    when it appears in h, and a popped term no longer in h is skipped.
    """
    if not h:
        return {}, 0
    negkey = _negated(keyf)
    heap = [(negkey(e), e) for e in h]
    heapq.heapify(heap)
    bits = [1 << i for i in range(len(heap[0][1]))]
    r: dict[Exponents, Fraction] = {}
    steps = 0
    while heap:
        lead = heapq.heappop(heap)[1]
        c = h.pop(lead, 0)
        if not c:
            continue
        lead_mask = sum(compress(bits, lead))
        for mask, lm, lc, tail in gdata:
            if mask & ~lead_mask or not all(map(le, lm, lead)):
                continue
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for e in h:
                    h[e] *= a
                scale *= a
            shift = tuple(map(sub, lead, lm))
            for ge, gc in tail:
                e = tuple(map(add, ge, shift))
                v = h.get(e)
                if v is None:
                    h[e] = -b * gc
                    heapq.heappush(heap, (negkey(e), e))
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


def normal_form(f: BiPolynomial, basis: Sequence[BiPolynomial],
                order: MonomialOrderSpec | None = None) -> BiPolynomial:
    """Deterministic full remainder of f modulo the listed polynomials."""
    order = _resolve(order)
    keyf = order.key_function(f.universe)
    for g in basis:
        if g.universe != f.universe:
            raise UniverseMismatchError("basis and argument universes differ")
        if g.is_zero():
            raise ValueError("zero polynomial in reduction basis")
    r, _ = _reduce_terms(*_integer_terms(f.terms), _gdata(basis, keyf), keyf)
    return BiPolynomial(f.universe, _canonical=r)


def _spair(p: _Divisor, q: _Divisor) -> tuple[dict[Exponents, int], int]:
    """The S-polynomial x^(L-lm p) p/lc p - x^(L-lm q) q/lc q, L the lcm of
    the leading monomials, as (h, scale).  The leading terms cancel by
    construction, so it is built from the two tails alone."""
    _, lmp, lcp, tailp = p
    _, lmq, lcq, tailq = q
    lcm_pq = monomial_lcm(lmp, lmq)
    g = gcd(lcp, lcq)
    a, b = lcq // g, lcp // g
    h: dict[Exponents, int] = {}
    for tail, lm, factor in ((tailp, lmp, a), (tailq, lmq, -b)):
        shift = tuple(map(sub, lcm_pq, lm))
        for e, c in tail:
            e = tuple(map(add, e, shift))
            v = h.get(e, 0) + factor * c
            if v:
                h[e] = v
            else:
                del h[e]
    return h, lcp * a


def spolynomial(f: BiPolynomial, g: BiPolynomial,
                order: MonomialOrderSpec | None = None) -> BiPolynomial:
    keyf = _resolve(order).key_function(f.universe)
    h, scale = _spair(_divisor(f, keyf), _divisor(g, keyf))
    return BiPolynomial(f.universe, _canonical={e: Fraction(c, scale) for e, c in h.items()})


# --- Buchberger completion ---

@dataclass
class SPairEvent:
    i: int
    j: int
    lcm: str
    action: str  # reduced_to_zero | new_generator | skipped_coprime | skipped_chain
    reduction_steps: int = 0

    def to_json_dict(self) -> dict:
        return {"pair": [self.i, self.j], "lcm": self.lcm,
                "action": self.action, "reduction_steps": self.reduction_steps}


@dataclass
class BuchbergerRun:
    """Audit trail of one completion: per-pair events and the reduced basis."""

    order: MonomialOrderSpec
    events: list[SPairEvent] = field(default_factory=list)
    basis: tuple[BiPolynomial, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "order": self.order.to_json_dict(),
            "events": [ev.to_json_dict() for ev in self.events],
            "basis": [str(g) for g in self.basis],
        }


def _monic(f: BiPolynomial, keyf: OrderKey) -> BiPolynomial:
    _, lc = leading_term(f, keyf)
    return f if lc == 1 else f / lc


def _interreduce(basis: list[BiPolynomial], keyf: OrderKey) -> list[BiPolynomial]:
    """Minimalize leading terms, then reduce every tail once."""
    ordered = sorted(basis, key=lambda g: keyf(leading_term(g, keyf)[0]))
    minimal: list[BiPolynomial] = []
    for g in ordered:
        lm = leading_term(g, keyf)[0]
        if not any(monomial_divides(leading_term(h, keyf)[0], lm) for h in minimal):
            minimal.append(_monic(g, keyf))
    # one pass suffices: reduction keeps every leading term, so a tail
    # reduced against them stays reduced when the others change
    gdata = _gdata(minimal, keyf)
    for i, g in enumerate(minimal):
        others = gdata[:i] + gdata[i + 1:]
        if others:
            r, _ = _reduce_terms(*_integer_terms(g.terms), others, keyf)
            minimal[i] = BiPolynomial(g.universe, _canonical=r)
            gdata[i] = _divisor(minimal[i], keyf)
    minimal.sort(key=lambda g: keyf(leading_term(g, keyf)[0]))
    return minimal


def buchberger(gens: Sequence[BiPolynomial],
               order: MonomialOrderSpec | None = None) -> tuple[tuple[BiPolynomial, ...], BuchbergerRun]:
    """Reduced Groebner basis of <gens> plus the S-pair audit trail."""
    order = _resolve(order)
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    uni = gens[0].universe
    for g in gens:
        if g.universe != uni:
            raise UniverseMismatchError("generators live over different universes")
        if g.is_zero():
            raise ValueError("zero generator")
    keyf = order.key_function(uni)
    run = BuchbergerRun(order=order)

    G = [_monic(g, keyf) for g in gens]
    gdata = _gdata(G, keyf)
    lms = [lm for _, lm, _, _ in gdata]
    # Pairs pop by (order key of the lcm, (i, j)): the smallest lcm first,
    # ties broken on the index pair.  `pending` holds the pairs not yet
    # popped, which is what the chain criterion asks about.
    heap: list[tuple[tuple, tuple[int, int], Exponents]] = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int) -> None:
        lcm = monomial_lcm(lms[i], lms[j])
        heapq.heappush(heap, (keyf(lcm), (i, j), lcm))
        pending.add((i, j))

    for i, j in combinations(range(len(G)), 2):
        push(i, j)

    while heap:
        _, best, lcm = heapq.heappop(heap)
        pending.remove(best)
        i, j = best
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
        r, steps = _reduce_terms(*_spair(gdata[i], gdata[j]), gdata, keyf)
        if r:
            g_new = _monic(BiPolynomial(uni, _canonical=r), keyf)
            G.append(g_new)
            gdata.append(_divisor(g_new, keyf))
            lms.append(gdata[-1][1])
            m = len(G) - 1
            for t in range(m):
                push(t, m)
            run.events.append(SPairEvent(i, j, lcm_text, "new_generator", steps))
        else:
            run.events.append(SPairEvent(i, j, lcm_text, "reduced_to_zero", steps))

    basis = tuple(_interreduce(G, keyf))
    run.basis = basis
    return basis, run


@dataclass
class GroebnerCertificate:
    """Exhaustive S-pair verification: every pair, its lcm, its chain length."""

    order: MonomialOrderSpec
    passed: bool
    spairs: list[dict]

    def to_json_dict(self) -> dict:
        return {"order": self.order.to_json_dict(), "passed": self.passed, "spairs": self.spairs}


def is_groebner_basis(basis: Sequence[BiPolynomial],
                      order: MonomialOrderSpec | None = None) -> tuple[bool, GroebnerCertificate]:
    """Reduce every S-pair of `basis`; no criteria, no shortcuts."""
    order = _resolve(order)
    basis = list(basis)
    if not basis:
        raise ValueError("need at least one basis element")
    uni = basis[0].universe
    keyf = order.key_function(uni)
    gdata = _gdata(basis, keyf)
    lms = [lm for _, lm, _, _ in gdata]
    spairs = []
    passed = True
    for i, j in combinations(range(len(basis)), 2):
        r, steps = _reduce_terms(*_spair(gdata[i], gdata[j]), gdata, keyf)
        zero = not r
        passed = passed and zero
        spairs.append({
            "pair": [i, j],
            "lcm": uni.monomial_text(monomial_lcm(lms[i], lms[j])),
            "reduction_steps": steps,
            "remainder_zero": zero,
        })
    return passed, GroebnerCertificate(order=order, passed=passed, spairs=spairs)


# --- ideals ---

class Ideal:
    """A finitely generated bihomogeneous ideal with cached reduced bases.

    The cache maps an order spec to (reduced basis, initial ideal); writes
    happen once per order under a lock, so concurrent readers are safe.
    """

    __slots__ = ("universe", "generators", "_cache", "_lock")

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
        self._cache: dict[MonomialOrderSpec, tuple[tuple[BiPolynomial, ...], tuple[BiMonomial, ...]]] = {}
        self._lock = threading.Lock()

    def _computed(self, order: MonomialOrderSpec) -> tuple[tuple[BiPolynomial, ...], tuple[BiMonomial, ...]]:
        hit = self._cache.get(order)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._cache.get(order)
            if hit is not None:
                return hit
            basis, _ = buchberger(self.generators, order)
            keyf = order.key_function(self.universe)
            lead = sorted((leading_term(g, keyf)[0] for g in basis), reverse=True)
            initial = tuple(BiMonomial(self.universe, e) for e in lead)
            self._cache[order] = (basis, initial)
            return self._cache[order]

    def groebner_basis(self, order: MonomialOrderSpec | None = None) -> tuple[BiPolynomial, ...]:
        return self._computed(_resolve(order))[0]

    def initial_ideal(self, order: MonomialOrderSpec | None = None) -> tuple[BiMonomial, ...]:
        """Minimal monomial generators of the ideal of leading terms."""
        return self._computed(_resolve(order))[1]

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return f"Ideal({gens}{more})"


# --- dimension of monomial quotients ---

def _max_independent_subset(supports: list[frozenset[int]], num_vars: int) -> int:
    """Largest variable set containing no generator's full support."""
    for size in range(num_vars, -1, -1):
        for combo in combinations(range(num_vars), size):
            s = set(combo)
            if all(not sup <= s for sup in supports):
                return size
    return 0


def ideal_dimension(ideal: Ideal, projective: bool = False) -> int:
    """Krull dimension of the quotient by the initial ideal (default order).

    Affine cone dimension by default; projective=True subtracts 2, one for
    each of the two projective scalings.
    """
    init = ideal.initial_ideal()
    supports = []
    for m in init:
        s = frozenset(i for i, e in enumerate(m.exponents) if e)
        if not s:
            raise DimensionUndefinedError("the ideal is the whole ring")
        supports.append(s)
    dim = _max_independent_subset(supports, ideal.universe.num_vars)
    return dim - 2 if projective else dim


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
