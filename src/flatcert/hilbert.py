"""Diagonal Hilbert functions by two independent routes, exact interpolation
of Hilbert polynomials, and the closed forms they are measured against.

Route one reads the Hilbert function off the initial ideal (Groebner): the
bigraded Hilbert series of S/in(I) is K(s1, s2) / ((1-s1)(1-s2))^(n+1), with
K from `Ideal.series_numerator()` (the Bayer-Stillman recursion).
Route two never touches a Groebner basis: it puts each bidegree's
generators into row echelon form (a change of basis of the same span, no
two rows with one leading term) and lists their bidegree-(i,j) multiples
in signature order.  It skips a multiplier that is a multiple of a
leading term of an earlier generator (the rows that the Koszul syzygies
g_i*g_j = g_j*g_i make redundant) or of a multiplier whose row a lower
level found in the span of the rows before it (the F5 rewritten
criterion).  Monomials are packed integer keys, so each level puts the
keys of those multiples into one set and keeps the candidates outside
it.  One sparse fraction-free kernel, `util._eliminate`, does
both eliminations; it combines a row only with rows before it, so its
pivot rows are the echelon generators, and on the Macaulay matrix it
gives the exact rank and names the rows to skip above.  The levels below
(i, j) on its diagonal are computed first, and what they store is kept on
the Ideal.  The second route is the referee for the first throughout the
test suite.

A table is a plain list: `tabulate_diagonal(ideal, t_max)` returns
[HF(t, t) for t = 0..t_max], and `interpolate_hilbert_polynomial` reads
position t as the value at t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable, Sequence

from .groebner import (
    Ideal,
    Numerator,
    _integer_terms,
    _product_numerator,
    _require_bihomogeneous,
    _series_numerator,
)
from .polyring import Exponents, Rational, VariableUniverse, _rational
from .util import _eliminate, dependent_rows, parallel_map, sparse_integer_rank

METHOD_INITIAL = "initial_ideal_count"
METHOD_RANK = "rank_oracle"
_METHOD_ALIASES = {
    "initial": METHOD_INITIAL, METHOD_INITIAL: METHOD_INITIAL,
    "rank": METHOD_RANK, METHOD_RANK: METHOD_RANK,
}


def normalize_method(method: str) -> str:
    """Accept the canonical method names or their short aliases."""
    full = _METHOD_ALIASES.get(method)
    if full is None:
        raise ValueError(f"unknown method {method!r}; choose {METHOD_INITIAL} or {METHOD_RANK}")
    return full


# Budget of the rank route: the largest Macaulay matrix, as rows x columns
# under Koszul pruning alone (rank_matrix_shape), that tabulate_diagonal
# will eliminate.  The largest that the tests, the benchmark and
# scripts/run_verification.py reach is 9897 x 7056 (7.0e7 entries), at n=3
# and t=6.  Its cost is set by coefficient growth and by the rows that
# still vanish, not by its shape: the table t <= 6 of the special fiber
# takes 0.1 s and that of a chart fiber with |u|, |d| up to 9 takes
# 0.2-0.3 s (CPython 3.11, one core of a 2-core host).  The n=4 chart
# fiber of tests/data takes 0.2 s up to t=3 and 0.55-0.6 s up to t=4,
# 7180 x 4900 (3.5e7).  At t=5, 24760 x 15876 (3.9e8), an earlier kernel
# (shortest-row pivots on Koszul-pruned rows) ran for minutes past 900 MB;
# the budget refuses it.  So this is a size budget, not a time limit.
MAX_MACAULAY_ENTRIES = 10**8


class NoStabilizationError(RuntimeError):
    """The table never settles onto one polynomial; the message names the
    sample where the fit's walk back stopped."""


# --- univariate exact polynomial helpers (coefficient lists, low degree first) ---

def _poly_trim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, v in enumerate(a):
        for j, w in enumerate(b):
            out[i + j] += v * w
    return out


def _poly_eval(coeffs: Sequence[Rational], t: Rational) -> Rational:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True, eq=False)
class HilbertPolynomialQ:
    """Exact polynomial in t, coefficients low degree first.

    Equality compares coefficients only; the stabilization threshold is
    bookkeeping about where a sampled table started matching.
    """

    coefficients: tuple[Fraction, ...]
    stabilization_threshold: int | None = None

    @staticmethod
    def from_coefficients(coeffs: Iterable[Fraction | int],
                          stabilization_threshold: int | None = None) -> "HilbertPolynomialQ":
        c = [Fraction(_rational(v, "a coefficient")) for v in coeffs]
        return HilbertPolynomialQ(_poly_trim(c), stabilization_threshold)

    def evaluate(self, t: int) -> Fraction:
        return Fraction(_poly_eval(self.coefficients, t))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomialQ):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        pieces = []
        for k in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[k]
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag) if mag.denominator == 1 else f"({mag})"
            else:
                var = "t" if k == 1 else f"t^{k}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag}{var}"
                else:
                    body = f"({mag}){var}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("-" if neg else "+") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"HilbertPolynomialQ({str(self)!r})"

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [str(c) for c in self.coefficients],
            "rendered": str(self),
            "stabilization_threshold": self.stabilization_threshold,
        }


# --- Hilbert functions from series numerators ---

def _binomial_in_t(n: int, slope: int, shift: int) -> list[int]:
    """Integer coefficients of n! * C(slope*t + shift, n), the product of
    slope*t + shift - n + i over i = 1..n."""
    out = [1]
    for i in range(1, n + 1):
        out = _int_poly_mul(out, [shift - n + i, slope])
    return out


def _numerator_value(numerator: Numerator, k: int, i: int, j: int) -> int:
    """HF(i, j) = sum c_ab C(i-a+k-1, k-1) C(j-b+k-1, k-1) over a, b <= i, j."""
    return sum(c * comb(i - a + k - 1, k - 1) * comb(j - b + k - 1, k - 1)
               for (a, b), c in numerator.items() if a <= i and b <= j)


def _diagonal_polynomial(numerator: Numerator, k: int) -> tuple[list[int], int]:
    """The polynomial that HF(t, t) equals for t >= max(a, b) - k + 1 over
    the numerator's terms, as integer coefficients over ((k-1)!)^2:
    _numerator_value with C(t-a+k-1, k-1) as a polynomial in t.

    With P_s = (k-1)! * C(t+s, k-1), that is the sum over a of
    P_(k-1-a) * (sum over b of c_ab * P_(k-1-b)), each P_s built once."""
    p = {s: _binomial_in_t(k - 1, 1, s) for s in {k - 1 - x for ab in numerator for x in ab}}
    inner: dict[int, list[int]] = {}  # a -> sum over b of c_ab * P_(k-1-b)
    for (a, b), c in numerator.items():
        acc = inner.setdefault(a, [0] * k)
        for d, v in enumerate(p[k - 1 - b]):
            acc[d] += c * v
    total = [0] * (2 * k - 1) if inner else []
    for a, acc in inner.items():
        for d, v in enumerate(_int_poly_mul(p[k - 1 - a], acc)):
            total[d] += v
    return total, factorial(k - 1) ** 2


# --- closed forms ---

def chi_graph(n: int) -> HilbertPolynomialQ:
    """C(2t+n, n) - C(2(t-1)+n, n): the shared Hilbert polynomial every fiber
    of the family must hit.  Degree n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = _binomial_in_t(n, 2, n)
    b = _binomial_in_t(n, 2, n - 2)
    return HilbertPolynomialQ.from_coefficients(
        [Fraction(x - y, factorial(n)) for x, y in zip(a, b)])


def xi_formula(d0: int, d1: int) -> HilbertPolynomialQ:
    """(d0+d1)t - d0*d1*(d0+d1-4)/2, the spec's closed form for the curve
    that a (d0, d1) plane-curve pair cuts on F2; xi-trials measure against it.

    It matches the curve only at (1,1).  The curve's Hilbert polynomial is
    2*d0*d1*t - d0*d1*(d0+d1-4)/2: deg O(1,1) on it is 2*d0*d1, and its
    Euler characteristic follows by adjunction.  Only the leading
    coefficient differs.
    """
    if d0 < 1 or d1 < 1:
        raise ValueError("curve degrees must be >= 1")
    const = Fraction(-d0 * d1 * (d0 + d1 - 4), 2)
    return HilbertPolynomialQ.from_coefficients([const, Fraction(d0 + d1)])


def koszul_hilbert_polynomial(d0: int, d1: int) -> HilbertPolynomialQ:
    """Hilbert polynomial of a proper complete intersection <f0, f1, x.y>
    in P2 x P2*, whose generators have bidegrees (d0,0), (0,d1), (1,1).

    The Koszul resolution gives the series numerator
    (1 - s1^d0)(1 - s2^d1)(1 - s1 s2), read off on the diagonal.  The
    threshold d0 + d1 + 2 is a safe bound: from there on every shifted
    count is in its stable range.
    """
    if d0 < 1 or d1 < 1:
        raise ValueError("degrees must be positive")
    num, den = _diagonal_polynomial(_product_numerator([(d0, 0), (0, d1), (1, 1)]), 3)
    return HilbertPolynomialQ.from_coefficients([Fraction(c, den) for c in num],
                                                stabilization_threshold=d0 + d1 + 2)


# --- Hilbert function values ---

# (bidegree, leading exponents, integer terms) of one echelon generator
_EchelonGenerator = tuple[tuple[int, int], Exponents, dict[Exponents, int]]


def _echelon_generators(ideal: Ideal) -> list[_EchelonGenerator]:
    """Each bidegree's generators in row echelon form: `_eliminate`'s pivot
    rows, primitive, no two with the same leading exponents (the largest
    exponent tuple, lex x1 > .. > y{n+1}, a monomial order), tails left
    unreduced.  Bidegrees ascending, then leading exponents descending.
    Zero and dependent generators drop out; each bidegree's span, and so
    the ideal, is unchanged."""
    _require_bihomogeneous(ideal)
    groups: dict[tuple[int, int], list[dict[Exponents, int]]] = {}
    for g in ideal.generators:
        groups.setdefault(g.bidegree(), []).append(_integer_terms(g.terms)[0])
    return [(deg, lead, row) for deg in sorted(groups)
            for lead, row in sorted(_eliminate(groups[deg])[0].items(), reverse=True)]


def rank_matrix_shape(ideal: Ideal, t: int) -> tuple[int, int]:
    """(rows, columns) of the rank oracle's bidegree-(t,t) Macaulay matrix
    under Koszul pruning alone, counted without building it: generator r
    keeps the multipliers outside <LT(g_1), .., LT(g_(r-1))>, as many as
    the Hilbert function of that monomial quotient counts.  The oracle
    also skips rows for the signatures it has stored, so this is an upper
    bound on the rows it builds."""
    k = ideal.universe.n + 1
    rows = 0
    leads: list[Exponents] = []
    for (a, b), lead, _ in _rank_state(ideal).generators:
        rows += _numerator_value(_series_numerator(leads, k), k, t - a, t - b)
        leads.append(lead)
    return rows, comb(t + k - 1, k - 1) ** 2


class _RankState:
    """What the rank oracle knows about one Ideal, kept on it: the echelon
    generators, for each of them the signatures stored so far (multipliers
    m with m*g_r in the span of the rows before it, valid at every
    bidegree), and the values computed so far."""

    __slots__ = ("generators", "signatures", "values")

    def __init__(self, ideal: Ideal):
        self.generators = _echelon_generators(ideal)
        self.signatures: list[list[Exponents]] = [[] for _ in self.generators]
        self.values: dict[tuple[int, int], int] = {}


def _rank_state(ideal: Ideal) -> _RankState:
    if ideal._rank_state is None:
        ideal._rank_state = _RankState(ideal)
    return ideal._rank_state


def _rank_oracle_value(ideal: Ideal, i: int, j: int) -> int:
    """dim of the bidegree-(i,j) piece of the quotient, Groebner-free.

    Walks the levels (i-k, j-k) upward from k = min(i, j) and computes the
    ones not yet cached, so that each level starts from the signatures the
    levels below it stored.  See `_rank_level`.
    """
    state = _rank_state(ideal)
    for k in range(min(i, j), -1, -1):
        level = (i - k, j - k)
        if level not in state.values:
            state.values[level] = _rank_level(ideal.universe, state, *level)
    return state.values[i, j]


def _block_keys(parts: int, top: int, base: int) -> dict[int, list[int]]:
    """For each total d = 0..top, the keys e_1*base^(parts-1) + .. + e_parts
    of the tuples e of `parts` nonnegative ints summing to d, ascending."""
    keys = {d: [d] for d in range(top + 1)}
    for m in range(1, parts):
        scale = base**m
        keys = {d: [first * scale + rest for first in range(d + 1) for rest in keys[d - first]]
                for d in keys}
    return keys


def _rank_level(uni: VariableUniverse, state: _RankState, i: int, j: int) -> int:
    """dim of the bidegree-(i,j) piece as the column count minus the rank
    of the Macaulay matrix of multiples m*g_r of the echelon generators.

    Rows come in signature order: r ascending, then m ascending in lex,
    the order whose maximum `_echelon_generators` takes as the leading
    term.  Row (r, m) is skipped when m is a multiple of a monomial in one
    of two lists, and each skipped row lies in the span of kept rows before
    it, by induction on that order, so the rank is that of all multiples:
    - the leads LT(g_q), q < r.  With m = m'*LT(g_q) and g_q scaled to be
      monic, the Koszul identity g_q*g_r = g_r*g_q gives m*g_r =
      (m'*g_r)*g_q - (m'*(g_q - LT(g_q)))*g_r: rows of g_q plus rows
      m''*g_r with m'' < m.  Lazard (EUROCAL 1983); the F5 criterion of
      Faugere (ISSAC 2002).
    - the stored signatures m' of g_r.  m'*g_r is a combination of rows
      before (r, m') at a lower level, and multiplying by w keeps each of
      them before (r, w*m'), because lex is a monomial order.  This is the
      F5 rewritten criterion applied level by level to Macaulay matrices,
      as in Matrix-F5 (Bardet, Faugere & Salvy, J. Symbolic Comput. 70,
      2015).
    When the rank falls short of the row count, `dependent_rows` names the
    rows in the span of the rows before them, and their multipliers are
    stored as signatures, exponent tuples that any level can pack.

    Monomials are packed keys: exponent tuples read as digits in radix
    max(i, j) + 1, so that the column of e*m is pack(e) + pack(m).  A
    monomial here has bidegree at most (i, j) and no parameter variable
    (_require_bihomogeneous refused them; the bidegree bounds none), so
    each digit is at most max(i, j) and no sum carries.  So the keys order
    the monomials as lex does: a row's highest column, which the
    elimination cancels first, is its leading monomial.  And m is a
    multiple of s exactly when pack(m) = pack(s) + pack(w) for a monomial
    w of bidegree bideg(m) - bideg(s).  So each generator's candidates are
    the ascending keys of one bidegree, built once per level from the keys
    of the x and y blocks, and a set of those sums names the ones to skip.
    There are C(i+n, n)*C(j+n, n) columns.
    """
    base = max(i, j) + 1
    width = len(uni.names)
    k = uni.n + 1
    y_scale = base ** (width - 2 * k)  # the parameter digits, all zero
    x_scale = y_scale * base ** k

    def pack(e: Exponents) -> int:
        key = 0
        for x in e:
            key = key * base + x
        return key

    blocks = _block_keys(k, base - 1, base)

    @cache
    def keys(p: int, q: int) -> list[int]:
        """The keys of the monomials of bidegree (p, q), ascending; none if
        p or q is negative."""
        return [x * x_scale + y * y_scale for x in blocks.get(p, ()) for y in blocks.get(q, ())]

    rows: list[dict[int, int]] = []
    signatures: list[tuple[int, int]] = []
    leads: list[Exponents] = []
    for r, ((a, b), lead, int_terms) in enumerate(state.generators):
        terms = [(pack(e), v) for e, v in int_terms.items()]
        p, q = i - a, j - b
        skipped: set[int] = set()
        for s in leads + state.signatures[r]:
            sx, sy = uni.bidegree_of(s)
            ps = pack(s)
            skipped.update([ps + w for w in keys(p - sx, q - sy)])
        for pm in keys(p, q):
            if pm not in skipped:
                rows.append({pe + pm: v for pe, v in terms})
                signatures.append((r, pm))
        leads.append(lead)
    rank = sparse_integer_rank(rows)
    if rank < len(rows):
        for index in dependent_rows(rows):
            r, pm = signatures[index]
            digits = []
            for _ in range(width):
                pm, digit = divmod(pm, base)
                digits.append(digit)
            state.signatures[r].append(tuple(reversed(digits)))
    return comb(i + uni.n, uni.n) * comb(j + uni.n, uni.n) - rank


def bigraded_hilbert_function(ideal: Ideal, i: int, j: int,
                              method: str = METHOD_INITIAL) -> int:
    """dim_Q (S/I)_(i,j) by the chosen route."""
    if i < 0 or j < 0:
        return 0
    if normalize_method(method) == METHOD_RANK:
        return _rank_oracle_value(ideal, i, j)
    return _numerator_value(ideal.series_numerator(), ideal.universe.n + 1, i, j)


def tabulate_diagonal(ideal: Ideal, t_max: int, method: str = METHOD_INITIAL) -> list[int]:
    """[HF(t, t) for t = 0..t_max] by the chosen route.  The rank route first
    refuses, with a ValueError giving its shape, a t_max whose Macaulay
    matrix is over MAX_MACAULAY_ENTRIES."""
    method = normalize_method(method)
    if method == METHOD_RANK:
        rows, cols = rank_matrix_shape(ideal, t_max)
        if rows * cols > MAX_MACAULAY_ENTRIES:
            raise ValueError(
                f"rank oracle: the bidegree-({t_max},{t_max}) Macaulay matrix would be"
                f" {rows} x {cols} = {rows * cols} entries, over the budget"
                f" MAX_MACAULAY_ENTRIES = {MAX_MACAULAY_ENTRIES}")
    # serial; parallel_map stays only because bench/tracing.py traces this call
    return parallel_map(lambda t: bigraded_hilbert_function(ideal, t, t, method),
                        range(t_max + 1))


def methods_agree(ideal: Ideal, ts: Iterable[int]) -> bool:
    """Cross-check the two routes on the same sample points."""
    return all(bigraded_hilbert_function(ideal, t, t, METHOD_INITIAL)
               == bigraded_hilbert_function(ideal, t, t, METHOD_RANK) for t in ts)


# --- interpolation ---

def _newton(t0: int, values: Sequence[int]) -> tuple[list[int], int]:
    """The polynomial of degree < len(values) through values at t0, t0+1,
    .., t0+m, as integer coefficients over m!: Newton's forward
    differences, f(t) = sum over k of D^k f(t0) * C(t - t0, k), with
    m! * C(t - t0, k) = (m!/k!) * (t - t0)(t - t0 - 1)..(t - t0 - k + 1)."""
    m = len(values) - 1
    diffs = values
    falling = [1]  # k! * C(t - t0, k)
    num = [0] * (m + 1)
    for k in range(m + 1):
        scale = diffs[0] * (factorial(m) // factorial(k))
        for d, v in enumerate(falling):
            num[d] += scale * v
        falling = _int_poly_mul(falling, [-t0 - k, 1])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return num, factorial(m)


def interpolate_hilbert_polynomial(table: Sequence[int], dim_bound: int | None) -> HilbertPolynomialQ:
    """Fit the eventual polynomial of a diagonal Hilbert function sampled at
    t = 0..len(table)-1.

    Fits degree <= dim_bound through the last dim_bound+1 samples, walks
    backwards to find where the table starts agreeing, and raises
    NoStabilizationError if the table is shorter than dim_bound+3 or its
    last dim_bound+2 samples never agree; then the message names the one
    sample t0-1 that breaks the fit.  A dim_bound of None (as
    `ideal_dimension` returns for the whole ring) or below 0 is read as 0.
    The fit interpolates integer values at consecutive integers, so it is
    integer-valued (Hartshorne, Algebraic Geometry, Prop. I.7.3).
    """
    dim_bound = max(dim_bound or 0, 0)
    need = dim_bound + 3
    if len(table) < need:
        raise NoStabilizationError(
            f"need at least dim_bound+3 = {need} consecutive trailing samples, have {len(table)}")

    t0 = len(table) - dim_bound - 1
    num, den = _newton(t0, table[t0:])

    # the fit points t0.. match by construction; the walk starts at t0-1 >= 1
    threshold = t0
    for t in range(t0 - 1, -1, -1):
        pred = _poly_eval(num, t)
        if pred != table[t] * den:
            break
        threshold = t
    if threshold == t0:
        raise NoStabilizationError(
            f"table does not stabilize onto a degree<={dim_bound} polynomial"
            f" [t={t}: table {table[t]} vs fit {Fraction(pred, den)}]")

    return HilbertPolynomialQ.from_coefficients([Fraction(c, den) for c in num],
                                                stabilization_threshold=threshold)
