"""Diagonal Hilbert functions by two independent routes, exact interpolation
of Hilbert polynomials, and the closed forms they are measured against.

Route one reads the Hilbert function off the initial ideal (Groebner): the
bigraded Hilbert series of S/in(I) is K(s1, s2) / ((1-s1)(1-s2))^(n+1), with
K from `Ideal.series_numerator()` (the Bayer-Stillman recursion).
Route two never touches a Groebner basis: it puts each bidegree's
generators into reduced echelon form over Q (a change of basis of the same
span), lists their bidegree-(i,j) multiples minus the rows that the Koszul
syzygies g_i*g_j = g_j*g_i make redundant, and computes the exact rank of
that Macaulay matrix by sparse fraction-free elimination.  The second route
is the referee for the first throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

from .groebner import (  # NonBihomogeneousError is re-exported from here
    Ideal,
    NonBihomogeneousError,
    Numerator,
    _integer_terms,
    _product_numerator,
    _require_bihomogeneous,
    _series_numerator,
    monomial_divides,
)
from .polyring import Exponents, Rational, _rational, iter_exponents_of_bidegree
from .util import parallel_map, sparse_integer_rank

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


# Budget of the rank route: the largest Macaulay matrix, as rows x columns,
# that tabulate_diagonal will eliminate.  The largest that the tests, the
# benchmark and scripts/run_verification.py build is 9897 x 7056 (7.0e7
# entries), at n=3 and t=6.  Its cost is set by coefficient growth, not by
# its shape: the special fiber's takes 0.13 s and a chart fiber's, with
# |u|, |d| up to 9, 26 s (CPython 3.11, one core).  The n=4 chart fiber of
# tests/data takes 27 s at t=4, 7180 x 4900 (3.5e7), and at t=5,
# 24760 x 15876 (3.9e8), ran for minutes past 900 MB.  So this is a size
# budget, not a time limit.
MAX_MACAULAY_ENTRIES = 10**8


class MacaulayBudgetError(ValueError):
    """A rank-oracle matrix would exceed MAX_MACAULAY_ENTRIES."""

    def __init__(self, t: int, rows: int, cols: int):
        super().__init__(
            f"rank oracle: the bidegree-({t},{t}) Macaulay matrix would be {rows} x {cols}"
            f" = {rows * cols} entries, over the budget MAX_MACAULAY_ENTRIES = "
            f"{MAX_MACAULAY_ENTRIES}")


class NoStabilizationError(RuntimeError):
    """The table never settles onto one polynomial; carries the residuals."""

    def __init__(self, message: str, residuals: dict[int, tuple[int, Fraction]] | None = None):
        self.residuals = residuals or {}
        detail = ""
        if self.residuals:
            rows = ", ".join(f"t={t}: table {obs} vs fit {pred}"
                             for t, (obs, pred) in sorted(self.residuals.items()))
            detail = f" [{rows}]"
        super().__init__(message + detail)


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
    """The reduced row echelon form over Q of each bidegree's generators,
    bidegrees ascending and leading exponents descending within one.  Leading means largest exponent tuple
    (lex, x1 > .. > y{n+1}), a monomial order.  Zero and dependent
    generators drop out; the ideal, and every bidegree's span, are unchanged."""
    groups: dict[tuple[int, int], list[dict[Exponents, Fraction]]] = {}
    _require_bihomogeneous(ideal)
    for g in ideal.generators:
        groups.setdefault(g.bidegree(), []).append(g.terms)
    out = []
    for deg in sorted(groups):
        basis: dict[Exponents, dict[Exponents, Fraction]] = {}  # monic, by leading exponents
        for terms in groups[deg]:
            row = dict(terms)
            for lead, b in basis.items():
                if lead in row:
                    _subtract_multiple(row, row[lead], b)
            if not row:
                continue
            lead = max(row)
            row = {e: v / row[lead] for e, v in row.items()}
            for b in basis.values():
                if lead in b:
                    _subtract_multiple(b, b[lead], row)
            basis[lead] = row
        out += [(deg, lead, _integer_terms(basis[lead])[0]) for lead in sorted(basis, reverse=True)]
    return out


def _subtract_multiple(row: dict[Exponents, Fraction], c: Fraction,
                       other: dict[Exponents, Fraction]) -> None:
    """row -= c * other in place, dropping zeros."""
    for e, v in other.items():
        nv = row.get(e, 0) - c * v
        if nv:
            row[e] = nv
        else:
            del row[e]


def rank_matrix_shape(ideal: Ideal, t: int) -> tuple[int, int]:
    """(rows, columns) of the rank oracle's bidegree-(t,t) Macaulay matrix,
    counted without building it: generator r keeps the multipliers outside
    <LT(g_1), .., LT(g_(r-1))>, as many as the Hilbert function of that
    monomial quotient counts."""
    k = ideal.universe.n + 1
    rows = 0
    leads: list[Exponents] = []
    for (a, b), lead, _ in _echelon_generators(ideal):
        rows += _numerator_value(_series_numerator(leads, k), k, t - a, t - b)
        leads.append(lead)
    return rows, comb(t + k - 1, k - 1) ** 2


def _rank_oracle_value(ideal: Ideal, i: int, j: int) -> int:
    """dim of the bidegree-(i,j) piece of the quotient, Groebner-free.

    The rows are the multiples m*g_r of the echelon generators, except
    those with LT(g_q) | m for some q < r.  Such a row is redundant: with
    m = m'*LT(g_q) and g_q monic, the Koszul identity g_q*g_r = g_r*g_q gives
    m*g_r = (m'*g_r)*g_q - (m'*(g_q - LT(g_q)))*g_r, rows of g_q plus rows
    m''*g_r with m'' < m, and induction on (r, m) keeps the rank.  Lazard
    (EUROCAL 1983); the F5 criterion of Faugere (ISSAC 2002).

    Columns are keyed by exponent tuples packed into one int, digits in
    radix max(i, j) + 1, so the column of e*m is that of pack(e) + pack(m):
    the sum adds digit by digit and no digit carries.  e*m has bidegree
    (i, j), so each of its exponents is at most max(i, j), and
    _require_bihomogeneous has refused parameter variables, whose
    exponents the bidegree would not bound.  So each key is the numeral of
    one exponent tuple, and distinct columns get distinct keys.
    """
    uni = ideal.universe
    base = max(i, j) + 1

    def pack(e: Exponents) -> int:
        key = 0
        for x in e:
            key = key * base + x
        return key

    cols = {pack(e): c for c, e in enumerate(iter_exponents_of_bidegree(uni, i, j))}
    rows: list[dict[int, int]] = []
    leads: list[Exponents] = []
    multipliers: dict[tuple[int, int], list[tuple[Exponents, int]]] = {}  # by bidegree
    for (a, b), lead, int_terms in _echelon_generators(ideal):
        terms = [(pack(e), v) for e, v in int_terms.items()]
        if (a, b) not in multipliers:
            multipliers[a, b] = [(m, pack(m)) for m in iter_exponents_of_bidegree(uni, i - a, j - b)]
        for m, pm in multipliers[a, b]:
            if not any(monomial_divides(p, m) for p in leads):
                rows.append({cols[pe + pm]: v for pe, v in terms})
        leads.append(lead)
    return len(cols) - sparse_integer_rank(rows)


def bigraded_hilbert_function(ideal: Ideal, i: int, j: int,
                              method: str = METHOD_INITIAL) -> int:
    """dim_Q (S/I)_(i,j) by the chosen route."""
    if i < 0 or j < 0:
        return 0
    if normalize_method(method) == METHOD_RANK:
        return _rank_oracle_value(ideal, i, j)
    return _numerator_value(ideal.series_numerator(), ideal.universe.n + 1, i, j)


@dataclass
class HilbertFunctionTable:
    """Sampled diagonal values t -> dim, tagged with the route that made them."""

    values: dict[int, int]
    method: str = METHOD_INITIAL

    def to_json_rows(self) -> list[dict]:
        return [{"t": t, "value": self.values[t], "method": self.method}
                for t in sorted(self.values)]


def tabulate_diagonal(ideal: Ideal, ts: Iterable[int],
                      method: str = METHOD_INITIAL) -> HilbertFunctionTable:
    ts = sorted(set(int(t) for t in ts))
    method = normalize_method(method)
    if method == METHOD_RANK and ts:
        rows, cols = rank_matrix_shape(ideal, ts[-1])
        if rows * cols > MAX_MACAULAY_ENTRIES:
            raise MacaulayBudgetError(ts[-1], rows, cols)
    # serial; parallel_map stays only because bench/tracing.py traces this call
    vals = parallel_map(lambda t: bigraded_hilbert_function(ideal, t, t, method), ts)
    return HilbertFunctionTable(dict(zip(ts, vals)), method)


def methods_agree(ideal: Ideal, ts: Iterable[int]) -> bool:
    """Cross-check the two routes on the same sample points."""
    return all(bigraded_hilbert_function(ideal, t, t, METHOD_INITIAL)
               == bigraded_hilbert_function(ideal, t, t, METHOD_RANK) for t in ts)


# --- interpolation ---

def _newton(points: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The polynomial of degree < len(points) through values at consecutive
    t0, t0+1, .., t0+m, as integer coefficients over m!: Newton's forward
    differences, f(t) = sum over k of D^k f(t0) * C(t - t0, k), with
    m! * C(t - t0, k) = (m!/k!) * (t - t0)(t - t0 - 1)..(t - t0 - k + 1)."""
    t0 = points[0][0]
    if [t for t, _ in points] != list(range(t0, t0 + len(points))):
        raise ValueError(f"Newton interpolation needs consecutive points, got {points}")
    m = len(points) - 1
    diffs = [v for _, v in points]
    falling = [1]  # k! * C(t - t0, k)
    num = [0] * (m + 1)
    for k in range(m + 1):
        scale = diffs[0] * (factorial(m) // factorial(k))
        for d, v in enumerate(falling):
            num[d] += scale * v
        falling = _int_poly_mul(falling, [-t0 - k, 1])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return num, factorial(m)


def interpolate_hilbert_polynomial(table: HilbertFunctionTable,
                                   dim_bound: int) -> HilbertPolynomialQ:
    """Fit the eventual polynomial of a sampled diagonal Hilbert function.

    Fits degree <= dim_bound through the trailing samples, walks backwards
    to find where the table starts agreeing, and raises NoStabilizationError
    (with the residual rows) if the trailing run of consecutive samples is
    shorter than dim_bound+3 or its last dim_bound+2 samples never agree.
    The fit interpolates integer values at consecutive integers, so it is
    integer-valued (Hartshorne, Algebraic Geometry, Prop. I.7.3).
    """
    if dim_bound < 0:
        dim_bound = 0
    ts = sorted(table.values)
    # trailing consecutive run
    run: list[int] = []
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

    num, den = _newton([(t, table.values[t]) for t in run[-(dim_bound + 1):]])

    matched: list[int] = []
    residuals: dict[int, tuple[int, Fraction]] = {}
    for t in reversed(run):
        pred = _poly_eval(num, t)
        if pred == table.values[t] * den:
            matched.append(t)
        else:
            residuals[t] = (table.values[t], Fraction(pred, den))
            break
    if len(matched) < dim_bound + 2:
        raise NoStabilizationError(
            f"table does not stabilize onto a degree<={dim_bound} polynomial", residuals)

    return HilbertPolynomialQ.from_coefficients([Fraction(c, den) for c in num],
                                                stabilization_threshold=min(matched))
