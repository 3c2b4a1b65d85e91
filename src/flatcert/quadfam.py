"""The degenerating-quadrics family and everything needed to certify it flat.

Contents: the determinantal ideal of the pointwise graph, its monomial
special fiber, Gauss-graph ideals of fixed nondegenerate quadrics, the
unipotent-times-diagonal chart for quadric degenerations, the
cancelled-minor family ideal J over that chart, fiber evaluation, the torus
symmetry that contracts the chart onto the most special point, the primary
decomposition of the special monomial ideal, nonzerodivisor checks, the
global equations of the graph over a fixed conic, and the flatness
certificate comparing every fiber's Hilbert polynomial to the closed form
chi_graph(n).

Index conventions: variable names are 1-based (x1..x{n+1}), Python
containers 0-based.  A chart point is a pair (u, d) with u unipotent lower
triangular and d the n diagonal ratios; it presents the quadric
u * diag(1, d1, d1*d2, ..., d1*...*dn) * u^T, and d = 0 is allowed
(degenerate quadrics are the point of the construction).

The torus (Q*)^n acts by one weight table, `torus_weights`: each x, y, u
and d variable is multiplied by a monomial in c1..cn.  The symbolic check
proves each generator of J semi-invariant by giving all its monomials one
weight; the numeric check, the conjugation law and the closed-orbit limit
read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from random import Random
from typing import Iterable, Sequence

from .groebner import (
    DimensionUndefinedError,
    Ideal,
    ideal_dimension,
    intersect_monomial_exponents,
    minimalize_monomial_exponents,
)
from .hilbert import (
    METHOD_INITIAL,
    HilbertPolynomialQ,
    NoStabilizationError,
    NonBihomogeneousError,
    bigraded_hilbert_function,
    chi_graph,
    interpolate_hilbert_polynomial,
    tabulate_diagonal,
)
from .polyring import (
    BiMonomial,
    BiPolynomial,
    Exponents,
    VariableUniverse,
    proportionality_ratio,
)
from .util import (
    fraction_from_json,
    fraction_identity,
    fraction_to_json,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_transpose,
    parallel_map,
)


class NondegeneracyRequiredError(ValueError):
    """A construction needed an invertible matrix and got a singular one."""


# --- universes ---

def xy_universe(n: int) -> VariableUniverse:
    return VariableUniverse.standard(n)


def _d_names(n: int) -> list[str]:
    return [f"d{k}" for k in range(1, n + 1)]


def _u_names(n: int) -> list[str]:
    return [f"u{i}_{j}" for i in range(2, n + 2) for j in range(1, i)]


def family_universe(n: int) -> VariableUniverse:
    """x/y plus the chart parameters d1..dn, u{i}_{j}."""
    return VariableUniverse.standard(n, _d_names(n) + _u_names(n))


def incidence_form(universe: VariableUniverse) -> BiPolynomial:
    """x.y = sum_i x_i y_i."""
    total = universe.zero()
    for xn, yn in zip(universe.x_names, universe.y_names):
        total = total + universe.variable(xn) * universe.variable(yn)
    return total


# --- rational data types ---

@dataclass(frozen=True)
class SymmetricMatrixQ:
    """A symmetric matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.entries)
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        for row in rows:
            if len(row) != m:
                raise ValueError("matrix must be square")
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i}, {j})")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SymmetricMatrixQ":
        return SymmetricMatrixQ(tuple(tuple(Fraction(v) for v in r) for r in rows))

    @staticmethod
    def identity(size: int) -> "SymmetricMatrixQ":
        return SymmetricMatrixQ.from_rows(fraction_identity(size))

    @staticmethod
    def diagonal(values: Sequence) -> "SymmetricMatrixQ":
        m = len(values)
        return SymmetricMatrixQ.from_rows(
            [[Fraction(values[i]) if i == j else Fraction(0) for j in range(m)] for i in range(m)])

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> Fraction:
        return mat_det([list(r) for r in self.entries])

    def is_nondegenerate(self) -> bool:
        return self.determinant() != 0

    def to_json_dict(self) -> dict:
        return {"entries": [[fraction_to_json(v) for v in row] for row in self.entries]}


@dataclass(frozen=True)
class ChartPoint:
    """A point (u, d) of the chart: u unipotent lower triangular, d in Q^n."""

    u: tuple[tuple[Fraction, ...], ...]
    d: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        u = tuple(tuple(Fraction(v) for v in row) for row in self.u)
        d = tuple(Fraction(v) for v in self.d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        m = len(d) + 1
        if len(u) != m or any(len(row) != m for row in u):
            raise ValueError("u must be (n+1) x (n+1) for n = len(d)")
        for i in range(m):
            if u[i][i] != 1:
                raise ValueError("u must have unit diagonal")
            for j in range(i + 1, m):
                if u[i][j] != 0:
                    raise ValueError("u must be lower triangular")

    @property
    def n(self) -> int:
        return len(self.d)

    @staticmethod
    def from_strict_lower(rows: Sequence[Sequence], d: Sequence) -> "ChartPoint":
        m = len(d) + 1
        if len(rows) != m - 1 or any(len(r) != i + 1 for i, r in enumerate(rows)):
            raise ValueError("need rows of lengths 1..n below the diagonal")
        full = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row):
                full[i][j] = Fraction(v)
        return ChartPoint(tuple(tuple(r) for r in full), tuple(Fraction(v) for v in d))

    @staticmethod
    def special(n: int) -> "ChartPoint":
        """(I, 0): the most degenerate point of the chart."""
        return ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)], [0] * n)

    @staticmethod
    def all_ones(n: int) -> "ChartPoint":
        """(I, (1,..,1)): the fiber is the graph over the smooth quadric sum x_i^2."""
        return ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)], [1] * n)

    def is_nondegenerate(self) -> bool:
        return all(v != 0 for v in self.d)

    def strict_lower_rows(self) -> list[list[Fraction]]:
        return [[self.u[i][j] for j in range(i)] for i in range(1, self.n + 1)]

    def to_json_dict(self) -> dict:
        return {
            "u": [[fraction_to_json(v) for v in row] for row in self.strict_lower_rows()],
            "d": [fraction_to_json(v) for v in self.d],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ChartPoint":
        if not (isinstance(data, dict) and isinstance(data.get("d"), list)
                and isinstance(data.get("u"), list)
                and all(isinstance(row, list) for row in data["u"])):
            raise ValueError("a chart point must be an object {'u': [[...], ...], 'd': [...]}")
        rows = [[fraction_from_json(v) for v in row] for row in data["u"]]
        d = [fraction_from_json(v) for v in data["d"]]
        return ChartPoint.from_strict_lower(rows, d)

    def label(self) -> str:
        rows = ";".join(",".join(str(v) for v in row) for row in self.strict_lower_rows())
        ds = ",".join(str(v) for v in self.d)
        return f"(u=[{rows}], d=({ds}))"


@dataclass(frozen=True)
class TorusElement:
    """c in (Q*)^n acting on the chart and on both coordinate blocks."""

    c: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        c = tuple(Fraction(v) for v in self.c)
        object.__setattr__(self, "c", c)
        if any(v == 0 for v in c):
            raise ValueError("torus entries must be nonzero")

    @property
    def n(self) -> int:
        return len(self.c)

    def gamma(self, j: int) -> Fraction:
        """Diagonal entry j (1-based) of the induced matrix: c1*...*c{j-1}."""
        out = Fraction(1)
        for k in range(j - 1):
            out *= self.c[k]
        return out

    def to_json_dict(self) -> dict:
        return {"c": [fraction_to_json(v) for v in self.c]}


# --- ideal constructions ---

def diagonal_ideal(n: int) -> Ideal:
    """2x2 minors x_i y_j - x_j y_i: the graph of the identity over P^n."""
    uni = xy_universe(n)
    gens = []
    for i, j in combinations(range(n + 1), 2):
        gens.append(uni.variable(uni.x_names[i]) * uni.variable(uni.y_names[j])
                    - uni.variable(uni.x_names[j]) * uni.variable(uni.y_names[i]))
    return Ideal(uni, gens)


def special_fiber_ideal(n: int) -> Ideal:
    """<x_i y_j : i < j> plus the incidence form."""
    uni = xy_universe(n)
    gens = []
    for i, j in combinations(range(n + 1), 2):
        gens.append(uni.variable(uni.x_names[i]) * uni.variable(uni.y_names[j]))
    gens.append(incidence_form(uni))
    return Ideal(uni, gens)


def gauss_graph_ideal(a: SymmetricMatrixQ) -> Ideal:
    """Graph of x -> x.a over the quadric of a: incidence plus the 2x2
    minors of the matrix with rows y and x.a.  Needs a nondegenerate."""
    if not a.is_nondegenerate():
        raise NondegeneracyRequiredError("gauss_graph_ideal needs an invertible matrix")
    m = a.size
    uni = VariableUniverse.standard(m - 1)
    xs = [uni.variable(name) for name in uni.x_names]
    ys = [uni.variable(name) for name in uni.y_names]
    xa = []
    for j in range(m):
        acc = uni.zero()
        for k in range(m):
            acc = acc + xs[k] * a.entries[k][j]
        xa.append(acc)
    gens = [incidence_form(uni)]
    for i, j in combinations(range(m), 2):
        gens.append(ys[i] * xa[j] - ys[j] * xa[i])
    return Ideal(uni, gens)


# --- the family ideal J ---

def _unipotent_matrix(uni: VariableUniverse, n: int) -> list[list[BiPolynomial]]:
    m = n + 1
    mat = [[uni.zero() for _ in range(m)] for _ in range(m)]
    for i in range(m):
        mat[i][i] = uni.one()
        for j in range(i):
            mat[i][j] = uni.variable(f"u{i + 1}_{j + 1}")
    return mat


def _unipotent_inverse(mat: list[list[BiPolynomial]], uni: VariableUniverse) -> list[list[BiPolynomial]]:
    m = len(mat)
    nil = [[mat[i][j] if i != j else uni.zero() for j in range(m)] for i in range(m)]
    acc = [[uni.one() if i == j else uni.zero() for j in range(m)] for i in range(m)]
    power = nil
    sign = -1
    for _ in range(1, m):
        acc = [[acc[i][j] + power[i][j] * sign for j in range(m)] for i in range(m)]
        power = mat_mul(power, nil)
        sign = -sign
    return acc


def primed_coordinates(uni: VariableUniverse, n: int) -> tuple[list[BiPolynomial], list[BiPolynomial]]:
    """x'_j = sum_i u_ij x_i and y'_j = sum_i inv(u)_ji y_i."""
    m = n + 1
    u = _unipotent_matrix(uni, n)
    uinv = _unipotent_inverse(u, uni)
    xs = [uni.variable(name) for name in uni.x_names]
    ys = [uni.variable(name) for name in uni.y_names]
    xp, yp = [], []
    for j in range(m):
        accx = uni.zero()
        accy = uni.zero()
        for i in range(m):
            accx = accx + xs[i] * u[i][j]
            accy = accy + uinv[j][i] * ys[i]
        xp.append(accx)
        yp.append(accy)
    return xp, yp


def family_ideal_J(n: int) -> Ideal:
    """The cancelled-minor family over the chart: the incidence form plus,
    for each 1 <= i < j <= n+1, the generator x'_i y'_j - d_i...d_{j-1} y'_i x'_j."""
    uni = family_universe(n)
    xp, yp = primed_coordinates(uni, n)
    gens = [incidence_form(uni)]
    for i, j in combinations(range(n + 1), 2):
        exps = [0] * uni.num_vars
        for k in range(i + 1, j + 1):  # d_{i+1} ... d_j in 1-based names
            exps[uni.index[f"d{k}"]] = 1
        scale = BiPolynomial(uni, {tuple(exps): 1})
        gens.append(xp[i] * yp[j] - scale * (yp[i] * xp[j]))
    return Ideal(uni, gens)


def evaluate_family_at(J: Ideal, point: ChartPoint) -> Ideal:
    """Specialize all chart parameters of J at a point; the result lives in
    the plain x/y ring."""
    uni = J.universe
    assignment = _point_assignment(point)
    if set(assignment) != set(uni.param_names):
        raise ValueError(f"a chart point of n={point.n} does not assign exactly the "
                         f"parameters of the ideal ({', '.join(uni.param_names)})")
    gens = []
    for g in J.generators:
        h = g.substitute(assignment)
        if not h.is_zero():
            gens.append(h)
    return Ideal(gens[0].universe, gens)


def fiber_matrix(point: ChartPoint) -> SymmetricMatrixQ:
    """The symmetric matrix u * diag(1, d1, d1*d2, ..., d1*...*dn) * u^T
    presented by a chart point."""
    diag = [Fraction(1)]
    for v in point.d:
        diag.append(diag[-1] * v)
    m = point.n + 1
    middle = [[diag[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    u = [list(row) for row in point.u]
    prod = mat_mul(mat_mul(u, middle), mat_transpose(u))
    return SymmetricMatrixQ.from_rows(prod)


# --- random chart data ---

def random_chart_point(n: int, rng: Random, degenerate: bool = False) -> ChartPoint:
    """Integer entries in [-9, 9]; degenerate zeroes one random d_i."""
    nonzero = [v for v in range(-9, 10) if v != 0]
    rows = [[rng.randint(-9, 9) for _ in range(i)] for i in range(1, n + 1)]
    d = [rng.choice(nonzero) for _ in range(n)]
    if degenerate:
        d[rng.randrange(n)] = 0
    return ChartPoint.from_strict_lower(rows, d)


def random_torus_element(n: int, rng: Random) -> TorusElement:
    nonzero = [v for v in range(-9, 10) if v != 0]
    return TorusElement(tuple(Fraction(rng.choice(nonzero)) for _ in range(n)))


# --- torus action ---

@dataclass
class TorusReport:
    mode: str  # symbolic | numeric
    n: int
    passed: bool
    generator_scalars: list[str]
    param_law_ok: bool
    c: dict | None = None
    point: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode, "n": self.n, "passed": self.passed,
            "generator_scalars": self.generator_scalars,
            "param_law_ok": self.param_law_ok,
            "c": self.c, "point": self.point,
        }


def _c_interval(n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Exponents of c_lo * ... * c_hi over c1..cn (all zero when lo > hi)."""
    return tuple(int(lo <= k <= hi) for k in range(1, n + 1))


def torus_weights(n: int) -> dict[str, tuple[int, ...]]:
    """The torus action as one table: c in (Q*)^n multiplies each x, y, u
    and d variable by the c-monomial with the listed exponents.

    With gamma_j = c_1...c_{j-1}: x_j -> x_j / gamma_j, y_j -> gamma_j y_j,
    u_ij -> c_j...c_{i-1} u_ij and d_k -> c_k^2 d_k.  Every torus check
    reads this table, so a wrong weight fails each of them.
    """
    table = {}
    for j in range(1, n + 2):
        gamma = _c_interval(n, 1, j - 1)
        table[f"x{j}"] = tuple(-e for e in gamma)
        table[f"y{j}"] = gamma
    for i in range(2, n + 2):
        for j in range(1, i):
            table[f"u{i}_{j}"] = _c_interval(n, j, i - 1)
    for k in range(1, n + 1):
        table[f"d{k}"] = tuple(2 * e for e in _c_interval(n, k, k))
    return table


def _laurent_c_text(exps: Sequence[int]) -> str:
    parts = []
    for k, e in enumerate(exps, start=1):
        if e == 0:
            continue
        parts.append(f"c{k}" if e == 1 else f"c{k}^{e}")
    return "*".join(parts) if parts else "1"


def torus_action_check(n: int, point: ChartPoint | None = None,
                       c: TorusElement | None = None) -> TorusReport:
    """Each generator of J, pushed through the torus action, must come back
    as a nonzero scalar times itself, and the action on the chart must be
    conjugation of the fiber matrix by G = diag(gamma_1, ..., gamma_{n+1}).

    Symbolic mode (point and c omitted) proves the scalar is a monomial in
    c: every monomial of a generator has the same weight.  Numeric mode
    moves a chart point and reports the rational scalar per generator.
    """
    if (point is None) != (c is None):
        raise ValueError("give both a point and a torus element, or neither")
    if point is None:
        return _torus_check_symbolic(n)
    return _torus_check_numeric(n, point, c)


def _torus_check_symbolic(n: int) -> TorusReport:
    J = family_ideal_J(n)
    table = torus_weights(n)
    columns = [table[name] for name in J.universe.names]
    scalars: list[str] = []
    for g in J.generators:
        weights = {tuple(sum(e * w[k] for e, w in zip(exps, columns)) for k in range(n))
                   for exps in g.terms}
        scalars.append(_laurent_c_text(weights.pop()) if len(weights) == 1
                       else "not proportional")

    # conjugation law: u -> G u G^-1 and diag(1, d1, d1*d2, ...) -> G diag(...) G
    gamma = [_c_interval(n, 1, j - 1) for j in range(1, n + 2)]
    law_ok = all(table[f"u{i}_{j}"] == tuple(a - b for a, b in zip(gamma[i - 1], gamma[j - 1]))
                 for i in range(2, n + 2) for j in range(1, i))
    diag = (0,) * n
    for k in range(1, n + 1):
        diag = tuple(a + b for a, b in zip(diag, table[f"d{k}"]))
        law_ok = law_ok and diag == tuple(2 * e for e in gamma[k])
    passed = law_ok and "not proportional" not in scalars
    return TorusReport("symbolic", n, passed, scalars, law_ok)


def _torus_check_numeric(n: int, point: ChartPoint, c: TorusElement) -> TorusReport:
    if point.n != n or c.n != n:
        raise ValueError("point and torus element must match n")
    table = torus_weights(n)

    def scale(name: str) -> Fraction:
        return prod((v ** e for v, e in zip(c.c, table[name])), start=Fraction(1))

    moved_u = [[point.u[i][j] * scale(f"u{i + 1}_{j + 1}") if i > j else point.u[i][j]
                for j in range(n + 1)] for i in range(n + 1)]
    moved_d = [point.d[k] * scale(f"d{k + 1}") for k in range(n)]
    moved = ChartPoint(tuple(tuple(row) for row in moved_u), tuple(moved_d))

    J = family_ideal_J(n)
    base = [g.substitute(_point_assignment(point)) for g in J.generators]
    at_moved = [g.substitute(_point_assignment(moved)) for g in J.generators]
    uni0 = base[0].universe
    scales = [scale(name) for name in uni0.names]

    scalars: list[str] = []
    passed = True
    for g_moved, g_base in zip(at_moved, base):
        # g_moved(c.x, c.y): rescale each term by its x/y variables
        rescaled = BiPolynomial(uni0, {e: coeff * prod(map(pow, scales, e))
                                       for e, coeff in g_moved.terms.items()})
        ratio = proportionality_ratio(rescaled, g_base)
        if ratio is None or ratio == 0:
            passed = False
            scalars.append("not proportional")
        else:
            scalars.append(str(ratio))

    # conjugation law, numerically: the moved fiber matrix is G * matrix * G
    gammas = [c.gamma(j) for j in range(1, n + 2)]
    a, b = fiber_matrix(point).entries, fiber_matrix(moved).entries
    law_ok = all(b[i][j] == gammas[i] * a[i][j] * gammas[j]
                 for i in range(n + 1) for j in range(n + 1))
    return TorusReport("numeric", n, passed and law_ok, scalars, law_ok,
                       c=c.to_json_dict(), point=point.to_json_dict())


def _point_assignment(point: ChartPoint) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for k in range(1, point.n + 1):
        out[f"d{k}"] = point.d[k - 1]
    for i in range(2, point.n + 2):
        for j in range(1, i):
            out[f"u{i}_{j}"] = point.u[i - 1][j - 1]
    return out


def closed_orbit_limit_check(n: int, point: ChartPoint) -> bool:
    """Scaling a chart point by the torus and sending every c_k -> 0 must
    land on (I, 0): each nonzero chart coordinate must be moved by a
    nonconstant c-monomial with no negative exponent (the unipotent
    diagonal stays 1 and is not moved)."""
    if point.n != n:
        raise ValueError("point does not match n")
    table = torus_weights(n)
    return all(min(table[name]) >= 0 and max(table[name]) > 0
               for name, v in _point_assignment(point).items() if v)


# --- primary structure of the special monomial ideal ---

def component_primes(n: int) -> list[tuple[str, ...]]:
    """The primes <x_1..x_i, y_{i+2}..y_{n+1}> for i = 0..n, as name tuples."""
    out = []
    for i in range(n + 1):
        names = [f"x{k}" for k in range(1, i + 1)] + [f"y{k}" for k in range(i + 2, n + 2)]
        out.append(tuple(names))
    return out


def primary_intersection_check(n: int) -> bool:
    """<x_i y_j : i < j> must equal the intersection of its component primes."""
    uni = xy_universe(n)

    def var_exps(name: str) -> Exponents:
        e = [0] * uni.num_vars
        e[uni.index[name]] = 1
        return tuple(e)

    lhs = []
    for i, j in combinations(range(1, n + 2), 2):
        e = [0] * uni.num_vars
        e[uni.index[f"x{i}"]] = 1
        e[uni.index[f"y{j}"]] = 1
        lhs.append(tuple(e))
    lhs = minimalize_monomial_exponents(lhs)

    primes = component_primes(n)
    inter = [var_exps(name) for name in primes[0]]
    for prime in primes[1:]:
        inter = intersect_monomial_exponents(inter, [var_exps(name) for name in prime])
    return sorted(inter) == sorted(lhs)


def minimal_primes_of_monomial_ideal(universe: VariableUniverse,
                                     monomials: Iterable[BiMonomial]) -> list[tuple[str, ...]]:
    """Minimal primes of a squarefree monomial ideal: minimal covers of the
    generator supports, by subset enumeration (desk scale)."""
    supports = []
    for m in monomials:
        if any(e > 1 for e in m.exponents):
            raise ValueError("minimal primes implemented for squarefree monomial ideals only")
        supports.append(frozenset(i for i, e in enumerate(m.exponents) if e))
    if not supports:
        return []
    nv = universe.num_vars
    covers: list[set[int]] = []
    for size in range(nv + 1):
        for combo in combinations(range(nv), size):
            s = set(combo)
            if any(kept <= s for kept in covers):
                continue
            if all(sup & s for sup in supports):
                covers.append(s)
    return [tuple(universe.names[i] for i in sorted(s)) for s in covers]


def nonzerodivisor_check(f: BiPolynomial, monomials: Sequence[BiMonomial]) -> bool:
    """True iff f avoids every minimal prime of the (squarefree) monomial
    ideal; cross-checked against the Hilbert-function first-difference
    identity for t <= 5.  The two methods must agree."""
    uni = f.universe
    if f.is_zero():
        return False
    deg = f.bidegree()
    if deg is None:
        raise NonBihomogeneousError(f)
    primes = minimal_primes_of_monomial_ideal(uni, monomials)

    def in_prime(prime: tuple[str, ...]) -> bool:
        positions = [uni.index[name] for name in prime]
        for e in f.terms:
            if not any(e[p] for p in positions):
                return False  # a term survives modulo the prime
        return True

    avoids = not any(in_prime(p) for p in primes)

    gens = [m.as_polynomial() for m in monomials]
    base = Ideal(uni, gens)
    bigger = Ideal(uni, gens + [f])
    dx, dy = deg
    identity = all(
        bigraded_hilbert_function(bigger, t, t)
        == bigraded_hilbert_function(base, t, t) - bigraded_hilbert_function(base, t - dx, t - dy)
        for t in range(6))
    if identity != avoids:
        raise RuntimeError("prime avoidance and Hilbert first-difference disagree; "
                           "this contradicts the exactness argument")
    return avoids


# --- global equations over a fixed conic ---

@dataclass
class ConicReport:
    identity_ok: bool
    sampling_skipped: bool
    base_point: tuple | None
    points_checked: int
    points_skipped: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity_ok": self.identity_ok,
            "sampling_skipped": self.sampling_skipped,
            "base_point": [fraction_to_json(v) for v in self.base_point] if self.base_point else None,
            "points_checked": self.points_checked,
            "points_skipped": self.points_skipped,
            "passed": self.passed,
        }


def conic_matrix_identity_symbolic() -> bool:
    """3 z adj(z) == trace(z adj(z)) I for a symmetric 3x3 of indeterminates."""
    names = ("z11", "z12", "z13", "z22", "z23", "z33")
    uni = VariableUniverse.standard(2, params=names)
    v = uni.variable
    z = [[v("z11"), v("z12"), v("z13")],
         [v("z12"), v("z22"), v("z23")],
         [v("z13"), v("z23"), v("z33")]]
    w = mat_adjugate(z)
    zw = mat_mul(z, w)
    trace = zw[0][0] + zw[1][1] + zw[2][2]
    for i in range(3):
        for j in range(3):
            lhs = zw[i][j] * 3
            rhs = trace if i == j else uni.zero()
            if lhs != rhs:
                return False
    return True


def _quadric_value(z: SymmetricMatrixQ, p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for i in range(z.size):
        for j in range(z.size):
            total += z.entries[i][j] * p[i] * q[j]
    return total


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...] | None:
    """The primitive integer multiple of vec whose first nonzero entry is
    positive; None for the zero vector."""
    denom = lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = gcd(*ints)
    if g == 0:
        return None
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def find_rational_point(z: SymmetricMatrixQ, height: int = 12) -> tuple[int, ...] | None:
    """First primitive integer point on x z x^T = 0, scanning by height.

    Height h is the shell max(|a|, |b|, |c|) = h, walked in (a, b, c)
    lexicographic order; the quadric is evaluated in integers after
    clearing z's denominators.
    """
    denom = lcm(*(v.denominator for row in z.entries for v in row))
    q = [[int(v * denom) for v in row] for row in z.entries]
    for h in range(1, height + 1):
        for a in range(-h, h + 1):
            for b in range(-h, h + 1):
                # on the shell's faces |a| = h or |b| = h every c fits; else |c| = h
                cs = range(-h, h + 1) if h in (abs(a), abs(b)) else (-h, h)
                ab = q[0][0] * a * a + 2 * q[0][1] * a * b + q[1][1] * b * b
                lin = 2 * (q[0][2] * a + q[1][2] * b)
                for cc in cs:
                    if ab + cc * (lin + q[2][2] * cc) == 0 and gcd(a, b, cc) == 1:
                        return (a, b, cc)
    return None


def _vector_matrix(v: Sequence[Fraction], m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    return [sum((v[k] * m[k][j] for k in range(len(v))), Fraction(0)) for j in range(len(m[0]))]


def _two_by_n_minors_zero(r1: Sequence[Fraction], r2: Sequence[Fraction]) -> bool:
    for i, j in combinations(range(len(r1)), 2):
        if r1[i] * r2[j] - r1[j] * r2[i] != 0:
            return False
    return True


def conic_global_equations_check(z: SymmetricMatrixQ, samples: int = 20,
                                 seed: int = 0, search_height: int = 12) -> ConicReport:
    """Check the graph equations of a fixed smooth conic.

    (a) the matrix identity 3 z w = trace(z w) I with w = adj(z), exactly;
    (b) on sampled rational points x of the conic, with y = x.z: the
    incidence x.y = 0 and the 2x2 minors of (x, y.w) vanish.  Conics with
    no rational point within the search height skip (b) and report that.
    """
    if z.size != 3:
        raise ValueError("conic checks are for 3x3 matrices")
    if not z.is_nondegenerate():
        raise NondegeneracyRequiredError("the conic must be smooth: det(z) != 0")

    z_rows = [list(r) for r in z.entries]
    w_rows = mat_adjugate(z_rows)
    zw = mat_mul(z_rows, w_rows)
    trace = zw[0][0] + zw[1][1] + zw[2][2]
    identity_ok = all(
        3 * zw[i][j] == (trace if i == j else Fraction(0))
        for i in range(3) for j in range(3))

    base = find_rational_point(z, search_height)
    if base is None:
        return ConicReport(identity_ok, True, None, 0, 0, identity_ok)

    rng = Random(seed)
    base_f = tuple(Fraction(v) for v in base)
    seen: set[tuple[int, ...]] = {_primitive(base_f)}
    checked = 0
    skipped = 0
    all_ok = True
    attempts = 0
    while checked < samples and attempts < samples * 40:
        attempts += 1
        q = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if all(v == 0 for v in q):
            skipped += 1
            continue
        qq = _quadric_value(z, q, q)
        if qq == 0:
            skipped += 1
            continue
        pq = _quadric_value(z, base_f, q)
        x = tuple(qq * base_f[k] - 2 * pq * q[k] for k in range(3))
        prim = _primitive(x)
        if prim is None or prim in seen:
            skipped += 1
            continue
        seen.add(prim)
        xf = tuple(Fraction(v) for v in prim)
        y = _vector_matrix(xf, z_rows)
        on_conic = sum((xf[k] * y[k] for k in range(3)), Fraction(0)) == 0
        yw = _vector_matrix(y, w_rows)
        ok = on_conic and _two_by_n_minors_zero(xf, yw)
        all_ok = all_ok and ok
        checked += 1
    passed = identity_ok and all_ok and checked > 0
    return ConicReport(identity_ok, False, base, checked, skipped, passed)


def random_conic_with_rational_point(rng: Random, entry_bound: int = 5,
                                     search_height: int = 12,
                                     max_tries: int = 500) -> tuple[SymmetricMatrixQ, int]:
    """A random smooth integer conic that provably has a rational point;
    returns the number of draws it took."""
    for tries in range(1, max_tries + 1):
        vals = [rng.randint(-entry_bound, entry_bound) for _ in range(6)]
        z = SymmetricMatrixQ.from_rows([
            [vals[0], vals[1], vals[2]],
            [vals[1], vals[3], vals[4]],
            [vals[2], vals[4], vals[5]],
        ])
        if not z.is_nondegenerate():
            continue
        if find_rational_point(z, search_height) is not None:
            return z, tries
    raise RuntimeError(f"no isotropic smooth conic found in {max_tries} draws")


# --- the flatness certificate ---

@dataclass
class FiberCheck:
    index: int
    point: ChartPoint
    polynomial: HilbertPolynomialQ | None
    dimension: int | None
    matches: bool
    failure: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "point": self.point.to_json_dict(),
            "polynomial": self.polynomial.to_json_dict() if self.polynomial else None,
            "projective_dimension": self.dimension,
            "matches": self.matches,
            "failure": self.failure,
        }


@dataclass
class FlatnessReport:
    n: int
    t_max: int
    method: str
    corrupt: str | None
    expected: HilbertPolynomialQ
    fibers: list[FiberCheck]

    @property
    def divergent(self) -> list[FiberCheck]:
        return [f for f in self.fibers if not f.matches]

    @property
    def verdict(self) -> str:
        if any(not f.matches and f.failure is None for f in self.fibers):
            return "FAIL"
        if any(f.failure is not None for f in self.fibers):
            return "INCONCLUSIVE"
        return "PASS"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t_max": self.t_max,
            "method": self.method,
            "corrupt": self.corrupt,
            "expected": self.expected.to_json_dict(),
            "fibers": [f.to_json_dict() for f in self.fibers],
            "divergent": [f.index for f in self.divergent],
            "verdict": self.verdict,
        }


def corruption_index(corrupt: str) -> int:
    """The generator index K of a 'drop-generator:K' corruption."""
    kind, _, arg = corrupt.partition(":")
    if kind != "drop-generator" or not arg.isdecimal():
        raise ValueError(f"unknown corruption {corrupt!r}; expected drop-generator:K")
    return int(arg)


def apply_corruption(J: Ideal, corrupt: str) -> Ideal:
    """Negative-control hook: 'drop-generator:K' removes generator K (0-based)."""
    k = corruption_index(corrupt)
    if k >= len(J.generators):
        raise ValueError(f"generator index {k} out of range 0..{len(J.generators) - 1}")
    gens = [g for i, g in enumerate(J.generators) if i != k]
    return Ideal(J.universe, gens)


def _check_fiber(J: Ideal, index: int, point: ChartPoint, t_max: int,
                 method: str, expected: HilbertPolynomialQ) -> FiberCheck:
    fiber = evaluate_family_at(J, point)
    try:
        dim = ideal_dimension(fiber, projective=True)
    except DimensionUndefinedError:
        dim = None
    table = tabulate_diagonal(fiber, range(t_max + 1), method)
    if dim is None:
        if all(v == 0 for v in table.values.values()):
            poly = HilbertPolynomialQ((), stabilization_threshold=0)
            return FiberCheck(index, point, poly, None, poly == expected)
        return FiberCheck(index, point, None, None, False, "dimension undefined")
    try:
        poly = interpolate_hilbert_polynomial(table, dim_bound=max(dim, 0))
    except NoStabilizationError as exc:
        return FiberCheck(index, point, None, dim, False, f"no stabilization: {exc}")
    return FiberCheck(index, point, poly, dim, poly == expected)


def flatness_certificate(n: int, extra_points: Sequence[ChartPoint] = (),
                         t_max: int = 8, method: str = METHOD_INITIAL,
                         corrupt: str | None = None) -> FlatnessReport:
    """Certify (or refute, under corruption) that every listed fiber of the
    family has Hilbert polynomial chi_graph(n).

    The fibers over (I, 0) and (I, (1,..,1)) are always included, followed
    by extra_points, and are checked in that order.
    """
    J = family_ideal_J(n)
    if corrupt:
        J = apply_corruption(J, corrupt)
    points = [ChartPoint.special(n), ChartPoint.all_ones(n), *extra_points]
    for p in points:
        if p.n != n:
            raise ValueError("chart point does not match n")
    expected = chi_graph(n)

    def run(args: tuple[int, ChartPoint]) -> FiberCheck:
        idx, pt = args
        return _check_fiber(J, idx, pt, t_max, method, expected)

    # serial; parallel_map stays only because bench/tracing.py traces this call
    fibers = parallel_map(run, enumerate(points))
    return FlatnessReport(n, t_max, method, corrupt, expected, fibers)
