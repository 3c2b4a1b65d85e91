"""The degenerating-quadrics family and everything needed to certify it flat.

Contents: the determinantal ideal of the pointwise graph, its monomial
special fiber, Gauss-graph ideals of quadrics with entries in Q or in a
polynomial ring, the unipotent-times-diagonal chart for quadric
degenerations and its symbolic quadric matrix, the cancelled-minor family
ideal J over that chart, fiber evaluation and straightening, the torus
symmetry that contracts the chart onto the most special point, the primary
decomposition of the special monomial ideal, nonzerodivisor checks, the
equations of the complete-conics graph as polynomial identities, and the
flatness certificate comparing every fiber's Hilbert polynomial to the
closed form chi_graph(n).

Index conventions: variable names are 1-based (x1..x{n+1}), Python
containers 0-based.  A chart point is a pair (u, d) with u unipotent lower
triangular and d the n diagonal ratios; it presents the quadric
u * diag(1, d1, d1*d2, ..., d1*...*dn) * u^T, and d = 0 is allowed
(degenerate quadrics are the point of the construction).  A point stores
only its parameter values: d, and the rows of u strictly below its unit
diagonal, where row k (k = 1..n) holds u{k+1}_1, ..., u{k+1}_k; d, then u
by rows, is the parameter order of `family_universe(n)` and of
`ChartPoint.parameters()`, what `BiPolynomial.substitute` takes.  Matrices
are nested lists of rows, over Q or a polynomial ring alike, and are
multiplied with util.mat_mul.

The torus (Q*)^n acts by one weight table, `torus_weights`: each x, y, u
and d variable is multiplied by a monomial in c1..cn.  The torus check
proves each generator of J semi-invariant by giving all its monomials one
weight; the conjugation law and the closed-orbit limit read the same table.
Each is a statement about every chart point and every c at once, so
nothing is drawn or sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Sequence

from .groebner import (
    Ideal,
    _integer_terms,
    _subtract_shifted,
    ideal_dimension,
    intersect_monomial_exponents,
    minimalize_monomial_exponents,
)
from .hilbert import (
    METHOD_INITIAL,
    HilbertPolynomialQ,
    NoStabilizationError,
    chi_graph,
    interpolate_hilbert_polynomial,
    tabulate_diagonal,
)
from .polyring import (
    BiPolynomial,
    VariableUniverse,
    _rational,
)
from .util import (
    fraction_from_json,
    fraction_to_json,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_transpose,
    parallel_map,
)


# --- universes ---

def xy_universe(n: int) -> VariableUniverse:
    return VariableUniverse.standard(n)


def family_universe(n: int) -> VariableUniverse:
    """x/y plus the chart parameters d1..dn, then u{i}_{j} by rows."""
    return VariableUniverse.standard(n, [f"d{k}" for k in range(1, n + 1)] + [
        f"u{i}_{j}" for i in range(2, n + 2) for j in range(1, i)])


def incidence_form(universe: VariableUniverse) -> BiPolynomial:
    """x.y = sum_i x_i y_i."""
    total = universe.zero()
    for xn, yn in zip(universe.x_names, universe.y_names):
        total = total + universe.variable(xn) * universe.variable(yn)
    return total


# --- chart points ---

@dataclass(frozen=True)
class ChartPoint:
    """A point (u, d) of the chart, stored as its parameter values: the rows
    of u strictly below its unit diagonal, of lengths 1..n, and d in Q^n."""

    rows: tuple[tuple[Fraction, ...], ...]
    d: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(_rational(v, "a chart entry")) for v in row)
                     for row in self.rows)
        d = tuple(Fraction(_rational(v, "a chart entry")) for v in self.d)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)
        if any(len(row) != i for i, row in enumerate(rows, start=1)):
            raise ValueError("need rows of lengths 1..n below the diagonal")
        if len(rows) != len(d):
            raise ValueError(f"d has length {len(d)} but u has {len(rows)} rows below"
                             " the diagonal; both must be n")

    @property
    def n(self) -> int:
        return len(self.d)

    @staticmethod
    def from_strict_lower(rows: Sequence[Sequence], d: Sequence) -> "ChartPoint":
        return ChartPoint(rows, d)

    @staticmethod
    def special(n: int) -> "ChartPoint":
        """(I, 0): the most degenerate point of the chart."""
        return ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)], [0] * n)

    @staticmethod
    def all_ones(n: int) -> "ChartPoint":
        """(I, (1,..,1)): the fiber is the graph over the smooth quadric sum x_i^2."""
        return ChartPoint.from_strict_lower([[0] * i for i in range(1, n + 1)], [1] * n)

    def parameters(self) -> tuple[Fraction, ...]:
        """The parameter values, in the order of family_universe(n)."""
        return (*self.d, *(v for row in self.rows for v in row))

    def to_json_dict(self) -> dict:
        return {
            "u": [[fraction_to_json(v) for v in row] for row in self.rows],
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
        rows = ";".join(",".join(str(v) for v in row) for row in self.rows)
        ds = ",".join(str(v) for v in self.d)
        return f"(u=[{rows}], d=({ds}))"


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


def gauss_graph_ideal(a: Sequence[Sequence], uni: VariableUniverse) -> Ideal:
    """Graph of x -> x.a over the quadric of a: incidence plus the 2x2
    minors of the matrix with rows y and x.a.  The square matrix a has
    entries in Q or in the ring of uni; over an invertible a this is the
    Gauss graph of the quadric, and nothing here checks invertibility."""
    ys = [uni.variable(name) for name in uni.y_names]
    (xa,) = mat_mul([[uni.variable(name) for name in uni.x_names]], a)
    gens = [incidence_form(uni)]
    for i, j in combinations(range(len(xa)), 2):
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


def _unipotent_inverse(mat: Sequence[Sequence]) -> list[list]:
    """Forward substitution on mat * inv = I, for mat unipotent lower triangular
    over any commutative ring (entries need +, -, *, as for util.mat_mul):
    inv[i][j] = -sum_{k=j}^{i-1} mat[i][k] * inv[k][j].  The unit diagonal
    and the zeros above it are mat's own entries."""
    inv = [list(row) for row in mat]
    for i in range(len(mat)):
        for j in range(i):
            acc = mat[i][j] * inv[j][j]
            for k in range(j + 1, i):
                acc = acc + mat[i][k] * inv[k][j]
            inv[i][j] = -acc
    return inv


def primed_coordinates(uni: VariableUniverse, n: int) -> tuple[list[BiPolynomial], list[BiPolynomial]]:
    """x' = u^T x and y' = u^{-1} y as column vectors: x'_j = sum_i u_ij x_i
    and y'_j = sum_i inv(u)_ji y_i."""
    u = _unipotent_matrix(uni, n)
    (xp,) = mat_mul([[uni.variable(name) for name in uni.x_names]], u)
    yp = mat_mul(_unipotent_inverse(u), [[uni.variable(name)] for name in uni.y_names])
    return xp, [y for (y,) in yp]


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
    the plain x/y ring.  Generators that vanish there are dropped."""
    values = point.parameters()
    gens = [h for h in (g.substitute(values) for g in J.generators) if h]
    return Ideal(gens[0].universe, gens)


def fiber_matrix(n: int) -> list[list[BiPolynomial]]:
    """The symmetric matrix A = u * diag(1, d1, d1*d2, ..., d1*...*dn) * u^T
    over family_universe(n); a chart point presents A at its parameters()."""
    uni = family_universe(n)
    u = _unipotent_matrix(uni, n)
    diag = [uni.one()]
    for name in uni.param_names[:n]:
        diag.append(diag[-1] * uni.variable(name))
    scaled = [[entry * a for entry, a in zip(row, diag)] for row in u]
    return mat_mul(scaled, mat_transpose(u))


# --- random chart data ---

def random_chart_point(n: int, rng: Random, degenerate: bool = False) -> ChartPoint:
    """Integer entries in [-9, 9]; degenerate zeroes one random d_i."""
    nonzero = [v for v in range(-9, 10) if v != 0]
    rows = [[rng.randint(-9, 9) for _ in range(i)] for i in range(1, n + 1)]
    d = [rng.choice(nonzero) for _ in range(n)]
    if degenerate:
        d[rng.randrange(n)] = 0
    return ChartPoint.from_strict_lower(rows, d)


# --- torus action ---

@dataclass
class TorusReport:
    n: int
    passed: bool
    generator_scalars: list[str]
    param_law_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "passed": self.passed,
            "generator_scalars": self.generator_scalars,
            "param_law_ok": self.param_law_ok,
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


def torus_action_check(n: int) -> TorusReport:
    """Each generator of J, pushed through the torus action, must come back
    as a nonzero scalar times itself, and the action on the chart must be
    conjugation of the fiber matrix by G = diag(gamma_1, ..., gamma_{n+1}).

    Proved from the weight table: every monomial of a generator has the
    same weight, so the scalar is that c-monomial.
    """
    J = family_ideal_J(n)
    table = torus_weights(n)
    columns = [table[name] for name in J.universe.names]
    scalars: list[str] = []
    for g in J.generators:
        weights = set()
        for exps in g.terms:
            # a term has few nonzero exponents among its 2n+2 + n(n+3)/2 variables
            present = [(e, columns[v]) for v, e in enumerate(exps) if e]
            weights.add(tuple(sum(e * w[k] for e, w in present) for k in range(n)))
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
    return TorusReport(n, passed, scalars, law_ok)


def closed_orbit_limit_check(n: int) -> bool:
    """Scaling any chart point by the torus and sending every c_k -> 0 must
    land on (I, 0): every chart coordinate u_ij and d_k must be moved by a
    nonconstant c-monomial with no negative exponent (the unipotent
    diagonal stays 1 and is not moved)."""
    table = torus_weights(n)
    return all(min(table[name]) >= 0 and max(table[name]) > 0
               for name in family_universe(n).param_names)


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
    special = special_fiber_ideal(n)  # the monomials x_i y_j (i < j), then x.y
    uni = special.universe
    lhs = minimalize_monomial_exponents(
        e for g in special.generators if len(g.terms) == 1 for e in g.terms)
    primes = [[e for name in prime for e in uni.variable(name).terms]
              for prime in component_primes(n)]
    inter = primes[0]
    for prime in primes[1:]:
        inter = intersect_monomial_exponents(inter, prime)
    return inter == lhs


def nonzerodivisor_check(f: BiPolynomial, monomials: Sequence[BiPolynomial],
                         primes: Sequence[tuple[str, ...]]) -> bool:
    """True iff f avoids every prime in `primes`, the minimal primes of the
    squarefree monomial ideal M generated by `monomials`.  Cross-checked
    exactly: f is a nonzerodivisor on S/M iff the Hilbert-series numerators
    satisfy K(M + f) = K(M) * (1 - s^deg f), in every bidegree.  The two
    methods must agree, so a prime list that changes the answer raises."""
    uni = f.universe
    if f.is_zero():
        return False
    deg = f.bidegree()
    if deg is None:
        raise ValueError(f"generator is not bihomogeneous: {f}")

    def in_prime(prime: tuple[str, ...]) -> bool:
        positions = [uni.index[name] for name in prime]
        for e in f.terms:
            if not any(e[p] for p in positions):
                return False  # a term survives modulo the prime
        return True

    avoids = not any(in_prime(p) for p in primes)

    base = Ideal(uni, monomials).series_numerator()
    expected = dict(base)
    _subtract_shifted(expected, base, deg)
    identity = (Ideal(uni, [*monomials, f]).series_numerator()
                == {key: c for key, c in expected.items() if c})
    if identity != avoids:
        raise RuntimeError("prime avoidance and the Hilbert-series numerators disagree; "
                           "this contradicts the exactness argument")
    return avoids


# --- equations of the complete-conics graph ---

def _bilinear(z: list[list[BiPolynomial]], p: Sequence[BiPolynomial],
              q: Sequence[BiPolynomial]) -> BiPolynomial:
    """B(p, q) = p z q^T; Q(p, p) = B(p, p) is the conic's quadratic form."""
    return sum(p[i] * z[i][j] * q[j] for i in range(3) for j in range(3))


def conic_parametrization(z: list[list[BiPolynomial]], b: Sequence[BiPolynomial],
                          q: Sequence[BiPolynomial]) -> list[BiPolynomial]:
    """x(q) = Q(q,q) b - 2 B(b,q) q: for b on the conic, the second point
    where the line through b and q meets it."""
    qq, bq = _bilinear(z, q, q), _bilinear(z, b, q)
    return [qq * b[k] - bq * q[k] * 2 for k in range(3)]


def _adjugate_identity(z: list[list[BiPolynomial]], w: list[list[BiPolynomial]]) -> bool:
    """z w = det(z) I."""
    det = mat_det(z)
    zw = mat_mul(z, w)
    return all(zw[i][j] == (det if i == j else 0) for i in range(3) for j in range(3))


def _graph_minors_vanish(z: list[list[BiPolynomial]], w: list[list[BiPolynomial]],
                         x: Sequence[BiPolynomial]) -> bool:
    """With y = x z, every 2x2 minor of the rows x and y w is zero."""
    (yw,) = mat_mul(mat_mul([x], z), w)
    return all(x[i] * yw[j] == x[j] * yw[i] for i, j in combinations(range(3), 2))


def conic_graph_identities() -> dict[str, bool]:
    """The equations of the graph x -> x z of the complete conic (z, adj z),
    proved as polynomial identities in Q[z11..z33, x1..x3, b1..b3, q1..q3]
    for the symmetric 3x3 matrix z of indeterminates:

    - adjugate: z adj(z) = det(z) I;
    - graph_minors: with y = x z, the 2x2 minors of (x, y adj(z)) are zero,
      since y adj(z) = det(z) x;
    - parametrization: Q(x(q), x(q)) = Q(q,q)^2 Q(b,b) for the x(q) of
      `conic_parametrization`, so every x(q) is on the conic when b is.

    Each holds for every conic, point and base point at once, so nothing
    is drawn or sampled.
    """
    z_names = [f"z{i}{j}" for i in range(1, 4) for j in range(i, 4)]
    bq_names = [f"{c}{k}" for c in "bq" for k in range(1, 4)]
    uni = VariableUniverse.standard(2, params=z_names + bq_names)
    v = uni.variable
    z = [[v(f"z{min(i, j)}{max(i, j)}") for j in range(1, 4)] for i in range(1, 4)]
    x = [v(name) for name in uni.x_names]
    b = [v(f"b{k}") for k in range(1, 4)]
    q = [v(f"q{k}") for k in range(1, 4)]
    w = mat_adjugate(z)
    xq = conic_parametrization(z, b, q)
    qq = _bilinear(z, q, q)
    return {
        "adjugate": _adjugate_identity(z, w),
        "graph_minors": _graph_minors_vanish(z, w, x),
        "parametrization": _bilinear(z, xq, xq) == qq * qq * _bilinear(z, b, b),
    }


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


def _integer_matrix(mat: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(h, scale) with integer rows h and mat == h / scale."""
    h, scale = _integer_terms({(i, j): v for i, row in enumerate(mat) for j, v in enumerate(row)})
    return [[h[i, j] for j in range(len(row))] for i, row in enumerate(mat)], scale


def _straightened(fiber: Ideal, point: ChartPoint) -> Ideal:
    """The fiber after x -> u^-T x, y -> u y, the inverse of the point's
    chart change: each generator, bilinear as every generator of J is,
    goes from x^T C y to x^T (u^-1 C u) y, in generator order.

    The map is a bigraded automorphism of Q[x, y], so the Hilbert function,
    the dimension and every table of the image are the fiber's, whatever J
    is.  On a correct J the image is the fiber at (I, d), term for term.
    At u = I the map is the identity and the fiber comes back as it is.
    In integers: with u = U / a, u^-1 = V / b and C = h / scale (from
    groebner._integer_terms), the image is V h U / (scale a b)."""
    if not any(map(any, point.rows)):
        return fiber  # u = I: the map is the identity
    m = point.n + 1
    u = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for i, row in enumerate(point.rows, start=1):
        u[i][:i] = row
    (U, a), (V, b) = _integer_matrix(u), _integer_matrix(_unipotent_inverse(u))
    # x_i y_j as an exponent tuple, and back
    mono = [[tuple(int(k == i or k == m + j) for k in range(2 * m)) for j in range(m)]
            for i in range(m)]
    slot = {mono[i][j]: (i, j) for i in range(m) for j in range(m)}
    uni = fiber.universe
    gens = []
    for g in fiber.generators:
        h, scale = _integer_terms(g.terms)
        c = [[0] * m for _ in range(m)]
        for e, v in h.items():
            i, j = slot[e]
            c[i][j] = v
        total = scale * a * b
        image = mat_mul(mat_mul(V, c), U)
        gens.append(BiPolynomial(uni, _canonical={
            mono[i][j]: Fraction(v, total)
            for i, row in enumerate(image) for j, v in enumerate(row) if v}))
    return Ideal(uni, gens)


def _check_fiber(J: Ideal, index: int, point: ChartPoint, t_max: int,
                 method: str, expected: HilbertPolynomialQ) -> FiberCheck:
    """Fit the Hilbert polynomial of the fiber of J at the point.  The
    fiber is completed after x -> u^-T x, y -> u y (`_straightened`), a
    bigraded automorphism, so its dimension, its table and the fit are the
    fiber's own; on a correct J the ideal completed is the sparse fiber at
    (I, d)."""
    fiber = _straightened(evaluate_family_at(J, point), point)
    dim = ideal_dimension(fiber)
    table = tabulate_diagonal(fiber, t_max, method)
    if dim is None and any(table):
        return FiberCheck(index, point, None, None, False, "dimension undefined")
    try:
        poly = interpolate_hilbert_polynomial(table, dim_bound=dim)
    except NoStabilizationError as exc:
        return FiberCheck(index, point, None, dim, False, f"no stabilization: {exc}")
    return FiberCheck(index, point, poly, dim, poly == expected)


def flatness_t_max(n: int) -> int:
    """The default t_max of a flatness certificate, max(8, n + 1): a flat
    fiber has dimension n - 1, and its fit needs n + 2 samples t = 0..t_max."""
    return max(8, n + 1)


def flatness_certificate(n: int, extra_points: Sequence[ChartPoint] = (),
                         t_max: int | None = None, method: str = METHOD_INITIAL,
                         corrupt: str | None = None) -> FlatnessReport:
    """Certify (or refute, under corruption) that every listed fiber of the
    family has Hilbert polynomial chi_graph(n), tabulated up to t_max
    (default `flatness_t_max(n)`).

    The fibers over (I, 0) and (I, (1,..,1)) are always included, followed
    by extra_points, and are checked in that order.  Each fiber is
    completed after x -> u^-T x, y -> u y, the inverse of its point's chart
    change.  That map is a bigraded automorphism of Q[x, y], so the Hilbert
    function is unchanged for any J, a corrupted one included; on a correct
    J it turns the fiber at (u, d) into the fiber at (I, d), the incidence
    form plus the binomials x_i y_j - D_ij x_j y_i.
    """
    if t_max is None:
        t_max = flatness_t_max(n)
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
