"""Curves on the point-line incidence variety F2 in P2 x P2*.

Gamma_f = (f0 x f1) cut into F2, where f0 is a plane curve in the x-block
and f1 a curve of the dual plane in the y-block.

Theorem: for any nonzero f0 in Q[x1, x2, x3] of degree d0 and f1 in
Q[y1, y2, y3] of degree d1, x.y, f0, f1 is a regular sequence.

- S/<x.y> is a domain, since x.y is a quadric of rank 6, and f0, of
  bidegree (d0, 0), is not a multiple of x.y.  So f0 is a nonzerodivisor.
- S/<x.y, f0> is a complete intersection, so it has no embedded primes.
  Each minimal prime is the ideal of {(p, H) : p in V(g), p in H} for a
  factor g of f0; the cone x = 0 has too small a dimension to be a
  component.  Every line H meets the curve V(g), so that set maps onto P2*,
  and f1 vanishes on none of them.

So the bigraded Hilbert series numerator of S/<x.y, f0, f1> is the Koszul
product (1 - s1^d0)(1 - s2^d1)(1 - s1 s2) for every pair (Bayer and
Stillman, "Computation of Hilbert functions", 1992), and its diagonal
Hilbert polynomial is koszul_hilbert_polynomial(d0, d1) =
2 d0 d1 t - d0 d1 (d0 + d1 - 4) / 2.  One witness per (d0, d1) therefore
stands for every pair: run_xi_trials takes the Fermat pair, checks its
numerator against the Koszul product exactly, and fits the diagonal
polynomial from a Hilbert table as the referee.

The xi gap: xi_formula(d0, d1) = (d0 + d1) t - d0 d1 (d0 + d1 - 4) / 2
shares the Koszul count's constant term, but its leading coefficient is
d0 + d1 against 2 d0 d1.  d0 + d1 = 2 d0 d1 forces
(2 d0 - 1)(2 d1 - 1) = 1, so d0 = d1 = 1: xi_formula is right at (1,1)
and wrong at every other pair, for all degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal, _product_numerator, ideal_dimension
from .hilbert import (
    METHOD_INITIAL,
    HilbertPolynomialQ,
    NoStabilizationError,
    interpolate_hilbert_polynomial,
    koszul_hilbert_polynomial,
    tabulate_diagonal,
    xi_formula,
)
from .polyring import BiPolynomial, polynomial_text
from .quadfam import incidence_form, xy_universe


@dataclass(frozen=True)
class PlaneCurvePair:
    """f0 homogeneous in the x-block, f1 homogeneous in the y-block."""

    f0: BiPolynomial
    f1: BiPolynomial

    def __post_init__(self) -> None:
        for label, f, axis in (("f0", self.f0, 0), ("f1", self.f1, 1)):
            if f.is_zero():
                raise ValueError(f"{label} must be nonzero")
            deg = f.bidegree()
            if deg is None:
                raise ValueError(f"{label} must be bihomogeneous")
            if deg[1 - axis] != 0:
                block = "x" if axis == 0 else "y"
                raise ValueError(f"{label} must be pure in the {block} variables")
        if self.f0.universe != self.f1.universe:
            raise ValueError("f0 and f1 must share a universe")

    @property
    def degrees(self) -> tuple[int, int]:
        return (self.f0.bidegree()[0], self.f1.bidegree()[1])


def gamma_curve_ideal(pair: PlaneCurvePair) -> Ideal:
    """<f0, f1, x.y>: the curve (f0 x f1) meet F2."""
    uni = pair.f0.universe
    return Ideal(uni, [pair.f0, pair.f1, incidence_form(uni)])


def fermat_pair(d0: int, d1: int) -> PlaneCurvePair:
    """The witness: x1^d0 + x2^d0 + x3^d0 and y1^d1 + y2^d1 + y3^d1."""
    uni = xy_universe(2)

    def fermat(names: tuple[str, ...], degree: int) -> BiPolynomial:
        return BiPolynomial(uni, {tuple(degree if v == name else 0 for v in uni.names): 1
                                  for name in names})

    return PlaneCurvePair(fermat(uni.x_names, d0), fermat(uni.y_names, d1))


@dataclass
class XiTrialsReport:
    """The Fermat witness at (d0, d1): its numerator against the Koszul
    product, and its fitted diagonal polynomial (None when the table is too
    short to fix it) against xi_formula and the Koszul count."""

    d0: int
    d1: int
    witness: PlaneCurvePair
    numerator_identity: bool
    polynomial: HilbertPolynomialQ | None
    fit_error: str | None  # why the fit failed, for the text report; not in to_json_dict
    xi_expected: HilbertPolynomialQ
    koszul_expected: HilbertPolynomialQ
    total_retries = 0  # nothing is redrawn; bench/tracing.py's _retries hook reads it

    @property
    def xi_match(self) -> bool:
        return self.polynomial == self.xi_expected

    @property
    def koszul_match(self) -> bool:
        return self.polynomial == self.koszul_expected

    @property
    def verdict(self) -> str:
        """FAIL when the numerator identity fails or the fit misses
        xi_formula, INCONCLUSIVE when the table fixes no polynomial, PASS
        otherwise."""
        if not self.numerator_identity or (self.polynomial is not None and not self.xi_match):
            return "FAIL"
        return "INCONCLUSIVE" if self.polynomial is None else "PASS"

    def to_json_dict(self) -> dict:
        # one record, the witness, in the list where schema 1 kept its trials
        record = {
            "f0": polynomial_text(self.witness.f0),
            "f1": polynomial_text(self.witness.f1),
            "numerator_identity": self.numerator_identity,
            "polynomial": None if self.polynomial is None else self.polynomial.to_json_dict(),
            "xi_match": self.xi_match,
            "koszul_match": self.koszul_match,
        }
        return {
            "d0": self.d0, "d1": self.d1,
            "xi_expected": self.xi_expected.to_json_dict(),
            "koszul_expected": self.koszul_expected.to_json_dict(),
            "records": [record],
            "xi_matches": int(self.xi_match),
            "koszul_matches": int(self.koszul_match),
            "passed": self.verdict == "PASS",
        }


def default_t_max(d0: int, d1: int) -> int:
    """Table length past the Koszul stabilization threshold d0 + d1 + 2."""
    return d0 + d1 + 5


def run_xi_trials(d0: int, d1: int, t_max: int | None = None,
                  method: str = METHOD_INITIAL) -> XiTrialsReport:
    """Check the theorem of the module docstring on the Fermat witness at
    (d0, d1): its numerator must be the Koszul product, and its table, fitted
    up to t_max, is compared with xi_formula and the Koszul count."""
    if t_max is None:
        t_max = default_t_max(d0, d1)
    witness = fermat_pair(d0, d1)
    # one Ideal: the table, the numerator and the dimension share one basis;
    # the table first, so the rank route refuses before any Buchberger work
    ideal = gamma_curve_ideal(witness)
    table = tabulate_diagonal(ideal, t_max, method)
    identity = ideal.series_numerator() == _product_numerator([(d0, 0), (0, d1), (1, 1)])
    dim = ideal_dimension(ideal)
    try:
        poly, why = interpolate_hilbert_polynomial(table, dim_bound=dim), None
    except NoStabilizationError as exc:
        poly, why = None, str(exc)
    return XiTrialsReport(d0, d1, witness, identity, poly, why,
                          xi_formula(d0, d1), koszul_hilbert_polynomial(d0, d1))
