"""Curves on the point-line incidence variety F2 in P2 x P2*.

Gamma_f = (f0 x f1) cut into F2, where f0 is a plane curve in the x-block
and f1 a curve of the dual plane in the y-block.  The module measures the
diagonal Hilbert polynomial of Gamma_f two ways, against two closed forms
from the hilbert module: xi_formula(d0, d1) and koszul_hilbert_polynomial,
the exact count from the Koszul resolution of (f0, f1, x.y).

The two closed forms agree at (1,1) and share their constant term, but the
leading coefficients differ: xi_formula says d0+d1, the Koszul count says
2*d0*d1.  run_xi_trials reports the observed polynomial against both so
the discrepancy is data, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .groebner import Ideal, ideal_dimension
from .hilbert import (
    METHOD_INITIAL,
    HilbertPolynomialQ,
    NoStabilizationError,
    interpolate_hilbert_polynomial,
    koszul_hilbert_polynomial,
    tabulate_diagonal,
    xi_formula,
)
from .polyring import BiPolynomial, VariableUniverse, monomials_of_bidegree, polynomial_text
from .quadfam import incidence_form, xy_universe

MAX_RETRIES_PER_TRIAL = 8


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


def random_plane_curve(degree: int, rng: Random, block: str = "x",
                       universe: VariableUniverse | None = None,
                       coeff_bound: int = 9) -> BiPolynomial:
    """A random nonzero form of the given degree, pure in one block."""
    if block not in ("x", "y"):
        raise ValueError("block must be 'x' or 'y'")
    if universe is None:
        universe = xy_universe(2)
    bidegree = (degree, 0) if block == "x" else (0, degree)
    while True:
        terms = {}
        for mono in monomials_of_bidegree(universe, *bidegree):
            coeff = rng.randint(-coeff_bound, coeff_bound)
            if coeff:
                terms[mono.exponents] = Fraction(coeff)
        if terms:
            return BiPolynomial(universe, terms)


@dataclass
class TrialRecord:
    index: int
    seed: int
    f0: str
    f1: str
    retries: list[str] = field(default_factory=list)
    polynomial: HilbertPolynomialQ | None = None
    xi_match: bool = False
    koszul_match: bool = False

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "f0": self.f0,
            "f1": self.f1,
            "retries": self.retries,
            "polynomial": self.polynomial.to_json_dict() if self.polynomial else None,
            "xi_match": self.xi_match,
            "koszul_match": self.koszul_match,
        }


@dataclass
class XiTrialsReport:
    d0: int
    d1: int
    trials: int
    seed: int
    xi_expected: HilbertPolynomialQ
    koszul_expected: HilbertPolynomialQ
    records: list[TrialRecord]

    @property
    def xi_matches(self) -> int:
        return sum(1 for r in self.records if r.xi_match)

    @property
    def koszul_matches(self) -> int:
        return sum(1 for r in self.records if r.koszul_match)

    @property
    def total_retries(self) -> int:
        return sum(len(r.retries) for r in self.records)

    @property
    def passed(self) -> bool:
        """Spec semantics: every trial must match xi_formula."""
        return all(r.xi_match for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "d0": self.d0, "d1": self.d1,
            "trials": self.trials, "seed": self.seed,
            "xi_expected": self.xi_expected.to_json_dict(),
            "koszul_expected": self.koszul_expected.to_json_dict(),
            "records": [r.to_json_dict() for r in self.records],
            "xi_matches": self.xi_matches,
            "koszul_matches": self.koszul_matches,
            "total_retries": self.total_retries,
            "passed": self.passed,
        }


def _run_one_trial(index: int, trial_seed: int, d0: int, d1: int, t_max: int,
                   method: str, xi: HilbertPolynomialQ,
                   koszul: HilbertPolynomialQ) -> TrialRecord:
    rng = Random(trial_seed)
    uni = xy_universe(2)
    record = TrialRecord(index, trial_seed, "", "")
    for _ in range(MAX_RETRIES_PER_TRIAL):
        f0 = random_plane_curve(d0, rng, "x", uni)
        f1 = random_plane_curve(d1, rng, "y", uni)
        pair = PlaneCurvePair(f0, f1)
        record.f0 = polynomial_text(f0)
        record.f1 = polynomial_text(f1)
        # one Ideal per draw: the table reuses the basis the dimension check built
        ideal = gamma_curve_ideal(pair)
        dim = ideal_dimension(ideal, projective=True)
        if dim != 1:
            record.retries.append(f"dimension {dim} != 1, redrawing")
            continue
        table = tabulate_diagonal(ideal, range(t_max + 1), method)
        try:
            poly = interpolate_hilbert_polynomial(table, dim_bound=1)
        except NoStabilizationError:
            record.retries.append("no stabilization, redrawing")
            continue
        record.polynomial = poly
        record.xi_match = poly == xi
        record.koszul_match = poly == koszul
        return record
    record.retries.append("retry budget exhausted")
    return record


def default_t_max(d0: int, d1: int) -> int:
    """Table length past the Koszul stabilization threshold d0 + d1 + 2."""
    return d0 + d1 + 5


def run_xi_trials(d0: int, d1: int, trials: int = 20, seed: int = 0,
                  t_max: int | None = None, method: str = METHOD_INITIAL) -> XiTrialsReport:
    """Sample random curve pairs and compare Gamma_f's Hilbert polynomial
    to xi_formula(d0, d1) and to the Koszul count.  Degenerate draws retry
    with the same per-trial stream and are logged."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t_max is None:
        t_max = default_t_max(d0, d1)
    xi = xi_formula(d0, d1)
    koszul = koszul_hilbert_polynomial(d0, d1)
    master = Random(seed)
    trial_seeds = [master.getrandbits(32) for _ in range(trials)]
    records = [_run_one_trial(idx, ts, d0, d1, t_max, method, xi, koszul)
               for idx, ts in enumerate(trial_seeds)]
    return XiTrialsReport(d0, d1, trials, seed, xi, koszul, records)
