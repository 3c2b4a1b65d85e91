"""flatcert: exact certification that the complete-quadrics graph family is flat.

Everything is exact rational arithmetic: a bigraded polynomial ring with
parameter variables, Buchberger Groebner bases with certificates, diagonal
Hilbert functions by two independent routes (the Hilbert series of the
initial ideal and a Groebner-free sparse rank oracle), polynomial
interpolation with stabilization detection, and the geometric constructions of the
degenerating-quadrics chart, its torus action, and the flatness certificate
comparing every fiber against the closed form chi_graph(n).
"""

from .polyring import (
    BiPolynomial,
    VariableUniverse,
    parse_polynomial,
    polynomial_text,
)
from .groebner import (
    DEFAULT_ORDER,
    BuchbergerRun,
    Ideal,
    buchberger,
    chart_order,
    ideal_dimension,
    is_groebner_basis,
)
from .hilbert import (
    METHOD_INITIAL,
    METHOD_RANK,
    HilbertPolynomialQ,
    NoStabilizationError,
    bigraded_hilbert_function,
    chi_graph,
    interpolate_hilbert_polynomial,
    koszul_hilbert_polynomial,
    methods_agree,
    normalize_method,
    tabulate_diagonal,
    xi_formula,
)
from .quadfam import (
    ChartPoint,
    FiberCheck,
    FlatnessReport,
    TorusReport,
    apply_corruption,
    closed_orbit_limit_check,
    component_primes,
    conic_graph_identities,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    family_universe,
    fiber_matrix,
    flatness_certificate,
    gauss_graph_ideal,
    incidence_form,
    nonzerodivisor_check,
    primary_intersection_check,
    primed_coordinates,
    random_chart_point,
    special_fiber_ideal,
    torus_action_check,
    xy_universe,
)
from .flagcut import (
    PlaneCurvePair,
    XiTrialsReport,
    fermat_pair,
    gamma_curve_ideal,
    run_xi_trials,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
