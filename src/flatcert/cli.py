"""flatcert command line: verification suites with deterministic reports.

Exit codes partition outcomes: 0 the checked property holds, 1 it fails
mathematically, 2 the run was inconclusive (a Hilbert table too short, or
not settled, within --t-max), 3 usage or input error.  Reports are
byte-identical given the same arguments and seed: no timestamps, sorted
JSON keys, and every fiber run in order.  Only verify-flatness reads
--seed, to draw its two chart points when --points is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations
from random import Random

from .groebner import (
    DEFAULT_ORDER,
    DimensionUndefinedError,
    Ideal,
    ideal_dimension,
    is_groebner_basis,
    leading_term,
)
from .hilbert import (
    METHOD_INITIAL,
    METHOD_RANK,
    NoStabilizationError,
    interpolate_hilbert_polynomial,
    normalize_method,
    tabulate_diagonal,
)
from .flagcut import default_t_max, run_xi_trials
from .polyring import (
    ParseError,
    VariableUniverse,
    parse_polynomial,
)
from .quadfam import (
    ChartPoint,
    closed_orbit_limit_check,
    conic_graph_identities,
    corruption_index,
    diagonal_ideal,
    flatness_certificate,
    incidence_form,
    nonzerodivisor_check,
    primary_intersection_check,
    component_primes,
    random_chart_point,
    special_fiber_ideal,
    torus_action_check,
)

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_CODES = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}
USAGE_ERRORS = (ValueError, OSError, KeyError)  # main reports these with EXIT_USAGE
# Input budget: the largest projective dimension n accepted by --n and by an
# ideal file's header.  Every suite, script and benchmark runs n <= 8.  At
# n = 8 on a 2-core VM, as subprocesses, verify-flatness --t-max 9 takes
# 4.9 s, torus-check 0.7 s, primary-check 0.17 s and verify-groebner 0.12 s;
# past it torus-check roughly triples per step (in-process: 0.37 s at n = 8,
# 1.2 s at n = 9, 4.2 s at n = 10).
MAX_N = 8
# Input budget on --t-max: every tabulated t is held in memory, so a huge
# value would exhaust it before any other check runs.  The suites, scripts
# and benchmark run t <= 8; the rank route meets its own budget,
# hilbert.MAX_MACAULAY_ENTRIES, from t = 13 on the n=2 fibers.
MAX_T = 100
# Input budget on the xi degrees, d0*d1, checked before the witness is built.
# In-process on a 2-core VM, run_xi_trials takes at most 0.12 s on each of the
# 87 pairs under it (the slowest is (25, 1); (5, 5) takes 0.006 s), and past
# it 0.015 s at (10, 10) and 0.5 s at (40, 1).
MAX_DEGREE_PRODUCT = 25


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    inconclusive runs, so remap to 3.  The error is one line on stderr,
    without the usage text (`--help` prints that)."""

    def error(self, message: str) -> None:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_in_range(low: int, high: int | None = None):
    """argparse type: an integer no smaller than `low` and, if given, no
    larger than `high`."""
    def in_range(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return in_range


def _method(text: str) -> str:
    """argparse type: a method name or alias, normalized."""
    try:
        return normalize_method(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _corruption(text: str) -> str:
    """argparse type: a 'drop-generator:K' spec, kept as typed for its report;
    apply_corruption checks K against the generator count."""
    try:
        corruption_index(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _method_or_both(text: str) -> str:
    """argparse type for hilbert: checked, but kept as typed for its report."""
    if text != "both":
        _method(text)
    return text


def _load_points_file(path: str) -> list[ChartPoint]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data.get("points") if isinstance(data, dict) else data
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a list of chart points or {{'points': [...]}}")
    return [ChartPoint.from_json_dict(row) for row in rows]


def parse_ideal_file(path: str) -> Ideal:
    """Plain text: optional comments (#), a header `n <int>`, then one
    generator per line in polynomial text."""
    n = None
    gen_lines: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head = line.split()
            if head[0] == "n" and n is None and not gen_lines:
                if len(head) != 2 or not head[1].isdecimal():
                    raise ParseError(f"{path}: header must be 'n <int>', got {line!r}")
                n = int(head[1])
                if n > MAX_N:
                    raise ParseError(f"{path}: n {n} exceeds the limit MAX_N = {MAX_N}")
            else:
                gen_lines.append(line)
    if n is None:
        raise ParseError(f"{path}: missing 'n <int>' header line")
    uni = VariableUniverse.standard(n)
    gens = [parse_polynomial(uni, line) for line in gen_lines]
    if not gens:
        raise ParseError(f"{path}: no generators")
    return Ideal(uni, gens)


# --- subcommand handlers: each takes the parsed arguments and returns
# (verdict, config, report, text lines); main does the rest ---

Outcome = tuple[str, dict, dict, list[str]]


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _run_verify_flatness(args: argparse.Namespace) -> Outcome:
    # a flat fiber has dimension n - 1, and its fit needs n + 2 samples t = 0..t_max
    if args.t_max < args.n + 1:
        raise ValueError(f"verify-flatness: argument --t-max: must be >= n + 1 = {args.n + 1}"
                         f" for n = {args.n}, got {args.t_max}")
    rng = Random(args.seed)
    if args.points:
        extra = _load_points_file(args.points)
    else:
        extra = [random_chart_point(args.n, rng, degenerate=False),
                 random_chart_point(args.n, rng, degenerate=True)]
    report = flatness_certificate(args.n, extra, args.t_max, args.method, args.corrupt)
    lines = [f"flatness n={args.n} t_max={args.t_max} expected={report.expected}"]
    for fib in report.fibers:
        got = str(fib.polynomial) if fib.polynomial is not None else f"({fib.failure})"
        mark = "ok" if fib.matches else "DIVERGES"
        lines.append(f"  fiber {fib.index} {fib.point.label()}: {got} {mark}")
    lines.append(f"verdict: {report.verdict}")
    config = {"n": args.n, "t_max": args.t_max, "seed": args.seed,
              "method": args.method, "corrupt": args.corrupt, "points": args.points}
    return report.verdict, config, report.to_json_dict(), lines


def _run_verify_groebner(args: argparse.Namespace) -> Outcome:
    """The 2x2 minors of [x; y] are a Groebner basis under every term order,
    proved by one certificate and one look at leading terms:

    - under lex the S-pairs of the minors reduce to zero;
    - under lex the minor (i, j), i < j, has leading term x_i y_j.

    Fix a term order and say i precedes j when x_i y_j leads x_i y_j - x_j y_i.
    This is a total order on the indices, transitive because a term order is
    multiplicative and cancellative.  Permuting the x and y indices together,
    so that this order becomes 1 < ... < n+1, maps the minors to +-minors and
    carries their leading terms {x_i y_j : i precedes j} onto the lex leading
    terms {x_a y_b : a < b}, which generate the lex initial ideal by the
    certificate.  So <LT(minors)> lies in the initial ideal and has the
    Hilbert function of S/I, as the initial ideal does: the two are equal.
    Maximal minors form a universal Groebner basis (Sturmfels and Zelevinsky,
    "Maximal minors and their leading terms", Adv. Math. 98, 1993).
    """
    ideal = diagonal_ideal(args.n)  # the minors (i, j), i < j, in that order
    uni = ideal.universe
    ok, spairs = is_groebner_basis(list(ideal.generators), DEFAULT_ORDER)
    keyf = DEFAULT_ORDER.key_function(uni)
    leads_ok = ([uni.monomial_text(leading_term(g, keyf)[0]) for g in ideal.generators]
                == [f"x{i}*y{j}" for i, j in combinations(range(1, args.n + 2), 2)])
    passed = ok and leads_ok
    lines = [f"groebner n={args.n}: 2x2 minors, one certificate for every term order",
             f"  lex S-pairs reduce to zero: {_verdict(ok)} ({len(spairs)} S-pairs)",
             f"  lex leading term of minor (i, j) is x_i*y_j: {_verdict(leads_ok)}",
             f"verdict: {_verdict(passed)}"]
    report = {"n": args.n, "order": DEFAULT_ORDER.to_json_dict(), "s_pairs": len(spairs),
              "groebner": ok, "lex_leading_terms": leads_ok, "passed": passed}
    return _verdict(passed), {"n": args.n}, report, lines


def _run_hilbert(args: argparse.Namespace) -> Outcome:
    ideal = parse_ideal_file(args.ideal_file)
    methods = ([METHOD_INITIAL, METHOD_RANK] if args.method == "both"
               else [normalize_method(args.method)])
    # the rank route first: an input over its budget is refused before any work
    tables = {m: tabulate_diagonal(ideal, args.t_max, m) for m in reversed(methods)}
    disagreements = []
    if len(tables) == 2:
        a, b = (tables[m] for m in methods)
        disagreements = [{"t": t, methods[0]: a[t], methods[1]: b[t]}
                         for t in range(len(a)) if a[t] != b[t]]
    table = tables[methods[0]]
    try:
        dim = ideal_dimension(ideal)
    except DimensionUndefinedError:
        dim = None
    try:
        poly = interpolate_hilbert_polynomial(table, dim_bound=max(dim or 0, 0))
    except NoStabilizationError:
        poly = None
    report = {
        "file": args.ideal_file,
        "method": args.method,
        "table": [{"t": t, "value": v, "method": methods[0]} for t, v in enumerate(table)],
        "projective_dimension": dim,
        "polynomial": poly.to_json_dict() if poly else None,
        "methods_disagree": disagreements,
    }
    lines = [f"hilbert {args.ideal_file} (method={args.method})"]
    for t, v in enumerate(table):
        lines.append(f"  t={t}: {v}")
    lines.append(f"polynomial: {poly if poly is not None else 'did not stabilize'}")
    if disagreements:
        lines.append(f"METHODS DISAGREE on {len(disagreements)} rows")
    config = {"file": args.ideal_file, "t_max": args.t_max, "method": args.method}
    verdict = "FAIL" if disagreements else "INCONCLUSIVE" if poly is None else "PASS"
    return verdict, config, report, lines


def _run_xi_trials(args: argparse.Namespace) -> Outcome:
    # the budget also keeps the default t_max, d0 + d1 + 5, at most 31
    if args.d0 * args.d1 > MAX_DEGREE_PRODUCT:
        raise ValueError(f"xi-trials: d0*d1 = {args.d0 * args.d1} is over "
                         f"MAX_DEGREE_PRODUCT = {MAX_DEGREE_PRODUCT}")
    t_max = default_t_max(args.d0, args.d1) if args.t_max is None else args.t_max
    report = run_xi_trials(args.d0, args.d1, t_max, args.method)
    fit = report.polynomial if report.polynomial is not None else "did not stabilize"
    lines = [
        f"xi-trials d0={args.d0} d1={args.d1}: the Koszul count of every curve pair,"
        " on one witness",
        f"  witness f0 = {report.witness.f0}, f1 = {report.witness.f1}",
        f"  numerator = (1 - s1^{args.d0})(1 - s2^{args.d1})(1 - s1*s2):"
        f" {_verdict(report.numerator_identity)}",
        f"  fit up to t={t_max}: {fit}",
        f"  xi_formula {report.xi_expected}: {'match' if report.xi_match else 'miss'}",
        f"  koszul count {report.koszul_expected}:"
        f" {'match' if report.koszul_match else 'miss'}",
        f"verdict: {report.verdict}",
    ]
    config = {"d0": args.d0, "d1": args.d1, "t_max": t_max, "method": args.method}
    return report.verdict, config, report.to_json_dict(), lines


def _run_torus_check(args: argparse.Namespace) -> Outcome:
    symbolic = torus_action_check(args.n)
    orbit_ok = closed_orbit_limit_check(args.n)
    passed = symbolic.passed and orbit_ok
    report = {"symbolic": symbolic.to_json_dict(), "closed_orbit_limit": orbit_ok,
              "passed": passed}
    lines = [f"torus-check n={args.n}",
             f"  symbolic scalars: {', '.join(symbolic.generator_scalars)}"
             f" [{_verdict(symbolic.passed)}]",
             f"  closed-orbit limit -> (I, 0): {_verdict(orbit_ok)}",
             f"verdict: {_verdict(passed)}"]
    return _verdict(passed), {"n": args.n}, report, lines


def _run_conic_equations(args: argparse.Namespace) -> Outcome:
    identities = conic_graph_identities()
    passed = all(identities.values())
    lines = ["conic-equations: identities over Q[z, x, b, q], z a symmetric 3x3",
             f"  z*adj(z) = det(z)*I: {_verdict(identities['adjugate'])}",
             f"  minors of (x, x*z*adj(z)) vanish: {_verdict(identities['graph_minors'])}",
             "  Q(x(q), x(q)) = Q(q,q)^2*Q(b,b), x(q) = Q(q,q)*b - 2*B(b,q)*q:"
             f" {_verdict(identities['parametrization'])}",
             f"verdict: {_verdict(passed)}"]
    return _verdict(passed), {}, {**identities, "passed": passed}, lines


def _run_primary_check(args: argparse.Namespace) -> Outcome:
    intersection_ok = primary_intersection_check(args.n)
    # the intersection identity shows these are the minimal primes: they are
    # distinct and all of one size, so none contains another
    primes = component_primes(args.n)
    special = special_fiber_ideal(args.n)  # the monomials x_i y_j (i < j), then x.y
    monomials = [g for g in special.generators if len(g.terms) == 1]
    nzd_ok = nonzerodivisor_check(incidence_form(special.universe), monomials, primes)
    passed = intersection_ok and nzd_ok
    report = {"n": args.n, "intersection_identity": intersection_ok,
              "component_primes": [list(p) for p in primes],
              "trace_form_nonzerodivisor": nzd_ok, "passed": passed}
    lines = [f"primary-check n={args.n}",
             f"  <x_i y_j : i<j> = intersection of {args.n + 1} primes:"
             f" {_verdict(intersection_ok)}",
             f"  x.y nonzerodivisor mod the monomial ideal: {_verdict(nzd_ok)}",
             f"verdict: {_verdict(passed)}"]
    config = {"n": args.n}
    return _verdict(passed), config, report, lines


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: main reuses it, and parse_args
    returns a fresh Namespace on every call."""
    positive = _int_in_range(1)
    dimension = _int_in_range(1, MAX_N)
    t_max = _int_in_range(3, MAX_T)
    parser = _Parser(prog="flatcert", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", default=None, help="write the report to a file")
    # accepted and ignored: every bench/workloads.py item passes it
    common.add_argument("--workers", type=positive, default=None,
                        help="accepted and ignored; every run is serial")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-flatness", parents=[common],
                       help="Hilbert polynomials of family fibers vs chi_graph(n)")
    p.set_defaults(run=_run_verify_flatness)
    p.add_argument("--n", type=dimension, default=2)
    p.add_argument("--t-max", type=t_max, default=8)
    p.add_argument("--method", type=_method, default=METHOD_INITIAL)
    p.add_argument("--corrupt", type=_corruption, default=None, help="e.g. drop-generator:1")
    p.add_argument("--points", default=None, help="JSON file of extra chart points")

    p = sub.add_parser("verify-groebner", parents=[common],
                       help="minors of [x;y] as a Groebner basis under every term order")
    p.set_defaults(run=_run_verify_groebner)
    p.add_argument("--n", type=dimension, default=2)

    p = sub.add_parser("hilbert", parents=[common],
                       help="diagonal Hilbert function and polynomial of an ideal file")
    p.set_defaults(run=_run_hilbert)
    p.add_argument("ideal_file")
    p.add_argument("--t-max", type=t_max, default=8)
    p.add_argument("--method", type=_method_or_both, default="both",
                   help="initial_ideal_count | rank_oracle | both")

    p = sub.add_parser("xi-trials", parents=[common],
                       help="the Koszul count of every curve pair on F2, from one"
                            " witness, vs the xi closed form")
    p.set_defaults(run=_run_xi_trials)
    p.add_argument("d0", type=positive)
    p.add_argument("d1", type=positive)
    # accepted and ignored, as --seed is here: bench/workloads.py passes both
    p.add_argument("--trials", type=positive, default=1)
    p.add_argument("--t-max", type=t_max, default=None)
    p.add_argument("--method", type=_method, default=METHOD_INITIAL)

    p = sub.add_parser("torus-check", parents=[common],
                       help="torus equivariance of the family generators")
    p.set_defaults(run=_run_torus_check)
    p.add_argument("--n", type=dimension, default=2)

    p = sub.add_parser("conic-equations", parents=[common],
                       help="global equations of the complete-conics graph")
    p.set_defaults(run=_run_conic_equations)

    p = sub.add_parser("primary-check", parents=[common],
                       help="primary decomposition and nonzerodivisor checks")
    p.set_defaults(run=_run_primary_check)
    p.add_argument("--n", type=dimension, default=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse raises on usage errors and on --help; surface the code
        return int(exc.code or 0)
    try:
        verdict, config, report, lines = args.run(args)
        envelope = {"schema": SCHEMA_VERSION, "command": args.command,
                    "config": config, "report": report}
        payload = (json.dumps(envelope, indent=2, sort_keys=True) + "\n"
                   if args.format == "json" else "\n".join(lines) + "\n")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except USAGE_ERRORS as exc:
        print(f"flatcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
