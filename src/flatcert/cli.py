"""flatcert command line: verification suites with deterministic reports.

Exit codes partition outcomes: 0 the checked property holds, 1 it fails
mathematically, 2 the run was inconclusive (no stabilization), 3 usage or
input error.  Reports are byte-identical given the same arguments and seed:
no timestamps, sorted JSON keys, and every fiber and trial run in order.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .groebner import (
    DEFAULT_ORDER,
    DimensionUndefinedError,
    Ideal,
    MonomialOrderSpec,
    ideal_dimension,
    is_groebner_basis,
    leading_monomial,
)
from .hilbert import (
    METHOD_INITIAL,
    METHOD_RANK,
    HilbertPolynomialQ,
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
    conic_matrix_identity_symbolic,
    conic_global_equations_check,
    corruption_index,
    diagonal_ideal,
    flatness_certificate,
    incidence_form,
    nonzerodivisor_check,
    primary_intersection_check,
    component_primes,
    random_chart_point,
    random_conic_with_rational_point,
    random_torus_element,
    special_fiber_ideal,
    torus_action_check,
    xy_universe,
)

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_CODES = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}
USAGE_ERRORS = (ValueError, OSError, KeyError)  # main reports these with EXIT_USAGE
# Input budget: the largest projective dimension n accepted by --n and by an
# ideal file's header.  Every suite, script and benchmark runs n <= 8; far
# beyond it torus-check runs for minutes and monomial enumeration exhausts
# the recursion limit.
MAX_N = 8
# Input budget on --t-max: every tabulated t is held in memory, so a huge
# value would exhaust it before any other check runs.  The suites, scripts
# and benchmark run t <= 8; the rank route meets its own budget,
# hilbert.MAX_MACAULAY_ENTRIES, from t = 13 on the n=2 fibers.
MAX_T = 100


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    inconclusive runs, so remap to 3."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
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
    """Plain text: optional comments (#), a header `n <int>` and optional
    `params <names...>`, then one generator per line in polynomial text."""
    n = None
    params: tuple[str, ...] = ()
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
            elif head[0] == "params" and not gen_lines:
                params = tuple(head[1:])
            else:
                gen_lines.append(line)
    if n is None:
        raise ParseError(f"{path}: missing 'n <int>' header line")
    uni = VariableUniverse.standard(n, params)
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


def _sampled_orders(n: int, seed: int) -> list[MonomialOrderSpec]:
    uni = xy_universe(n)
    rng = Random(seed)
    orders = [DEFAULT_ORDER, MonomialOrderSpec("grevlex")]
    for _ in range(3):
        perm = list(uni.x_names + uni.y_names)
        rng.shuffle(perm)
        orders.append(MonomialOrderSpec("lex", tuple(perm)))
    return orders


def _run_verify_groebner(args: argparse.Namespace) -> Outcome:
    ideal = diagonal_ideal(args.n)
    results = []
    all_ok = True
    for order in _sampled_orders(args.n, args.seed):
        ok, cert = is_groebner_basis(list(ideal.generators), order)
        all_ok = all_ok and ok
        results.append({"order": order.to_json_dict(), "passed": ok,
                        "s_pairs": len(cert.spairs)})
    lines = [f"groebner n={args.n}: 2x2 minors over {len(results)} orders"]
    for row in results:
        kind = row["order"]["kind"]
        lines.append(f"  {kind}{' (permuted)' if row['order'].get('variable_permutation') else ''}:"
                     f" {_verdict(row['passed'])} ({row['s_pairs']} S-pairs)")
    lines.append(f"verdict: {_verdict(all_ok)}")
    config = {"n": args.n, "seed": args.seed}
    report = {"n": args.n, "orders": results, "passed": all_ok}
    return _verdict(all_ok), config, report, lines


def _run_hilbert(args: argparse.Namespace) -> Outcome:
    ideal = parse_ideal_file(args.ideal_file)
    methods = ([METHOD_INITIAL, METHOD_RANK] if args.method == "both"
               else [normalize_method(args.method)])
    # the rank route first: an input over its budget is refused before any work
    tables = {m: tabulate_diagonal(ideal, range(args.t_max + 1), m) for m in reversed(methods)}
    disagreements = []
    if len(tables) == 2:
        a, b = (tables[m].values for m in methods)
        disagreements = [{"t": t, methods[0]: a[t], methods[1]: b[t]}
                         for t in sorted(a) if a[t] != b[t]]
    table = tables[methods[0]]
    try:
        dim = ideal_dimension(ideal, projective=True)
    except DimensionUndefinedError:
        dim = None
    if dim is None and all(v == 0 for v in table.values.values()):
        poly: HilbertPolynomialQ | None = HilbertPolynomialQ((), stabilization_threshold=0)
    else:
        try:
            poly = interpolate_hilbert_polynomial(table, dim_bound=max(dim or 0, 0))
        except NoStabilizationError:
            poly = None
    report = {
        "file": args.ideal_file,
        "method": args.method,
        "table": table.to_json_rows(),
        "projective_dimension": dim,
        "polynomial": poly.to_json_dict() if poly else None,
        "methods_disagree": disagreements,
    }
    lines = [f"hilbert {args.ideal_file} (method={args.method})"]
    for t in sorted(table.values):
        lines.append(f"  t={t}: {table.values[t]}")
    lines.append(f"polynomial: {poly if poly is not None else 'did not stabilize'}")
    if disagreements:
        lines.append(f"METHODS DISAGREE on {len(disagreements)} rows")
    config = {"file": args.ideal_file, "t_max": args.t_max, "method": args.method}
    verdict = "FAIL" if disagreements else "INCONCLUSIVE" if poly is None else "PASS"
    return verdict, config, report, lines


def _run_xi_trials(args: argparse.Namespace) -> Outcome:
    t_max = default_t_max(args.d0, args.d1) if args.t_max is None else args.t_max
    if t_max > MAX_T:  # an explicit --t-max is bounded by argparse
        raise ValueError(f"xi-trials: the default t_max d0 + d1 + 5 = {t_max} is over "
                         f"MAX_T = {MAX_T}")
    report = run_xi_trials(args.d0, args.d1, args.trials, args.seed, t_max, args.method)
    lines = [
        f"xi-trials d0={args.d0} d1={args.d1} trials={args.trials} seed={args.seed}",
        f"  xi_formula expectation: {report.xi_expected}"
        f" -> {report.xi_matches}/{args.trials} match",
        f"  koszul count expectation: {report.koszul_expected}"
        f" -> {report.koszul_matches}/{args.trials} match",
        f"  retries: {report.total_retries}",
        f"verdict: {_verdict(report.passed)}",
    ]
    config = {"d0": args.d0, "d1": args.d1, "trials": args.trials, "seed": args.seed,
              "method": args.method}
    return _verdict(report.passed), config, report.to_json_dict(), lines


def _run_torus_check(args: argparse.Namespace) -> Outcome:
    symbolic = torus_action_check(args.n)
    rng = Random(args.seed)
    point = random_chart_point(args.n, rng)
    c = random_torus_element(args.n, rng)
    numeric = torus_action_check(args.n, point, c)
    orbit_ok = closed_orbit_limit_check(args.n, point)
    passed = symbolic.passed and numeric.passed and orbit_ok
    report = {"symbolic": symbolic.to_json_dict(), "numeric": numeric.to_json_dict(),
              "closed_orbit_limit": orbit_ok, "passed": passed}
    lines = [f"torus-check n={args.n}",
             f"  symbolic scalars: {', '.join(symbolic.generator_scalars)}"
             f" [{_verdict(symbolic.passed)}]",
             f"  numeric at seeded point: {', '.join(numeric.generator_scalars)}"
             f" [{_verdict(numeric.passed)}]",
             f"  closed-orbit limit -> (I, 0): {_verdict(orbit_ok)}",
             f"verdict: {_verdict(passed)}"]
    config = {"n": args.n, "seed": args.seed}
    return _verdict(passed), config, report, lines


def _run_conic_equations(args: argparse.Namespace) -> Outcome:
    identity_ok = conic_matrix_identity_symbolic()
    rng = Random(args.seed)
    per_conic = -(-args.samples // args.conics)
    reports = []
    for _ in range(args.conics):
        z, _tries = random_conic_with_rational_point(rng)
        sample_seed = rng.getrandbits(32)
        rep = conic_global_equations_check(z, samples=per_conic, seed=sample_seed)
        reports.append({"matrix": z.to_json_dict(), **rep.to_json_dict()})
    total_points = sum(r["points_checked"] for r in reports)
    passed = identity_ok and all(r["passed"] for r in reports)
    report = {"symbolic_identity": identity_ok, "conics": reports,
              "total_points_checked": total_points, "passed": passed}
    lines = [f"conic-equations seed={args.seed}",
             f"  symbolic 3z*adj(z) = trace*I: {_verdict(identity_ok)}",
             f"  {len(reports)} conics, {total_points} rational points checked",
             f"verdict: {_verdict(passed)}"]
    config = {"seed": args.seed, "samples": args.samples, "conics": args.conics}
    return _verdict(passed), config, report, lines


def _run_primary_check(args: argparse.Namespace) -> Outcome:
    intersection_ok = primary_intersection_check(args.n)
    special = special_fiber_ideal(args.n)  # the monomials x_i y_j (i < j), then x.y
    monomials = [leading_monomial(g) for g in special.generators if len(g.terms) == 1]
    nzd_ok = nonzerodivisor_check(incidence_form(special.universe), monomials)
    passed = intersection_ok and nzd_ok
    report = {"n": args.n, "intersection_identity": intersection_ok,
              "component_primes": [list(p) for p in component_primes(args.n)],
              "trace_form_nonzerodivisor": nzd_ok, "passed": passed}
    lines = [f"primary-check n={args.n}",
             f"  <x_i y_j : i<j> = intersection of {args.n + 1} primes:"
             f" {_verdict(intersection_ok)}",
             f"  x.y nonzerodivisor mod the monomial ideal: {_verdict(nzd_ok)}",
             f"verdict: {_verdict(passed)}"]
    config = {"n": args.n}
    return _verdict(passed), config, report, lines


def build_parser() -> _Parser:
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
                       help="minors of [x;y] as a Groebner basis over sampled orders")
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
                       help="random curve pairs on F2 vs the xi closed form")
    p.set_defaults(run=_run_xi_trials)
    p.add_argument("d0", type=positive)
    p.add_argument("d1", type=positive)
    p.add_argument("--trials", type=positive, default=20)
    p.add_argument("--t-max", type=t_max, default=None)
    p.add_argument("--method", type=_method, default=METHOD_INITIAL)

    p = sub.add_parser("torus-check", parents=[common],
                       help="torus equivariance of the family generators")
    p.set_defaults(run=_run_torus_check)
    p.add_argument("--n", type=dimension, default=2)

    p = sub.add_parser("conic-equations", parents=[common],
                       help="global equations of the complete-conics graph")
    p.set_defaults(run=_run_conic_equations)
    p.add_argument("--samples", type=positive, default=20)
    p.add_argument("--conics", type=positive, default=5)

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
