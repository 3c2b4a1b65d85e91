"""flatcert command line: verification suites with deterministic reports.

Exit codes partition outcomes: 0 the checked property holds, 1 it fails
mathematically, 2 the run was inconclusive (no stabilization), 3 usage or
input error.  Reports are byte-identical given the same arguments and seed:
no timestamps, sorted JSON keys, order-preserving parallel merges.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
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
from .flagcut import run_xi_trials
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
from .util import resolve_workers

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
USAGE_ERRORS = (ValueError, OSError, KeyError)  # main reports these with EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    inconclusive runs, so remap to 3."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    n: int = 2
    t_max: int = 8
    seed: int = 0
    method: str = METHOD_INITIAL
    corrupt: str | None = None
    points: str | None = None
    output: str | None = None
    format: str = "json"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.t_max < 3:
            raise ValueError("--t-max must be >= 3")
        if self.format not in ("json", "text"):
            raise ValueError("--format must be json or text")
        self.method = normalize_method(self.method)


def _envelope(command: str, config: dict, report: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command,
            "config": config, "report": report}


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


# --- subcommand handlers: each returns (exit_code, report_dict, text_str) ---

def _run_verify_flatness(cfg: RunConfig) -> tuple[int, dict, str]:
    rng = Random(cfg.seed)
    if cfg.points:
        extra = _load_points_file(cfg.points)
    else:
        extra = [random_chart_point(cfg.n, rng, degenerate=False),
                 random_chart_point(cfg.n, rng, degenerate=True)]
    workers = resolve_workers(cfg.workers)
    report = flatness_certificate(cfg.n, extra, cfg.t_max, cfg.method,
                                  cfg.corrupt, workers)
    verdict = report.verdict
    code = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(verdict, EXIT_INCONCLUSIVE)
    lines = [f"flatness n={cfg.n} t_max={cfg.t_max} expected={report.expected}"]
    for fib in report.fibers:
        got = str(fib.polynomial) if fib.polynomial is not None else f"({fib.failure})"
        mark = "ok" if fib.matches else "DIVERGES"
        lines.append(f"  fiber {fib.index} {fib.point.label()}: {got} {mark}")
    lines.append(f"verdict: {verdict}")
    config = {"n": cfg.n, "t_max": cfg.t_max, "seed": cfg.seed,
              "method": cfg.method, "corrupt": cfg.corrupt, "points": cfg.points}
    return code, _envelope("verify-flatness", config, report.to_json_dict()), "\n".join(lines) + "\n"


def _sampled_orders(n: int, seed: int) -> list[MonomialOrderSpec]:
    uni = xy_universe(n)
    rng = Random(seed)
    orders = [DEFAULT_ORDER, MonomialOrderSpec("grevlex")]
    for _ in range(3):
        perm = list(uni.x_names + uni.y_names)
        rng.shuffle(perm)
        orders.append(MonomialOrderSpec("lex", tuple(perm)))
    return orders


def _run_verify_groebner(cfg: RunConfig) -> tuple[int, dict, str]:
    ideal = diagonal_ideal(cfg.n)
    results = []
    all_ok = True
    for order in _sampled_orders(cfg.n, cfg.seed):
        ok, cert = is_groebner_basis(list(ideal.generators), order)
        all_ok = all_ok and ok
        results.append({"order": order.to_json_dict(), "passed": ok,
                        "s_pairs": len(cert.spairs)})
    lines = [f"groebner n={cfg.n}: 2x2 minors over {len(results)} orders"]
    for row in results:
        kind = row["order"]["kind"]
        lines.append(f"  {kind}{' (permuted)' if row['order'].get('variable_permutation') else ''}:"
                     f" {'PASS' if row['passed'] else 'FAIL'} ({row['s_pairs']} S-pairs)")
    lines.append(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    config = {"n": cfg.n, "seed": cfg.seed}
    report = {"n": cfg.n, "orders": results, "passed": all_ok}
    return (EXIT_PASS if all_ok else EXIT_FAIL,
            _envelope("verify-groebner", config, report), "\n".join(lines) + "\n")


def _run_hilbert(cfg: RunConfig, ideal_file: str, method_arg: str) -> tuple[int, dict, str]:
    ideal = parse_ideal_file(ideal_file)
    methods = ([METHOD_INITIAL, METHOD_RANK] if method_arg == "both"
               else [normalize_method(method_arg)])
    tables = {m: tabulate_diagonal(ideal, range(cfg.t_max + 1), m) for m in methods}
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
        "file": ideal_file,
        "method": method_arg,
        "table": table.to_json_rows(),
        "projective_dimension": dim,
        "polynomial": poly.to_json_dict() if poly else None,
        "methods_disagree": disagreements,
    }
    lines = [f"hilbert {ideal_file} (method={method_arg})"]
    for t in sorted(table.values):
        lines.append(f"  t={t}: {table.values[t]}")
    lines.append(f"polynomial: {poly if poly is not None else 'did not stabilize'}")
    if disagreements:
        lines.append(f"METHODS DISAGREE on {len(disagreements)} rows")
    config = {"file": ideal_file, "t_max": cfg.t_max, "method": method_arg}
    if disagreements:
        code = EXIT_FAIL
    elif poly is None:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS
    return code, _envelope("hilbert", config, report), "\n".join(lines) + "\n"


def _run_xi_trials(cfg: RunConfig, d0: int, d1: int, trials: int,
                   t_max: int | None) -> tuple[int, dict, str]:
    workers = resolve_workers(cfg.workers)
    report = run_xi_trials(d0, d1, trials, cfg.seed, t_max, cfg.method, workers)
    lines = [
        f"xi-trials d0={d0} d1={d1} trials={trials} seed={cfg.seed}",
        f"  xi_formula expectation: {report.xi_expected}"
        f" -> {report.xi_matches}/{trials} match",
        f"  koszul count expectation: {report.koszul_expected}"
        f" -> {report.koszul_matches}/{trials} match",
        f"  retries: {report.total_retries}",
        f"verdict: {'PASS' if report.passed else 'FAIL'}",
    ]
    config = {"d0": d0, "d1": d1, "trials": trials, "seed": cfg.seed,
              "method": cfg.method}
    return (EXIT_PASS if report.passed else EXIT_FAIL,
            _envelope("xi-trials", config, report.to_json_dict()), "\n".join(lines) + "\n")


def _run_torus_check(cfg: RunConfig) -> tuple[int, dict, str]:
    symbolic = torus_action_check(cfg.n)
    rng = Random(cfg.seed)
    point = random_chart_point(cfg.n, rng)
    c = random_torus_element(cfg.n, rng)
    numeric = torus_action_check(cfg.n, point, c)
    orbit_ok = closed_orbit_limit_check(cfg.n, point)
    passed = symbolic.passed and numeric.passed and orbit_ok
    report = {"symbolic": symbolic.to_json_dict(), "numeric": numeric.to_json_dict(),
              "closed_orbit_limit": orbit_ok, "passed": passed}
    lines = [f"torus-check n={cfg.n}",
             f"  symbolic scalars: {', '.join(symbolic.generator_scalars)}"
             f" [{'PASS' if symbolic.passed else 'FAIL'}]",
             f"  numeric at seeded point: {', '.join(numeric.generator_scalars)}"
             f" [{'PASS' if numeric.passed else 'FAIL'}]",
             f"  closed-orbit limit -> (I, 0): {'PASS' if orbit_ok else 'FAIL'}",
             f"verdict: {'PASS' if passed else 'FAIL'}"]
    config = {"n": cfg.n, "seed": cfg.seed}
    return (EXIT_PASS if passed else EXIT_FAIL,
            _envelope("torus-check", config, report), "\n".join(lines) + "\n")


def _run_conic_equations(cfg: RunConfig, samples: int, conics: int) -> tuple[int, dict, str]:
    identity_ok = conic_matrix_identity_symbolic()
    rng = Random(cfg.seed)
    per_conic = -(-samples // conics)
    reports = []
    for _ in range(conics):
        z, _tries = random_conic_with_rational_point(rng)
        sample_seed = rng.getrandbits(32)
        rep = conic_global_equations_check(z, samples=per_conic, seed=sample_seed)
        reports.append({"matrix": z.to_json_dict(), **rep.to_json_dict()})
    total_points = sum(r["points_checked"] for r in reports)
    passed = identity_ok and all(r["passed"] for r in reports)
    report = {"symbolic_identity": identity_ok, "conics": reports,
              "total_points_checked": total_points, "passed": passed}
    lines = [f"conic-equations seed={cfg.seed}",
             f"  symbolic 3z*adj(z) = trace*I: {'PASS' if identity_ok else 'FAIL'}",
             f"  {len(reports)} conics, {total_points} rational points checked",
             f"verdict: {'PASS' if passed else 'FAIL'}"]
    config = {"seed": cfg.seed, "samples": samples, "conics": conics}
    return (EXIT_PASS if passed else EXIT_FAIL,
            _envelope("conic-equations", config, report), "\n".join(lines) + "\n")


def _run_primary_check(cfg: RunConfig) -> tuple[int, dict, str]:
    intersection_ok = primary_intersection_check(cfg.n)
    special = special_fiber_ideal(cfg.n)  # the monomials x_i y_j (i < j), then x.y
    monomials = [leading_monomial(g) for g in special.generators if len(g.terms) == 1]
    nzd_ok = nonzerodivisor_check(incidence_form(special.universe), monomials)
    passed = intersection_ok and nzd_ok
    report = {"n": cfg.n, "intersection_identity": intersection_ok,
              "component_primes": [list(p) for p in component_primes(cfg.n)],
              "trace_form_nonzerodivisor": nzd_ok, "passed": passed}
    lines = [f"primary-check n={cfg.n}",
             f"  <x_i y_j : i<j> = intersection of {cfg.n + 1} primes:"
             f" {'PASS' if intersection_ok else 'FAIL'}",
             f"  x.y nonzerodivisor mod the monomial ideal: {'PASS' if nzd_ok else 'FAIL'}",
             f"verdict: {'PASS' if passed else 'FAIL'}"]
    config = {"n": cfg.n}
    return (EXIT_PASS if passed else EXIT_FAIL,
            _envelope("primary-check", config, report), "\n".join(lines) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="flatcert", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", default=None, help="write the report to a file")
    common.add_argument("--workers", type=int, default=None,
                        help="parallelism (flag beats FLATCERT_WORKERS beats cpu count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-flatness", parents=[common],
                       help="Hilbert polynomials of family fibers vs chi_graph(n)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--t-max", type=int, default=8)
    p.add_argument("--method", default=METHOD_INITIAL)
    p.add_argument("--corrupt", default=None, help="e.g. drop-generator:1")
    p.add_argument("--points", default=None, help="JSON file of extra chart points")

    p = sub.add_parser("verify-groebner", parents=[common],
                       help="minors of [x;y] as a Groebner basis over sampled orders")
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("hilbert", parents=[common],
                       help="diagonal Hilbert function and polynomial of an ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--t-max", type=int, default=8)
    p.add_argument("--method", default="both",
                   help="initial_ideal_count | rank_oracle | both")

    p = sub.add_parser("xi-trials", parents=[common],
                       help="random curve pairs on F2 vs the xi closed form")
    p.add_argument("d0", type=int)
    p.add_argument("d1", type=int)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--method", default=METHOD_INITIAL)

    p = sub.add_parser("torus-check", parents=[common],
                       help="torus equivariance of the family generators")
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("conic-equations", parents=[common],
                       help="global equations of the complete-conics graph")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--conics", type=int, default=5)

    p = sub.add_parser("primary-check", parents=[common],
                       help="primary decomposition and nonzerodivisor checks")
    p.add_argument("--n", type=int, default=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises on usage errors and on --help; surface the code
        return int(exc.code or 0)
    method_arg = getattr(args, "method", METHOD_INITIAL)
    try:
        cfg = RunConfig(
            n=getattr(args, "n", 2),
            t_max=getattr(args, "t_max", None) or 8,
            seed=args.seed,
            method=METHOD_INITIAL if method_arg == "both" else method_arg,
            corrupt=getattr(args, "corrupt", None),
            points=getattr(args, "points", None),
            output=args.output,
            format=args.format,
            workers=resolve_workers(args.workers),
        )
        if args.command == "verify-flatness":
            code, report, text = _run_verify_flatness(cfg)
        elif args.command == "verify-groebner":
            code, report, text = _run_verify_groebner(cfg)
        elif args.command == "hilbert":
            code, report, text = _run_hilbert(cfg, args.ideal_file, args.method)
        elif args.command == "xi-trials":
            code, report, text = _run_xi_trials(cfg, args.d0, args.d1,
                                                args.trials, args.t_max)
        elif args.command == "torus-check":
            code, report, text = _run_torus_check(cfg)
        elif args.command == "conic-equations":
            code, report, text = _run_conic_equations(cfg, args.samples, args.conics)
        else:
            code, report, text = _run_primary_check(cfg)
    except USAGE_ERRORS as exc:
        print(f"flatcert: {exc}", file=sys.stderr)
        return EXIT_USAGE

    payload = (json.dumps(report, indent=2, sort_keys=True) + "\n"
               if cfg.format == "json" else text)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
