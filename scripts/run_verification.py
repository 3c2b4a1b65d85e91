#!/usr/bin/env python3
"""Run every CLI verification suite and summarize the exit codes.

Each suite has an expected exit code.

Exit 0, the checked property holds:
- verify-groebner at n=3 and at cli.MAX_N, the largest n it accepts;
- verify-flatness at n=1, 2, 4 and at cli.MAX_N (t <= 9), at n=2 by the
  rank oracle, and at n=4 on a --points file of two rational chart
  points, one of them with d1 = 0;
- hilbert by both methods on the n=2 minors, the n=2 special fiber, the
  unit ideal (polynomial 0), an n=2 chart fiber, one with d1 = 0 up to
  t = 8 as in the rank-referee benchmark, and an n=3 chart fiber up to
  t = 6, the largest rank-oracle matrix under
  hilbert.MAX_MACAULAY_ENTRIES that a suite builds;
- hilbert on <x1, x2, x3>, empty in P2 x P2*, whose polynomial 0 stands
  beside a projective_dimension of 1 (that value only bounds the degree;
  see groebner.ideal_dimension);
- hilbert on x1^64*y1 at n=1 by both methods up to t = 70, past exponent
  63, where the Groebner kernel widens its exponent fields and the rank
  route packs its columns in radix 71;
- torus-check at n=2 and 4, conic-equations, primary-check at n=4, and
  xi-trials at (1,1), where the closed formula holds.

Exit 1, the property fails:
- xi-trials at (2,2), (3,3), (25,1) and (1,25): the Fermat witness fits
  the Koszul count, with leading coefficient 2*d0*d1, not the closed
  formula (see README); (25,1) and (1,25) are the longest Koszul tables
  under cli.MAX_DEGREE_PRODUCT, t = 0..31;
- the two negative controls, drop-generator:1 at n=2, one of them on a
  table too short to fit the special fiber.

Exit 2, inconclusive:
- hilbert on the n=4 chart fiber at t=3 by both methods: the tables agree
  (a disagreement exits 1) but are too short to fit a degree-3 polynomial;
- xi-trials at (1,3) with --t-max 3, too short to fix the curve's
  polynomial;
- hilbert on x1^100000000*y1: no table up to t_max sees that generator,
  and its dimension is read without a dense list of 10^8 coefficients.

Exit 3, usage or input error:
- hilbert on the n=4 chart fiber at t=5: its rank-oracle matrix is over
  hilbert.MAX_MACAULAY_ENTRIES;
- hilbert by the rank route on tests/data/buchberger_budget_n2.ideal,
  three (2,2) generators whose completion is over
  groebner.MAX_NEW_GENERATORS (the rank route completes a basis for its
  fit's degree bound);
- xi-trials at (6,6): d0*d1 is over cli.MAX_DEGREE_PRODUCT;
- verify-flatness on a --points file nested 100000 deep, at n=1 on a
  truncated JSON points file, and at n=2 on the n=4 points file;
- hilbert on an ideal file line `x1*y2 x2*y1`, a minor missing its
  operator (juxtaposed terms are not read as a sum), and on a file with
  the header `n 0`;
- torus-check --seed 1: only verify-flatness and xi-trials take --seed.

xi-trials reads no seed, so its suites pass none; --seed is handed to the
verify-flatness suites only.
A suite expected to exit 3 must also write exactly one non-empty line to
stderr, the one-line contract for input errors; the juxtaposed-terms
suite's line must start with its file's path and ":2:", the line of the
bad generator, the `n 0` suite's with its file's path, the truncated
points suite's with its file's path, the other-n points suite's with
its file's path and "point 0:", the Buchberger budget
suite's with the budget's name and value, and the torus-check suite's
with argparse's "unrecognized arguments: --seed 1".  The script exits 1
before any suite runs if two suites share a label, or if such a prefix
is keyed by a label that names no suite expected to exit 3.
flatcert is imported from this checkout's src/, here and in every suite.
Each suite's line gives its exit code and wall time (the subprocess,
interpreter start-up included); the last line gives the total.
The script exits 0 exactly when every suite matches its expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)


def ideal_files(tmp: Path) -> dict[str, Path]:
    from flatcert import Ideal, diagonal_ideal, special_fiber_ideal, xy_universe
    from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J
    from make_ideal_files import ideal_file_text

    uni = xy_universe(2)
    uni1 = xy_universe(1)

    # a chart point with coefficients of heights 3..8, so that the rank
    # oracle's elimination meets pivots other than +-1, and a degenerate one
    # with d1 = 0, the other half of the rank-referee benchmark's mix
    chart = ChartPoint.from_strict_lower([[-6], [8, 4]], [7, -3])
    chart_degenerate = ChartPoint.from_strict_lower([[-8], [6, 4]], [0, -7])
    # an n=3 chart point with heights up to 9, ranked up to t=6
    chart_n3 = ChartPoint.from_strict_lower([[3], [-5, 2], [4, -7, 6]], [2, -9, 5])
    # an n=4 chart point whose rank-oracle matrix at t=5 is over budget
    chart_n4 = ChartPoint.from_strict_lower(
        [[3], [-4, Fraction(5, 3)], [7, -3, 4], [Fraction(5, 2), -6, 3, -8]],
        [3, Fraction(-7, 4), 5, 9])
    out = {}
    for name, ideal in [("diagonal_n2", diagonal_ideal(2)),
                        ("special_fiber_n2", special_fiber_ideal(2)),
                        ("unit_n2", Ideal(uni, [uni.one()])),
                        ("irrelevant_x_n2",
                         Ideal(uni, [uni.variable(name) for name in uni.x_names])),
                        ("huge_exponent_n2", Ideal(uni, [uni.parse("x1^100000000*y1")])),
                        ("exponent_64_n1", Ideal(uni1, [uni1.parse("x1^64*y1")])),
                        ("chart_fiber_n2", evaluate_family_at(family_ideal_J(2), chart)),
                        ("degenerate_fiber_n2",
                         evaluate_family_at(family_ideal_J(2), chart_degenerate)),
                        ("chart_fiber_n3", evaluate_family_at(family_ideal_J(3), chart_n3)),
                        ("chart_fiber_n4", evaluate_family_at(family_ideal_J(4), chart_n4))]:
        path = tmp / f"{name}.ideal"
        path.write_text(ideal_file_text(name, ideal.universe.n, ideal.generators),
                        encoding="utf-8")
        out[name] = path
    # a minor with its '-' left out: juxtaposed terms are a parse error
    out["juxtaposed_n2"] = tmp / "juxtaposed_n2.ideal"
    out["juxtaposed_n2"].write_text("n 2\nx1*y2 x2*y1\n", encoding="utf-8")
    # a header naming no projective space
    out["header_n0"] = tmp / "header_n0.ideal"
    out["header_n0"].write_text("n 0\nx1*y2\n", encoding="utf-8")
    # chart_n4 and its copy with d1 = 0, as a --points file of rational points
    points = [chart_n4, ChartPoint(chart_n4.rows, (0, *chart_n4.d[1:]))]
    out["points_n4"] = tmp / "points_n4.json"
    out["points_n4"].write_text(json.dumps([p.to_json_dict() for p in points]), encoding="utf-8")
    return out


def main() -> int:
    from flatcert.cli import MAX_N
    from flatcert.groebner import MAX_NEW_GENERATORS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="the seed of the verify-flatness suites' chart points")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        files = ideal_files(tmp)
        deep_points = tmp / "deep_points.json"
        deep_points.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        truncated_points = tmp / "truncated_points.json"
        truncated_points.write_text('[{"u": [], "d": [', encoding="utf-8")
        budget_file = ROOT / "tests" / "data" / "buchberger_budget_n2.ideal"
        suites: list[tuple[str, list[str], int]] = [
            ("groebner certificate",
             ["verify-groebner", "--n", "3"], 0),
            ("groebner certificate at MAX_N",
             ["verify-groebner", "--n", str(MAX_N)], 0),
            ("hilbert: minors n=2",
             ["hilbert", str(files["diagonal_n2"]), "--method", "both"], 0),
            ("hilbert: special fiber n=2",
             ["hilbert", str(files["special_fiber_n2"]), "--method", "both"], 0),
            ("hilbert: unit ideal n=2, polynomial 0",
             ["hilbert", str(files["unit_n2"]), "--method", "both"], 0),
            ("hilbert: <x1, x2, x3>, empty in P2 x P2*",
             ["hilbert", str(files["irrelevant_x_n2"]), "--method", "both"], 0),
            ("hilbert: chart fiber n=2",
             ["hilbert", str(files["chart_fiber_n2"]), "--method", "both"], 0),
            ("hilbert: chart fiber n=2 with d1 = 0, t <= 8",
             ["hilbert", str(files["degenerate_fiber_n2"]), "--method", "both",
              "--t-max", "8"], 0),
            ("hilbert: chart fiber n=3, t <= 6",
             ["hilbert", str(files["chart_fiber_n3"]), "--method", "both", "--t-max", "6"], 0),
            ("hilbert: chart fiber n=4, both routes agree up to t = 3",
             ["hilbert", str(files["chart_fiber_n4"]), "--method", "both", "--t-max", "3"], 2),
            ("hilbert: chart fiber n=4, rank oracle over its matrix budget",
             ["hilbert", str(files["chart_fiber_n4"]), "--method", "both", "--t-max", "5"], 3),
            ("hilbert: x1^100000000*y1 n=2, no table sees the generator",
             ["hilbert", str(files["huge_exponent_n2"])], 2),
            ("hilbert: x1^64*y1 n=1, both routes to t = 70",
             ["hilbert", str(files["exponent_64_n1"]), "--method", "both", "--t-max", "70"], 0),
            ("hilbert: juxtaposed factors without an operator",
             ["hilbert", str(files["juxtaposed_n2"])], 3),
            ("hilbert: header n 0", ["hilbert", str(files["header_n0"])], 3),
            ("hilbert: three (2,2) generators over the Buchberger budget",
             ["hilbert", str(budget_file), "--method", "rank", "--t-max", "6"], 3),
            ("flatness n=1",
             ["verify-flatness", "--n", "1", "--seed", str(args.seed)], 0),
            ("flatness n=2",
             ["verify-flatness", "--n", "2", "--seed", str(args.seed)], 0),
            ("flatness n=4, the flatness-gb benchmark item",
             ["verify-flatness", "--n", "4", "--t-max", "6", "--seed", str(args.seed)], 0),
            ("flatness n=4 on a points file: chart_n4 and its copy with d1 = 0",
             ["verify-flatness", "--n", "4", "--t-max", "6", "--points", str(files["points_n4"])],
             0),
            ("flatness n=8 at MAX_N",
             ["verify-flatness", "--n", str(MAX_N), "--t-max", "9", "--seed", str(args.seed)], 0),
            ("flatness n=2, rank oracle",
             ["verify-flatness", "--n", "2", "--method", "rank", "--seed", str(args.seed)], 0),
            ("negative control",
             ["verify-flatness", "--n", "2", "--t-max", "7",
              "--corrupt", "drop-generator:1"], 1),
            # the special fiber's table is too short, but the flat fibers still FAIL
            ("negative control, short table",
             ["verify-flatness", "--n", "2", "--t-max", "3",
              "--corrupt", "drop-generator:1"], 1),
            ("flatness n=2, points file nested 100000 deep",
             ["verify-flatness", "--n", "2", "--points", str(deep_points)], 3),
            ("verify-flatness: a truncated JSON points file",
             ["verify-flatness", "--n", "1", "--points", str(truncated_points)], 3),
            ("verify-flatness: a points file of another n",
             ["verify-flatness", "--n", "2", "--points", str(files["points_n4"])], 3),
            ("torus equivariance n=2", ["torus-check", "--n", "2"], 0),
            ("torus equivariance n=4", ["torus-check", "--n", "4"], 0),
            ("torus-check: --seed is not its flag", ["torus-check", "--n", "2", "--seed", "1"], 3),
            ("conic equations", ["conic-equations"], 0),
            ("primary structure",
             ["primary-check", "--n", "4"], 0),
            ("xi witness (1,1): the closed formula holds", ["xi-trials", "1", "1"], 0),
            ("xi witness (2,2): known formula gap", ["xi-trials", "2", "2"], 1),
            ("xi witness (3,3): known formula gap", ["xi-trials", "3", "3"], 1),
            ("xi witness (25,1): the longest table under the degree budget",
             ["xi-trials", "25", "1"], 1),
            ("xi witness (1,25): the longest table under the degree budget",
             ["xi-trials", "1", "25"], 1),
            ("xi witness (1,3), t <= 3: too short a table",
             ["xi-trials", "1", "3", "--t-max", "3"], 2),
            ("xi witness (6,6): over the degree budget", ["xi-trials", "6", "6"], 3),
        ]

        # the start of the one stderr line of a suite expected to exit 3
        stderr_starts = {"hilbert: juxtaposed factors without an operator":
                         f"flatcert: {files['juxtaposed_n2']}:2:",
                         "hilbert: header n 0": f"flatcert: {files['header_n0']}:",
                         "verify-flatness: a truncated JSON points file":
                         f"flatcert: {truncated_points}: ",
                         "hilbert: three (2,2) generators over the Buchberger budget":
                         "flatcert: buchberger: completing 3 generators would add more than"
                         f" MAX_NEW_GENERATORS = {MAX_NEW_GENERATORS} basis elements",
                         "torus-check: --seed is not its flag":
                         "flatcert: error: unrecognized arguments: --seed 1",
                         "verify-flatness: a points file of another n":
                         f"flatcert: {files['points_n4']}: point 0:"}
        # a renamed suite would silently drop its prefix check
        labels = [label for label, _, _ in suites]
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        stray = sorted(set(stderr_starts) - {label for label, _, code in suites if code == 3})
        if duplicates or stray:
            print(f"suite labels used twice: {duplicates}; stderr_starts keys that name no"
                  f" suite expected to exit 3: {stray}")
            return 1
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        failures = 0
        total = 0.0
        for label, argv, expected in suites:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "flatcert", *argv, "--output", "/dev/null"],
                capture_output=True, text=True, env=env)
            wall = time.perf_counter() - start
            total += wall
            ok = proc.returncode == expected
            if expected == 3:
                err = proc.stderr.splitlines()
                ok = (ok and len(err) == 1 and bool(err[0].strip())
                      and err[0].startswith(stderr_starts.get(label, "")))
            mark = "ok  " if ok else "BAD "
            note = "" if expected == 0 else f" (expected exit {expected})"
            print(f"{mark} exit={proc.returncode} {wall:6.2f} s{note}  {label}", flush=True)
            if not ok:
                failures += 1
                if proc.stderr:
                    print(proc.stderr.strip())
        print(f"{len(suites) - failures}/{len(suites)} suites behaved as expected"
              f" in {total:.2f} s")
        return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
