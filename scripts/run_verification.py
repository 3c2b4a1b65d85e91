#!/usr/bin/env python3
"""Run every CLI verification suite and summarize the exit codes.

Each suite has an expected exit code.  Most suites must pass (0), among
them verify-groebner at n=3 and at cli.MAX_N, the largest n it accepts,
verify-flatness at n=1, 2, 4 and at cli.MAX_N (t <= 9), and at n=4 on a
--points file of two rational chart points, one of them with d1 = 0,
the hilbert runs on an n=2 chart fiber and on one with d1 = 0, the
latter up to t = 8 by both methods as in the rank-referee benchmark, the
one on an n=3 chart fiber up to t = 6, the largest rank-oracle matrix
under hilbert.MAX_MACAULAY_ENTRIES that a suite builds, and
the one on <x1, x2, x3>, empty in P2 x P2*, whose polynomial 0 stands
beside a projective_dimension of 1 (that value only bounds the degree; see
groebner.ideal_dimension); the xi-trials runs at degrees (2,2), (3,3),
(25,1) and (1,25) are expected to exit 1 because the Fermat witness fits
the Koszul count, with leading coefficient 2*d0*d1, not the closed
formula, which matches only at (1,1) (see README); (25,1) and (1,25) are the longest Koszul tables under
cli.MAX_DEGREE_PRODUCT, t = 0..31.  The two negative controls are
expected to exit 1, the n=4 chart fiber at t=5 to exit 3 because its
rank-oracle matrix is over hilbert.MAX_MACAULAY_ENTRIES, the same fiber
at t=3 by both methods to exit 2 because its two tables agree (a
disagreement exits 1) but are too short to fit a degree-3 polynomial,
xi-trials at
(1,3) with --t-max 3 to exit 2 because that table is too short to fix the
curve's polynomial, xi-trials at (6,6) to exit 3 because d0*d1 is over
cli.MAX_DEGREE_PRODUCT, verify-flatness on a --points file nested 100000
deep to exit 3 because that is a usage error, not a traceback, the
hilbert run on an ideal file line `x1*y2 x2*y1`, a minor missing its
operator, to exit 3 because juxtaposed terms are not read as a sum, and the
hilbert run on x1^100000000*y1 to exit 2 (INCONCLUSIVE) because no table
up to t_max sees that generator; its dimension is read without a dense
list of 10^8 coefficients.  xi-trials
reads no seed, so its suites pass none; --seed is handed to the
verify-flatness suites only.
A suite expected to exit 3 must also write exactly one non-empty line to
stderr, the one-line contract for input errors; the juxtaposed-terms
suite's line must start with its file's path and ":2:", the line of the
bad generator.
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

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)


def ideal_files(tmp: Path) -> dict[str, Path]:
    from flatcert import Ideal, diagonal_ideal, special_fiber_ideal, xy_universe
    from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J
    from make_ideal_files import ideal_file_text

    uni = xy_universe(2)

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
    # chart_n4 and its copy with d1 = 0, as a --points file of rational points
    points = [chart_n4, ChartPoint(chart_n4.rows, (0, *chart_n4.d[1:]))]
    out["points_n4"] = tmp / "points_n4.json"
    out["points_n4"].write_text(json.dumps([p.to_json_dict() for p in points]), encoding="utf-8")
    return out


def main() -> int:
    from flatcert.cli import MAX_N

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="the seed of the verify-flatness suites' chart points")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        files = ideal_files(tmp)
        deep_points = tmp / "deep_points.json"
        deep_points.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
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
            ("hilbert: juxtaposed factors without an operator",
             ["hilbert", str(files["juxtaposed_n2"])], 3),
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
            ("torus equivariance n=2", ["torus-check", "--n", "2"], 0),
            ("torus equivariance n=4", ["torus-check", "--n", "4"], 0),
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
                         f"flatcert: {files['juxtaposed_n2']}:2:"}
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
