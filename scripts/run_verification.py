#!/usr/bin/env python3
"""Run every CLI verification suite and summarize the exit codes.

Each suite has an expected exit code.  Most suites must pass (0); the
xi-trials run at degrees (2,2) is expected to exit 1 because the computed
fibers fit the Koszul count 8t, not the closed formula 4t (see README),
and the n=4 chart fiber at t=5 is expected to exit 3 because its
rank-oracle matrix is over hilbert.MAX_MACAULAY_ENTRIES.
Each suite's line gives its exit code and wall time (the subprocess,
interpreter start-up included); the last line gives the total.
The script exits 0 exactly when every suite matches its expectation.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def ideal_files(tmp: Path) -> dict[str, Path]:
    from flatcert import diagonal_ideal, special_fiber_ideal
    from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J
    from make_ideal_files import ideal_file_text

    # a chart point with coefficients of heights 3..8, so that the rank
    # oracle's elimination meets pivots other than +-1
    chart = ChartPoint.from_strict_lower([[-6], [8, 4]], [7, -3])
    # an n=4 chart point whose rank-oracle matrix at t=5 is over budget
    chart_n4 = ChartPoint.from_strict_lower(
        [["3"], ["-4", "5/3"], ["7", "-3", "4"], ["5/2", "-6", "3", "-8"]], ["3", "-7/4", "5", "9"])
    out = {}
    for name, ideal in [("diagonal_n2", diagonal_ideal(2)),
                        ("special_fiber_n2", special_fiber_ideal(2)),
                        ("chart_fiber_n2", evaluate_family_at(family_ideal_J(2), chart)),
                        ("chart_fiber_n4", evaluate_family_at(family_ideal_J(4), chart_n4))]:
        path = tmp / f"{name}.ideal"
        path.write_text(ideal_file_text(name, ideal.universe.n, ideal.generators),
                        encoding="utf-8")
        out[name] = path
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--skip-slow", action="store_true",
                        help="drop the (2,2) trials and shrink the rest")
    args = parser.parse_args()

    trials = 5 if args.skip_slow else args.trials
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        files = ideal_files(tmp)
        suites: list[tuple[str, list[str], int]] = [
            ("groebner certificate",
             ["verify-groebner", "--n", "3", "--seed", str(args.seed)], 0),
            ("hilbert: minors n=2",
             ["hilbert", str(files["diagonal_n2"]), "--method", "both"], 0),
            ("hilbert: special fiber n=2",
             ["hilbert", str(files["special_fiber_n2"]), "--method", "both"], 0),
            ("hilbert: chart fiber n=2",
             ["hilbert", str(files["chart_fiber_n2"]), "--method", "both"], 0),
            ("hilbert: chart fiber n=4, rank oracle over its matrix budget",
             ["hilbert", str(files["chart_fiber_n4"]), "--method", "both", "--t-max", "5"], 3),
            ("flatness n=1",
             ["verify-flatness", "--n", "1", "--seed", str(args.seed)], 0),
            ("flatness n=2",
             ["verify-flatness", "--n", "2", "--seed", str(args.seed)], 0),
            ("flatness n=2, rank oracle",
             ["verify-flatness", "--n", "2", "--method", "rank", "--seed", str(args.seed)], 0),
            ("negative control",
             ["verify-flatness", "--n", "2", "--t-max", "7",
              "--corrupt", "drop-generator:1"], 1),
            ("torus equivariance",
             ["torus-check", "--n", "2", "--seed", str(args.seed)], 0),
            ("conic equations",
             ["conic-equations", "--samples", "4", "--conics", "5",
              "--seed", str(args.seed)], 0),
            ("primary structure",
             ["primary-check", "--n", "4"], 0),
            ("xi trials (1,1)",
             ["xi-trials", "1", "1", "--trials", str(trials),
              "--seed", str(args.seed)], 0),
        ]
        if not args.skip_slow:
            suites.append(
                ("xi trials (2,2): known formula gap",
                 ["xi-trials", "2", "2", "--trials", str(trials),
                  "--seed", str(args.seed)], 1))

        failures = 0
        total = 0.0
        for label, argv, expected in suites:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "flatcert", *argv, "--output", "/dev/null"],
                capture_output=True, text=True)
            wall = time.perf_counter() - start
            total += wall
            ok = proc.returncode == expected
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
