#!/usr/bin/env python3
"""Write sample ideal files for the `flatcert hilbert` subcommand.

Each file is the plain-text format parse_ideal_file reads: comment lines,
an `n <int>` header, then one generator per line in polynomial text.
flatcert is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from flatcert import diagonal_ideal, special_fiber_ideal, xy_universe
from flatcert.polyring import polynomial_text


def ideal_file_text(title: str, n: int, generators) -> str:
    lines = [f"# {title}", f"n {n}"]
    lines += [polynomial_text(g) for g in generators]
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="ideals")
    parser.add_argument("--n", type=int, default=2)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n = args.n
    files = {
        f"diagonal_n{n}.ideal": ideal_file_text(
            f"2x2 minors of [x; y], n={n}", n, diagonal_ideal(n).generators),
        f"special_fiber_n{n}.ideal": ideal_file_text(
            f"special fiber: monomials x_i y_j (i<j) plus x.y, n={n}", n,
            special_fiber_ideal(n).generators),
        f"unit_n{n}.ideal": ideal_file_text(
            f"the unit ideal, n={n}", n, [xy_universe(n).one()]),
    }
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
