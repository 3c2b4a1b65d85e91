"""Checked-in mutation checks: each entry edits one exact text of the source,
and the tests it names must then fail, unless the entry marks the mutant
equivalent (no test can tell it from the original) and says why.

    python scripts/mutants.py

For each entry, src/, tests/ and pyproject.toml are copied to a temporary
directory, the old text (which must occur there exactly once) is replaced
by the new text, and pytest runs only the named test ids in that copy.
First the named tests run once on an unmutated copy, which must pass.

Exits 0 when every mutant behaves as recorded.  Exits 1 when a
non-equivalent mutant survives, an equivalent one is killed, an old text
is missing or occurs more than once, or pytest cannot run the named tests.
Not part of tier-1: it runs pytest once per entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids
    equivalent: str | None = None  # why no test can kill it; None: it must be killed


MUTANTS = [
    # the pivot rule: a row must be stored under its highest column, its
    # leading monomial, or the echelon generators get the wrong leads
    Mutant("src/flatcert/util.py", "col = max(r)", "col = min(r)",
           ("tests/test_util.py::test_dependent_rows_are_the_rows_that_do_not_raise_the_prefix_rank",
            "tests/test_hilbert.py::test_echelon_generators_match_the_fraction_loop")),
    # a radix of max(i, j) lets a digit carry and merges distinct columns
    Mutant("src/flatcert/hilbert.py", "base = max(i, j) + 1", "base = max(i, j)",
           ("tests/test_hilbert.py::test_packed_columns_reach_the_radix_edge",)),
    # no signature pruning: the values stay, the rows that vanish do not
    Mutant("src/flatcert/hilbert.py", "for s in leads + state.signatures[r]:", "for s in leads:",
           ("tests/test_hilbert.py::test_rank_oracle_on_a_chart_fiber",)),
    # skipped keys that are not multiples of s: the wrong rows are built
    Mutant("src/flatcert/hilbert.py", "ps + w", "w",
           ("tests/test_hilbert.py::test_packed_columns_give_the_tuple_keyed_rows",)),
    # echelon generators in ascending lead order: the values stay, the
    # generator order (and so the stored signatures) does not
    Mutant("src/flatcert/hilbert.py",
           "sorted(_eliminate(groups[deg])[0].items(), reverse=True)",
           "sorted(_eliminate(groups[deg])[0].items())",
           ("tests/test_hilbert.py::test_echelon_generators_match_the_fraction_loop",)),
    # substitution: a parameter's value to the first power whatever its exponent
    Mutant("src/flatcert/polyring.py", "num *= p ** e", "num *= p",
           ("tests/test_polyring.py::test_substitute_matches_reference_loop",
            "tests/test_cli.py::test_fiber_files_are_the_family_at_their_point")),
    # the Hilbert integer routes: the y-block binomial read at the x-degree
    Mutant("src/flatcert/hilbert.py",
           "comb(i - a + k - 1, k - 1) * comb(j - b + k - 1, k - 1)",
           "comb(i - a + k - 1, k - 1) * comb(j - a + k - 1, k - 1)",
           ("tests/test_hilbert.py::test_numerator_matches_enumeration",
            "tests/test_acceptance.py::test_ac02_diagonal_hilbert_identity")),
    # ... and the diagonal polynomial over (k-1)! where it is over (k-1)!^2
    Mutant("src/flatcert/hilbert.py", "return total, factorial(k - 1) ** 2",
           "return total, factorial(k - 1)",
           ("tests/test_hilbert.py::test_diagonal_polynomial_matches_the_fraction_reference",
            "tests/test_flagcut.py::test_koszul_values")),
    # the fit through the last dim_bound samples, one too few
    Mutant("src/flatcert/hilbert.py", "t0 = len(table) - dim_bound - 1",
           "t0 = len(table) - dim_bound",
           ("tests/test_hilbert.py::test_fit_matches_the_dict_reference",
            "tests/test_acceptance.py::test_ac03_special_fiber_polynomial")),
    # the torus check: a coordinate of weight zero taken as moved to 0
    Mutant("src/flatcert/quadfam.py", "min(table[name]) >= 0 and max(table[name]) > 0",
           "min(table[name]) >= 0",
           ("tests/test_quadfam.py::test_torus_checks_reject_the_trivial_action",)),
    # ... and a verdict that ignores the conjugation law
    Mutant("src/flatcert/quadfam.py", 'passed = law_ok and "not proportional" not in scalars',
           'passed = "not proportional" not in scalars',
           ("tests/test_quadfam.py::test_torus_checks_reject_the_trivial_action",)),
    # the chart matrices: A = u^T*diag*u in place of u*diag*u^T
    Mutant("src/flatcert/quadfam.py",
           "for row in u]\n    return mat_mul(scaled, mat_transpose(u))",
           "for row in mat_transpose(u)]\n    return mat_mul(scaled, u)",
           ("tests/test_quadfam.py::test_gauss_graph_link_is_an_identity",)),
    # ... a last diagonal factor d1 in place of d_n
    Mutant("src/flatcert/quadfam.py", "for name in uni.param_names[:n]:",
           'for name in (*uni.param_names[:n - 1], "d1"):',
           ("tests/test_quadfam.py::test_fiber_matrix_values",)),
    # ... and y' = u^{-T}*y in place of u^{-1}*y
    Mutant("src/flatcert/quadfam.py", "yp = mat_mul(_unipotent_inverse(u),",
           "yp = mat_mul(mat_transpose(_unipotent_inverse(u)),",
           ("tests/test_quadfam.py::test_family_ideal_n1_expansion",
            "tests/test_acceptance.py::test_ac06_torus_equivariance")),
    # straightening with u^T in place of u^-1: still an invertible change of
    # coordinates, so every verdict and golden survives; only the
    # term-for-term comparison with the fiber at (I, d) kills it
    Mutant("src/flatcert/quadfam.py", "_integer_matrix(_unipotent_inverse(u))",
           "_integer_matrix(mat_transpose(u))",
           ("tests/test_quadfam.py::test_straightened_fiber_is_the_fiber_at_the_identity",)),
    # ... and a singular map, y_{n+1} -> 0: the Hilbert function changes
    Mutant("src/flatcert/quadfam.py", "(U, a), (V, b) = _integer_matrix(u),",
           "(U, a), (V, b) = _integer_matrix([*u[:-1], [0] * m]),",
           ("tests/test_cli.py::test_golden_reports_are_byte_identical[flatness_n3_points_rational]",
            "tests/test_cli.py::test_golden_reports_are_byte_identical[flatness_n2_rank_seed0]",
            "tests/test_quadfam.py::test_flatness_certificate_n2_with_extra_point")),
    # the Buchberger budget: no check at all, and one more basis element let in
    Mutant("src/flatcert/groebner.py", "if len(gdata) - len(gens) >= MAX_NEW_GENERATORS:",
           "if False:", ("tests/test_cli.py::test_buchberger_budget_is_exact",)),
    Mutant("src/flatcert/groebner.py", "if len(gdata) - len(gens) >= MAX_NEW_GENERATORS:",
           "if len(gdata) - len(gens) > MAX_NEW_GENERATORS:",
           ("tests/test_cli.py::test_buchberger_budget_is_exact",)),
    # a points file's JSON errors back to undecodable bytes only: a syntax
    # error still exits 3, but without the file's path
    Mutant("src/flatcert/cli.py", "except ValueError as exc:  # undecodable",
           "except UnicodeDecodeError as exc:  # undecodable",
           ("tests/test_cli.py::test_malformed_points_file_exits_3[not-json]",)),
    # the default t_max a constant 8: the n = 8 fit is one sample short
    Mutant("src/flatcert/quadfam.py", "return max(8, n + 1)", "return 8",
           ("tests/test_quadfam.py::test_flatness_certificate_default_t_max_fits_n_8",
            "tests/test_cli.py::test_verify_flatness_default_t_max_is_the_fits_floor_from_n_8")),
]

PYTEST_FAILED = 1  # pytest's exit code when tests ran and some failed


def _copy() -> Path:
    tmp = Path(tempfile.mkdtemp(prefix="flatcert-mutant-"))
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", tmp)
    return tmp


def _pytest(tmp: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run(mutant: Mutant) -> str | None:
    """None when the mutant behaves as recorded, else what went wrong."""
    tmp = _copy()
    try:
        path = tmp / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"old text occurs {count} times, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = _pytest(tmp, mutant.tests)
    finally:
        shutil.rmtree(tmp)
    if code not in (0, PYTEST_FAILED):
        return f"pytest exited {code}: the named tests did not run"
    killed = code == PYTEST_FAILED
    if mutant.equivalent is None and not killed:
        return "survived"
    if mutant.equivalent is not None and killed:
        return "killed, but recorded as equivalent"
    return None


def main() -> int:
    tmp = _copy()
    try:
        baseline = _pytest(tmp, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    finally:
        shutil.rmtree(tmp)
    if baseline != 0:
        print(f"the named tests fail on the unmutated source (pytest exit {baseline})")
        return 1
    failures = 0
    for mutant in MUTANTS:
        problem = _run(mutant)
        status = problem or ("equivalent" if mutant.equivalent else "killed")
        print(f"{'ok  ' if problem is None else 'FAIL'} {mutant.file}: "
              f"{mutant.old!r} -> {mutant.new!r}: {status}")
        failures += problem is not None
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants behaved as recorded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
