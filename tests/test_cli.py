"""Command line entry points, exit codes, and report determinism."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from flatcert import (
    ChartPoint,
    Ideal,
    cli,
    diagonal_ideal,
    evaluate_family_at,
    family_ideal_J,
    flagcut,
    groebner,
    quadfam,
    xy_universe,
)
from flatcert.cli import MAX_DEGREE_PRODUCT, MAX_N, MAX_T, main, parse_ideal_file
from flatcert.flagcut import default_t_max
from flatcert.groebner import MAX_NEW_GENERATORS
from flatcert.hilbert import MAX_MACAULAY_ENTRIES

SPECIAL_N2 = """# special fiber monomials plus the incidence form
n 2
x1*y2
x1*y3
x2*y3
x1*y1 + x2*y2 + x3*y3
"""


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture()
def ideal_file(tmp_path):
    path = tmp_path / "special_n2.ideal"
    path.write_text(SPECIAL_N2)
    return str(path)


def test_hilbert_subcommand(ideal_file):
    code, text = run(["hilbert", ideal_file, "--t-max", "5"])
    assert code == 0
    rep = json.loads(text)
    assert rep["schema"] == 1
    assert rep["command"] == "hilbert"
    assert rep["report"]["polynomial"]["rendered"] == "4t+1"
    assert rep["report"]["projective_dimension"] == 1
    assert rep["report"]["methods_disagree"] == []
    values = {row["t"]: row["value"] for row in rep["report"]["table"]
              if row["method"] == "initial_ideal_count"}
    assert values == {0: 1, 1: 5, 2: 9, 3: 13, 4: 17, 5: 21}


def test_hilbert_text_format(tmp_path):
    path = tmp_path / "line.ideal"
    path.write_text("n 1\nx1*y2\n")
    code, text = run(["hilbert", str(path), "--format", "text"])
    assert code == 0
    assert "polynomial: 2t+1" in text
    assert "t=0: 1" in text
    assert text.endswith("\nverdict: PASS\n")


def test_hilbert_zero_quotient(tmp_path):
    path = tmp_path / "unit.ideal"
    path.write_text("n 1\n1\n")
    code, text = run(["hilbert", str(path), "--t-max", "4"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["polynomial"]["rendered"] == "0"


def test_hilbert_missing_file(tmp_path):
    code, _ = run(["hilbert", str(tmp_path / "missing.ideal")])
    assert code == 3


def test_hilbert_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.ideal"
    # an error in a generator names its line, comment and blank lines counted;
    # a params line is read as a generator too: ideal files have no parameters
    for body, where, message in [
        ("n 1\nx1*z9\n", 2, "unknown variable 'z9'"),
        ("n 1\nparams a\nx1*y2\n", 2, "unknown variable 'params'"),
        ("# a minor without its '-'\nn 2\n\nx1*y3 x3*y1\n", 4,
         "expected '+' or '-' between terms, got 'x3'"),
        ("n 1\nx1*y2\nx1*y1 - x1*y1  # cancels\n", 3, "zero generator"),
        ("n 2\nx1*y1 + x1\n", 2, "generator is not bihomogeneous: x1*y1 + x1"),
        # a file that is not UTF-8 has no line to name
        (b"\xff\xfen 1\nx1*y2\n", None,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]:
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        code, _ = run(["hilbert", str(path)])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        location = str(path) if where is None else f"{path}:{where}"
        assert err == [f"flatcert: {location}: {message}"], err


@pytest.mark.parametrize("header", ["n", "n two", "n 2.5", "n -1", "n 0"])
def test_hilbert_bad_header_exits_3(tmp_path, capsys, header):
    path = tmp_path / "header.ideal"
    path.write_text(f"{header}\nx1*y2\n")
    code, _ = run(["hilbert", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_verify_flatness_passes():
    code, text = run(["verify-flatness", "--n", "2", "--t-max", "7"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["verdict"] == "PASS"
    assert rep["report"]["expected"]["rendered"] == "4t+1"
    assert len(rep["report"]["fibers"]) >= 4


def test_verify_flatness_detects_corruption():
    code, text = run(["verify-flatness", "--n", "2", "--t-max", "7",
                      "--corrupt", "drop-generator:1"])
    assert code == 1
    assert json.loads(text)["report"]["verdict"] == "FAIL"


@pytest.mark.parametrize("argv, code, verdict", [
    # the special fiber's table is too short for its dimension, but the
    # other fibers fit 6t, not 4t+1
    (["--n", "2", "--t-max", "3", "--corrupt", "drop-generator:1"], 1, "FAIL"),
    # every fiber's table is too short and none fails
    (["--n", "3", "--t-max", "4", "--corrupt", "drop-generator:0"], 2, "INCONCLUSIVE"),
])
def test_short_table_under_corruption(argv, code, verdict):
    got, text = run(["verify-flatness", *argv])
    assert got == code
    assert json.loads(text)["report"]["verdict"] == verdict


def test_hilbert_short_table_is_inconclusive(tmp_path):
    # the diagonal of P2 x P2 has dimension 2; its fit needs t = 0..4
    path = tmp_path / "diagonal_n2.ideal"
    path.write_text("n 2\nx1*y2 - x2*y1\nx1*y3 - x3*y1\nx2*y3 - x3*y2\n")
    code, text = run(["hilbert", str(path), "--t-max", "3"])
    assert code == 2
    rep = json.loads(text)["report"]
    assert rep["projective_dimension"] == 2 and rep["polynomial"] is None


@pytest.mark.parametrize("argv, why", [
    (["hilbert", "x64.ideal", "--t-max", "64"],
     "polynomial: did not stabilize (table does not stabilize onto a degree<=1 polynomial"
     " [t=62: table 3969 vs fit 4031])"),
    (["xi-trials", "1", "3", "--t-max", "3"],
     "fit up to t=3: did not stabilize (table does not stabilize onto a degree<=1 polynomial"
     " [t=1: table 5 vs fit 6])"),
], ids=["hilbert", "xi-trials"])
def test_text_reports_say_why_the_fit_failed(argv, why, tmp_path, monkeypatch):
    # HF(t, t) of x1^64*y1 is (t+1)^2 up to t = 63, so the line through
    # t = 63, 64 misses t = 62; the JSON report keeps "polynomial": null
    # and leaves the message out
    (tmp_path / "x64.ideal").write_text("n 1\nx1^64*y1\n")
    monkeypatch.chdir(tmp_path)
    code, text = run([*argv, "--format", "text"])
    assert code == 2 and why in text and text.endswith("\nverdict: INCONCLUSIVE\n")
    code, text = run(argv)
    assert code == 2 and "did not stabilize" not in text


def test_verify_flatness_with_points_file(tmp_path):
    # a points file replaces the random sample: special + ones + the extras
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [
        {"u": [[2], [1, -3]], "d": [1, 2]},
    ]}))
    code, text = run(["verify-flatness", "--n", "2", "--t-max", "7",
                      "--points", str(path)])
    assert code == 0
    rep = json.loads(text)
    fibers = rep["report"]["fibers"]
    assert len(fibers) == 3
    assert fibers[-1]["point"] == {"u": [[2], [1, -3]], "d": [1, 2]}
    assert rep["report"]["verdict"] == "PASS"


@pytest.mark.parametrize("body, message", [
    ({"points": [{"u": [["1/0"], [1, -3]], "d": [1, 2]}]}, "point 0: rational '1/0' has a zero"),
    ({"points": 5}, "expected a list of chart points"),
    ([1], "point 0: a chart point must be an object"),
    ([{"u": 3, "d": [1, 2]}], "point 0: a chart point must be an object"),
    ({"pts": []}, "expected a list of chart points"),
    ([{"u": [["1e2000000"], [1, -3]], "d": [1, 2]}], "point 0: rationals must be"),
    # a point holds the rows below u's unit diagonal, not u itself
    ([{"u": [[1, 0, 0], [2, 1, 0], [1, -3, 1]], "d": [1, 2]}],
     "point 0: need rows of lengths 1..n"),
    ([{"u": [[1], [1, 2]], "d": [1]}], "point 0: d has length 1 but u has 2 rows"),
    ([{"u": [[1], [1, 2]], "d": [1, 2]}, {"u": [[1], [1, 2]], "d": ["x"]}],
     "point 1: rationals must be integers or 'p/q' strings, got 'x'"),
    ([{"u": [[1]], "d": [1]}], "point 0: a chart point of n = 1, expected n = 2"),
    (b"\xff\xfe[]", "'utf-8' codec can't decode byte 0xff in position 0"),
    # cut off mid-point, and an integer past the interpreter's digit limit
    (b'[{"u": [[2], [1, -3]], "d": [1, ', "Expecting value: line 1 column 33"),
    (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits)"),
], ids=["zero-denominator", "points-not-a-list", "point-not-an-object", "u-not-rows",
        "no-points-key", "exponent-notation", "full-u", "short-d", "second-point",
        "point-of-another-n", "not-utf-8", "not-json", "long-integer"])
def test_malformed_points_file_exits_3(tmp_path, capsys, body, message):
    path = tmp_path / "points.json"
    path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
    code, out = run(["verify-flatness", "--n", "2", "--t-max", "4", "--points", str(path)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"flatcert: {path}: {message}") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_deeply_nested_points_file_exits_3(tmp_path, capsys):
    # deeper than the JSON decoder's recursion allows: a usage error, where
    # a RecursionError from anywhere else still ends in a traceback
    path = tmp_path / "points.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out = run(["verify-flatness", "--n", "2", "--points", str(path)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not issubclass(RecursionError, cli.USAGE_ERRORS)


def test_a_key_error_is_a_bug_not_a_usage_error(monkeypatch):
    # no reader of outside input raises KeyError, so main lets it through
    def lookup_bug(n):
        raise KeyError("d9")

    monkeypatch.setattr(cli, "torus_action_check", lookup_bug)
    assert not issubclass(KeyError, cli.USAGE_ERRORS)
    with pytest.raises(KeyError, match="d9"):
        cli.main(["torus-check", "--n", "2"])


def test_verify_groebner(monkeypatch):
    def refuse(seed=None):
        raise AssertionError("verify-groebner drew a random number")

    monkeypatch.setattr(cli, "Random", refuse)
    monkeypatch.setattr(quadfam, "Random", refuse)
    code, text = run(["verify-groebner", "--n", "2"])
    assert code == 0
    rep = json.loads(text)
    assert rep["config"] == {"n": 2}
    assert rep["report"] == {"n": 2, "order": {"kind": "lex", "variable_permutation": None},
                             "s_pairs": 3, "groebner": True, "lex_leading_terms": True,
                             "passed": True}


def _plus_minor(n):
    """The minors of [x; y] with x1*y2 - x2*y1 made x1*y2 + x2*y1: the lex
    leading term stays x1*y2, but an S-pair leaves a nonzero remainder."""
    uni = xy_universe(n)
    return Ideal(uni, [uni.parse("x1*y2 + x2*y1"), *diagonal_ideal(n).generators[1:]])


def _y_reversed_minors(n):
    """The minors of [x; y] with the y indices reversed: a Groebner basis (a
    variable permutation of the minors), but with lex leading terms
    x_i*y_{n+2-j} in place of x_i*y_j."""
    uni = xy_universe(n)
    return Ideal(uni, [uni.parse(f"x{i}*y{n + 2 - j} - x{j}*y{n + 2 - i}")
                       for i, j in combinations(range(1, n + 2), 2)])


@pytest.mark.parametrize("mutant,failing", [(_plus_minor, "groebner"),
                                            (_y_reversed_minors, "lex_leading_terms")],
                         ids=["plus-minor", "y-reversed"])
def test_verify_groebner_fails_each_check_alone(mutant, failing, monkeypatch):
    monkeypatch.setattr(cli, "diagonal_ideal", mutant)
    code, text = run(["verify-groebner", "--n", "2"])
    assert code == 1
    rep = json.loads(text)["report"]
    assert rep["passed"] is False
    assert {rep["groebner"], rep["lex_leading_terms"]} == {True, False}
    assert rep[failing] is False


def test_xi_trials_lines_pass():
    code, text = run(["xi-trials", "1", "1", "--trials", "2", "--seed", "0"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["xi_matches"] == 1
    assert rep["report"]["records"][0]["numerator_identity"]


def test_xi_trials_conics_fail_the_closed_form():
    code, text = run(["xi-trials", "2", "2", "--trials", "1", "--seed", "0"])
    assert code == 1
    rep = json.loads(text)
    assert rep["report"]["xi_matches"] == 0
    assert rep["report"]["koszul_matches"] == 1


def test_xi_trials_reads_no_seed(monkeypatch):
    assert not hasattr(flagcut, "Random")

    def refuse(seed=None):
        raise AssertionError("xi-trials drew a random number")

    monkeypatch.setattr(cli, "Random", refuse)
    monkeypatch.setattr(quadfam, "Random", refuse)
    code, text = run(["xi-trials", "2", "2", "--seed", "0", "--trials", "1"])
    assert code == 1
    assert json.loads(text)["config"] == {"d0": 2, "d1": 2, "method": "initial_ideal_count",
                                          "t_max": 9}
    assert run(["xi-trials", "2", "2", "--seed", "7", "--trials", "20"]) == (code, text)


def test_verify_flatness_default_t_max_is_the_fits_floor_from_n_8(monkeypatch):
    # without --t-max the certificate runs to max(8, n + 1): 8 up to n = 7,
    # and at MAX_N the n + 1 = 9 that the command asks for; stubbed, so no
    # n = 8 certificate runs here
    seen = []

    def certificate(n, extra, t_max, method, corrupt):
        seen.append((n, t_max))
        return quadfam.FlatnessReport(n, t_max, method, corrupt, quadfam.chi_graph(n), [])

    monkeypatch.setattr(cli, "flatness_certificate", certificate)
    for n in (1, 7, MAX_N):
        code, text = run(["verify-flatness", "--n", str(n)])
        assert code == 0
        assert json.loads(text)["config"]["t_max"] == max(8, n + 1)
    assert seen == [(1, 8), (7, 8), (MAX_N, 9)]


def test_torus_check(monkeypatch):
    def refuse(seed=None):
        raise AssertionError("torus-check drew a random number")

    monkeypatch.setattr(cli, "Random", refuse)
    monkeypatch.setattr(quadfam, "Random", refuse)
    code, text = run(["torus-check", "--n", "2"])
    assert code == 0
    rep = json.loads(text)
    assert rep["config"] == {"n": 2}
    assert sorted(rep["report"]) == ["closed_orbit_limit", "passed", "symbolic"]
    assert rep["report"]["symbolic"]["passed"] and rep["report"]["closed_orbit_limit"]


def test_conic_equations(monkeypatch):
    def refuse(seed=None):
        raise AssertionError("conic-equations drew a random number")

    monkeypatch.setattr(cli, "Random", refuse)
    monkeypatch.setattr(quadfam, "Random", refuse)
    code, text = run(["conic-equations"])
    assert code == 0
    assert json.loads(text)["config"] == {}
    assert json.loads(text)["report"] == {"adjugate": True, "graph_minors": True,
                                          "parametrization": True, "passed": True}


def test_primary_check():
    code, text = run(["primary-check", "--n", "2"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["passed"]


def test_reports_are_byte_identical(ideal_file):
    a = run(["hilbert", ideal_file, "--t-max", "5"])
    b = run(["hilbert", ideal_file, "--t-max", "5"])
    assert a == b
    c = run(["xi-trials", "1", "1", "--trials", "2", "--seed", "7"])
    d = run(["xi-trials", "1", "1", "--trials", "2", "--seed", "7"])
    assert c == d


# Reports checked in under tests/data, with the exit code each run gives.
# A change that alters what a computation does or records shows up here.
# Paths in argv are relative to the repository root, where the runs happen.
GOLDEN = {
    "xi_trials_2_2": (["xi-trials", "2", "2"], 1),
    "xi_trials_1_2": (["xi-trials", "1", "2"], 1),
    "flatness_n3_seed0": (["verify-flatness", "--n", "3", "--t-max", "6", "--seed", "0"], 0),
    "flatness_n3_seed0_drop1": (["verify-flatness", "--n", "3", "--t-max", "6", "--seed", "0",
                                 "--corrupt", "drop-generator:1"], 1),
    "flatness_n2_rank_seed0": (["verify-flatness", "--n", "2", "--method", "rank", "--seed", "0"], 0),
    # a rational u entry (1/2) and a zero d_i, from a points file
    "flatness_n3_points_rational": (["verify-flatness", "--n", "3", "--points",
                                     "tests/data/points_n3_rational.json"], 0),
    "conic_equations": (["conic-equations"], 0),
    "primary_check_n3": (["primary-check", "--n", "3"], 0),
    "hilbert_fiber_n2_ones": (["hilbert", "tests/data/fiber_n2_ones.ideal", "--method", "both",
                               "--t-max", "8"], 0),
    # chart coefficients of heights 3..8, so the rank route meets non-unit pivots
    "hilbert_fiber_n2_chart": (["hilbert", "tests/data/fiber_n2_chart.ideal", "--method", "both",
                                "--t-max", "6"], 0),
    # the unit ideal: no dimension, an all-zero table and the polynomial 0
    "hilbert_unit_n2": (["hilbert", "tests/data/unit_n2.ideal", "--method", "both",
                         "--t-max", "8"], 0),
    "torus_check_n2": (["torus-check", "--n", "2"], 0),
    "torus_check_n3": (["torus-check", "--n", "3"], 0),
    "verify_groebner_n3": (["verify-groebner", "--n", "3"], 0),
    "torus_check_n4": (["torus-check", "--n", "4"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports_are_byte_identical(name, monkeypatch):
    argv, expected_code = GOLDEN[name]
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    golden = (root / "tests" / "data" / f"{name}.json").read_text(encoding="utf-8")
    assert run(argv) == (expected_code, golden)


@pytest.mark.parametrize("name", ["fiber_n2_chart.ideal", "fiber_n4_chart.ideal"])
def test_fiber_files_are_the_family_at_their_point(name):
    path = Path(__file__).parent / "data" / name
    header = path.read_text(encoding="utf-8").splitlines()[0]
    u, d = re.search(r"u=\[([^]]*)\], d=\(([^)]*)\)", header).groups()
    point = ChartPoint.from_strict_lower([[Fraction(v) for v in row.split(",")] for row in u.split(";")],
                                         [Fraction(v) for v in d.split(",")])
    fiber = evaluate_family_at(family_ideal_J(point.n), point)
    parsed = parse_ideal_file(str(path))
    assert len(parsed.generators) == len(fiber.generators)
    for got, want in zip(parsed.generators, fiber.generators):
        assert got == want


def test_workers_do_not_change_output():
    a = run(["verify-flatness", "--n", "1", "--t-max", "6", "--workers", "1"])
    b = run(["verify-flatness", "--n", "1", "--t-max", "6", "--workers", "4"])
    assert a == b


def test_no_subcommand_starts_a_thread(monkeypatch):
    argvs = [["verify-flatness", "--n", "2"], ["xi-trials", "1", "1", "--trials", "3"]]
    serial = [run(argv + ["--workers", "1"]) for argv in argvs]

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert [run(argv + ["--workers", "4"]) for argv in argvs] == serial


def test_output_flag_writes_file(tmp_path, ideal_file):
    out = tmp_path / "report.json"
    code, text = run(["hilbert", ideal_file, "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["command"] == "hilbert"
    # an unwritable report path is an input error, not a traceback
    assert run(["hilbert", ideal_file, "--output", str(tmp_path / "no" / "r.json")]) == (3, "")


def test_usage_errors_exit_3(ideal_file, tmp_path, capsys):
    assert run(["no-such-command"])[0] == 3
    assert run([])[0] == 3
    assert run(["hilbert"])[0] == 3
    # past the input budget: exit 3 at once with one line naming the limit
    big = tmp_path / "big.ideal"
    big.write_text(f"n {MAX_N + 1}\nx1*y2\n")
    capsys.readouterr()
    assert run(["hilbert", str(big), "--method", "rank"]) == (3, "")
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"MAX_N = {MAX_N}" in err[0], err
    for command in ("verify-flatness", "verify-groebner", "torus-check", "primary-check"):
        assert run([command, "--n", str(MAX_N + 1)]) == (3, "")
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument --n: must be <= {MAX_N}" in last, last
    # conic-equations has no sampling options left
    assert run(["conic-equations", "--samples", "4"]) == (3, "")
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["flatcert: error: unrecognized arguments: --samples 4"], err
    # xi degrees past their budget: refused before the witness is built, so
    # xi-trials' default t_max, d0 + d1 + 5, never passes MAX_T
    for d0, d1 in [(6, 6), (5, 6), (MAX_T - 5, 1)]:
        assert run(["xi-trials", str(d0), str(d1), "--trials", "1"]) == (3, "")
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"flatcert: xi-trials: d0*d1 = {d0 * d1} is over "
                       f"MAX_DEGREE_PRODUCT = {MAX_DEGREE_PRODUCT}"], err
    assert max(default_t_max(d, MAX_DEGREE_PRODUCT // d)
               for d in range(1, MAX_DEGREE_PRODUCT + 1)) <= MAX_T
    # a rank-oracle matrix past its budget: refused before any elimination
    n4_chart = str(Path(__file__).parent / "data" / "fiber_n4_chart.ideal")
    for argv, shape in [
        (["hilbert", n4_chart, "--t-max", "5"], "(5,5) Macaulay matrix would be 24760 x 15876"),
        (["verify-flatness", "--n", "3", "--method", "rank"], "(8,8) Macaulay matrix"),
        (["hilbert", ideal_file, "--method", "rank", "--t-max", str(MAX_T)], "Macaulay matrix"),
    ]:
        assert run(argv) == (3, ""), argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and shape in err[0], err
        assert f"MAX_MACAULAY_ENTRIES = {MAX_MACAULAY_ENTRIES}" in err[0], err
    # out-of-range arguments: exit 3, nothing on stdout, the argument named last
    for argv, name in [
        (["verify-flatness", "--n", "0"], "--n"),
        (["verify-flatness", "--n", "1", "--method", "bogus"], "--method"),
        (["verify-flatness", "--n", "1", "--method", "both"], "--method"),
        (["verify-flatness", "--n", "1", "--t-max", "2"], "--t-max"),
        # a flat fiber's fit needs t = 0..n+1; refused before any fiber
        (["verify-flatness", "--n", str(MAX_N), "--t-max", str(MAX_N)], "--t-max"),
        (["verify-flatness", "--n", "4", "--t-max", "4"], "--t-max"),
        (["verify-flatness", "--n", "1", "--format", "yaml"], "--format"),
        (["verify-flatness", "--t-max", "0"], "--t-max"),
        (["verify-flatness", "--n", "1", "--corrupt", "drop-generator:x"], "--corrupt"),
        (["verify-flatness", "--n", "1", "--corrupt", "drop-generator:-1"], "--corrupt"),
        (["verify-flatness", "--n", "1", "--corrupt", "swap:1"], "--corrupt"),
        (["hilbert", ideal_file, "--t-max", "0"], "--t-max"),
        (["hilbert", ideal_file, "--t-max", str(MAX_T + 1)], "--t-max"),
        (["verify-flatness", "--t-max", "10" * 30], "--t-max"),
        (["hilbert", ideal_file, "--method", "bogus"], "--method"),
        (["xi-trials", "2", "2", "--trials", "0"], "--trials"),
        (["xi-trials", "2", "2", "--t-max", "2"], "--t-max"),
        (["xi-trials", "0", "2"], "d0"),
        (["xi-trials", "1", "x"], "d1"),
        (["torus-check", "--n", "-1"], "--n"),
        (["xi-trials", "2", "2", "--workers", "0"], "--workers"),
        (["hilbert", ideal_file, "--workers", "-5"], "--workers"),
    ]:
        capsys.readouterr()
        assert run(argv) == (3, ""), argv
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {name}:" in last, (argv, last)


def test_each_flag_lives_where_a_caller_passes_it(capsys):
    # --seed where it is read (verify-flatness) or bench/workloads.py passes
    # it (xi-trials); --workers where bench/workloads.py passes it
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: set(p._option_string_actions) for name, p in subparsers.items()}
    assert {flag: {name for name in options if flag in options[name]}
            for flag in ("--seed", "--workers")} == {
        "--seed": {"verify-flatness", "xi-trials"},
        "--workers": {"verify-flatness", "xi-trials", "hilbert"}}
    assert set.intersection(*options.values()) == {"-h", "--help", "--format", "--output"}
    for argv in (["torus-check", "--n", "2", "--seed", "1"],
                 ["primary-check", "--n", "2", "--workers", "1"]):
        capsys.readouterr()
        assert run(argv) == (3, ""), argv
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"flatcert: error: unrecognized arguments: {' '.join(argv[-2:])}"], err


def _budget_line(generators, budget):
    return (f"flatcert: buchberger: completing {generators} generators would add more"
            f" than MAX_NEW_GENERATORS = {budget} basis elements")


@pytest.mark.parametrize("method", ["initial", "rank"])
def test_buchberger_budget_refuses_a_runaway_completion(method):
    # three (2,2) generators whose completion ran past 120 s on both routes:
    # the rank route completes a basis too, for its fit's degree bound
    path = Path(__file__).parent / "data" / "buchberger_budget_n2.ideal"
    proc = subprocess.run(
        [sys.executable, "-m", "flatcert", "hilbert", str(path), "--method", method,
         "--t-max", "6"], capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [_budget_line(3, MAX_NEW_GENERATORS)]


def test_buchberger_budget_is_exact(monkeypatch, capsys):
    # the n=2 chart fiber's four generators complete by adding two
    chart = str(Path(__file__).parent / "data" / "fiber_n2_chart.ideal")
    monkeypatch.setattr(groebner, "MAX_NEW_GENERATORS", 2)
    assert run(["hilbert", chart, "--t-max", "4"])[0] == 0
    monkeypatch.setattr(groebner, "MAX_NEW_GENERATORS", 1)
    for method in ("initial", "rank"):
        capsys.readouterr()
        assert run(["hilbert", chart, "--method", method, "--t-max", "4"]) == (3, "")
        assert capsys.readouterr().err.splitlines() == [_budget_line(4, 1)]


@pytest.mark.parametrize("argv", [
    ["verify-flatness", "--n", "3", "--method", "rank"],
    ["xi-trials", "25", "1", "--method", "rank"],
], ids=["verify-flatness", "xi-trials"])
def test_rank_route_refuses_before_buchberger(argv, monkeypatch, capsys):
    # both tables are over MAX_MACAULAY_ENTRIES: the refusal comes before
    # the basis that the numerator and the fit's degree bound read
    def no_buchberger(*args, **kwargs):
        raise AssertionError("Buchberger ran before the rank budget's refusal")
    monkeypatch.setattr(groebner, "buchberger", no_buchberger)
    assert run(argv) == (3, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("flatcert: rank oracle:")


def test_reused_parser_keeps_no_state(capsys):
    # main parses every argv with one parser: options, errors and --help of
    # one call must not reach the next
    first = ["xi-trials", "2", "2"]
    code, report = run(first)
    assert code == 1 and json.loads(report)["command"] == "xi-trials"
    text = run([*first, "--format", "text"])
    assert text[0] == 1 and text[1].startswith("xi-trials d0=2 d1=2")
    assert run([*first, "--format", "text", "--t-max", "2"]) == (3, "")
    code_help, usage = run(["--help"])
    assert code_help == 0 and usage.startswith("usage: flatcert")
    capsys.readouterr()
    assert run(first) == (code, report)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    outputs = {run(["xi-trials", "1", "1"]) for _ in range(20)}
    assert len(outputs) == 1 and next(iter(outputs))[0] == 0
    # the top-level parser; each subcommand's parser is a _Parser too
    assert built.count("flatcert") == 1


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flatcert", "torus-check", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["symbolic"]["passed"]


def test_make_ideal_files_runs_from_a_bare_checkout(tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "make_ideal_files.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "ideals"
    proc = subprocess.run([sys.executable, str(script), "--out-dir", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    ideal = parse_ideal_file(str(out / "special_fiber_n2.ideal"))
    assert ideal.universe.n == 2 and len(ideal.generators) == 4
