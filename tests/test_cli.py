"""Command line entry points, exit codes, and report determinism."""

import contextlib
import io
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from flatcert import ChartPoint, evaluate_family_at, family_ideal_J
from flatcert.cli import MAX_N, MAX_T, main, parse_ideal_file
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


def test_hilbert_bad_file(tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("n 1\nx1*z9\n")
    code, _ = run(["hilbert", str(path)])
    assert code == 3


@pytest.mark.parametrize("header", ["n", "n two", "n 2.5", "n -1"])
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
    ({"points": [{"u": [["1/0"], [1, -3]], "d": [1, 2]}]}, "zero denominator"),
    ({"points": 5}, "list of chart points"),
    ([1], "chart point must be an object"),
    ([{"u": 3, "d": [1, 2]}], "chart point must be an object"),
    ({"pts": []}, "list of chart points"),
    ([{"u": [["1e2000000"], [1, -3]], "d": [1, 2]}], "'p/q' strings"),
], ids=["zero-denominator", "points-not-a-list", "point-not-an-object", "u-not-rows",
        "no-points-key", "exponent-notation"])
def test_malformed_points_file_exits_3(tmp_path, capsys, body, message):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(body))
    code, out = run(["verify-flatness", "--n", "2", "--t-max", "4", "--points", str(path)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_verify_groebner():
    code, text = run(["verify-groebner", "--n", "2"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["passed"]
    assert len(rep["report"]["orders"]) >= 3


def test_xi_trials_lines_pass():
    code, text = run(["xi-trials", "1", "1", "--trials", "2", "--seed", "0"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["xi_matches"] == 2


def test_xi_trials_conics_fail_the_closed_form():
    code, text = run(["xi-trials", "2", "2", "--trials", "1", "--seed", "0"])
    assert code == 1
    rep = json.loads(text)
    assert rep["report"]["xi_matches"] == 0
    assert rep["report"]["koszul_matches"] == 1


def test_torus_check():
    code, text = run(["torus-check", "--n", "2"])
    assert code == 0
    rep = json.loads(text)
    assert rep["report"]["symbolic"]["passed"]
    assert rep["report"]["numeric"]["passed"]


def test_conic_equations():
    code, text = run(["conic-equations", "--samples", "4", "--conics", "2", "--seed", "1"])
    assert code == 0
    rep = json.loads(text)["report"]
    assert rep["symbolic_identity"] and rep["passed"]
    assert len(rep["conics"]) == 2
    assert all(c["identity_ok"] for c in rep["conics"])
    assert rep["total_points_checked"] == sum(c["points_checked"] for c in rep["conics"])


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
    "xi_trials_2_2_seed3": (["xi-trials", "2", "2", "--trials", "4", "--seed", "3"], 1),
    "xi_trials_1_2_seed5": (["xi-trials", "1", "2", "--trials", "4", "--seed", "5"], 1),
    "flatness_n3_seed0": (["verify-flatness", "--n", "3", "--t-max", "6", "--seed", "0"], 0),
    "flatness_n3_seed0_drop1": (["verify-flatness", "--n", "3", "--t-max", "6", "--seed", "0",
                                 "--corrupt", "drop-generator:1"], 1),
    "conic_equations_seed1": (["conic-equations", "--samples", "4", "--conics", "2",
                               "--seed", "1"], 0),
    "primary_check_n3": (["primary-check", "--n", "3"], 0),
    "hilbert_fiber_n2_ones": (["hilbert", "tests/data/fiber_n2_ones.ideal", "--method", "both",
                               "--t-max", "8"], 0),
    # chart coefficients of heights 3..8, so the rank route meets non-unit pivots
    "hilbert_fiber_n2_chart": (["hilbert", "tests/data/fiber_n2_chart.ideal", "--method", "both",
                                "--t-max", "6"], 0),
    "torus_check_n2_seed0": (["torus-check", "--n", "2", "--seed", "0"], 0),
    "torus_check_n3_seed1": (["torus-check", "--n", "3", "--seed", "1"], 0),
    "verify_groebner_n3_seed0": (["verify-groebner", "--n", "3", "--seed", "0"], 0),
    "torus_check_n4_seed2": (["torus-check", "--n", "4", "--seed", "2"], 0),
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
    point = ChartPoint.from_strict_lower([row.split(",") for row in u.split(";")], d.split(","))
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
    # xi-trials' default t_max, d0 + d1 + 5, meets MAX_T as --t-max does
    assert run(["xi-trials", str(MAX_T - 5), "1", "--trials", "1"]) == (3, "")
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"MAX_T = {MAX_T}" in err[0], err
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
        (["verify-flatness", "--n", "1", "--format", "yaml"], "--format"),
        (["verify-flatness", "--t-max", "0"], "--t-max"),
        (["verify-flatness", "--n", "1", "--corrupt", "drop-generator:x"], "--corrupt"),
        (["verify-flatness", "--n", "1", "--corrupt", "drop-generator:-1"], "--corrupt"),
        (["verify-flatness", "--n", "1", "--corrupt", "swap:1"], "--corrupt"),
        (["hilbert", ideal_file, "--t-max", "0"], "--t-max"),
        (["hilbert", ideal_file, "--t-max", str(MAX_T + 1)], "--t-max"),
        (["verify-flatness", "--t-max", "10" * 30], "--t-max"),
        (["hilbert", ideal_file, "--method", "bogus"], "--method"),
        (["conic-equations", "--conics", "0"], "--conics"),
        (["conic-equations", "--conics", "-1"], "--conics"),
        (["conic-equations", "--samples", "0"], "--samples"),
        (["xi-trials", "2", "2", "--trials", "0"], "--trials"),
        (["xi-trials", "2", "2", "--t-max", "2"], "--t-max"),
        (["xi-trials", "0", "2"], "d0"),
        (["xi-trials", "1", "x"], "d1"),
        (["torus-check", "--n", "-1"], "--n"),
        (["torus-check", "--n", "1", "--workers", "0"], "--workers"),
        (["hilbert", ideal_file, "--workers", "-5"], "--workers"),
    ]:
        capsys.readouterr()
        assert run(argv) == (3, ""), argv
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {name}:" in last, (argv, last)


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flatcert", "torus-check", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["symbolic"]["passed"]
