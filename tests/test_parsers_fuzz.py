"""Fuzzing the input parsers and the input budgets.

Any ideal file or points file either parses, or raises an error that the
command line reports on one line with exit code 3 (`cli.USAGE_ERRORS`).
A --t-max past `cli.MAX_T`, or one whose rank-oracle matrix is past
`hilbert.MAX_MACAULAY_ENTRIES`, exits 3 the same way.  No Hilbert function
is computed here.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from flatcert import ChartPoint, Ideal
from flatcert.cli import MAX_N, MAX_T, USAGE_ERRORS, _load_points_file, main, parse_ideal_file
from flatcert.hilbert import MAX_MACAULAY_ENTRIES

N2_CHART = str(Path(__file__).parent / "data" / "fiber_n2_chart.ideal")


def load_or_usage_error(load, content):
    """Write `content` (str or bytes) to a file and load it; a usage error
    is returned rather than raised, anything else propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        try:
            return load(str(path))
        except USAGE_ERRORS as exc:
            assert "\n" not in str(exc)
            return exc


# --- ideal files ---

_terms = st.tuples(
    st.sampled_from(["", "-", "2*", "3/2*", "1/0*", "0*", "7"]),
    st.lists(st.sampled_from(["x1", "x2", "y1", "y2^2", "x2^0", "1"]),
             min_size=1, max_size=3).map("*".join),
).map("".join)
_polynomials = st.lists(_terms, min_size=1, max_size=4).map(" + ".join)
_junk = st.lists(st.sampled_from(["x1", "y2", "z9", "1", "/", "^", "*", "+", "-", " ", "#",
                                  "2.5", "(", "n", "params", "\t"]), max_size=8).map("".join)
_headers = st.one_of(
    st.integers(min_value=-2, max_value=3).map(lambda k: f"n {k}"),
    st.integers(min_value=MAX_N - 1, max_value=10**6).map(lambda k: f"n {k}"),
    st.sampled_from(["n", "n two", "n 2 3", "n 2.5", "params a b", "params x1", "params 9"]),
)
_ideal_files = st.one_of(
    st.text(),
    st.binary(max_size=64),
    # a well-formed header, then mostly well-formed generators
    st.tuples(st.sampled_from(["n 1", "n 2", "# comment\nn 3\nparams a"]),
              st.lists(_polynomials, max_size=4))
    .map(lambda parts: "\n".join([parts[0], *parts[1]])),
    st.tuples(st.lists(_headers, max_size=3), st.lists(_polynomials | _junk, max_size=4))
    .map(lambda parts: "\n".join(parts[0] + parts[1])),
)


@given(_ideal_files)
def test_ideal_file_parses_or_exits_3(content):
    result = load_or_usage_error(parse_ideal_file, content)
    assert isinstance(result, (Ideal, *USAGE_ERRORS))


@given(st.integers(min_value=MAX_N + 1, max_value=10**9), st.lists(_polynomials, max_size=2))
def test_ideal_file_beyond_the_n_budget_exits_3(n, generators):
    result = load_or_usage_error(parse_ideal_file, "\n".join([f"n {n}", *generators]))
    assert isinstance(result, USAGE_ERRORS) and f"MAX_N = {MAX_N}" in str(result)


# --- points files ---

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=20,
)
_entries = st.one_of(st.integers(-9, 9), st.sampled_from(["1/2", "-3/4", "1/0", "x", "", 0.5]),
                     _json_values)
_points = st.fixed_dictionaries(
    {"u": st.one_of(st.lists(st.lists(_entries, max_size=3), max_size=3), _json_values),
     "d": st.one_of(st.lists(_entries, max_size=3), _json_values)})
_points_files = st.one_of(
    st.text(),
    _json_values.map(json.dumps),
    st.lists(_points, max_size=3).map(json.dumps),
    st.lists(_points, max_size=3).map(lambda pts: json.dumps({"points": pts})),
)


@given(_points_files)
def test_points_file_parses_or_exits_3(content):
    result = load_or_usage_error(_load_points_file, content)
    if not isinstance(result, USAGE_ERRORS):
        assert all(isinstance(p, ChartPoint) for p in result)


# --- large --t-max ---

def exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().strip().splitlines()


_T_MAX_COMMANDS = st.sampled_from([
    ["hilbert", N2_CHART], ["hilbert", N2_CHART, "--method", "initial"],
    ["verify-flatness", "--n", "2"], ["xi-trials", "1", "1"]])


@given(_T_MAX_COMMANDS, st.integers(min_value=MAX_T + 1, max_value=10**30))
def test_t_max_beyond_its_budget_exits_3(argv, t_max):
    code, err = exit_code_and_stderr([*argv, "--t-max", str(t_max)])
    assert code == 3 and f"argument --t-max: must be <= {MAX_T}" in err[-1], err


# the n=2 rank-oracle matrices pass MAX_MACAULAY_ENTRIES from t = 13
_RANK_COMMANDS = st.sampled_from([
    ["hilbert", N2_CHART, "--method", "rank"], ["hilbert", N2_CHART, "--method", "both"],
    ["verify-flatness", "--n", "2", "--method", "rank"]])


@given(_RANK_COMMANDS, st.integers(min_value=13, max_value=MAX_T))
def test_rank_route_past_the_macaulay_budget_exits_3(argv, t_max):
    code, err = exit_code_and_stderr([*argv, "--t-max", str(t_max)])
    assert code == 3 and len(err) == 1, err
    assert f"({t_max},{t_max}) Macaulay matrix" in err[0], err
    assert f"MAX_MACAULAY_ENTRIES = {MAX_MACAULAY_ENTRIES}" in err[0], err
