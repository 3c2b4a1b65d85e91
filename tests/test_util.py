"""Rationals in JSON, exact linear algebra, sparse integer rank, and the
serial map."""

import copy
import heapq
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flatcert import hilbert
from flatcert.cli import parse_ideal_file
from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J
from flatcert.util import (
    _eliminate,
    dependent_rows,
    fraction_from_json,
    fraction_to_json,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_transpose,
    parallel_map,
    sparse_integer_rank,
)


def dense_rank(rows, width):
    """Fraction Gaussian elimination, the slow reference."""
    m = [[Fraction(r.get(j, 0)) for j in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_sparse_rank(rows):
    """Reference kernel with another pivot rule, the shortest active row on
    its column of fewest rows: every update builds the whole target row
    anew as pv*row - v*pivot and divides it by its content."""
    active, col_rows, heap = {}, {}, []
    for rid, row in enumerate(rows):
        r = {c: v for c, v in row.items() if v}
        if not r:
            continue
        g = 0
        for v in r.values():
            g = gcd(g, v)
        if g > 1:
            r = {c: v // g for c, v in r.items()}
        active[rid] = r
        for c in r:
            col_rows.setdefault(c, set()).add(rid)
        heapq.heappush(heap, (len(r), rid))
    rank = 0
    while heap:
        nnz, rid = heapq.heappop(heap)
        row = active.get(rid)
        if row is None or len(row) != nnz:
            continue
        del active[rid]
        for c in row:
            col_rows[c].discard(rid)
        pivot_col = min(row, key=lambda c: (len(col_rows[c]), c))
        pv = row[pivot_col]
        rank += 1
        for vid in sorted(col_rows.get(pivot_col, ())):
            vrow = active[vid]
            vv = vrow.pop(pivot_col)
            col_rows[pivot_col].discard(vid)
            old_keys = set(vrow)
            new = {c: pv * val for c, val in vrow.items()}
            for c, val in row.items():
                if c == pivot_col:
                    continue
                nv = new.get(c, 0) - vv * val
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            for c in old_keys - new.keys():
                col_rows[c].discard(vid)
            for c in new.keys() - old_keys:
                col_rows.setdefault(c, set()).add(vid)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                active[vid] = new
                heapq.heappush(heap, (len(new), vid))
            else:
                del active[vid]
    return rank


def random_sparse_rows(rng):
    """Up to 12 x 12 with entries up to +-50; some rows are integer combinations
    of earlier ones, so rank deficiency, cancellation and non-unit pivots occur."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = []
    for _ in range(nrows):
        row = {}
        if len(rows) >= 2 and rng.random() < 0.4:
            for r in rng.sample(rows, rng.randint(2, min(3, len(rows)))):
                k = rng.choice([-3, -2, -1, 1, 2, 3, 5])
                for c, v in r.items():
                    row[c] = row.get(c, 0) + k * v
        else:
            for c in rng.sample(range(ncols), rng.randint(0, min(6, ncols))):
                row[c] = rng.randint(-50, 50)
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_matches_dense(seed):
    rows, ncols = random_sparse_rows(random.Random(seed))
    assert sparse_integer_rank(rows) == dense_rank(rows, ncols)


def planted_sparse_rows(rng):
    """random_sparse_rows with structure planted for columns of one row:
    columns that one row holds from the start; triples x = p + a*e_c,
    y = k*x + w, z = b*e_c + z' that leave column c to z alone once y is
    reduced by x; and duplicated or proportional rows.  Shuffled."""
    rows, ncols = random_sparse_rows(rng)

    def nonzero():
        return rng.choice([-1, 1]) * rng.randint(1, 9)

    def random_row(width):
        return {c: nonzero() for c in rng.sample(range(width), rng.randint(0, min(4, width)))}

    for row in rng.sample(rows, rng.randint(0, len(rows))):
        row[ncols] = nonzero()
        ncols += 1
    for _ in range(rng.randint(0, 3)):
        c = ncols
        ncols += 1
        x = {**rng.choice(rows), c: nonzero()}
        k, w = nonzero(), random_row(c)
        y = {col: k * x.get(col, 0) + w.get(col, 0) for col in x.keys() | w.keys()}
        rows += [x, {col: v for col, v in y.items() if v}, {**random_row(c), c: nonzero()}]
    for row in rng.sample(rows, rng.randint(0, min(3, len(rows)))):
        k = rng.choice([1, -1, 2, -3, 5])
        rows.append({col: k * v for col, v in row.items()})
    rng.shuffle(rows)
    return rows, ncols


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_matches_dense_on_planted_singletons(seed):
    rows, ncols = planted_sparse_rows(random.Random(seed))
    assert sparse_integer_rank(rows) == dense_rank(rows, ncols)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_ignores_row_order(seed):
    rng = random.Random(seed)
    rows, _ = planted_sparse_rows(rng)
    assert sparse_integer_rank(rng.sample(rows, len(rows))) == sparse_integer_rank(rows)


@pytest.mark.parametrize("rows, dependent", [
    # the shortest row, {2: 1}, is the difference of the two before it: the
    # earlier rows pivot on columns 1 and 2, so the third row empties, not the second
    ([{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {2: 1}], [2]),
    # a zero row on input, and a proportional row after its original
    ([{}, {0: 2, 1: -4}, {1: 1, 2: 1}, {0: -3, 1: 6}], [0, 3]),
    # the second row, reduced by the first, pivots on column 0; the third
    # cancels column 1 against the first row and column 0 against the
    # second, and empties; the last row, the only one holding column 2,
    # stores its pivot there unreduced
    ([{0: 1, 1: 2}, {1: 1, 2: 0}, {0: 1, 1: 3}, {0: 5, 2: 7}], [2]),
], ids=["difference", "zero-and-proportional", "single-row-column-first"])
def test_emptied_rows_lie_in_the_span_of_earlier_rows(rows, dependent):
    assert dependent_rows(rows) == dependent
    assert sparse_integer_rank(rows) == dense_rank(rows, 3) == len(rows) - len(dependent)
    for k in range(len(rows)):
        gained = dense_rank(rows[:k + 1], 3) - dense_rank(rows[:k], 3)
        assert gained == (0 if k in dependent else 1), k


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dependent_rows_are_the_rows_that_do_not_raise_the_prefix_rank(seed):
    rng = random.Random(seed)
    rows, ncols = planted_sparse_rows(rng) if rng.random() < 0.5 else random_sparse_rows(rng)
    dependent = dependent_rows(rows)
    assert dependent == sorted(set(dependent))
    for k in range(len(rows)):
        prefix_gain = reference_sparse_rank(rows[:k + 1]) - reference_sparse_rank(rows[:k])
        assert prefix_gain == (0 if k in dependent else 1), k
    assert sparse_integer_rank(rows) == reference_sparse_rank(rows) == len(rows) - len(dependent)
    # each pivot is primitive and stored under its row's highest column, one
    # per unit of rank, and the pivots span the rows
    pivots, emptied = _eliminate(rows)
    rank = reference_sparse_rank(rows)
    assert emptied == dependent and len(pivots) == rank
    assert dense_rank(rows + [*pivots.values()], ncols) == rank
    assert all(col == max(row) and gcd(*row.values()) == 1 for col, row in pivots.items())


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_leaves_input_unchanged(seed):
    rows, _ = random_sparse_rows(random.Random(seed))
    rows.append({0: 0, 1: 6, 2: -4})  # an explicit zero and a common factor
    before = copy.deepcopy(rows)
    sparse_integer_rank(rows)
    dependent_rows(rows)
    assert rows == before


def _macaulay_matrices(ideal, ts, monkeypatch):
    """The rank oracle's matrix for an ideal at each diagonal t: the last
    of the levels that the value at (t, t) computes."""
    captured = []
    monkeypatch.setattr(hilbert, "sparse_integer_rank",
                        lambda rows: captured.append(copy.deepcopy(rows)) or 0)
    matrices = []
    for t in ts:
        hilbert.bigraded_hilbert_function(ideal, t, t, hilbert.METHOD_RANK)
        matrices.append(captured[-1])
    return matrices


# the n=2 points have the rank-referee benchmark's heights, |u| (4, 6, 8)
# and |d| (3, 7), and the t8 cases its largest t
@pytest.mark.parametrize("point, ts", [
    (ChartPoint.from_strict_lower([[4], [-6, 8]], [3, 7]), range(1, 6)),
    (ChartPoint.from_strict_lower([[-8], [6, 4]], [0, -7]), range(1, 6)),
    (ChartPoint.from_strict_lower([[3], [-5, 2], [4, -7, 6]], [2, -9, 5]), range(1, 4)),
    (ChartPoint.from_strict_lower([[4], [-6, 8]], [3, 7]), [8]),
    (ChartPoint.from_strict_lower([[-8], [6, 4]], [0, -7]), [8]),
], ids=["n2", "n2-degenerate", "n3", "n2-t8", "n2-degenerate-t8"])
def test_sparse_rank_matches_reference_on_macaulay_matrices(point, ts, monkeypatch):
    fiber = evaluate_family_at(family_ideal_J(point.n), point)
    matrices = _macaulay_matrices(fiber, ts, monkeypatch)
    assert len(matrices) == len(ts)
    for rows in matrices:
        assert sparse_integer_rank(rows) == reference_sparse_rank(rows)
        assert len(rows) - len(dependent_rows(rows)) == reference_sparse_rank(rows)


def test_pruned_macaulay_matrix_shape(monkeypatch):
    # at t=8 Koszul pruning keeps 2412 of the 4 * 1296 multiples m*g; at t=2
    # the four generators, of distinct leading terms, lose 0+1+2+3 of 36.
    # The signatures stored below t=8 skip all 420 rows that are dependent
    # there, so the oracle builds 1992 rows of rank 1992
    ideal = parse_ideal_file(str(Path(__file__).parent / "data" / "fiber_n2_chart.ideal"))
    assert ([hilbert.rank_matrix_shape(ideal, t)[0] for t in range(9)]
            == [0, 4, 30, 102, 250, 510, 924, 1540, 2412])
    (rows,) = _macaulay_matrices(ideal, [8], monkeypatch)
    assert len(rows) == 1992
    assert len({c for row in rows for c in row}) == 2025
    assert hilbert.rank_matrix_shape(ideal, 8) == (2412, 2025)
    assert sparse_integer_rank(rows) == reference_sparse_rank(rows) == 1992


def test_sparse_rank_edge_cases():
    assert sparse_integer_rank([]) == 0
    assert sparse_integer_rank([{}, {}]) == 0
    assert sparse_integer_rank([{0: 2}, {0: -4}]) == 1
    assert sparse_integer_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda v: v * v, items) == [v * v for v in items]
    # bench/tracing.py passes a worker count as a third argument; it is ignored
    assert parallel_map(lambda v: v + 1, iter(items), 4) == [v + 1 for v in items]


def test_parallel_map_propagates_errors():
    def bad(v):
        if v == 3:
            raise RuntimeError("boom")
        return v

    with pytest.raises(RuntimeError):
        parallel_map(bad, range(6))


def test_fraction_json_roundtrip():
    for q in [Fraction(3, 7), Fraction(-2, 9), Fraction(5), Fraction(0)]:
        assert fraction_from_json(fraction_to_json(q)) == q
    assert fraction_to_json(Fraction(5)) == 5
    assert fraction_to_json(Fraction(3, 7)) == "3/7"


@pytest.mark.parametrize("bad", ["1/0", "-3/0", "x/2", "1e2000000", "1.5"])
def test_fraction_from_json_rejects_with_value_error(bad):
    with pytest.raises(ValueError):
        fraction_from_json(bad)


def test_matrix_helpers():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert mat_det(a) == -2
    adj = mat_adjugate(a)
    prod = mat_mul(a, adj)
    assert prod == [[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(-2)]]
    assert mat_transpose(a) == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]
    b = [[Fraction(2), Fraction(0), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)]]
    assert mat_det(b) == 1
    assert mat_mul(b, mat_adjugate(b)) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
