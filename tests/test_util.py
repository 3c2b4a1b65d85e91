"""Exact linear algebra and worker plumbing."""

import copy
import heapq
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from flatcert import hilbert
from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J
from flatcert.util import (
    WORKERS_ENV_VAR,
    fraction_from_json,
    fraction_to_json,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_transpose,
    parallel_map,
    resolve_workers,
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
    """Reference kernel with the same pivot rule: every update builds the
    whole target row anew as pv*row - v*pivot and divides it by its content."""
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


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_leaves_input_unchanged(seed):
    rows, _ = random_sparse_rows(random.Random(seed))
    rows.append({0: 0, 1: 6, 2: -4})  # an explicit zero and a common factor
    before = copy.deepcopy(rows)
    sparse_integer_rank(rows)
    assert rows == before


def _macaulay_matrices(point, ts, monkeypatch):
    """The rank oracle's matrices for the fiber of J at a chart point."""
    captured = []
    monkeypatch.setattr(hilbert, "sparse_integer_rank",
                        lambda rows: captured.append(copy.deepcopy(rows)) or 0)
    fiber = evaluate_family_at(family_ideal_J(point.n), point)
    for t in ts:
        hilbert.bigraded_hilbert_function(fiber, t, t, hilbert.METHOD_RANK)
    return captured


@pytest.mark.parametrize("point, t_max", [
    (ChartPoint.from_strict_lower([[4], [-6, 8]], [3, 7]), 5),
    (ChartPoint.from_strict_lower([[-8], [6, 4]], [0, -7]), 5),
    (ChartPoint.from_strict_lower([[3], [-5, 2], [4, -7, 6]], [2, -9, 5]), 3),
], ids=["n2", "n2-degenerate", "n3"])
def test_sparse_rank_matches_reference_on_macaulay_matrices(point, t_max, monkeypatch):
    matrices = _macaulay_matrices(point, range(1, t_max + 1), monkeypatch)
    assert len(matrices) == t_max
    for rows in matrices:
        assert sparse_integer_rank(rows) == reference_sparse_rank(rows)


def test_sparse_rank_edge_cases():
    assert sparse_integer_rank([]) == 0
    assert sparse_integer_rank([{}, {}]) == 0
    assert sparse_integer_rank([{0: 2}, {0: -4}]) == 1
    assert sparse_integer_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda v: v * v, items, workers=4) == [v * v for v in items]
    assert parallel_map(lambda v: v + 1, items, workers=1) == [v + 1 for v in items]


def test_parallel_map_propagates_errors():
    def bad(v):
        if v == 3:
            raise RuntimeError("boom")
        return v

    with pytest.raises(RuntimeError):
        parallel_map(bad, range(6), workers=3)


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert resolve_workers(3) == 3
    assert resolve_workers() >= 1
    monkeypatch.setenv(WORKERS_ENV_VAR, "5")
    assert resolve_workers() == 5
    # an explicit request wins over the environment
    assert resolve_workers(2) == 2
    monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        resolve_workers()
    # a count below 1 is refused, not clamped
    for bad in ("0", "-5"):
        monkeypatch.setenv(WORKERS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            resolve_workers()
    with pytest.raises(ValueError):
        resolve_workers(0)
    # an empty value means unset
    monkeypatch.setenv(WORKERS_ENV_VAR, "")
    assert resolve_workers() >= 1


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
