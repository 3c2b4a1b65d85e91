"""Exact linear algebra and worker plumbing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_rank_matches_dense(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    rows = []
    for _ in range(nrows):
        nnz = rng.randint(0, min(4, ncols))
        cols = rng.sample(range(ncols), nnz)
        rows.append({c: rng.randint(-5, 5) for c in cols})
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    assert sparse_integer_rank(rows) == dense_rank(rows, ncols)


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
