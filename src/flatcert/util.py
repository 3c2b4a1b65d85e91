"""Small shared utilities: rationals in JSON, tiny exact linear algebra over
arbitrary rings, and sparse fraction-free rank over the integers."""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# no exponent or decimal forms: Fraction("1e2000000") expands the power exactly
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], workers: object = None) -> list[R]:
    """[fn(x) for x in items]; `workers` is accepted and ignored."""
    # a serial map kept by name because bench/tracing.py wraps it and passes `workers`
    return [fn(x) for x in items]


def fraction_to_json(q: Fraction | int) -> int | str:
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_from_json(v: object) -> Fraction:
    """A JSON integer, or a string "p" or "p/q" in decimal digits."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"rational {v!r} has a zero denominator") from None
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {v!r}")


# --- matrices over any commutative ring (entries need +, -, *) ---

def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def mat_det(a: Sequence[Sequence]):
    """Determinant by cofactor expansion; fine for the small sizes used here."""
    m = len(a)
    if m == 1:
        return a[0][0]
    total = None
    for j in range(m):
        minor = [row[:j] + row[j + 1:] for row in (list(r) for r in a[1:])]
        term = a[0][j] * mat_det(minor)
        if total is None:
            total = term
        elif j % 2:
            total = total - term
        else:
            total = total + term
    return total


def mat_adjugate(a: Sequence[Sequence]) -> list[list]:
    """Transposed cofactor matrix; requires size >= 2."""
    m = len(a)
    if m < 2:
        raise ValueError("adjugate needs a matrix of size >= 2")
    rows = [list(r) for r in a]
    cof = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            d = mat_det(minor)
            cof[i][j] = -d if (i + j) % 2 else d
    return mat_transpose(cof)


# --- sparse exact rank ---

def sparse_integer_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of a sparse integer matrix; see `_eliminate`."""
    return _eliminate(rows)[0]


def dependent_rows(rows: Iterable[dict[int, int]]) -> list[int]:
    """Ascending ids of the rows that lie in the span of the rows before
    them: exactly those whose prefix does not gain rank; see `_eliminate`."""
    return _eliminate(rows)[1]


def _eliminate(rows: Iterable[dict[int, int]]) -> tuple[int, list[int]]:
    """(rank, ascending ids of the rows that emptied) of a sparse integer
    matrix, by fraction-free elimination.

    Rows are dicts column -> nonzero integer; the caller's dicts are not
    changed.  Each step takes the column that the fewest active rows hold,
    off a lazy heap of (count, column), and pivots on its earliest active
    row, the one of lowest id.  So a row is only ever combined with rows
    before it, and a row that empties, or was zero on input, lies in the
    span of the rows before it.  There are as many such rows as the row
    count exceeds the rank, and none of them raises the rank of its
    prefix, so they are exactly the rows that do not.  A column that one
    row holds pops first and costs no update.  With g = gcd(pv, v), each
    target row becomes +-((pv/g)*row - (v/g)*pivot) in place, touching only
    the pivot row's columns; a row scaled by |pv/g| > 1 is divided by its
    content afterwards, so all arithmetic stays in Z.  Scaling keeps a
    row's support, so fill-in and pivot order do not depend on it.
    Deterministic.
    """
    active: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    emptied: list[int] = []
    for rid, row in enumerate(rows):
        r = {c: v for c, v in row.items() if v}
        if not r:
            emptied.append(rid)
            continue
        g = 0
        for v in r.values():
            g = gcd(g, v)
        if g > 1:
            r = {c: v // g for c, v in r.items()}
        active[rid] = r
        for c in r:
            col_rows.setdefault(c, set()).add(rid)
    # every column an active row holds has its current count on the heap:
    # a step changes the counts of the pivot row's columns only, and pushes
    # them all afterwards, so an entry whose count is stale can be dropped
    heap = [(len(rids), c) for c, rids in col_rows.items()]
    heapq.heapify(heap)

    rank = 0
    while heap:
        count, pivot_col = heapq.heappop(heap)
        rids = col_rows.get(pivot_col)
        if rids is None or len(rids) != count:
            continue  # stale entry
        del col_rows[pivot_col]
        pid = min(rids)
        row = active.pop(pid)
        pv = row[pivot_col]
        rank += 1
        rest = [(c, val) for c, val in row.items() if c != pivot_col]
        for c, _ in rest:
            col_rows[c].discard(pid)
        for vid in rids:
            if vid == pid:
                continue
            vrow = active[vid]
            vv = vrow.pop(pivot_col)
            g = gcd(pv, vv)
            scale, f = pv // g, vv // g
            if scale < 0:  # negating the update keeps its support
                scale, f = -scale, -f
            if scale != 1:
                for c in vrow:
                    vrow[c] *= scale
            for c, val in rest:
                old = vrow.get(c)
                if old is None:
                    vrow[c] = -f * val
                    col_rows[c].add(vid)
                else:
                    nv = old - f * val
                    if nv:
                        vrow[c] = nv
                    else:
                        del vrow[c]
                        col_rows[c].discard(vid)
            if not vrow:
                del active[vid]
                emptied.append(vid)
                continue
            if scale != 1:
                g = 0
                for v in vrow.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in vrow:
                        vrow[c] //= g
        for c, _ in rest:
            rids = col_rows[c]
            if rids:
                heapq.heappush(heap, (len(rids), c))
            else:
                del col_rows[c]
    emptied.sort()
    return rank, emptied
