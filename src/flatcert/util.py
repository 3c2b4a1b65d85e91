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
    """Rank of a sparse integer matrix by fraction-free elimination.

    Rows are dicts column -> nonzero integer; the caller's dicts are not
    changed.  A column that only one active row holds is a free pivot: no
    combination of the other rows reaches it, so that row leaves and adds 1
    to the rank without touching any other row.  Such columns go on a
    stack after loading, when a free pivot's row leaves, and after each
    elimination step, whose leaving row and cancelled entries shrink
    columns; the stack is drained before each elimination step (structured
    Gaussian elimination, LaMacchia and Odlyzko 1990).  An elimination
    step takes the shortest active row and its thinnest column.  With
    g = gcd(pv, v), each target row becomes +-((pv/g)*row - (v/g)*pivot)
    in place, touching only the pivot row's columns; a row scaled by
    |pv/g| > 1 is divided by its content afterwards, so all arithmetic
    stays in Z.  Scaling keeps a row's support, so fill-in and pivot order
    do not depend on it.  Deterministic.
    """
    active: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    heap: list[tuple[int, int]] = []
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
    singles = [c for c, rids in col_rows.items() if len(rids) == 1]

    rank = 0
    while True:
        while singles:
            rids = col_rows[singles.pop()]
            if len(rids) != 1:
                continue  # stale: the column gained a row or lost its last
            rid = rids.pop()
            rank += 1
            for c in active.pop(rid):
                rids = col_rows[c]
                rids.discard(rid)
                if len(rids) == 1:
                    singles.append(c)
        if not heap:
            return rank
        nnz, rid = heapq.heappop(heap)
        row = active.get(rid)
        if row is None or len(row) != nnz:
            continue  # stale entry
        del active[rid]
        for c in row:
            col_rows[c].discard(rid)
        pivot_col = min(row, key=lambda c: (len(col_rows[c]), c))
        pv = row[pivot_col]
        rank += 1
        rest = [(c, val) for c, val in row.items() if c != pivot_col]
        for vid in col_rows.pop(pivot_col):
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
            heapq.heappush(heap, (len(vrow), vid))
        # the step changed no row sets but those of the pivot row's columns:
        # its leaving and each cancellation only shrink them, fill-in grows them
        singles += [c for c, _ in rest if len(col_rows[c]) == 1]
