"""Small shared utilities: rationals in JSON, tiny exact linear algebra over
arbitrary rings, and sparse fraction-free elimination over the integers."""

from __future__ import annotations

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


# --- sparse exact elimination ---

def sparse_integer_rank(rows: Iterable[dict[T, int]]) -> int:
    """Rank of a sparse integer matrix, its rows reduced in place; see
    `_eliminate`."""
    return len(_eliminate(rows)[0])


def _eliminate(rows: Iterable[dict[T, int]]) -> tuple[dict[T, dict[T, int]], list[int]]:
    """(pivot rows keyed by their column, ascending ids of the rows that
    emptied) of a sparse integer matrix, by fraction-free elimination in
    row order (after Bareiss 1968).  Rows are dicts column -> integer,
    columns of any ordered type, and distinct dicts.  Each row in turn
    drops its zero entries and cancels its highest column against the
    pivot stored under it, in place.  A row whose highest column has no
    pivot is divided by its content and becomes that pivot.  So after the
    call each row is either empty, exactly when it lies in the span of the
    rows before it, or the primitive pivot row stored under its highest
    column."""
    pivots: dict[T, dict[T, int]] = {}
    emptied: list[int] = []
    for rid, r in enumerate(rows):
        if 0 in r.values():
            for c in [c for c, v in r.items() if not v]:
                del r[c]
        while r:
            col = max(r)
            pivot = pivots.get(col)
            if pivot is None:
                _divide_content(r)
                pivots[col] = r
                break
            _cancel(r, pivot, col)
        else:
            emptied.append(rid)
    return pivots, emptied


def _cancel(r: dict[T, int], pivot: dict[T, int], col: T) -> None:
    """Clear column col of r against pivot in place: with g = gcd(pv, v) of
    their entries there, r becomes (|pv|/g)*r - (sgn(pv)*v/g)*pivot,
    divided by its content when scaled."""
    pv, v = pivot[col], r[col]
    g = gcd(pv, v)
    scale, f = pv // g, v // g
    if scale < 0:
        scale, f = -scale, -f
    if scale != 1:
        for c in r:
            r[c] *= scale
    for c, val in pivot.items():
        nv = r.get(c, 0) - f * val
        if nv:
            r[c] = nv
        else:
            del r[c]
    if scale != 1:
        _divide_content(r)


def _divide_content(r: dict[T, int]) -> None:
    g = gcd(*r.values())
    if g > 1:
        for c in r:
            r[c] //= g
