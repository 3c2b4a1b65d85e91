"""Monomial enumeration for the test referees: the exponent tuples of one
bidegree, one tuple at a time.  The package itself never lists monomials;
the rank oracle builds packed keys instead."""

from typing import Iterator

from flatcert.polyring import Exponents, VariableUniverse


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, descending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_exponents_of_bidegree(universe: VariableUniverse, a: int, b: int) -> Iterator[Exponents]:
    """Exponent tuples of bidegree (a, b) with zero parameter part, descending."""
    if a < 0 or b < 0:
        return
    k = universe.n + 1
    tail = (0,) * len(universe.param_names)
    for xa in _compositions(a, k):
        for yb in _compositions(b, k):
            yield xa + yb + tail
