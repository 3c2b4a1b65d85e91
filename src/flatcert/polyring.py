"""Exact sparse polynomial arithmetic over Q, bigraded in two blocks.

Every ring here has n+1 point coordinates ``x1..x{n+1}``, n+1 dual
coordinates ``y1..y{n+1}``, and optionally a block of parameter variables
(chart coordinates ``d1..dn`` and unipotent entries ``u{i}_{j}``).  The
bidegree of a monomial counts x-exponents and y-exponents only; parameters
sit in bidegree (0, 0) and travel through all graded bookkeeping as
scalars.

Representation: a polynomial is a finite map from exponent tuples (one slot
per variable, x-block then y-block then parameter block) to nonzero
``Fraction`` coefficients.  The zero polynomial is the empty map, and a
polynomial is canonical by construction: no zero coefficients are stored
and equality is plain map equality.  All arithmetic is exact; nothing in
this package touches floating point, and the scalars it accepts are ``int``
and ``Fraction`` only (``bool`` and ``float`` raise ``TypeError``).

Substitution evaluates in integers: the terms are grouped by their exponents
at the assigned variables, each group's value is computed once as an integer
fraction, and every output monomial is summed as an integer over one common
denominator, so that a ``Fraction`` is built only per result term.  Nothing
is cached from one call to the next.

The text format round-trips bit-exactly: ``str`` orders terms by descending
exponent tuple (equivalently, lex with x1 > ... > x{n+1} > y1 > ... >
y{n+1} > parameters) and ``parse_polynomial`` accepts what ``str`` emits,
plus whitespace and explicit unit coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, itemgetter
from typing import Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Rational = Union[Fraction, int]


class UniverseMismatchError(ValueError):
    """Operands live over different variable universes."""


class UnknownVariableError(ValueError):
    """A substitution or parse referenced a variable the universe lacks."""


class ParseError(ValueError):
    """Malformed polynomial text."""


def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _rational(value, what: str) -> Rational:
    """The value itself if it is an int or Fraction; TypeError otherwise."""
    if not _is_rational(value):
        raise TypeError(f"{what} must be an int or Fraction, not {type(value).__name__}")
    return value


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\s*([+\-*]|[A-Za-z][A-Za-z0-9_]*(?:\^[0-9]+)?|[0-9]+(?:/[0-9]+)?)")


@dataclass(frozen=True)
class VariableUniverse:
    """Variable layout of one ring: x-block, y-block, parameter block.

    Exponent tuples index variables in exactly this order.
    """

    n: int
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"projective dimension must be >= 1, got {self.n}")
        if len(self.x_names) != self.n + 1 or len(self.y_names) != self.n + 1:
            raise ValueError("x and y blocks must each have n+1 names")
        names = (*self.x_names, *self.y_names, *self.param_names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")

    @staticmethod
    def standard(n: int, params: Sequence[str] = ()) -> "VariableUniverse":
        """The ring for P^n x P^n-dual: x1..x{n+1}, y1..y{n+1}, given parameters."""
        return VariableUniverse(
            n,
            tuple(f"x{i}" for i in range(1, n + 2)),
            tuple(f"y{i}" for i in range(1, n + 2)),
            tuple(params),
        )

    @cached_property
    def names(self) -> tuple[str, ...]:
        return (*self.x_names, *self.y_names, *self.param_names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @property
    def num_vars(self) -> int:
        return 2 * (self.n + 1) + len(self.param_names)

    @property
    def num_xy(self) -> int:
        return 2 * (self.n + 1)

    def is_param_index(self, i: int) -> bool:
        return i >= self.num_xy

    def bidegree_of(self, exps: Exponents) -> tuple[int, int]:
        k = self.n + 1
        return (sum(exps[:k]), sum(exps[k:2 * k]))

    # --- element constructors ---

    def zero(self) -> "BiPolynomial":
        return BiPolynomial(self, _canonical={})

    def one(self) -> "BiPolynomial":
        return self.constant(1)

    def constant(self, q: Rational) -> "BiPolynomial":
        q = Fraction(_rational(q, "a constant"))
        if not q:
            return self.zero()
        return BiPolynomial(self, _canonical={(0,) * self.num_vars: q})

    def variable(self, name: str) -> "BiPolynomial":
        i = self.index.get(name)
        if i is None:
            raise UnknownVariableError(name)
        exps = [0] * self.num_vars
        exps[i] = 1
        return BiPolynomial(self, _canonical={tuple(exps): Fraction(1)})

    def parse(self, text: str) -> "BiPolynomial":
        return parse_polynomial(self, text)

    def monomial_text(self, exps: Exponents) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e:
                name = self.names[i]
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


class BiPolynomial:
    """Sparse exact polynomial; treat instances as immutable."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe: VariableUniverse,
                 terms: Mapping[Sequence[int], Rational] = (),
                 *, _canonical: dict[Exponents, Fraction] | None = None):
        self.universe = universe
        if _canonical is not None:
            self.terms = _canonical
            return
        nv = universe.num_vars
        acc: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            e = tuple(int(v) for v in exps)
            if len(e) != nv:
                raise ValueError(f"exponent tuple of length {len(e)}, universe has {nv} variables")
            if any(v < 0 for v in e):
                raise ValueError("exponents must be nonnegative")
            c = acc.get(e, Fraction(0)) + Fraction(_rational(coeff, "a coefficient"))
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
        self.terms = acc

    # --- predicates and views ---

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def terms_sorted(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in canonical order: descending exponent tuple."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def bidegree(self) -> tuple[int, int] | None:
        """The common bidegree, (0, 0) for zero, None if inhomogeneous."""
        degs = {self.universe.bidegree_of(e) for e in self.terms}
        if not degs:
            return (0, 0)
        if len(degs) > 1:
            return None
        return degs.pop()

    # --- arithmetic ---

    def _check(self, other: "BiPolynomial") -> None:
        if other.universe != self.universe:
            raise UniverseMismatchError(
                f"universes differ: {self.universe.names} vs {other.universe.names}")

    def __add__(self, other):
        if _is_rational(other):
            other = self.universe.constant(other)
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return BiPolynomial(self.universe, _canonical=out)

    __radd__ = __add__

    def __neg__(self):
        return BiPolynomial(self.universe, _canonical={e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if _is_rational(other):
            other = self.universe.constant(other)
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_rational(other):
            q = Fraction(other)
            if not q:
                return self.universe.zero()
            return BiPolynomial(self.universe,
                                _canonical={e: c * q for e, c in self.terms.items()})
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = out.get(e)
                if v is None:
                    out[e] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        return BiPolynomial(self.universe, _canonical=out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rational(other):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (1 / q)
        return NotImplemented

    def __eq__(self, other):
        if _is_rational(other):
            other = self.universe.constant(other)
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    __hash__ = None  # mutable-looking container; never used as a dict key

    def __str__(self) -> str:
        return polynomial_text(self)

    def __repr__(self) -> str:
        return f"BiPolynomial({polynomial_text(self)!r})"

    # --- substitution ---

    def substitute(self, assignment: Mapping[str, Rational]) -> "BiPolynomial":
        """Evaluate named variables at rationals.

        Assigned parameter variables disappear from the result's universe;
        assigned x/y variables keep their slots with exponent 0.
        Substituting into an x/y variable may break bihomogeneity; the
        caller can consult bidegree() on the result.

        The evaluation is in integers.  Terms are grouped by their pattern,
        the exponents of the assigned variables; each pattern's value is
        computed once per call as an integer fraction num/den.  Each output
        monomial then sums integer numerators over the common denominator
        lcm(coefficient denominators) * lcm(pattern denominators), and one
        Fraction is built per result term.  Nothing is cached across calls.
        """
        uni = self.universe
        values: dict[int, tuple[int, int]] = {}
        for name, val in assignment.items():
            i = uni.index.get(name)
            if i is None:
                raise UnknownVariableError(name)
            values[i] = _rational(val, f"the value for {name}").as_integer_ratio()
        if not values:
            return self

        params = tuple(p for p in uni.param_names if uni.index[p] not in values)
        target = uni if len(params) == len(uni.param_names) else VariableUniverse(
            uni.n, uni.x_names, uni.y_names, params)
        # Both getters read an exponent tuple padded with one 0 at index nv:
        # assigned x/y slots read it, and it keeps the pattern a tuple even
        # when one variable is assigned.
        nv = uni.num_vars
        output_exps = itemgetter(*(nv if i in values else i for i in range(uni.num_xy)),
                                 *(uni.index[p] for p in params))
        pattern_of = itemgetter(*values, nv)
        scale = lcm(*(c.denominator for c in self.terms.values()))
        groups: dict[Exponents, list[tuple[Exponents, int]]] = {}
        for exps, c in self.terms.items():
            padded = exps + (0,)
            groups.setdefault(pattern_of(padded), []).append(
                (output_exps(padded), c.numerator * (scale // c.denominator)))

        ratios = []
        for pattern, members in groups.items():
            num = den = 1
            for (p, q), e in zip(values.values(), pattern):
                if e:
                    num *= p ** e
                    den *= q ** e
            ratios.append((num, den, members))
        common = lcm(*(den for _, den, _ in ratios))
        sums: dict[Exponents, int] = {}
        for num, den, members in ratios:
            weight = num * (common // den)
            for e, a in members:
                sums[e] = sums.get(e, 0) + a * weight
        total = scale * common
        # v == 0 for a cancelled sum and for a monomial whose patterns all have value 0
        return BiPolynomial(target, _canonical={
            e: Fraction(v, total) for e, v in sums.items() if v})


# --- text format ---

def polynomial_text(f: BiPolynomial) -> str:
    if not f.terms:
        return "0"
    uni = f.universe
    out: list[str] = []
    for e, c in f.terms_sorted():
        neg = c < 0
        mag = -c if neg else c
        mono = uni.monomial_text(e)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def parse_polynomial(universe: VariableUniverse, text: str) -> BiPolynomial:
    """Parse the text format; inverse of str() on canonical output."""
    s = text.rstrip()
    pos = 0
    tokens: list[str] = []
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ParseError(f"unexpected input at position {pos}: {s[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial text")

    nv = universe.num_vars
    acc: dict[Exponents, Fraction] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError("dangling sign at end of input")
        coeff = Fraction(sign)
        exps = [0] * nv
        while True:
            tok = tokens[i]
            if tok in "+-*":
                raise ParseError(f"expected a factor, got {tok!r}")
            if tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ParseError(f"coefficient {tok!r} has a zero denominator") from None
            else:
                name, _, exp_s = tok.partition("^")
                idx = universe.index.get(name)
                if idx is None:
                    raise UnknownVariableError(f"unknown variable {name!r}")
                exps[idx] += int(exp_s) if exp_s else 1
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*' at end of input")
                continue
            break
        e = tuple(exps)
        c = acc.get(e, Fraction(0)) + coeff
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    return BiPolynomial(universe, _canonical=acc)


# --- monomial enumeration ---

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

