"""Exact arithmetic in the extended non-negative reals [0, +inf].

This is the standard home of metric distances, with the *reversed* order:
smaller numbers sit higher in the lattice, so top = 0, bottom = +inf, the
monoid operation is addition, and the residual is truncated subtraction.
Finite values are carried as exact rationals so that law checking never
sees rounding artifacts; ``float`` interop is explicit via ``float()``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .qrel import Tables

RationalLike = Union[int, float, str, Fraction, "ExtReal"]


class ExtReal:
    """An element of [0, +inf]. Immutable and hashable."""

    __slots__ = ("_num",)

    def __init__(self, value: RationalLike = 0):
        if isinstance(value, ExtReal):
            self._num = value._num
            return
        if isinstance(value, float):
            if math.isnan(value):
                raise ValueError("NaN is not an element of [0, +inf]")
            if math.isinf(value):
                if value < 0:
                    raise ValueError(
                        "negative infinity is not an element of [0, +inf]")
                self._num = None
                return
            value = Fraction(value)
        elif isinstance(value, str):
            if value in ("inf", "+inf", "infinity"):
                self._num = None
                return
            value = Fraction(value)
        else:
            value = Fraction(value)
        if value < 0:
            raise ValueError(f"{value} is negative")
        self._num = value

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    @property
    def numerator_value(self) -> Fraction:
        if self._num is None:
            raise ValueError("infinite value has no rational representation")
        return self._num

    def __float__(self) -> float:
        return math.inf if self._num is None else float(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._num == other._num

    def __hash__(self):
        return hash((ExtReal, self._num))

    # Numeric comparisons (NOT the quantale order; see ``leq``); Python
    # answers ``>=`` and ``>`` with these, reflected.
    def __le__(self, other: "ExtReal") -> bool:
        if self._num is None:
            return other._num is None
        if other._num is None:
            return True
        return self._num <= other._num

    def __lt__(self, other: "ExtReal") -> bool:
        return self <= other and self != other

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if self._num is None or other._num is None:
            return INFINITY
        return ExtReal(self._num + other._num)

    def __repr__(self):
        return f"ExtReal({'inf' if self._num is None else str(self._num)})"

    def __str__(self):
        return "inf" if self._num is None else str(self._num)


ZERO = ExtReal(0)
INFINITY = ExtReal(math.inf)


def tensor(a: ExtReal, b: ExtReal) -> ExtReal:
    """Monoid operation: addition, with +inf absorbing."""
    return a + b


def residual(a: ExtReal, b: ExtReal) -> ExtReal:
    """The residual a -> b: the largest (in lattice order) z with z + a above b.

    Numerically this is truncated subtraction max(b - a, 0).  The infinite
    cases are forced by the join formula: inf -> b = 0 for every b (any z
    works, and the join is the numeric infimum), and a -> inf = inf for
    finite a (only z = inf works).
    """
    if a.is_infinite:
        return ZERO
    if b.is_infinite:
        return INFINITY
    diff = b.numerator_value - a.numerator_value
    return ExtReal(diff) if diff > 0 else ZERO


def leq(a: ExtReal, b: ExtReal) -> bool:
    """Lattice order: a below b iff a >= b numerically."""
    return b <= a


def join(values: Iterable[ExtReal]) -> ExtReal:
    """Least upper bound: the numeric infimum; empty join is bottom (+inf)."""
    out = INFINITY
    for v in values:
        if v < out:
            out = v
    return out


def meet(values: Iterable[ExtReal]) -> ExtReal:
    """Greatest lower bound: the numeric supremum; empty meet is top (0)."""
    out = ZERO
    for v in values:
        if v > out:
            out = v
    return out


class _Table:
    """A lazy table: ``table[a]`` is a row view and ``table[a][b]`` calls
    ``fn(a, b)``, so the exact arithmetic is never tabulated."""

    __slots__ = ("fn", "a")

    def __init__(self, fn, a=None):
        self.fn, self.a = fn, a

    def __getitem__(self, key):
        return _Table(self.fn, key) if self.a is None else self.fn(self.a, key)


class LawvereOps:
    """The [0, +inf] quantale behind the interface it shares with finite
    quantales: ``tables`` holds leq, tensor, join, meet and residual as
    lazy ``table[a][b]`` views over this module's exact functions, plus
    top; ``unit``, ``top``, ``bottom`` and ``coerce`` complete it."""

    name = "lawvere"
    unit = ZERO
    top = ZERO
    bottom = INFINITY
    tables = Tables(_Table(leq), _Table(tensor),
                    _Table(lambda a, b: join((a, b))),
                    _Table(lambda a, b: meet((a, b))),
                    _Table(residual), ZERO)

    @staticmethod
    def coerce(value: RationalLike) -> ExtReal:
        return ExtReal(value)


LAWVERE = LawvereOps()
