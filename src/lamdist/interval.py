"""Minimal outward-rounded interval arithmetic.

Used as the fallback when a primitive has no registered analytic modulus:
running the primitive's implementation on intervals yields a sound
enclosure of its range over the error box, hence a numerically-larger
(sound) deviation bound.  Endpoints are widened by one ulp after every
operation so rounding can only grow the enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _down(x: float) -> float:
    return x if math.isinf(x) else math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return x if math.isinf(x) else math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def around(x: float, radius: float) -> "Interval":
        if math.isinf(radius):
            return Interval(-math.inf, math.inf)
        return Interval(_down(x - radius), _up(x + radius))

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(float(other))

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        corners = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        corners = [0.0 if math.isnan(c) else c for c in corners]  # 0 * inf
        return Interval(_down(min(corners)), _up(max(corners)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            return Interval(-math.inf, math.inf)
        corners = [self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi]
        return Interval(_down(min(corners)), _up(max(corners)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

