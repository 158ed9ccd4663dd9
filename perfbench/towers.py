"""Seeded term towers, written as source text and evaluated independently.

A tower is a tuple of levels applied innermost first to a base variable,
``x`` unless another is named.  Each level is one of

* ``("sin",)``       s -> sin(s)
* ``("add", c)``     s -> s + c
* ``("mul", c)``     s -> s * c
* ``("addx",)``      s -> s + x
* ``("app",)``       s -> f (s)     (second-order towers only)

with ``c`` a non-negative decimal ``Fraction`` of at most three places.
The benchmark hands lamdist only the source text; ``value`` recomputes
the same function with ``math`` so that evaluator output can be checked
against a computation made apart from the program.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def constant(rng: random.Random, lo: float = 0.05, hi: float = 2.0) -> Fraction:
    return Fraction(round(rng.uniform(lo, hi), 3)).limit_denominator(1000)


def sin_add_tower(rng: random.Random, depth: int) -> tuple:
    """Half ``sin`` and half ``add`` levels in seeded order, so the cost of
    a tower depends on its depth and not on the draw."""
    levels = [("sin",)] * (depth // 2) + [("add", None)] * (depth - depth // 2)
    rng.shuffle(levels)
    return tuple(("add", constant(rng)) if lv[0] == "add" else lv
                 for lv in levels)


def mixed_tower(rng: random.Random, depth: int, apps: int = 0) -> tuple:
    """A tower over sin, add, mul and ``+ x``, with ``apps`` applications
    of the function variable ``f`` spread through it."""
    kinds = ["sin", "add", "mul", "addx"]
    levels = [("app",)] * apps
    levels += [(kinds[i % len(kinds)],) for i in range(depth - apps)]
    rng.shuffle(levels)
    out = []
    for lv in levels:
        if lv[0] == "add":
            out.append(("add", constant(rng)))
        elif lv[0] == "mul":
            # keep products near 1 so deep towers stay in a moderate range
            out.append(("mul", constant(rng, 0.5, 1.5)))
        else:
            out.append(lv)
    return tuple(out)


def _lit(c: Fraction) -> str:
    return str(float(c)) if c.denominator != 1 else str(c.numerator)


def body_source(levels: tuple, base: str = "x") -> str:
    s = base
    for lv in levels:
        op = lv[0]
        if op == "sin":
            s = f"sin({s})"
        elif op == "add":
            s = f"({s} + {_lit(lv[1])})"
        elif op == "mul":
            s = f"({s} * {_lit(lv[1])})"
        elif op == "addx":
            s = f"({s} + x)"
        elif op == "app":
            s = f"f ({s})"
        else:
            raise ValueError(f"unknown level {lv!r}")
    return s


def first_order_source(levels: tuple) -> str:
    return r"\x:Real. " + body_source(levels)


def second_order_source(levels: tuple) -> str:
    return r"\f:Real->Real. \x:Real. " + body_source(levels)


def value(levels: tuple, x: float, f=None) -> float:
    """The tower at ``x``, computed with ``math`` (``f`` for ``app``)."""
    s = x
    for lv in levels:
        op = lv[0]
        if op == "sin":
            s = math.sin(s)
        elif op == "add":
            s = s + float(lv[1])
        elif op == "mul":
            s = s * float(lv[1])
        elif op == "addx":
            s = s + x
        elif op == "app":
            s = f(s)
        else:
            raise ValueError(f"unknown level {lv!r}")
    return s
