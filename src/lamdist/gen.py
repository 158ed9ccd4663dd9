"""Seeded random generators for well-typed first-order terms.

Used by the property suites (``eqtheory.corpus`` draws its own terms).
Terms are drawn over addition, multiplication, sine and constants, with
literal values kept small so towers of products stay inside double range.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .syntax.terms import Lam, Lit, PrimOp, REAL, Term, Var


def random_literal(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> Lit:
    # three decimals keeps rendering short and parsing exact
    value = Fraction(round(rng.uniform(lo, hi), 3)).limit_denominator(1000)
    return Lit(value)


def random_real_term(rng: random.Random, var_names: tuple[str, ...] = ("x",),
                     depth: int = 4) -> Term:
    """A term of type Real over the given Real-typed variables."""
    if depth <= 0 or rng.random() < 0.25:
        if var_names and rng.random() < 0.65:
            return Var(rng.choice(var_names))
        return random_literal(rng)
    op = rng.choice(("add", "add", "mul", "sin"))
    if op == "sin":
        return PrimOp("sin", (random_real_term(rng, var_names, depth - 1),))
    return PrimOp(op, (random_real_term(rng, var_names, depth - 1),
                       random_real_term(rng, var_names, depth - 1)))


def random_closed_fn_term(rng: random.Random, depth: int = 4) -> Lam:
    """A closed term of type Real -> Real."""
    return Lam("x", REAL, random_real_term(rng, ("x",), depth))
