"""Difference triples and their cartesian-closed combinators.

A triple bundles two value-level functions with a difference function
``diff(x, b)`` bounding how far ``fwd`` and ``bwd`` can drift apart when
the input moves by at most ``b`` from ``x``.  Composition chains the
difference functions through the first stage's value map; the usual
product/exponential combinators (tupling, projections, currying,
evaluation) all act pointwise, mirroring the structure the difference
evaluator interprets terms into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diff import Diff
from .eval import Value


@dataclass(frozen=True)
class DiffTriple:
    fwd: Callable[[Value], Value]
    diff: Callable[[Value, Diff], Diff]
    bwd: Callable[[Value], Value]


def identity_triple() -> DiffTriple:
    return DiffTriple(lambda x: x, lambda x, b: b, lambda x: x)


def compose_triples(first: DiffTriple, second: DiffTriple) -> DiffTriple:
    """first ; second (diagrammatic order: ``second`` consumes the output
    of ``first``)."""
    return DiffTriple(
        fwd=lambda x: second.fwd(first.fwd(x)),
        diff=lambda x, b: second.diff(first.fwd(x), first.diff(x, b)),
        bwd=lambda x: second.bwd(first.bwd(x)))


def pair_triples(left: DiffTriple, right: DiffTriple) -> DiffTriple:
    """Tupling into a product target."""
    return DiffTriple(
        fwd=lambda z: (left.fwd(z), right.fwd(z)),
        diff=lambda z, c: (left.diff(z, c), right.diff(z, c)),
        bwd=lambda z: (left.bwd(z), right.bwd(z)))


def proj1_triple() -> DiffTriple:
    return DiffTriple(lambda p: p[0], lambda p, c: c[0], lambda p: p[0])


def proj2_triple() -> DiffTriple:
    return DiffTriple(lambda p: p[1], lambda p, c: c[1], lambda p: p[1])


def curry_triple(m: DiffTriple) -> DiffTriple:
    """Curry a triple out of a product source: the difference of the
    curried map takes the frozen component's difference first, then the
    argument's value and difference."""
    return DiffTriple(
        fwd=lambda z: (lambda x: m.fwd((z, x))),
        diff=lambda z, c: (lambda x, b: m.diff((z, x), (c, b))),
        bwd=lambda z: (lambda x: m.bwd((z, x))))


def eval_triple() -> DiffTriple:
    """Evaluation out of (function, argument) pairs; its difference feeds
    the argument pair into the function difference."""
    return DiffTriple(
        fwd=lambda fx: fx[0](fx[1]),
        diff=lambda fx, ab: ab[0](fx[1], ab[1]),
        bwd=lambda fx: fx[0](fx[1]))


def element_triple(x: Value, a: Diff, x2: Value) -> DiffTriple:
    """A member triple as a global element (a triple out of the one-point
    space, whose sole difference is ignored)."""
    return DiffTriple(lambda _: x, lambda _, __: a, lambda _: x2)


def apply_member_triple(fn_triple: tuple[Value, Diff, Value],
                        arg_triple: tuple[Value, Diff, Value]
                        ) -> tuple[Value, Diff, Value]:
    """Apply a member triple at an arrow type to a member triple at its
    domain: (f, a, f2) applied to (x, b, x2) is (f x, a x b, f2 x2)."""
    f, a, f2 = fn_triple
    x, b, x2 = arg_triple
    return (f(x), a(x, b), f2(x2))
