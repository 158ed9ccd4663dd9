"""The set-theoretic evaluator.

Values are plain Python data: floats (or ``Fraction`` in exact mode) at
``Real``, 2-tuples at products, and 1-argument callables at arrows.
Evaluation is call-by-value.

In float mode ``evaluate`` compiles the term once into Python closures
and runs them: bound variables become slots of a tuple environment (a
closure extends it by one slot per application), free variables and
literals become constants converted once, and each primitive is looked
up in the registry, and its arity checked, at compile time.  A
primitive of arity 1 or 2 is resolved into a fused node that calls its
implementation directly and runs ``Registry.checked``'s domain and
finiteness tests inline, so a primitive call is one frame; other
arities call through ``Registry.checked``.  The checks run on every
call, and an unbound variable raises ``NameError`` only when its node
runs, so errors stay as lazy as evaluation itself.  The same compiler
builds the value closures of the fused difference pass in ``diff``.

Exact mode carries ``Fraction`` values: field primitives compute exactly,
transcendentals rationalize their float result, which is deterministic.
It exists so inequalities between evaluated reals can be decided with no
rounding at all.  It runs normalization's evaluator,
``syntax.equality.exact_value``, which is stack-safe on deep terms and
raises the same errors lazily.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Callable, Mapping, Union

from ..prims import (DEFAULT_REGISTRY, EvalDomainError, Primitive, Registry,
                     nonfinite_result, outside_domain)
from ..syntax.equality import exact_value
from ..syntax.terms import (App, First, Lam, Lit, Pair, PrimOp, Second, Term,
                            TermTooDeep, Var)

Value = Union[float, Fraction, tuple, Callable]

# a compiled term: environment tuple (one slot per enclosing binder) to value
Code = Callable[[tuple], Value]


def evaluate(t: Term, env: Mapping[str, Value] | None = None, *,
             registry: Registry = DEFAULT_REGISTRY,
             exact: bool = False) -> Value:
    env = dict(env) if env else {}
    try:
        if exact:
            return exact_value(env, t, registry)
        return compile_value(t, (), env, registry)(())
    except RecursionError:
        raise TermTooDeep("term nested too deeply to evaluate") from None


def slot(scope: tuple[str, ...], name: str) -> int | None:
    """Environment index of the innermost binder of ``name``, if bound."""
    for i in range(len(scope) - 1, -1, -1):
        if scope[i] == name:
            return i
    return None


def float_literal(value: Fraction) -> float:
    """A literal's float.  One beyond the float range is an evaluation
    error, as an infinite result is."""
    try:
        return float(value)
    except OverflowError:
        raise EvalDomainError(
            f"literal {value} is beyond the float range") from None


def compile_value(t: Term, scope: tuple[str, ...], free: Mapping[str, Value],
                  registry: Registry) -> Code:
    """Closures computing ``t``'s value from an environment tuple laid out
    as ``scope``; names outside ``scope`` are read from ``free`` now."""
    if isinstance(t, Var):
        i = slot(scope, t.name)
        if i is not None:
            return lambda env: env[i]
        if t.name in free:
            value = free[t.name]
            return lambda env: value
        name = t.name

        def unbound(env):
            raise NameError(f"unbound variable {name!r} at evaluation")
        return unbound
    if isinstance(t, Lit):
        value = float_literal(t.value)
        return lambda env: value
    if isinstance(t, PrimOp):
        p = registry.resolve(t.name, len(t.args))
        args = [compile_value(a, scope, free, registry) for a in t.args]
        if p.arity not in (1, 2):
            call = registry.checked(p.name, p.arity)
            return lambda env: call(*[a(env) for a in args])
        return _prim_node(p, args)
    if isinstance(t, App):
        fn = compile_value(t.fn, scope, free, registry)
        arg = compile_value(t.arg, scope, free, registry)
        return lambda env: fn(env)(arg(env))
    if isinstance(t, Lam):
        body = compile_value(t.body, scope + (t.var,), free, registry)
        return lambda env: lambda v: body(env + (v,))
    if isinstance(t, Pair):
        left = compile_value(t.left, scope, free, registry)
        right = compile_value(t.right, scope, free, registry)
        return lambda env: (left(env), right(env))
    if isinstance(t, First):
        pair = compile_value(t.pair, scope, free, registry)
        return lambda env: pair(env)[0]
    if isinstance(t, Second):
        pair = compile_value(t.pair, scope, free, registry)
        return lambda env: pair(env)[1]
    raise TypeError(f"not a term: {t!r}")


def _prim_node(p: Primitive, args: list[Code]) -> Code:
    """A node of arity 1 or 2 that calls ``p``'s implementation
    itself and runs ``Registry.checked``'s domain and finiteness tests
    inline, so a primitive call is one frame."""
    name, fn, domain = p.name, p.fn, p.domain
    total = p.derived_from is None
    if len(args) == 1:
        a, = args

        def unary(env):
            x = a(env)
            if domain is not None and not domain(x):
                raise outside_domain(name, (x,))
            out = fn(x)
            if isinstance(out, float) and not isfinite(out):
                out = nonfinite_result(name, (x,), out, total)
            return out
        return unary
    a, b = args

    def binary(env):
        x = a(env)
        y = b(env)
        if domain is not None and not domain(x, y):
            raise outside_domain(name, (x, y))
        out = fn(x, y)
        if isinstance(out, float) and not isfinite(out):
            out = nonfinite_result(name, (x, y), out, total)
        return out
    return binary
