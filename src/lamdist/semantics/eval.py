"""The set-theoretic evaluator.

Values are plain Python data: floats (or ``Fraction`` in exact mode) at
``Real``, 2-tuples at products, and 1-argument callables at arrows.
Evaluation is call-by-value.

In float mode ``evaluate`` compiles the term once into Python closures
and runs them: bound variables become slots of a tuple environment (a
closure extends it by one slot per application), free variables and
literals become constants converted once, and each primitive is looked
up in the registry, and its arity checked, at compile time.  Every
primitive call, whatever its arity, is resolved into a fused node that
reads its literal, free-variable and bound-variable arguments itself,
calls the implementation directly and runs ``Registry.call_float``'s
domain and finiteness tests inline, so a primitive call is one frame and
a leaf argument none.  The checks run on every call, and an unbound
variable raises ``NameError`` only when its node runs, so errors stay as
lazy as evaluation itself.  The same compiler builds the value closures
of the fused difference pass in ``diff``, whose nodes are made by the
same ``fuse``.

Exact mode carries ``Fraction`` values: field primitives compute exactly,
transcendentals rationalize their float result, which is deterministic.
It exists so inequalities between evaluated reals can be decided with no
rounding at all.  It runs normalization's evaluator,
``syntax.equality.exact_value``, which is stack-safe on deep terms and
raises the same errors lazily.
"""

from __future__ import annotations

import functools
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

# How a fused node reads an argument: it calls the argument's compiled
# code, reads a bound variable's slot, or holds a constant resolved at
# compile time.  An argument is a (kind, code or slot or constant) pair.
CALL, SLOT, CONST = range(3)


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
    leaf = _leaf(t, scope, free)
    if leaf is not None:
        kind, x = leaf
        if kind == SLOT:
            return lambda env: env[x]
        return lambda env: x
    if isinstance(t, Var):
        name = t.name

        def unbound(env):
            raise NameError(f"unbound variable {name!r} at evaluation")
        return unbound
    if isinstance(t, PrimOp):
        p = registry.resolve(t.name, len(t.args))
        return _prim_node(p, [_leaf(a, scope, free)
                              or (CALL, compile_value(a, scope, free, registry))
                              for a in t.args])
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


def _leaf(t: Term, scope: tuple[str, ...],
          free: Mapping[str, Value]) -> tuple[int, object] | None:
    """``t`` as an argument a node reads itself: a bound variable's slot,
    or a literal's or a free variable's value as a constant.  None for
    any other term, an unbound variable among them."""
    if isinstance(t, Var):
        i = slot(scope, t.name)
        if i is not None:
            return SLOT, i
        if t.name in free:
            return CONST, free[t.name]
    elif isinstance(t, Lit):
        return CONST, float_literal(t.value)
    return None


def fuse(template: str, reads: tuple[str, str, str],
         args: list[tuple[int, object]], **cells) -> Callable:
    """The fused node over ``args``: the function ``node`` that
    ``template`` defines.  Its placeholders are filled from the arity:
    ``{reads}`` with one read per argument, written ``reads[kind]`` with
    ``a{k}`` naming argument k's code, slot or constant; ``{xs}`` and
    ``{bs}`` with the lists ``x0, x1, ...`` and ``b0, b1, ...``, each item
    followed by a comma, so they make a call's arguments or, in
    parentheses, a tuple; ``{radii}`` with a test of each radius
    ``b{k}`` that raises ``bad_radius(b{k})`` unless it is >= 0;
    ``{nonzero}`` with a test that some radius is nonzero; and
    ``{infinite}`` with a test that some radius is infinite.  The
    arguments and ``cells`` are the node's closure variables.  The source
    is compiled once per template, reads and argument kinds, so making a
    node costs one closure, as a hand-written node does, and a leaf
    argument costs no call when the node runs.  One template stands for
    every arity and every mix of argument kinds."""
    kinds = tuple(kind for kind, _ in args)
    make = _node_maker(template, reads, kinds, tuple(cells))
    return make(*[x for _, x in args], **cells)


@functools.cache
def _node_maker(template: str, reads: tuple[str, str, str],
                kinds: tuple[int, ...], names: tuple[str, ...]) -> Callable:
    ks = range(len(kinds))
    body = template.format(
        reads="\n    ".join([reads[kind].format(k=k)
                              for k, kind in enumerate(kinds)]),
        xs="".join([f"x{k}, " for k in ks]),
        bs="".join([f"b{k}, " for k in ks]),
        radii="\n    ".join([f"if not b{k} >= 0:\n        "
                              f"raise bad_radius(b{k})" for k in ks]),
        nonzero=" or ".join([f"b{k}" for k in ks]) or "False",
        infinite=" or ".join([f"b{k} == inf" for k in ks]) or "False")
    params = ", ".join([f"a{k}" for k in ks] + list(names))
    source = "".join([f"def make({params}):\n"]
                     + [f"    {line}\n" for line in body.splitlines()]
                     + ["    return node\n"])
    namespace: dict = {}
    exec(compile(source, "<fused node>", "exec"), {}, namespace)
    return namespace["make"]


_READS = ("x{k} = a{k}(env)", "x{k} = env[a{k}]", "x{k} = a{k}")

_PRIM_NODE = """\
def node(env):
    {reads}
    if domain is not None and not domain({xs}):
        raise outside_domain(name, ({xs}))
    out = fn({xs})
    if isinstance(out, float) and not isfinite(out):
        out = nonfinite_result(name, ({xs}), out, total)
    return out
"""


def _prim_node(p: Primitive, args: list[tuple[int, object]]) -> Code:
    """A node that reads its leaf arguments itself, calls ``p``'s
    implementation and runs ``Registry.call_float``'s domain and
    finiteness tests inline, so a primitive call is one frame."""
    return fuse(_PRIM_NODE, _READS, args, name=p.name, fn=p.fn,
                domain=p.domain, total=p.derived_from is None,
                outside_domain=outside_domain,
                nonfinite_result=nonfinite_result, isfinite=isfinite)
