"""The compositional difference evaluator.

``diff_evaluate`` runs a term into its *difference function*: given
values for the free variables and error bounds on them, it returns a
bound on the output error.  Differences mirror the type structure:

* at ``Real`` a difference is a non-negative float (``math.inf`` allowed),
* at a product, a pair of differences,
* at an arrow, a callable taking an input value and an input difference
  to an output difference.

The clauses: a variable projects its environment entry; a literal has
difference 0; a primitive call takes the deviation modulus of its
evaluated arguments and their differences; an application feeds the
argument's value and difference to the function's difference; a lambda
extends both environments; pairs and projections are componentwise.

The term is compiled once into closures that compute (value, difference)
pairs in one fused pass, the forward-mode "dual number" shape, so no
subterm is evaluated twice and the cost is linear in the term's depth.
Values are computed only where the clauses above use them, the
arguments of primitives and applications; elsewhere the value half of
the pair is ``None``.  A lambda's value is the closure the evaluator
compiles, and its difference runs the fused pass of its body.

A primitive of arity 1 or 2 with an analytic modulus is resolved into
one node at compile time: its value half runs the implementation and
its checks inline, as the evaluator's nodes do, and its difference half
applies ``prim_modulus``'s radius rules inline before calling the
modulus.  Other primitives take their value from ``Registry.checked``
and their difference from ``prim_modulus``.  Runs on floats.  Exact
differences need no mode here: the exact-mode ``evaluate`` of
``derivative_term(t)`` computes them, because the ``_d`` primitives'
exact implementations use ``Primitive.exact_modulus``.
"""

from __future__ import annotations

import math
import operator
from math import inf, isfinite
from typing import Callable, Mapping, Union

from ..prims import (DEFAULT_REGISTRY, Primitive, Registry, bad_radius,
                     nonfinite_result, outside_domain, prim_modulus)
from ..syntax.terms import (App, First, FnType, Lam, Lit, Pair, PairType,
                            PrimOp, RealType, Second, Term, TermTooDeep, Type,
                            Var)
from .eval import Value, compile_value, float_literal, slot

Diff = Union[float, tuple, Callable]

# a compiled term: (value environment, difference environment) to
# (value or None, difference)
DualCode = Callable[[tuple, tuple], tuple]


def diff_evaluate(t: Term, env: Mapping[str, Value] | None = None,
                  denv: Mapping[str, Diff] | None = None, *,
                  registry: Registry = DEFAULT_REGISTRY) -> Diff:
    try:
        code = _compile_dual(t, (), dict(env) if env else {},
                             dict(denv) if denv else {}, registry, False)
        return code((), ())[1]
    except RecursionError:
        raise TermTooDeep("term nested too deeply to evaluate") from None


def _compile_dual(t: Term, scope: tuple[str, ...], free: Mapping[str, Value],
                  dfree: Mapping[str, Diff], registry: Registry,
                  want: bool) -> DualCode:
    """Closures computing ``t``'s (value, difference) pair; the value is
    computed only when ``want`` is set."""
    if isinstance(t, Var):
        i = slot(scope, t.name)
        if i is not None:
            return lambda env, denv: (env[i], denv[i])
        name = t.name
        if want and name not in free:
            def unbound(env, denv):
                raise NameError(f"unbound variable {name!r} at evaluation")
            return unbound
        if name not in dfree:
            def unbound(env, denv):
                raise NameError(f"no difference bound for variable {name!r}")
            return unbound
        pair = (free.get(name), dfree[name])
        return lambda env, denv: pair
    if isinstance(t, Lit):
        pair = (float_literal(t.value), 0.0)
        return lambda env, denv: pair
    if isinstance(t, PrimOp):
        prim = registry.resolve(t.name, len(t.args))
        args = [_compile_dual(a, scope, free, dfree, registry, True)
                for a in t.args]
        if prim.modulus is not None and prim.arity in (1, 2):
            return _prim_node(prim, args, want)
        call = registry.checked(prim.name, prim.arity)

        def primop(env, denv):
            ys, bs = [], []
            for a in args:
                y, b = a(env, denv)
                ys.append(y)
                bs.append(b)
            return (call(*ys) if want else None), prim_modulus(prim, ys, bs)
        return primop
    if isinstance(t, App):
        fn = _compile_dual(t.fn, scope, free, dfree, registry, want)
        arg = _compile_dual(t.arg, scope, free, dfree, registry, True)

        def app(env, denv):
            f, df = fn(env, denv)
            if not callable(df):
                raise TypeError("difference of an applied term is not a "
                                "function; environment shape does not "
                                "match the typing")
            y, b = arg(env, denv)
            return (f(y) if want else None), df(y, b)
        return app
    if isinstance(t, Lam):
        value = compile_value(t, scope, free, registry) if want else None
        body = _compile_dual(t.body, scope + (t.var,), free, dfree, registry,
                             False)

        def lam(env, denv):
            def dclosure(y: Value, b: Diff) -> Diff:
                return body(env + (y,), denv + (b,))[1]
            return (value(env) if want else None), dclosure
        return lam
    if isinstance(t, Pair):
        left = _compile_dual(t.left, scope, free, dfree, registry, want)
        right = _compile_dual(t.right, scope, free, dfree, registry, want)

        def pair(env, denv):
            x, a = left(env, denv)
            x2, a2 = right(env, denv)
            return (x, x2), (a, a2)
        return pair
    if isinstance(t, (First, Second)):
        pair = _compile_dual(t.pair, scope, free, dfree, registry, want)
        k = 0 if isinstance(t, First) else 1

        def project(env, denv):
            x, a = pair(env, denv)
            return (x[k] if want else None), a[k]
        return project
    raise TypeError(f"not a term: {t!r}")


def _prim_node(p: Primitive, args: list[DualCode], want: bool) -> DualCode:
    """A dual node of arity 1 or 2 for a primitive with an analytic
    modulus.  It tests the domain whether or not the value is wanted, as
    ``prim_modulus`` does; its value half runs ``Registry.checked``'s
    other test inline, as the evaluator's nodes do; its difference half
    applies ``prim_modulus``'s radius rules (a negative or NaN radius is
    an error, a zero box gives 0, an infinite radius the oscillation)
    before calling the modulus itself."""
    name, fn, domain, modulus = p.name, p.fn, p.domain, p.modulus
    total, oscillation = p.derived_from is None, p.oscillation
    if len(args) == 1:
        a, = args

        def unary(env, denv):
            x, b = a(env, denv)
            if domain is not None and not domain(x):
                raise outside_domain(name, (x,))
            out = None
            if want:
                out = fn(x)
                if isinstance(out, float) and not isfinite(out):
                    out = nonfinite_result(name, (x,), out, total)
            if not b >= 0:
                raise bad_radius(b)
            if not b:
                return out, 0.0
            if b == inf:
                return out, oscillation
            return out, modulus((x,), (b,))
        return unary
    a, c = args

    def binary(env, denv):
        x, b = a(env, denv)
        y, d = c(env, denv)
        if domain is not None and not domain(x, y):
            raise outside_domain(name, (x, y))
        out = None
        if want:
            out = fn(x, y)
            if isinstance(out, float) and not isfinite(out):
                out = nonfinite_result(name, (x, y), out, total)
        if not b >= 0:
            raise bad_radius(b)
        if not d >= 0:
            raise bad_radius(d)
        if not (b or d):
            return out, 0.0
        if b == inf or d == inf:
            return out, oscillation
        return out, modulus((x, y), (b, d))
    return binary


# --- pointwise structure on differences -------------------------------------

def _lift(ty: Type, op: Callable[..., float]) -> Callable[..., Diff]:
    """``op`` on ``Real`` differences, lifted to ``ty``: componentwise at
    products, pointwise in (value, bound) at arrows.  The type is walked
    once, when the lift is built."""
    if isinstance(ty, RealType):
        return op
    if isinstance(ty, PairType):
        left, right = _lift(ty.left, op), _lift(ty.right, op)
        return lambda *ds: (left(*[d[0] for d in ds]),
                            right(*[d[1] for d in ds]))
    if isinstance(ty, FnType):
        res = _lift(ty.res, op)
        return lambda *ds: lambda value, bound: res(
            *[d(value, bound) for d in ds])
    raise TypeError(f"not a type: {ty!r}")


def _residual(a: float, b: float) -> float:
    if math.isinf(a):
        return 0.0
    return max(b - a, 0.0)


def top_diff(ty: Type) -> Diff:
    """The largest difference: zero bound everywhere (only constant
    functions are this close to themselves)."""
    return _lift(ty, lambda: 0.0)()


def tensor_diff(ty: Type, a: Diff, b: Diff) -> Diff:
    """Pointwise monoid operation (addition at the base)."""
    return _lift(ty, operator.add)(a, b)


def residual_diff(ty: Type, a: Diff, b: Diff) -> Diff:
    """Pointwise residual (truncated subtraction at the base)."""
    return _lift(ty, _residual)(a, b)
