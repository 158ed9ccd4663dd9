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

Every primitive call is resolved into one node at compile time, made by
the evaluator's ``fuse``: it reads its literal, free-variable and
bound-variable arguments itself (a literal's difference is 0), its
value half runs the implementation and its checks inline, as the
evaluator's nodes do, and its difference half applies
``prim_modulus``'s radius rules inline before calling the modulus.  A
primitive without an analytic modulus, the derived ``_d`` primitives
among them, has its interval enclosure as the modulus
(``prims.box_modulus``).  Runs on floats.  Exact differences need no
mode here: the exact-mode ``evaluate`` of ``derivative_term(t)``
computes them, because the ``_d`` primitives' exact implementations use
``Primitive.exact_modulus``.
"""

from __future__ import annotations

import math
import operator
from math import inf, isfinite
from typing import Callable, Mapping, Union

from ..prims import (DEFAULT_REGISTRY, Primitive, Registry, bad_radius,
                     box_modulus, nonfinite_result, outside_domain)
from ..syntax.terms import (App, First, FnType, Lam, Lit, Pair, PairType,
                            PrimOp, RealType, Second, Term, TermTooDeep, Type,
                            Var)
from .eval import (CALL, CONST, SLOT, Value, compile_value, float_literal,
                   fuse, slot)

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
    leaf = _leaf(t, scope, free, dfree, want)
    if leaf is not None:
        kind, x = leaf
        if kind == SLOT:
            return lambda env, denv: (env[x], denv[x])
        return lambda env, denv: x
    if isinstance(t, Var):
        name = t.name
        if want and name not in free:
            def unbound(env, denv):
                raise NameError(f"unbound variable {name!r} at evaluation")
            return unbound

        def unbound(env, denv):
            raise NameError(f"no difference bound for variable {name!r}")
        return unbound
    if isinstance(t, PrimOp):
        prim = registry.resolve(t.name, len(t.args))
        return _prim_node(prim, [
            _leaf(a, scope, free, dfree, True)
            or (CALL, _compile_dual(a, scope, free, dfree, registry, True))
            for a in t.args], want)
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


def _leaf(t: Term, scope: tuple[str, ...], free: Mapping[str, Value],
          dfree: Mapping[str, Diff], want: bool) -> tuple[int, object] | None:
    """``t`` as an argument a node reads itself: a bound variable's slot,
    or the (value, difference) pair of a literal (difference 0) or of a
    free variable (its value only when ``want`` is set) as a constant.
    None for any other term, an unbound variable among them."""
    if isinstance(t, Var):
        i = slot(scope, t.name)
        if i is not None:
            return SLOT, i
        name = t.name
        if (name in free or not want) and name in dfree:
            return CONST, (free.get(name), dfree[name])
    elif isinstance(t, Lit):
        return CONST, (float_literal(t.value), 0.0)
    return None


_READS = ("x{k}, b{k} = a{k}(env, denv)",
          "x{k} = env[a{k}]\n    b{k} = denv[a{k}]",
          "x{k}, b{k} = a{k}")

_PRIM_NODE = """\
def node(env, denv):
    {reads}
    if domain is not None and not domain({xs}):
        raise outside_domain(name, ({xs}))
    out = None
    if want:
        out = fn({xs})
        if isinstance(out, float) and not isfinite(out):
            out = nonfinite_result(name, ({xs}), out, total)
    {radii}
    if not ({nonzero}):
        return out, 0.0
    if {infinite}:
        return out, oscillation
    return out, modulus(({xs}), ({bs}))
"""


def _prim_node(p: Primitive, args: list[tuple[int, object]],
               want: bool) -> DualCode:
    """A dual node that reads its leaf arguments itself and computes what
    ``Registry.call_float`` and ``prim_modulus`` compute, with their tests
    inline.  It tests the domain whether or not the value is wanted, as
    ``prim_modulus`` does; its value half runs ``call_float``'s other
    test, as the evaluator's nodes do; its difference half applies
    ``prim_modulus``'s radius rules (a negative or NaN radius is an
    error, a zero box gives 0, an infinite radius the oscillation) before
    calling ``box_modulus(p)``: the analytic modulus, or else the
    interval enclosure."""
    return fuse(_PRIM_NODE, _READS, args, name=p.name, fn=p.fn,
                domain=p.domain, modulus=box_modulus(p),
                total=p.derived_from is None, oscillation=p.oscillation,
                want=want, outside_domain=outside_domain,
                nonfinite_result=nonfinite_result, bad_radius=bad_radius,
                isfinite=isfinite, inf=inf)


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
