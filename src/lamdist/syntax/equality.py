"""Deciding the equational theory by normalization.

Terms are evaluated into a semantic domain and read back type-directed,
which yields beta-normal eta-long forms (functions are lambdas, products
are pairs) with primitive applications folded to literals exactly when
every argument is a literal — folding under binders included, but never
for partially-literal calls.  Readback names binders canonically, so two
terms are equal in the theory iff their normal forms are structurally
identical.  On terms whose primitive calls stay open the comparison
degrades to syntactic equality of normal forms, which is sound.

``Equality.equal`` is the one comparison: a session types through one
``typechecker`` and normalizes each (context, term) once, and
``term_equal`` compares in a fresh session.

The evaluator, ``exact_value``, is lamdist's one evaluator in rational
arithmetic: exact-mode ``evaluate`` runs it on closed values, and only it
calls ``Registry.call_exact``.  It runs on ``terms.fold``: stack-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Mapping

from ..prims import DEFAULT_REGISTRY, Registry
from .printer import render_type
from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, RealType, Second, Skip, Term, TermTooDeep,
                    Type, Var, fold, free_vars, walker)
from .typecheck import TypecheckError, typecheck, typechecker


# --- semantic domain --------------------------------------------------------
# Values are plain data, as in the evaluator: ``Fraction`` at Real, 2-tuples
# at products and 1-argument callables at arrows; or neutral.

@dataclass(frozen=True)
class VNeutral:
    ne: "Neutral"
    ty: Type


@dataclass(frozen=True)
class NVar:
    name: str


@dataclass(frozen=True)
class NApp:
    fn: VNeutral  # of function type
    arg: "V"


@dataclass(frozen=True)
class NProj:
    pair: VNeutral
    first: bool  # or second


@dataclass(frozen=True)
class NPrim:
    name: str
    args: tuple["V", ...]


V = Fraction | tuple | Callable[["V"], "V"] | VNeutral
Neutral = NVar | NApp | NProj | NPrim
_Fresh = Callable[[], str]  # the next canonical binder name


def _apply(f: V, a: V) -> V:
    if isinstance(f, VNeutral) and isinstance(f.ty, FnType):
        return VNeutral(NApp(f, a), f.ty.res)
    if callable(f):
        return f(a)
    raise TypeError(f"cannot apply {f!r}")


def _project(p: V, first: bool) -> V:
    if isinstance(p, tuple):
        return p[0] if first else p[1]
    if isinstance(p, VNeutral) and isinstance(p.ty, PairType):
        return VNeutral(NProj(p, first), p.ty.left if first else p.ty.right)
    raise TypeError(f"cannot project {p!r}")


def _prim(name: str, args: tuple[V, ...], registry: Registry) -> V:
    if any(isinstance(a, VNeutral) for a in args):
        return VNeutral(NPrim(name, args), REAL)
    return Fraction(registry.call_exact(name, args))


def exact_value(env: Mapping[str, V], t: Term, registry: Registry) -> V:
    """``t``'s value, with its free names read from ``env`` (where
    ``normalize`` puts neutral values)."""
    return fold(t, _EVAL, (env, registry))


def _lookup(state, t: Var, vs) -> V:
    try:
        return state[0][t.name]
    except KeyError:
        raise NameError(
            f"unbound variable {t.name!r} at evaluation") from None


def _closure(state, t: Lam) -> Skip:
    """A lambda's value: its body is evaluated when it is applied."""
    env, registry = state
    return Skip((lambda v: exact_value({**env, t.var: v}, t.body, registry),))


_EVAL = walker({
    Var: _lookup,
    Lit: lambda state, t, vs: t.value,
    App: lambda state, t, vs: _apply(*vs),
    PrimOp: lambda state, t, vs: _prim(t.name, tuple(vs), state[1]),
    Pair: lambda state, t, vs: tuple(vs),
    First: lambda state, t, vs: _project(vs[0], True),
    Second: lambda state, t, vs: _project(vs[0], False),
    Lam: None,  # never reached: ``_closure`` skips the body
}, {Lam: _closure})


def _readback(v: V, ty: Type, fresh: _Fresh, registry: Registry) -> Term:
    if isinstance(ty, FnType):
        x = fresh()
        body = _readback(_apply(v, VNeutral(NVar(x), ty.arg)), ty.res,
                         fresh, registry)
        return Lam(x, ty.arg, body)
    if isinstance(ty, PairType):
        return Pair(_readback(_project(v, True), ty.left, fresh, registry),
                    _readback(_project(v, False), ty.right, fresh, registry))
    if isinstance(ty, RealType):
        if isinstance(v, Fraction):
            return Lit(v)
        if isinstance(v, VNeutral):
            return _readback_neutral(v.ne, fresh, registry)
    raise TypeError(f"cannot read back {v!r} at {render_type(ty)}")


def _readback_neutral(ne: Neutral, fresh: _Fresh, registry: Registry) -> Term:
    if isinstance(ne, NVar):
        return Var(ne.name)
    if isinstance(ne, NApp):  # ``_apply`` builds one only at an arrow
        return App(_readback_neutral(ne.fn.ne, fresh, registry),
                   _readback(ne.arg, ne.fn.ty.arg, fresh, registry))
    if isinstance(ne, NProj):
        side = First if ne.first else Second
        return side(_readback_neutral(ne.pair.ne, fresh, registry))
    return PrimOp(ne.name,  # an NPrim
                  tuple(_readback(a, REAL, fresh, registry) for a in ne.args))


def normalize(ctx: Context, t: Term, ty: Type | None = None,
              registry: Registry = DEFAULT_REGISTRY) -> Term:
    """Beta-normal eta-long constant-folded form with canonical binder names."""
    if ty is None:
        ty = typecheck(ctx, t, registry)
    env = {x: VNeutral(NVar(x), a) for x, a in ctx}
    avoid = frozenset(env) | free_vars(t)
    # binder names v0, v1, ... that clash with no name in sight
    fresh = (n for i in count()
             if (n := f"v{i}") not in avoid and n + "'" not in avoid).__next__
    try:
        return _readback(exact_value(env, t, registry), ty, fresh, registry)
    except RecursionError:
        raise TermTooDeep("normal form too deep to read back") from None


class Equality:
    """Comparisons that share their typing and normal forms, as the
    ``Conv`` nodes of one derivation do.  Normal forms are kept by context
    and term identity, so every term given must stay alive while the
    session is used."""

    def __init__(self, registry: Registry = DEFAULT_REGISTRY):
        self.registry = registry
        self.typed = typechecker(registry)
        self._normal: dict = {}  # (context, id of a term) -> normal form

    def equal(self, ctx: Context, t: Term, s: Term) -> bool:
        """Does the theory prove ``t = s`` at their common type?"""
        ty = self.typed(ctx, t)
        if ty != (ty_s := self.typed(ctx, s)):
            raise TypecheckError(
                f"cannot compare terms of types {render_type(ty)} "
                f"and {render_type(ty_s)}")
        return self._normal_form(ctx, t, ty) == self._normal_form(ctx, s, ty)

    def _normal_form(self, ctx: Context, t: Term, ty: Type) -> Term:
        if (n := self._normal.get(key := (ctx, id(t)))) is None:
            n = self._normal[key] = normalize(ctx, t, ty, self.registry)
        return n


def term_equal(ctx: Context, t: Term, s: Term,
               registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Does the equational theory prove ``t = s`` at their common type?"""
    return Equality(registry).equal(ctx, t, s)
