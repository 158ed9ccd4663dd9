"""Deciding the equational theory by normalization.

Terms are evaluated into a semantic domain and read back type-directed,
which yields beta-normal eta-long forms (functions are lambdas, products
are pairs) with primitive applications folded to literals exactly when
every argument is a literal — folding under binders included, but never
for partially-literal calls.  Readback names binders canonically, so two
terms are equal in the theory iff their normal forms are structurally
identical.  On terms whose primitive calls stay open the comparison
degrades to syntactic equality of normal forms, which is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..prims import DEFAULT_REGISTRY, Registry
from .printer import render_type
from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, RealType, Second, Term, Type, Var,
                    free_vars)
from .typecheck import TypecheckError, typecheck


# --- semantic domain --------------------------------------------------------

@dataclass(frozen=True)
class VLit:
    value: Fraction


@dataclass(frozen=True)
class VPair:
    left: "V"
    right: "V"


@dataclass(frozen=True)
class VFun:
    fn: Callable[["V"], "V"]


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
class NFst:
    pair: VNeutral


@dataclass(frozen=True)
class NSnd:
    pair: VNeutral


@dataclass(frozen=True)
class NPrim:
    name: str
    args: tuple["V", ...]


V = VLit | VPair | VFun | VNeutral
Neutral = NVar | NApp | NFst | NSnd | NPrim


def _apply(f: V, a: V) -> V:
    if isinstance(f, VFun):
        return f.fn(a)
    if isinstance(f, VNeutral) and isinstance(f.ty, FnType):
        return VNeutral(NApp(f, a), f.ty.res)
    raise TypeError(f"cannot apply {f!r}")


def _fst(p: V) -> V:
    if isinstance(p, VPair):
        return p.left
    if isinstance(p, VNeutral) and isinstance(p.ty, PairType):
        return VNeutral(NFst(p), p.ty.left)
    raise TypeError(f"cannot project {p!r}")


def _snd(p: V) -> V:
    if isinstance(p, VPair):
        return p.right
    if isinstance(p, VNeutral) and isinstance(p.ty, PairType):
        return VNeutral(NSnd(p), p.ty.right)
    raise TypeError(f"cannot project {p!r}")


def _prim(name: str, args: tuple[V, ...], registry: Registry) -> V:
    if all(isinstance(a, VLit) for a in args):
        folded = registry.call_exact(name, [a.value for a in args])
        return VLit(Fraction(folded))
    return VNeutral(NPrim(name, args), REAL)


def _eval(env: dict[str, V], t: Term, registry: Registry) -> V:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Lit):
        return VLit(t.value)
    if isinstance(t, Lam):
        return VFun(lambda v, _env=env: _eval({**_env, t.var: v}, t.body, registry))
    if isinstance(t, App):
        return _apply(_eval(env, t.fn, registry), _eval(env, t.arg, registry))
    if isinstance(t, PrimOp):
        return _prim(t.name, tuple(_eval(env, a, registry) for a in t.args),
                     registry)
    if isinstance(t, Pair):
        return VPair(_eval(env, t.left, registry), _eval(env, t.right, registry))
    if isinstance(t, First):
        return _fst(_eval(env, t.pair, registry))
    if isinstance(t, Second):
        return _snd(_eval(env, t.pair, registry))
    raise TypeError(f"not a term: {t!r}")


class _Fresh:
    def __init__(self, avoid: frozenset[str]):
        self.avoid = avoid
        self.counter = 0

    def __call__(self) -> str:
        while True:
            name = f"v{self.counter}"
            self.counter += 1
            if name not in self.avoid and name + "'" not in self.avoid:
                return name


def _readback(v: V, ty: Type, fresh: _Fresh, registry: Registry) -> Term:
    if isinstance(ty, FnType):
        x = fresh()
        body = _readback(_apply(v, VNeutral(NVar(x), ty.arg)), ty.res,
                         fresh, registry)
        return Lam(x, ty.arg, body)
    if isinstance(ty, PairType):
        return Pair(_readback(_fst(v), ty.left, fresh, registry),
                    _readback(_snd(v), ty.right, fresh, registry))
    if isinstance(ty, RealType):
        if isinstance(v, VLit):
            return Lit(v.value)
        if isinstance(v, VNeutral):
            return _readback_neutral(v.ne, fresh, registry)
    raise TypeError(f"cannot read back {v!r} at {render_type(ty)}")


def _readback_neutral(ne: Neutral, fresh: _Fresh, registry: Registry) -> Term:
    if isinstance(ne, NVar):
        return Var(ne.name)
    if isinstance(ne, NApp):
        fn_ty = ne.fn.ty
        if not isinstance(fn_ty, FnType):
            raise TypeError(f"applied neutral at {render_type(fn_ty)}")
        return App(_readback_neutral(ne.fn.ne, fresh, registry),
                   _readback(ne.arg, fn_ty.arg, fresh, registry))
    if isinstance(ne, NFst):
        return First(_readback_neutral(ne.pair.ne, fresh, registry))
    if isinstance(ne, NSnd):
        return Second(_readback_neutral(ne.pair.ne, fresh, registry))
    if isinstance(ne, NPrim):
        return PrimOp(ne.name,
                      tuple(_readback(a, REAL, fresh, registry) for a in ne.args))
    raise TypeError(f"not a neutral: {ne!r}")


def normalize(ctx: Context, t: Term, ty: Type | None = None,
              registry: Registry = DEFAULT_REGISTRY) -> Term:
    """Beta-normal eta-long constant-folded form with canonical binder names."""
    if ty is None:
        ty = typecheck(ctx, t, registry)
    env = {x: VNeutral(NVar(x), a) for x, a in ctx}
    avoid = frozenset(env) | free_vars(t)
    return _readback(_eval(env, t, registry), ty, _Fresh(avoid), registry)


def term_equal(ctx: Context, t: Term, s: Term,
               registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Does the equational theory prove ``t = s`` at their common type?"""
    ty_t = typecheck(ctx, t, registry)
    ty_s = typecheck(ctx, s, registry)
    if ty_t != ty_s:
        raise TypecheckError(
            f"cannot compare terms of types {render_type(ty_t)} "
            f"and {render_type(ty_s)}")
    return (normalize(ctx, t, ty_t, registry)
            == normalize(ctx, s, ty_s, registry))
