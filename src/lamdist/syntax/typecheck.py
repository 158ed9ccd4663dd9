"""Type synthesis for the calculus: fully annotated lambdas make every
term's type unique when it exists."""

from __future__ import annotations

from ..prims import DEFAULT_REGISTRY, Registry
from .printer import render_term, render_type
from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, Second, Skip, Term, Type, Var, fold, walker)


class TypecheckError(TypeError):
    def __init__(self, message: str, term: Term | None = None):
        if term is not None:
            message = f"{message} in {render_term(term)}"
        super().__init__(message)


def typecheck(ctx: Context, t: Term,
              registry: Registry = DEFAULT_REGISTRY) -> Type:
    _check_names(ctx)
    # the binders in scope, the registry, the arities of primitives met
    ty = fold(t, _SYNTH, (dict(ctx), registry, {}))
    if type(ty) is _Error:
        raise TypecheckError(*ty)
    return ty


def typechecker(registry: Registry = DEFAULT_REGISTRY):
    """A function that does what ``typecheck(ctx, t, registry)`` does, and
    types each (scope, subterm) pair once over all its calls: a subterm's
    type is kept under the set of bindings in scope and the subterm's
    identity.  Every term it is given must stay alive while it is used, so
    that no identity is reused.  A one-off ``typecheck`` is faster: the
    memo pays where calls restate shared subterms, as the subjects of one
    derivation do."""
    memo: dict = {}
    arity: dict = {}

    def typed(ctx: Context, t: Term) -> Type:
        _check_names(ctx)
        scope = dict(ctx)
        ty = fold(t, _SYNTH_ONCE, (scope, registry, arity,
                                   [frozenset(scope.items())], memo))
        if type(ty) is _Error:
            raise TypecheckError(*ty)
        return ty
    return typed


def _check_names(ctx: Context):
    names = [n for n, _ in ctx]
    if len(set(names)) != len(names):
        raise TypecheckError(f"duplicate names in context: {names}")


# A type error is a value, (message, term).  A node passes on the first
# error of its children, in order, unless a check of its own comes first,
# so the error raised is the first one a recursive walk meets.
_Error = tuple


def _fail(ty, t: Term, message: str, *types: Type):
    """``ty`` if it is an error, else ``message`` about ``ty`` at ``t``."""
    if type(ty) is _Error:
        return ty
    return message.format(*map(render_type, (ty, *types))), t


def _prim(state, t: PrimOp, tys):
    arity = state[2]
    if (want := arity.get(t.name)) is None:  # checked before the arguments
        if t.name not in (registry := state[1]):
            return f"unknown primitive {t.name!r}", t
        want = arity[t.name] = registry.arity(t.name)
    if len(t.args) != want:
        return (f"primitive {t.name!r} takes {want} argument(s), "
                f"got {len(t.args)}", t)
    for ty in tys:
        if ty is not REAL and ty != REAL:
            return _fail(ty, t, "primitive argument has type {}, expected Real")
    return REAL


def _app(state, t: App, tys):
    fn_ty, arg_ty = tys
    if type(fn_ty) is not FnType:
        return _fail(fn_ty, t, "application of non-function of type {}")
    if arg_ty != fn_ty.arg:
        return _fail(arg_ty, t, "argument has type {}, expected {}",
                     fn_ty.arg)
    return fn_ty.res


def _enter(state, t: Lam):
    if t.var in state[0]:  # checked before the body, which is not walked
        return Skip(((f"binder {t.var!r} shadows a variable in scope", t),))
    state[0][t.var] = t.var_type
    return t


def _lam(state, t: Lam, tys):
    del state[0][t.var]
    return tys[0] if type(tys[0]) is _Error else FnType(t.var_type, tys[0])


def _project(state, t, tys):
    if type(ty := tys[0]) is PairType:
        return ty.left if type(t) is First else ty.right
    return _fail(ty, t, "projection of non-product of type {}")


_HOOKS = {
    Var: lambda state, t, tys: (state[0].get(t.name)
                                or (f"unbound variable {t.name!r}", None)),
    Lit: lambda state, t, tys: REAL,
    PrimOp: _prim, App: _app, Lam: _lam, First: _project, Second: _project,
    Pair: lambda state, t, tys: next(
        (ty for ty in tys if type(ty) is _Error), None) or PairType(*tys),
}
_SYNTH = walker(_HOOKS, {Lam: _enter})


# ``typechecker``'s walk: ``_SYNTH``'s hooks, with the state extended by
# the scope keys (the scope's bindings as a set, innermost last) and the
# memo of types by (scope key, id of the subterm).  Only types are kept;
# an error is found again, so each call raises what ``typecheck`` would.
# Leaves are cheaper to type than to look up.

def _seen(state, t):
    ty = state[4].get((state[3][-1], id(t)))
    return t if ty is None else Skip((ty,))


def _enter_once(state, t: Lam):
    if (ty := state[4].get((state[3][-1], id(t)))) is not None:
        return Skip((ty,))
    if type(t := _enter(state, t)) is not Skip:
        state[3].append(frozenset(state[0].items()))
    return t


def _kept(combine, leave: bool = False):
    def keep(state, t, tys):
        if leave:
            state[3].pop()
        ty = combine(state, t, tys)
        if type(ty) is not _Error:
            state[4][state[3][-1], id(t)] = ty
        return ty
    return keep


_SYNTH_ONCE = walker({
    **_HOOKS, **{cls: _kept(_HOOKS[cls])
                 for cls in (PrimOp, App, First, Second, Pair)},
    Lam: _kept(_lam, leave=True),
}, {**dict.fromkeys((PrimOp, App, First, Second, Pair), _seen),
    Lam: _enter_once})
