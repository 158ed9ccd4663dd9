"""Type synthesis for the calculus: fully annotated lambdas make every
term's type unique when it exists."""

from __future__ import annotations

from ..prims import DEFAULT_REGISTRY, Registry
from .printer import render_term, render_type
from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, Scope, Second, Skip, Term, Type, Var, fold,
                    walker)


class TypecheckError(TypeError):
    def __init__(self, message: str, term: Term | None = None):
        if term is not None:
            message = f"{message} in {render_term(term)}"
        super().__init__(message)


def typecheck(ctx: Context, t: Term,
              registry: Registry = DEFAULT_REGISTRY) -> Type:
    """``t``'s type in ``ctx``: ``typechecker(registry)(ctx, t)``."""
    return typechecker(registry)(ctx, t)


def typechecker(registry: Registry = DEFAULT_REGISTRY):
    """A function ``typed(ctx, t)``, the one typing walk, that keeps each
    (scope, subterm) pair's type over all its calls, so calls that restate
    shared subterms, as the subjects of one derivation do, type each once.
    A scope is the interned ``Scope`` of the context's entries and then
    the binders entered: entering a binder costs the same at any depth,
    ``ctx + ((x, a),)`` is the scope the binder ``x:a`` opens in ``ctx``,
    and a call in a scope met before costs the same at any depth too.  The
    :func:`fold` memo keeps each pair's subterm alive, and its type or its
    error, the first one a recursive walk meets, which each call raises."""
    memo: dict = {}   # (id of a scope, id of a subterm) -> (it, type or error)
    known: dict = {}  # id -> each scope met that binds no name twice
    arity: dict = {}  # of the primitives met

    def typed(ctx: Context | Scope, t: Term) -> Type:
        if id(scope := Scope.of(ctx)) not in known:
            names = [n for n, _ in scope]
            if len(set(names)) != len(names):
                raise TypecheckError(f"duplicate names in context: {names}")
            known[id(scope)] = scope
        # the names in scope, the registry, the arities, the scopes entered
        # (innermost last), the known scopes, and the context while its
        # names are not yet in the first
        state = [{}, registry, arity, [scope], known,
                 scope if scope.depth else None]
        ty = fold(t, _TYPED, state, memo, lambda s: (id(state[3][-1]), id(s)))
        if type(ty) is _Error:
            raise TypecheckError(*ty)
        return ty
    return typed


def _names(state) -> dict:
    """The names in scope, with the context's, which are entered on the
    first lookup: a walk that meets no free name costs the same at any
    depth."""
    if state[5] is not None:
        state[0].update(state[5])
        state[5] = None
    return state[0]


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
        if ty is not REAL:
            return _fail(ty, t, "primitive argument has type {}, expected Real")
    return REAL


def _app(state, t: App, tys):
    fn_ty, arg_ty = tys
    if type(fn_ty) is not FnType:
        return _fail(fn_ty, t, "application of non-function of type {}")
    if arg_ty is not fn_ty.arg:
        return _fail(arg_ty, t, "argument has type {}, expected {}",
                     fn_ty.arg)
    return fn_ty.res


def _enter(state, t: Lam):
    names = _names(state)
    if t.var in names:  # checked before the body, which is not walked
        return Skip(((f"binder {t.var!r} shadows a variable in scope", t),))
    names[t.var] = t.var_type
    scope = state[3][-1].enter(t.var, t.var_type)
    state[4][id(scope)] = scope  # binds no name twice, as its parent
    state[3].append(scope)
    return t


def _lam(state, t: Lam, tys):
    del state[0][t.var]
    state[3].pop()
    return tys[0] if type(tys[0]) is _Error else FnType(t.var_type, tys[0])


def _project(state, t, tys):
    if type(ty := tys[0]) is PairType:
        return ty.left if type(t) is First else ty.right
    return _fail(ty, t, "projection of non-product of type {}")


_TYPED = walker({
    Var: lambda state, t, tys: (_names(state).get(t.name)
                                or (f"unbound variable {t.name!r}", None)),
    Lit: lambda state, t, tys: REAL,
    PrimOp: _prim, App: _app, Lam: _lam, First: _project, Second: _project,
    Pair: lambda state, t, tys: next(
        (ty for ty in tys if type(ty) is _Error), None) or PairType(*tys),
}, {Lam: _enter})
