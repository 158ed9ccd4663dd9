"""The derivative transforms on types and terms.

``partial_type`` sends a type to the type of its difference values:
differences at ``Real`` are again reals, differences between functions
take the input *and* the input difference.  ``derivative_term`` is the
corresponding syntactic transform: the derivative of a term computes how
output differences depend on input differences, with each primitive call
replaced by its modulus primitive applied to the original arguments and
their derivatives.
"""

from __future__ import annotations

import weakref

from ..prims import DEFAULT_REGISTRY, Registry
from .terms import (App, Context, FnType, Lam, Lit, PairType, PrimOp,
                    REBUILD, RealType, Scope, Skip, Term, Type, Var,
                    all_var_names, dotted, fold, is_dotted, type_walker,
                    walker)
from .typecheck import typecheck


class DottedVariableClash(ValueError):
    """The input mentions primed variables the transform would introduce."""


def partial_type(ty: Type) -> Type:
    """The type of ``ty``'s differences, kept on ``ty`` by a weak
    reference: a partial type may have ``ty`` as a part, and a strong one
    would then make a reference cycle."""
    if isinstance(ty, Type) and (p := ty._partial and ty._partial()):
        return p
    return fold(ty, _PARTIAL_TYPE)


def _kept(ty: Type, partial: Type) -> Type:
    object.__setattr__(ty, "_partial", weakref.ref(partial))
    return partial


def _known(state, ty: Type):
    return Skip((p,)) if (p := ty._partial and ty._partial()) else ty


_PARTIAL_TYPE = type_walker({
    RealType: lambda state, ty, kids: _kept(ty, ty),
    FnType: lambda state, ty, kids: _kept(ty, FnType(ty.arg, FnType(*kids))),
    PairType: lambda state, ty, kids: _kept(ty, PairType(*kids)),
}, dict.fromkeys((FnType, PairType), _known))


def partial_context(ctx: Context) -> Context:
    return tuple((dotted(x), partial_type(ty)) for x, ty in ctx)


def doubled(scope: Scope) -> Scope:
    """``scope`` with each variable followed by its primed partner at its
    partial type, the order ``Abs`` binds them in.  Each scope keeps its
    doubled scope, so doubling a chain of scopes is linear in its depth;
    but a scope of one entry does not, as its doubled scope extends it
    and keeping that would make a reference cycle."""
    todo = []
    while scope._doubled is None:
        todo.append(scope)
        scope = scope.parent
    out = scope._doubled
    for scope in reversed(todo):
        x, ty = scope.entry
        out = out.enter(x, ty).enter(dotted(x), partial_type(ty))
        if out.parent is not scope:
            scope._doubled = out
    return out


def derivative_term(ctx: Context, t: Term,
                    registry: Registry = DEFAULT_REGISTRY) -> Term:
    """The derivative of ``t``; typed in the doubled context
    ``ctx + partial_context(ctx)`` at ``partial_type`` of ``t``'s type.

    Refuses terms or contexts that already mention primed variables: the
    transform introduces the primed partner of every variable in sight,
    and renaming silently would change which differences the result
    refers to.
    """
    typecheck(ctx, t, registry)
    mentioned = set(all_var_names(t)) | {x for x, _ in ctx}
    primed = sorted(n for n in mentioned if is_dotted(n))
    if primed:
        raise DottedVariableClash(
            f"cannot differentiate: primed variable(s) {primed} already occur")
    return fold(t, _D, registry)


_D = walker({
    **REBUILD,
    Var: lambda registry, t, kids: Var(dotted(t.name)),
    Lit: lambda registry, t, kids: Lit(0),
    PrimOp: lambda registry, t, kids: PrimOp(
        registry.derivative(t.name).name, t.args + tuple(kids)),
    App: lambda registry, t, kids: App(App(kids[0], t.arg), kids[1]),
    Lam: lambda registry, t, kids: Lam(
        t.var, t.var_type,
        Lam(dotted(t.var), partial_type(t.var_type), kids[0])),
})
