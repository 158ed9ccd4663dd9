"""Pointwise addition at every type, as a closed term."""

from __future__ import annotations

from ..syntax.terms import (App, First, FnType, Lam, Pair, PairType, PrimOp,
                            RealType, Second, Term, Type, Var, fold,
                            type_walker)


def add_term(ty: Type) -> Term:
    """``add`` lifted to ``ty``: real addition at the base, pointwise at
    arrows, componentwise at products."""
    if not isinstance(ty, Type):
        raise TypeError(f"not a type: {ty!r}")
    return fold(ty, _ADD, [])


def _sum(depths: list, ty: Type, kids) -> Term:
    """``\\p{k}:ty. \\q{k}:ty.`` their sum, from the sums at the component
    types, ``k`` being the depth of ``ty`` that the ``pre`` hook pushed."""
    p, q = Var(f"p{(k := depths.pop())}"), Var(f"q{k}")
    if isinstance(ty, FnType):  # kids[0], the sum at the argument, unused
        z = Var(f"z{k}")
        body = Lam(z.name, ty.arg, App(App(kids[1], App(p, z)), App(q, z)))
    elif isinstance(ty, PairType):
        body = Pair(App(App(kids[0], First(p)), First(q)),
                    App(App(kids[1], Second(p)), Second(q)))
    else:
        body = PrimOp("add", (p, q))
    return Lam(p.name, ty, Lam(q.name, ty, body))


_KINDS = (RealType, FnType, PairType)
_ADD = type_walker(dict.fromkeys(_KINDS, _sum), dict.fromkeys(
    _KINDS, lambda depths, ty: depths.append(len(depths)) or ty))
