"""Rendering terms and types back to the concrete syntax.

``parse_term(render_term(t))`` is alpha-structurally the identity for
terms whose literals have terminating decimal expansions (all literals
produced by parsing or by float conversion do); other rationals render
as a parenthesized division, which re-parses up to constant folding.
"""

from __future__ import annotations

from fractions import Fraction

from .terms import (App, First, FnType, Lam, Lit, Pair, PairType, PrimOp,
                    RealType, Second, Term, Type, Var, fold, type_walker,
                    walker)

_INFIX = {"add": ("+", 1), "sub": ("-", 1), "mul": ("*", 2), "div": ("/", 2)}

_LAM, _SUM, _PROD, _APP, _ATOM = 0, 1, 2, 3, 4


def render_type(ty: Type) -> str:
    return fold(ty, _RENDER_TYPE)


def _wrap(text: str, wrap: bool) -> str:
    return f"({text})" if wrap else text


# arrows associate to the right and products to the left; an arrow inside
# either is parenthesized, as is a product to the right of a product
_RENDER_TYPE = type_walker({
    RealType: lambda state, ty, kids: "Real",
    FnType: lambda state, ty, kids: (
        f"{_wrap(kids[0], isinstance(ty.arg, FnType))} -> {kids[1]}"),
    PairType: lambda state, ty, kids: (
        f"{_wrap(kids[0], isinstance(ty.left, FnType))} * "
        f"{_wrap(kids[1], isinstance(ty.right, (FnType, PairType)))}"),
})


def render_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        s = str(q.numerator)
        return f"({s})" if q < 0 else s
    d = q.denominator
    k2 = k5 = 0
    while d % 2 == 0:
        d //= 2
        k2 += 1
    while d % 5 == 0:
        d //= 5
        k5 += 1
    if d != 1:
        return f"({q.numerator}/{q.denominator})"
    k = max(k2, k5)
    scaled = abs(q.numerator) * 10 ** k // q.denominator
    digits = str(scaled).rjust(k + 1, "0")
    body = f"{digits[:-k]}.{digits[-k:]}"
    return f"(-{body})" if q < 0 else body


def render_term(t: Term) -> str:
    return fold(t, _RENDER)[0]


# Each node renders to (text, level); a parent parenthesizes a child whose
# level is below the one its position needs.
def _at(rendered: tuple[str, int], level: int) -> str:
    text, own = rendered
    return f"({text})" if own < level else text


def _prim(state, t: PrimOp, args) -> tuple[str, int]:
    if t.name in _INFIX and len(args) == 2:
        sym, level = _INFIX[t.name]
        # left operand at the operator level, right one step tighter: both
        # chains are left associative
        return f"{_at(args[0], level)} {sym} {_at(args[1], level + 1)}", level
    if t.name == "neg" and len(args) == 1:
        return f"-{_at(args[0], _APP)}", _PROD
    return f"{t.name}({', '.join(_at(a, _LAM) for a in args)})", _ATOM


_RENDER = walker({
    Var: lambda state, t, kids: (t.name, _ATOM),
    Lit: lambda state, t, kids: (render_fraction(t.value), _ATOM),
    Lam: lambda state, t, kids: (f"\\{t.var}:{render_type(t.var_type)}. "
                                 f"{kids[0][0]}", _LAM),
    App: lambda state, t, kids: (f"{_at(kids[0], _APP)} "
                                 f"{_at(kids[1], _ATOM)}", _APP),
    Pair: lambda state, t, kids: (f"({kids[0][0]}, {kids[1][0]})", _ATOM),
    First: lambda state, t, kids: (f"fst({kids[0][0]})", _ATOM),
    Second: lambda state, t, kids: (f"snd({kids[0][0]})", _ATOM),
    PrimOp: _prim,
})
