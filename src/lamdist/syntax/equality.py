"""Deciding the equational theory by type-directed conversion.

``Equality.equal`` compares two terms at their type, as in Coquand, "An
algorithm for type-theoretic conversion with a type-directed conversion
check" (Science of Computer Programming 26, 1996), on an explicit stack
of (type, side, side) items.  A side is a term in an environment, or a
value.  Head beta-redexes, applications whose head is a lambda or a
variable bound to a lambda's value, are contracted by binding their
arguments, without evaluating the body.  At an arrow both sides step
under one fresh neutral variable; at a product their components are
compared; at ``Real`` both are evaluated, literals compare by value and
neutral values structurally, each argument at its type.  Before every
step, two sides are equal if their terms are one object or
alpha-equivalent and both environments bind each free name of the term
to one value object: so a lift's eta-expansion ``\\z. (\\x. B) z`` against
``\\x. B`` costs its spine, and nothing is evaluated.  The
same shortcut accepts a term against itself even when it holds a call
outside its primitive's domain, such as ``div(1, 0)``, which evaluating
would refuse.

The theory's terms have beta-normal eta-long forms with primitive calls
folded exactly when every argument is a literal, folding under binders
included; two terms are equal iff those forms are alpha-equivalent, which
the conversion, lamdist's one equality, decides without building them.
Primitive calls with a neutral argument compare structurally, which is
sound.

The evaluator, ``exact_value``, is lamdist's one evaluator in rational
arithmetic: exact-mode ``evaluate`` runs it on closed values, and only it
calls ``Registry.call_exact``.  It runs on ``terms.fold``: stack-safe.
A lambda's value is a ``Closure`` of the lambda and its environment,
which conversion reads and which applies like a function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from ..prims import DEFAULT_REGISTRY, Registry
from .printer import render_type
from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, Scope, Second, Skip, Term, TermTooDeep,
                    Type, Var, alpha_equal, fold, free_vars, on_overflow,
                    walker)
from .typecheck import TypecheckError, typechecker


# --- semantic domain --------------------------------------------------------
# Values are plain data, as in the evaluator: ``Fraction`` at Real, 2-tuples
# at products and 1-argument callables at arrows, ``Closure`` for a
# lambda's; or neutral.

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


class Closure:
    """A lambda's value: the lambda and the environment it was evaluated
    in.  Applying it evaluates the body with the argument bound."""
    __slots__ = ("env", "lam", "registry")

    def __init__(self, env: Mapping[str, "V"], lam: Lam, registry: Registry):
        self.env, self.lam, self.registry = env, lam, registry

    def __call__(self, v: "V") -> "V":
        return exact_value({**self.env, self.lam.var: v}, self.lam.body,
                           self.registry)


V = Fraction | tuple | Callable[["V"], "V"] | VNeutral
Neutral = NVar | NApp | NProj | NPrim


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
    conversion puts neutral values)."""
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
    return Skip((Closure(env, t, registry),))


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


class Equality:
    """Comparisons that share their typing, as the ``Conv`` nodes of one
    derivation do, and each subterm's free names, which are kept by the
    subterm's identity."""

    def __init__(self, registry: Registry = DEFAULT_REGISTRY):
        self.registry = registry
        self.typed = typechecker(registry)
        self._free: dict = {}  # id of a subterm -> (it, its free names)

    def equal(self, ctx: Context | Scope, t: Term, s: Term) -> bool:
        """Does the theory prove ``t = s`` at their common type?"""
        ty = self.typed(ctx := Scope.of(ctx), t)
        if ty is not (ty_s := self.typed(ctx, s)):
            raise TypecheckError(
                f"cannot compare terms of types {render_type(ty)} "
                f"and {render_type(ty_s)}")
        # each variable is one neutral object, and neutral variables
        # compare by identity
        env = {x: VNeutral(NVar(x), a) for x, a in ctx}
        # evaluating applies a closure within the one applying it
        with on_overflow(TermTooDeep, "term nested too deeply to compare"):
            return self._convertible(ty, (env, t), (env, s))

    def _convertible(self, ty: Type, a, b) -> bool:
        """Are sides ``a`` and ``b`` equal at ``ty``?  A side is
        ``(env, term)``, or ``(None, value)``."""
        todo = [(ty, a, b, True)]  # ..., and whether the shortcut may hold
        while todo:
            ty, a, b, may = todo.pop()
            if ty is None:  # two neutral values, compared structurally
                if not _same_neutral_shape(a, b, todo):
                    return False
                continue
            if may and self._same(a, b):
                continue
            a2, b2 = self._head(a), self._head(b)
            if (a2 is not a or b2 is not b) and self._same(a2, b2):
                continue
            if type(ty) is FnType:
                # the shortcut failed on two lambdas, so it fails on their
                # bodies under one fresh variable: skip its walk there
                may = not all(env is not None and type(t) is Lam
                              for env, t in (a2, b2))
                x = VNeutral(NVar(""), ty.arg)  # compared by identity alone
                todo.append((ty.res, self._applied(a2, x),
                             self._applied(b2, x), may))
            elif type(ty) is PairType:
                (al, ar), (bl, br) = self._split(a2), self._split(b2)
                todo += ((ty.right, ar, br, True), (ty.left, al, bl, True))
            else:  # at Real: literals by value, neutrals structurally
                va, vb = self._value(a2), self._value(b2)
                if type(va) is VNeutral and type(vb) is VNeutral:
                    todo.append((None, va, vb, False))
                elif va != vb:  # a literal is no neutral
                    return False
        return True

    def _same(self, a, b) -> bool:
        """The shortcut: one value object, or one term up to renaming
        whose free names the two environments bind to one value each."""
        (env_a, ta), (env_b, tb) = a, b
        if env_a is None or env_b is None:
            return ta is tb and env_a is env_b
        if ta is not tb and not alpha_equal(ta, tb):
            return False
        return env_a is env_b or all(env_a[x] is env_b[x]
                                     for x in free_vars(ta, self._free))

    def _head(self, side):
        """``side`` with its head redexes contracted: a term side whose
        term is no variable and no redex, or a value side that holds no
        closure; ``side`` itself if it was one."""
        env, t = side
        while True:
            if env is None:
                if type(t) is not Closure:
                    break
                env, t = t.env, t.lam
            elif type(t) is Var:
                env, t = None, env[t.name]
            elif type(t) is App:
                args, head = [], t
                while type(head) is App:
                    args.append(head.arg)
                    head = head.fn
                if type(head) is Var and type(f := env[head.name]) is Closure:
                    env_f, head = f.env, f.lam
                elif type(head) is Lam:
                    env_f = env
                else:
                    break
                env, t = self._bind(env_f, head, [
                    self._value((env, arg)) for arg in reversed(args)])
            else:
                break
        return side if t is side[1] and env is side[0] else (env, t)

    def _bind(self, env, lam: Lam, args: list):
        """The side ``lam`` applied to the values ``args`` in ``env``: its
        binders bound to them, and any more applied to its body's value."""
        env = dict(env)
        for i, v in enumerate(args):
            if type(lam) is not Lam:
                f = exact_value(env, lam, self.registry)
                for v in args[i:]:
                    f = _apply(f, v)
                return None, f
            env[lam.var] = v
            lam = lam.body
        return env, lam

    def _value(self, side) -> V:
        env, t = side
        if env is None:
            return t
        return env[t.name] if type(t) is Var else exact_value(
            env, t, self.registry)

    def _applied(self, side, x: VNeutral):
        """The side ``side`` applied to ``x``: a lambda's body with ``x``
        bound, or the value applied."""
        env, t = side
        if env is not None and type(t) is not Lam:
            env, t = None, exact_value(env, t, self.registry)
        if env is None and type(t) is Closure:
            env, t = t.env, t.lam
        if env is None:
            return None, _apply(t, x)
        return {**env, t.var: x}, t.body

    def _split(self, side):
        """The two components of the side ``side``, at a product."""
        env, t = side
        if env is not None and type(t) is Pair:
            return (env, t.left), (env, t.right)
        p = self._value(side)
        return (None, _project(p, True)), (None, _project(p, False))


def _same_neutral_shape(a: VNeutral, b: VNeutral, todo: list) -> bool:
    """Do ``a`` and ``b`` agree at their heads?  Their parts left to
    compare go on ``todo``, the spine last, so that it is compared first."""
    if a is b:
        return True
    na, nb = a.ne, b.ne
    if type(na) is not type(nb) or type(na) is NVar:
        return False  # a neutral variable is one object
    if type(na) is NApp:
        todo += ((na.fn.ty.arg, (None, na.arg), (None, nb.arg), True),
                 (None, na.fn, nb.fn, False))
    elif type(na) is NProj:
        if na.first is not nb.first:
            return False
        todo.append((None, na.pair, nb.pair, False))
    else:  # an NPrim
        if na.name != nb.name or len(na.args) != len(nb.args):
            return False
        todo += ((REAL, (None, x), (None, y), True)
                 for x, y in zip(reversed(na.args), reversed(nb.args)))
    return True


def term_equal(ctx: Context, t: Term, s: Term,
               registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Does the equational theory prove ``t = s`` at their common type?"""
    return Equality(registry).equal(ctx, t, s)
