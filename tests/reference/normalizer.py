"""A reference normalizer for the equational theory, written apart from
lamdist's conversion.

Terms are tuples with de Bruijn indices: ``("var", i)`` is the ``i``-th
enclosing binder, innermost first, the context's entries counting as the
outermost binders; ``("free", name)`` is a name bound nowhere;
``("lit", q)``, ``("prim", name, args)``, ``("app", f, a)``,
``("lam", type, body)``, ``("pair", l, r)``, ``("fst", p)`` and
``("snd", p)`` are the other nodes.  Types are tuples too: ``("Real",)``,
``("->", a, b)`` and ``("*", a, b)``.  Two terms are alpha-equivalent iff
their tuples are equal.

A normal form is beta-normal, with each primitive call folded through
``Registry.call_exact`` exactly when every argument is a literal, and
eta-long at its type.  Beta reduction substitutes the argument's normal
form into the body's; eta expansion follows the type.  Everything here
is plain recursion with no memo: the terms it is given are small.

A call outside its primitive's domain raises wherever normalizing meets
it, in the body of a lambda that is never applied too.  lamdist's
conversion meets fewer: it evaluates a lambda's body only when it
applies it, and stops at the first part of two sides that differs.  So
the two agree on terms whose calls all lie in their domains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from lamdist.syntax.terms import (App, First, FnType, Lam, Lit, Pair,
                                  PairType, PrimOp, RealType, Second, Var)

REAL = ("Real",)


class IllTyped(TypeError):
    """A term that has no type in its context, or a context that binds a
    name twice."""


# --- reading lamdist's terms and types, and writing them back ----------------

def own_type(ty) -> tuple:
    """A lamdist type in the reference's form; one in that form already
    is returned as it is."""
    if isinstance(ty, tuple):
        return ty
    if isinstance(ty, RealType):
        return REAL
    if isinstance(ty, FnType):
        return ("->", own_type(ty.arg), own_type(ty.res))
    if isinstance(ty, PairType):
        return ("*", own_type(ty.left), own_type(ty.right))
    raise TypeError(f"not a type: {ty!r}")


def lamdist_type(ty: tuple):
    if ty == REAL:
        return RealType()
    kind = FnType if ty[0] == "->" else PairType
    return kind(lamdist_type(ty[1]), lamdist_type(ty[2]))


# each node class of two or one children: its tag, and its children's fields
_NODES = {App: ("app", "fn", "arg"), Pair: ("pair", "left", "right"),
          First: ("fst", "pair"), Second: ("snd", "pair")}


def read(t, scope: list, clashes: list | None = None) -> tuple:
    """``t``, a lamdist term, with the names of ``scope`` (outermost
    first) and its own binders read as indices; other names stay free.
    Each binder that reuses a name in scope goes on ``clashes``."""
    if isinstance(t, Var):
        for i, name in enumerate(reversed(scope)):
            if name == t.name:
                return ("var", i)
        return ("free", t.name)
    if isinstance(t, Lit):
        return ("lit", t.value)
    if isinstance(t, PrimOp):
        return ("prim", t.name, tuple(read(a, scope, clashes)
                                      for a in t.args))
    if isinstance(t, Lam):
        if clashes is not None and t.var in scope:
            clashes.append(t.var)
        return ("lam", own_type(t.var_type),
                read(t.body, scope + [t.var], clashes))
    if type(t) in _NODES:
        tag, *fields = _NODES[type(t)]
        return (tag,) + tuple(read(getattr(t, f), scope, clashes)
                              for f in fields)
    raise TypeError(f"not a term: {t!r}")


def write(t: tuple, scope: list, fresh) -> object:
    """The lamdist term of ``t``: index ``i`` names ``scope[-1 - i]``, and
    each binder takes the next name of ``fresh``, in pre-order."""
    tag = t[0]
    if tag == "var":
        return Var(scope[-1 - t[1]])
    if tag == "free":
        return Var(t[1])
    if tag == "lit":
        return Lit(t[1])
    if tag == "prim":
        return PrimOp(t[1], tuple(write(a, scope, fresh) for a in t[2]))
    if tag == "lam":
        x = next(fresh)
        return Lam(x, lamdist_type(t[1]), write(t[2], scope + [x], fresh))
    node = next(cls for cls, (name, *_) in _NODES.items() if name == tag)
    return node(*(write(k, scope, fresh) for k in t[1:]))


# --- typing -----------------------------------------------------------------

def type_of(t: tuple, tys: list, registry) -> tuple:
    """``t``'s type when index ``i`` has type ``tys[-1 - i]``."""
    tag = t[0]
    if tag == "var":
        return tys[-1 - t[1]]
    if tag == "free":
        raise IllTyped(f"unbound variable {t[1]!r}")
    if tag == "lit":
        return REAL
    if tag == "lam":
        return ("->", t[1], type_of(t[2], tys + [t[1]], registry))
    if tag == "prim":
        if t[1] not in registry or registry.arity(t[1]) != len(t[2]):
            raise IllTyped(f"no primitive {t[1]!r} of {len(t[2])} arguments")
        if any(type_of(a, tys, registry) != REAL for a in t[2]):
            raise IllTyped(f"an argument of {t[1]!r} is not at Real")
        return REAL
    if tag == "app":
        f, a = type_of(t[1], tys, registry), type_of(t[2], tys, registry)
        if f[0] != "->" or f[1] != a:
            raise IllTyped("an application does not compose")
        return f[2]
    if tag == "pair":
        return ("*", type_of(t[1], tys, registry),
                type_of(t[2], tys, registry))
    p = type_of(t[1], tys, registry)
    if p[0] != "*":
        raise IllTyped("a projection of no product")
    return p[1] if tag == "fst" else p[2]


def typed(ctx, t, registry) -> tuple[tuple, tuple]:
    """``t`` read in ``ctx``, ``(name, type)`` entries, and its type
    there."""
    names, clashes = [x for x, _ in ctx], []
    db = read(t, names, clashes)
    if clashes or len(set(names)) != len(names):
        raise IllTyped("a name bound twice")
    return db, type_of(db, [own_type(ty) for _, ty in ctx], registry)


# --- normal forms -----------------------------------------------------------

def _kids(t: tuple, walk, depth: int) -> tuple:
    """``t`` with ``walk(kid, depth)`` in place of each child, a lambda's
    body one binder deeper."""
    tag = t[0]
    if tag == "lam":
        return ("lam", t[1], walk(t[2], depth + 1))
    if tag == "prim":
        return ("prim", t[1], tuple(walk(a, depth) for a in t[2]))
    if tag in ("app", "pair", "fst", "snd"):
        return (tag,) + tuple(walk(k, depth) for k in t[1:])
    return t


def shift(t: tuple, by: int, cut: int = 0) -> tuple:
    """``t`` with each index at least ``cut`` raised by ``by``."""
    if t[0] == "var":
        return ("var", t[1] + by) if t[1] >= cut else t
    return _kids(t, lambda k, c: shift(k, by, c), cut)


def instantiate(body: tuple, arg: tuple, depth: int = 0) -> tuple:
    """``body`` with index ``depth`` replaced by ``arg`` and the binder
    removed: beta reduction."""
    if body[0] == "var":
        i = body[1]
        if i == depth:
            return shift(arg, depth)
        return ("var", i - 1) if i > depth else body
    return _kids(body, lambda k, d: instantiate(k, arg, d), depth)


def beta(t: tuple, registry) -> tuple:
    """The beta-normal form of ``t``, primitive calls on literals folded."""
    tag = t[0]
    if tag in ("var", "free", "lit"):
        return t
    if tag == "app":
        f, a = beta(t[1], registry), beta(t[2], registry)
        if f[0] == "lam":
            return beta(instantiate(f[2], a), registry)
        return ("app", f, a)
    if tag in ("fst", "snd"):
        p = beta(t[1], registry)
        if p[0] == "pair":
            return p[1] if tag == "fst" else p[2]
        return (tag, p)
    t = _kids(t, lambda k, d: beta(k, registry), 0)
    if tag == "prim" and all(a[0] == "lit" for a in t[2]):
        return ("lit", Fraction(registry.call_exact(
            t[1], tuple(a[1] for a in t[2]))))
    return t


def eta_long(t: tuple, ty: tuple, tys: list) -> tuple:
    """The eta-long form at ``ty`` of ``t``, beta-normal under ``tys``."""
    if ty[0] == "->":
        body = t[2] if t[0] == "lam" else ("app", shift(t, 1), ("var", 0))
        return ("lam", ty[1], eta_long(body, ty[2], tys + [ty[1]]))
    if ty[0] == "*":
        if t[0] == "pair":
            return ("pair", eta_long(t[1], ty[1], tys),
                    eta_long(t[2], ty[2], tys))
        return ("pair", eta_long(("fst", t), ty[1], tys),
                eta_long(("snd", t), ty[2], tys))
    return t if t[0] == "lit" else _neutral(t, tys)[0]


def _neutral(t: tuple, tys: list) -> tuple[tuple, tuple]:
    """A neutral term with its arguments made eta-long, and its type."""
    tag = t[0]
    if tag == "var":
        return t, tys[-1 - t[1]]
    if tag == "app":
        f, ty = _neutral(t[1], tys)
        return ("app", f, eta_long(t[2], ty[1], tys)), ty[2]
    if tag in ("fst", "snd"):
        p, ty = _neutral(t[1], tys)
        return (tag, p), ty[1] if tag == "fst" else ty[2]
    return ("prim", t[1], tuple(eta_long(a, REAL, tys) for a in t[2])), REAL


def _normal(db: tuple, ty: tuple, ctx, registry) -> tuple:
    return eta_long(beta(db, registry), ty, [own_type(a) for _, a in ctx])


def normal_form(ctx, t, registry) -> object:
    """The normal form of ``t`` in ``ctx`` as a lamdist term, its binders
    named ``v0``, ``v1``, ... in pre-order, skipping each name of ``ctx``
    and each name whose primed partner is in ``ctx``."""
    names = [x for x, _ in ctx]
    fresh = (n for i in count()
             if (n := f"v{i}") not in names and n + "'" not in names)
    return write(_normal(*typed(ctx, t, registry), ctx, registry), names,
                 fresh)


def equal(ctx, t, s, registry) -> bool:
    """Does the theory prove ``t = s``?  Two sides that read as one term
    are equal without normalizing, as lamdist documents: so a side that
    holds a call outside its primitive's domain equals itself."""
    (a, ty), (b, ty_s) = typed(ctx, t, registry), typed(ctx, s, registry)
    if ty != ty_s:
        raise IllTyped("the two sides differ in type")
    return a == b or (_normal(a, ty, ctx, registry)
                      == _normal(b, ty, ctx, registry))
