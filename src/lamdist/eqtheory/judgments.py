"""Distance judgments and the derivation checker.

A judgment relates two terms of a type through a distance term typed at
the difference type in the doubled context (the original variables plus
their primed partners).  Derivations are explicit trees tagged with one
of eleven rules; the checker validates every node locally:

* ``Lit``: literal subjects, with the side condition |r - r2| <= s
  decided on exact rationals;
* ``Prim``: congruence through a primitive, the distance being the
  modulus primitive applied to the left arguments and the argument
  distances;
* ``Var``: a variable is at distance "its primed partner" from itself;
* ``TransReal`` / ``QuasiReflReal``: triangle and self-distance steps,
  stated at ``Real`` only (the lifts to other types are derived
  transforms, see :mod:`lamdist.eqtheory.synthesis`);
* ``Abs``/``App``/``Fst``/``Snd``/``Pair``: congruence rules; the
  abstraction rule binds the variable first and its primed partner
  second, matching the difference-type layout;
* ``Conv``: replaces all three components by provably equal terms, the
  equalities being discharged by normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..prims import DEFAULT_REGISTRY, Registry, derived_name
from ..syntax.derivative import partial_context, partial_type
from ..syntax.equality import term_equal
from ..syntax.printer import render_term, render_type
from ..syntax.terms import (App, Context, First, FnType, Lam, Lit, Pair,
                            PairType, PrimOp, REAL, Second, Term, Type, Var,
                            alpha_equal, dotted, is_dotted)
from ..syntax.typecheck import TypecheckError, typecheck

RULES = ("Lit", "Prim", "Var", "TransReal", "QuasiReflReal", "Abs", "App",
         "Fst", "Snd", "Pair", "Conv")


@dataclass(frozen=True)
class DistanceJudgment:
    ctx: Context
    left: Term
    dist: Term
    right: Term
    ty: Type

    @property
    def dist_ctx(self) -> Context:
        return self.ctx + partial_context(self.ctx)

    def render(self) -> str:
        ctx = ", ".join(f"{x}:{render_type(t)}" for x, t in self.ctx)
        return (f"{ctx} |- ({render_term(self.left)}, "
                f"{render_term(self.dist)}, {render_term(self.right)}) "
                f": {render_type(self.ty)}")


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: DistanceJudgment
    premises: tuple["Derivation", ...] = ()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    message: str = ""

    def __bool__(self):
        return self.ok


def check_derivation(d: Derivation,
                     registry: Registry = DEFAULT_REGISTRY) -> CheckResult:
    """Validate every node; on failure reports the path (child indices
    from the root) of the first invalid node in preorder."""
    todo = [(d, ())]
    while todo:
        node, path = todo.pop()
        msg = _check_node(node, registry)
        if msg is not None:
            return CheckResult(False, path, msg)
        todo.extend((p, path + (i,))
                    for i, p in reversed(tuple(enumerate(node.premises))))
    return CheckResult(True)


def _judgment_shape(j: DistanceJudgment, registry) -> Optional[str]:
    for name, _ in j.ctx:
        if is_dotted(name):
            return f"context binds primed variable {name!r}"
    try:
        lt = typecheck(j.ctx, j.left, registry)
        rt = typecheck(j.ctx, j.right, registry)
        dt = typecheck(j.dist_ctx, j.dist, registry)
    except TypecheckError as e:
        return f"ill-typed judgment: {e}"
    if lt != j.ty:
        return f"left subject has type {render_type(lt)}, not {render_type(j.ty)}"
    if rt != j.ty:
        return f"right subject has type {render_type(rt)}, not {render_type(j.ty)}"
    want = partial_type(j.ty)
    if dt != want:
        return (f"distance has type {render_type(dt)}, "
                f"expected {render_type(want)}")
    return None


def _check_node(d: Derivation, registry) -> Optional[str]:
    if d.rule not in RULES:
        return f"unknown rule {d.rule!r}"
    j = d.conclusion
    shape = _judgment_shape(j, registry)
    if shape is not None:
        return shape
    for p in d.premises:
        if d.rule != "Abs" and p.conclusion.ctx != j.ctx:
            return "premise context differs from conclusion context"

    if d.rule == "Lit":
        if d.premises:
            return "Lit takes no premises"
        if not (isinstance(j.left, Lit) and isinstance(j.dist, Lit)
                and isinstance(j.right, Lit)):
            return "Lit subjects must be literals"
        if abs(j.left.value - j.right.value) > j.dist.value:
            return (f"|{render_term(j.left)} - {render_term(j.right)}| "
                    f"exceeds {render_term(j.dist)}")
        return None

    if d.rule == "Var":
        if d.premises:
            return "Var takes no premises"
        if not (isinstance(j.left, Var) and isinstance(j.right, Var)
                and isinstance(j.dist, Var)):
            return "Var subjects must be variables"
        if j.left.name != j.right.name:
            return "Var relates a variable to itself"
        if j.dist.name != dotted(j.left.name):
            return "Var distance must be the primed partner"
        return None

    if d.rule == "Prim":
        if not (isinstance(j.left, PrimOp) and isinstance(j.right, PrimOp)
                and isinstance(j.dist, PrimOp)):
            return "Prim subjects must be primitive applications"
        name = j.left.name
        if j.right.name != name:
            return "Prim subjects use different primitives"
        if j.dist.name != derived_name(name):
            return f"Prim distance must use {derived_name(name)!r}"
        n = registry.arity(name)
        if len(d.premises) != n:
            return f"Prim over {name!r} needs {n} premises"
        for i, p in enumerate(d.premises):
            pj = p.conclusion
            if pj.ty != REAL:
                return f"premise {i} is not at Real"
            if not (alpha_equal(pj.left, j.left.args[i])
                    and alpha_equal(pj.right, j.right.args[i])
                    and alpha_equal(pj.dist, j.dist.args[n + i])
                    and alpha_equal(pj.left, j.dist.args[i])):
                return f"premise {i} does not match the conclusion arguments"
        return None

    if d.rule == "TransReal":
        if j.ty != REAL:
            return "TransReal is stated at Real only"
        if len(d.premises) != 2:
            return "TransReal takes two premises"
        p1, p2 = (p.conclusion for p in d.premises)
        if p1.ty != REAL or p2.ty != REAL:
            return "TransReal premises must be at Real"
        if not alpha_equal(p1.right, p2.left):
            return "premises do not share the middle subject"
        if not (alpha_equal(j.left, p1.left) and alpha_equal(j.right, p2.right)):
            return "conclusion subjects do not match the premises"
        want = PrimOp("add", (p1.dist, p2.dist))
        if not alpha_equal(j.dist, want):
            return "conclusion distance must be the sum of the premise distances"
        return None

    if d.rule == "QuasiReflReal":
        if j.ty != REAL:
            return "QuasiReflReal is stated at Real only"
        if len(d.premises) != 1:
            return "QuasiReflReal takes one premise"
        p = d.premises[0].conclusion
        if p.ty != REAL:
            return "premise must be at Real"
        if not (alpha_equal(j.left, p.left) and alpha_equal(j.right, p.left)
                and alpha_equal(j.dist, p.dist)):
            return "conclusion must relate the premise's left subject to itself"
        return None

    if d.rule == "Abs":
        if not isinstance(j.ty, FnType):
            return "Abs concludes at a function type"
        if len(d.premises) != 1:
            return "Abs takes one premise"
        p = d.premises[0].conclusion
        if len(p.ctx) != len(j.ctx) + 1 or p.ctx[:len(j.ctx)] != j.ctx:
            return "premise context must extend the conclusion context"
        x, x_ty = p.ctx[-1]
        if x_ty != j.ty.arg:
            return "bound variable type does not match the function type"
        if p.ty != j.ty.res:
            return "premise type does not match the function result"
        want_left = Lam(x, x_ty, p.left)
        want_right = Lam(x, x_ty, p.right)
        want_dist = Lam(x, x_ty, Lam(dotted(x), partial_type(x_ty), p.dist))
        if not (alpha_equal(j.left, want_left)
                and alpha_equal(j.right, want_right)):
            return "conclusion subjects must abstract the premise subjects"
        if not alpha_equal(j.dist, want_dist):
            return ("conclusion distance must abstract the variable and "
                    "then its primed partner")
        return None

    if d.rule == "App":
        if len(d.premises) != 2:
            return "App takes two premises"
        pf, pa = (p.conclusion for p in d.premises)
        if not isinstance(pf.ty, FnType):
            return "first premise must be at a function type"
        if pa.ty != pf.ty.arg or j.ty != pf.ty.res:
            return "premise types do not compose"
        if not (alpha_equal(j.left, App(pf.left, pa.left))
                and alpha_equal(j.right, App(pf.right, pa.right))):
            return "conclusion subjects must be the applications"
        want_dist = App(App(pf.dist, pa.left), pa.dist)
        if not alpha_equal(j.dist, want_dist):
            return ("conclusion distance must apply the function distance "
                    "to the left argument and the argument distance")
        return None

    if d.rule in ("Fst", "Snd"):
        if len(d.premises) != 1:
            return f"{d.rule} takes one premise"
        p = d.premises[0].conclusion
        if not isinstance(p.ty, PairType):
            return "premise must be at a product type"
        side = First if d.rule == "Fst" else Second
        want_ty = p.ty.left if d.rule == "Fst" else p.ty.right
        if j.ty != want_ty:
            return "conclusion type does not match the projected component"
        if not (alpha_equal(j.left, side(p.left))
                and alpha_equal(j.dist, side(p.dist))
                and alpha_equal(j.right, side(p.right))):
            return "conclusion must project all three premise components"
        return None

    if d.rule == "Pair":
        if len(d.premises) != 2:
            return "Pair takes two premises"
        p1, p2 = (p.conclusion for p in d.premises)
        if j.ty != PairType(p1.ty, p2.ty):
            return "conclusion type must pair the premise types"
        if not (alpha_equal(j.left, Pair(p1.left, p2.left))
                and alpha_equal(j.dist, Pair(p1.dist, p2.dist))
                and alpha_equal(j.right, Pair(p1.right, p2.right))):
            return "conclusion must pair the premise components"
        return None

    if d.rule == "Conv":
        if len(d.premises) != 1:
            return "Conv takes one premise"
        p = d.premises[0].conclusion
        if p.ty != j.ty:
            return "Conv cannot change the type"
        try:
            if not term_equal(j.ctx, p.left, j.left, registry):
                return "left subjects are not provably equal"
            if not term_equal(j.ctx, p.right, j.right, registry):
                return "right subjects are not provably equal"
            if not term_equal(j.dist_ctx, p.dist, j.dist, registry):
                return "distances are not provably equal"
        except TypecheckError as e:
            return f"conversion certificate ill-typed: {e}"
        return None

    raise AssertionError(f"unhandled rule {d.rule}")
