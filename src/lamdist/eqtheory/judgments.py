"""Distance judgments, the rules that derive them, and the checker.

A judgment relates two terms of a type through a distance term typed at
the difference type in the doubled context (the original variables plus
their primed partners).  Derivations are explicit trees tagged with one
of eleven rules.

``CONCLUSIONS`` states once what the congruence, triangle and
self-distance rules conclude from their premises' conclusions, and
:func:`derive` builds the node a rule forces.  The synthesizer, the
lifts to other types and the random corpus build these nodes through
it, and the checker compares each stated conclusion with it:

* ``Prim``: congruence through a primitive, the distance being the
  modulus primitive applied to the left arguments and the argument
  distances;
* ``TransReal`` / ``QuasiReflReal``: triangle and self-distance steps,
  stated at ``Real`` only (the lifts to other types are derived
  transforms, see :mod:`lamdist.eqtheory.synthesis`);
* ``Abs``/``App``/``Fst``/``Snd``/``Pair``: congruence rules; the
  abstraction rule binds the variable first and its primed partner
  second, matching the difference-type layout.

The other three rules are checked by their side conditions alone:

* ``Lit``: literal subjects, with the side condition |r - r2| <= s
  decided on exact rationals;
* ``Var``: a variable is at distance "its primed partner" from itself;
* ``Conv``: replaces all three components by provably equal terms, the
  equalities being discharged by type-directed conversion
  (``Equality.equal``).

The checker validates every node locally.  A judgment's context is an
interned ``Scope``: a premise's context is its conclusion's, or extends
it by one entry, by identity, and each scope keeps its doubled scope and
its first primed name, so a node costs the same at any context depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..prims import DEFAULT_REGISTRY, Registry, derived_name
from ..syntax.derivative import doubled, partial_type
from ..syntax.equality import Equality
from ..syntax.printer import render_term, render_type
from ..syntax.terms import (App, Context, First, FnType, Lam, Lit, Pair,
                            PairType, PrimOp, REAL, Scope, Second, Term, Type,
                            Var, alpha_equal, dotted, equal_terms)
from ..syntax.typecheck import TypecheckError

RULES = ("Lit", "Prim", "Var", "TransReal", "QuasiReflReal", "Abs", "App",
         "Fst", "Snd", "Pair", "Conv")


@dataclass(frozen=True)
class DistanceJudgment:
    """``ctx`` may be given as a tuple of entries and is kept as its
    interned ``Scope``: the judgments of one context share one object."""
    ctx: Scope
    left: Term
    dist: Term
    right: Term
    ty: Type

    def __post_init__(self):
        object.__setattr__(self, "ctx", Scope.of(self.ctx))

    @property
    def dist_ctx(self) -> Scope:
        """Each variable, then its primed partner: the order ``Abs`` binds
        them in, so a premise's distance shares the conclusion's scopes."""
        return doubled(self.ctx)

    def render(self) -> str:
        ctx = ", ".join(f"{x}:{render_type(t)}" for x, t in self.ctx)
        return (f"{ctx} |- ({render_term(self.left)}, "
                f"{render_term(self.dist)}, {render_term(self.right)}) "
                f": {render_type(self.ty)}")


@dataclass(frozen=True, eq=False)
class Derivation:
    """``==`` walks the pairs of nodes left to compare on a list, and
    compares the subjects of their conclusions with one ``seen`` set of
    ``equal_terms``, so derivations of any depth compare, each pair of
    shared subterms once; the hash is the rule's and the conclusion's."""
    rule: str
    conclusion: DistanceJudgment
    premises: tuple["Derivation", ...] = ()

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            j, k = a.conclusion, b.conclusion
            if (a.rule != b.rule or len(a.premises) != len(b.premises)
                    or (j.ctx, j.ty) != (k.ctx, k.ty)
                    or not equal_terms([(j.left, k.left), (j.dist, k.dist),
                                        (j.right, k.right)], seen)):
                return False
            todo.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self):
        return hash((self.rule, self.conclusion))


# --- the rules --------------------------------------------------------------

def _prim(name: str, *ps: DistanceJudgment):
    lefts = tuple([p.left for p in ps])
    return (PrimOp(name, lefts),
            PrimOp(derived_name(name), lefts + tuple([p.dist for p in ps])),
            PrimOp(name, tuple([p.right for p in ps])), REAL)


def _abs(p: DistanceJudgment):
    x, ty = p.ctx.entry
    return (Lam(x, ty, p.left),
            Lam(x, ty, Lam(dotted(x), partial_type(ty), p.dist)),
            Lam(x, ty, p.right), FnType(ty, p.ty))


# Each rule's conclusion (left, distance, right, type), from its premises'
# conclusions; ``Prim`` takes the primitive's name first
CONCLUSIONS = {
    "Prim": _prim,
    "TransReal": lambda p, q: (p.left, PrimOp("add", (p.dist, q.dist)),
                               q.right, REAL),
    "QuasiReflReal": lambda p: (p.left, p.dist, p.left, REAL),
    "Abs": _abs,
    "App": lambda f, a: (App(f.left, a.left), App(App(f.dist, a.left), a.dist),
                         App(f.right, a.right), f.ty.res),
    "Fst": lambda p: (First(p.left), First(p.dist), First(p.right),
                      p.ty.left),
    "Snd": lambda p: (Second(p.left), Second(p.dist), Second(p.right),
                      p.ty.right),
    "Pair": lambda p, q: (Pair(p.left, q.left), Pair(p.dist, q.dist),
                          Pair(p.right, q.right), PairType(p.ty, q.ty)),
}


def derive(rule: str, *premises: Derivation,
           ctx: Context | Scope | None = None,
           prim: str | None = None) -> Derivation:
    """The ``rule`` node over ``premises``, concluding what the rule draws
    from their conclusions.  ``Prim`` needs the primitive's name; the
    context defaults to the premises' (for ``Abs``, without the bound
    variable) and must be given to a ``Prim`` node without premises."""
    js = [p.conclusion for p in premises]
    if ctx is None:
        ctx = js[0].ctx.parent if rule == "Abs" else js[0].ctx
    if rule == "Prim":
        js.insert(0, prim)
    return Derivation(rule, DistanceJudgment(ctx, *CONCLUSIONS[rule](*js)),
                      premises)


# --- the checker ------------------------------------------------------------

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
    from the root) of the first invalid node in preorder.  A derivation
    restates its premises' subjects in its conclusions, so one call
    types each (scope, subterm) pair once, in one ``Equality`` session,
    which compares each ``Conv`` subject with its premise's by conversion
    and reads each shared subterm's free names once: checking costs about
    the derivation's distinct subterms."""
    session = Equality(registry)
    todo = [(d, ())]
    while todo:
        node, path = todo.pop()
        msg = _check_node(node, session)
        if msg is not None:
            return CheckResult(False, path, msg)
        todo.extend((p, path + (i,))
                    for i, p in reversed(tuple(enumerate(node.premises))))
    return CheckResult(True)


def _judgment_shape(j: DistanceJudgment, session: Equality) -> Optional[str]:
    if (name := j.ctx.primed) is not None:
        return f"context binds primed variable {name!r}"
    try:
        lt = session.typed(j.ctx, j.left)
        rt = session.typed(j.ctx, j.right)
        dt = session.typed(j.dist_ctx, j.dist)
    except TypecheckError as e:
        return f"ill-typed judgment: {e}"
    if lt is not j.ty:
        return f"left subject has type {render_type(lt)}, not {render_type(j.ty)}"
    if rt is not j.ty:
        return f"right subject has type {render_type(rt)}, not {render_type(j.ty)}"
    want = partial_type(j.ty)
    if dt is not want:
        return (f"distance has type {render_type(dt)}, "
                f"expected {render_type(want)}")
    return None


def _check_node(d: Derivation, session: Equality) -> Optional[str]:
    rule, j = d.rule, d.conclusion
    if rule not in RULES:
        return f"unknown rule {rule!r}"
    shape = _judgment_shape(j, session)
    if shape is not None:
        return shape
    for p in d.premises:
        if rule != "Abs" and p.conclusion.ctx is not j.ctx:
            return "premise context differs from conclusion context"
    ps = [p.conclusion for p in d.premises]
    msg = _side_conditions(rule, j, ps, session)
    if msg is not None or rule not in CONCLUSIONS:
        return msg
    want = derive(rule, *d.premises, ctx=j.ctx,
                  prim=j.left.name if rule == "Prim" else None).conclusion
    if rule == "Prim":
        n = len(ps)
        for i, p in enumerate(ps):
            if p.ty is not REAL:
                return f"premise {i} is not at Real"
            if not all(alpha_equal(s.args[k], w.args[k]) for s, w, k in (
                    (j.left, want.left, i), (j.right, want.right, i),
                    (j.dist, want.dist, n + i), (j.dist, want.dist, i))):
                return f"premise {i} does not match the conclusion arguments"
        return None
    for fields, message in _MISMATCH[rule]:
        if not all(j.ty is want.ty if f == "ty"
                   else alpha_equal(getattr(j, f), getattr(want, f))
                   for f in fields):
            return message
    return None


_PREMISES = {"Lit": 0, "Var": 0, "Conv": 1, "TransReal": 2,
             "QuasiReflReal": 1, "Abs": 1, "App": 2, "Fst": 1, "Snd": 1,
             "Pair": 2}


def _side_conditions(rule, j, ps, session: Equality) -> Optional[str]:
    """What ``rule`` asks of a node besides its derived conclusion."""
    if rule in ("TransReal", "QuasiReflReal") and j.ty is not REAL:
        return f"{rule} is stated at Real only"
    if rule == "Abs" and not isinstance(j.ty, FnType):
        return "Abs concludes at a function type"
    if rule != "Prim" and len(ps) != (n := _PREMISES[rule]):
        return (f"{rule} takes "
                f"{('no premises', 'one premise', 'two premises')[n]}")

    if rule == "Lit":
        if not (isinstance(j.left, Lit) and isinstance(j.dist, Lit)
                and isinstance(j.right, Lit)):
            return "Lit subjects must be literals"
        if abs(j.left.value - j.right.value) > j.dist.value:
            return (f"|{render_term(j.left)} - {render_term(j.right)}| "
                    f"exceeds {render_term(j.dist)}")
    elif rule == "Var":
        if not (isinstance(j.left, Var) and isinstance(j.right, Var)
                and isinstance(j.dist, Var)):
            return "Var subjects must be variables"
        if j.left.name != j.right.name:
            return "Var relates a variable to itself"
        if j.dist.name != dotted(j.left.name):
            return "Var distance must be the primed partner"
    elif rule == "Conv":
        p = ps[0]
        if p.ty is not j.ty:
            return "Conv cannot change the type"
        try:
            if not session.equal(j.ctx, p.left, j.left):
                return "left subjects are not provably equal"
            if not session.equal(j.ctx, p.right, j.right):
                return "right subjects are not provably equal"
            if not session.equal(j.dist_ctx, p.dist, j.dist):
                return "distances are not provably equal"
        except TypecheckError as e:
            return f"conversion certificate ill-typed: {e}"
    elif rule == "Prim":
        if not (isinstance(j.left, PrimOp) and isinstance(j.right, PrimOp)
                and isinstance(j.dist, PrimOp)):
            return "Prim subjects must be primitive applications"
        name = j.left.name
        if j.right.name != name:
            return "Prim subjects use different primitives"
        if j.dist.name != derived_name(name):
            return f"Prim distance must use {derived_name(name)!r}"
        n = session.registry.arity(name)
        if len(ps) != n:
            return f"Prim over {name!r} needs {n} premises"
    elif rule == "TransReal":
        p1, p2 = ps
        if p1.ty is not REAL or p2.ty is not REAL:
            return "TransReal premises must be at Real"
        if not alpha_equal(p1.right, p2.left):
            return "premises do not share the middle subject"
    elif rule == "QuasiReflReal":
        if ps[0].ty is not REAL:
            return "premise must be at Real"
    elif rule == "Abs":
        p = ps[0]
        if p.ctx.parent is not j.ctx:
            return "premise context must extend the conclusion context"
        if p.ctx.entry[1] is not j.ty.arg:
            return "bound variable type does not match the function type"
        if p.ty is not j.ty.res:
            return "premise type does not match the function result"
    elif rule == "App":
        pf, pa = ps
        if not isinstance(pf.ty, FnType):
            return "first premise must be at a function type"
        if pa.ty is not pf.ty.arg or j.ty is not pf.ty.res:
            return "premise types do not compose"
    elif rule in ("Fst", "Snd"):
        if not isinstance(ps[0].ty, PairType):
            return "premise must be at a product type"
    return None


# The stated conclusion against the derived one, group by group in the
# order they are compared, with the message for a mismatch in each
_MISMATCH = {
    "TransReal": (
        (("left", "right"), "conclusion subjects do not match the premises"),
        (("dist",), "conclusion distance must be the sum of the premise "
                    "distances")),
    "QuasiReflReal": ((("left", "right", "dist"), "conclusion must relate "
                       "the premise's left subject to itself"),),
    "Abs": (
        (("left", "right"), "conclusion subjects must abstract the premise "
                            "subjects"),
        (("dist",), "conclusion distance must abstract the variable and "
                    "then its primed partner")),
    "App": (
        (("left", "right"), "conclusion subjects must be the applications"),
        (("dist",), "conclusion distance must apply the function distance "
                    "to the left argument and the argument distance")),
    **dict.fromkeys(("Fst", "Snd"), (
        (("ty",), "conclusion type does not match the projected component"),
        (("left", "dist", "right"), "conclusion must project all three "
                                    "premise components"))),
    "Pair": (
        (("ty",), "conclusion type must pair the premise types"),
        (("left", "dist", "right"), "conclusion must pair the premise "
                                    "components")),
}
