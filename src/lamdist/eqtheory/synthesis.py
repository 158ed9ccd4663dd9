"""Derivation synthesis.

``synthesize_fundamental`` turns a well-typed term plus one component
derivation per free variable into a derivation whose conclusion is the
substituted triple with the term's derivative as the distance — the
deductive counterpart of running the difference evaluator.  With no
components (a closed term) the conclusion is the canonical self-distance
triple (t, derivative of t, t).

The synthesizer is a walker on the stack-safe term fold of
:mod:`lamdist.syntax.terms`, so no term is too deep for it: a binder
enters its variable into the context on the way down, and each construct
becomes the node :func:`~lamdist.eqtheory.judgments.derive` builds from
its children's derivations.

``quasi_reflexive_derivation`` and ``transitivity_derivation`` lift the
two Real-only rules to every type: the lifts go through application to a
fresh variable (or projections), the inductive step, re-abstraction, and
a final conversion, with the pointwise-addition combinator mediating
transitivity.  They recurse on the judgment type, and build their nodes
with ``derive`` too.
"""

from __future__ import annotations

from typing import Mapping

from ..prims import DEFAULT_REGISTRY, Registry
from ..syntax.derivative import partial_type
from ..syntax.terms import (App, Context, First, FnType, Lam, Lit, Pair,
                            PairType, PrimOp, REAL, RealType, Second, Term,
                            Type, Var, all_var_names, alpha_equal, dotted,
                            fold, fresh_name, free_vars, is_dotted,
                            rename_binders, walker)
from ..syntax.typecheck import typecheck
from .addterm import add_term
from .judgments import Derivation, DistanceJudgment, derive


class SynthesisError(ValueError):
    pass


def _used_names(d: Derivation) -> set[str]:
    out: set[str] = set()
    todo = [d]
    while todo:
        node = todo.pop()
        j = node.conclusion
        out.update(n for n, _ in j.ctx)
        for t in (j.left, j.dist, j.right):
            out.update(all_var_names(t))
        todo.extend(node.premises)
    return out


def weaken(d: Derivation, ctx: Context) -> Derivation:
    """Restate a derivation in an extended ambient context.

    ``ctx`` must extend the derivation's conclusion context; the new
    names must not collide with anything the derivation mentions."""
    old = d.conclusion.ctx
    if ctx[:len(old)] != old:
        raise SynthesisError("weakening target does not extend the context")
    added = ctx[len(old):]
    used = _used_names(d)
    for name, _ in added:
        if name in used or dotted(name) in used:
            raise SynthesisError(f"weakening variable {name!r} collides")

    def rebuild(node: Derivation) -> Derivation:
        j = node.conclusion
        new_ctx = j.ctx[:len(old)] + added + j.ctx[len(old):]
        return Derivation(node.rule,
                          DistanceJudgment(new_ctx, j.left, j.dist, j.right,
                                           j.ty),
                          tuple(rebuild(p) for p in node.premises))

    return rebuild(d)


def synthesize_fundamental(ctx: Context, t: Term,
                           components: Mapping[str, Derivation],
                           registry: Registry = DEFAULT_REGISTRY
                           ) -> Derivation:
    """Build the derivation of the substituted triple, one node per
    construct, on the stack-safe term fold.

    ``ctx`` types the free variables of ``t``; ``components`` maps each
    of them to a derivation whose type matches, all in one shared ambient
    context or in the empty one, whatever their order.  Missing
    components are an error.
    """
    ty = typecheck(ctx, t, registry)
    ctx_types = dict(ctx)
    ambient: Context = ()
    for name in sorted(free_vars(t)):  # each in ctx, or typecheck raised
        if name not in components:
            raise SynthesisError(f"no component derivation for {name!r}")
    for name, comp in components.items():
        if name not in ctx_types:
            raise SynthesisError(f"component for unknown variable {name!r}")
        if comp.conclusion.ty != ctx_types[name]:
            raise SynthesisError(
                f"component for {name!r} concludes at the wrong type")
        if ambient == ():  # an empty context is weakened into any other
            ambient = comp.conclusion.ctx
        elif comp.conclusion.ctx not in ((), ambient):
            raise SynthesisError("components live in different contexts")

    avoid = set()
    for comp in components.values():
        avoid |= _used_names(comp)
    avoid |= {n for n, _ in ambient}

    def pick(var: str, body: Term, scope: set[str]) -> str:
        # rename binders clashing with ambient names (or their partners)
        if is_dotted(var) or var in scope or dotted(var) in scope:
            return fresh_name(var, scope | all_var_names(body))
        return var

    t = rename_binders(t, avoid | {n for n, _ in ctx}, pick)
    return _synth(t, ambient, dict(components), ctx_types)


def _synth(t: Term, ctx: Context, components: dict[str, Derivation],
           bound: dict[str, Type]) -> Derivation:
    return fold(t, _SYNTH, ([ctx], components, dict(bound)))


def _enter_binder(state, t: Lam) -> Lam:
    ctxs, _, bound = state
    ctxs.append(ctxs[-1] + ((t.var, t.var_type),))
    bound[t.var] = t.var_type
    return t


def _leave_binder(state, t: Lam, kids) -> Derivation:
    state[0].pop()
    return derive("Abs", *kids)


def _synth_var(state, t: Var, kids) -> Derivation:
    ctxs, components, bound = state
    if t.name in components:
        comp = components[t.name]
        if comp.conclusion.ctx != ctxs[-1]:
            comp = weaken(comp, ctxs[-1])
        return comp
    return Derivation("Var", DistanceJudgment(
        ctxs[-1], t, Var(dotted(t.name)), t, bound[t.name]))


def _expect(kind: type, what: str, p: Derivation) -> Derivation:
    if not isinstance(p.conclusion.ty, kind):
        raise SynthesisError(f"{what} term has type {p.conclusion.ty!r}")
    return p


# One node per construct, under binders entered into the context
_SYNTH = walker({
    Var: _synth_var,
    Lit: lambda state, t, kids: Derivation("Lit", DistanceJudgment(
        state[0][-1], t, Lit(0), t, REAL)),
    PrimOp: lambda state, t, kids: derive("Prim", *kids, ctx=state[0][-1],
                                          prim=t.name),
    App: lambda state, t, kids: derive(
        "App", _expect(FnType, "applied", kids[0]), kids[1]),
    Lam: _leave_binder,
    Pair: lambda state, t, kids: derive("Pair", *kids),
    First: lambda state, t, kids: derive(
        "Fst", _expect(PairType, "projected", kids[0])),
    Second: lambda state, t, kids: derive(
        "Snd", _expect(PairType, "projected", kids[0])),
}, {Lam: _enter_binder})


def self_distance_derivation(t: Term,
                             registry: Registry = DEFAULT_REGISTRY
                             ) -> Derivation:
    """The canonical (t, derivative of t, t) derivation for closed t."""
    return synthesize_fundamental((), t, {}, registry)


def quasi_reflexive_derivation(d: Derivation) -> Derivation:
    """From a derivation of (t, a, t2), derive (t, a, t) at any type."""
    j = d.conclusion
    if isinstance(j.ty, RealType):
        return derive("QuasiReflReal", d)
    if isinstance(j.ty, FnType):
        z = fresh_name("z", frozenset(_used_names(d)))
        lifted = derive("Abs", quasi_reflexive_derivation(_applied(d, z)))
    elif isinstance(j.ty, PairType):
        lifted = derive("Pair", *(
            quasi_reflexive_derivation(derive(rule, d))
            for rule in ("Fst", "Snd")))
    else:
        raise TypeError(f"not a type: {j.ty!r}")
    return Derivation("Conv", DistanceJudgment(
        j.ctx, j.left, j.dist, j.left, j.ty), (lifted,))


def _applied(d: Derivation, z: str) -> Derivation:
    """``d`` at a function type applied to the fresh variable ``z``."""
    j = d.conclusion
    ctx = j.ctx + ((z, j.ty.arg),)
    return derive("App", weaken(d, ctx), Derivation("Var", DistanceJudgment(
        ctx, Var(z), Var(dotted(z)), Var(z), j.ty.arg)))


def transitivity_derivation(d1: Derivation, d2: Derivation) -> Derivation:
    """Chain (t, a, t2) and (t2, a2, t3) into (t, add a a2, t3), the
    addition being pointwise at the judgment type."""
    j1, j2 = d1.conclusion, d2.conclusion
    if j1.ctx != j2.ctx:
        raise SynthesisError("derivations live in different contexts")
    if j1.ty != j2.ty:
        raise SynthesisError("derivations conclude at different types")
    if not alpha_equal(j1.right, j2.left):
        raise SynthesisError("derivations do not share the middle subject")

    combined = _trans(d1, d2)
    target_dist = App(App(add_term(partial_type(j1.ty)), j1.dist), j2.dist)
    return Derivation("Conv", DistanceJudgment(
        j1.ctx, j1.left, target_dist, j2.right, j1.ty), (combined,))


def _trans(d1: Derivation, d2: Derivation) -> Derivation:
    ty = d1.conclusion.ty
    if isinstance(ty, RealType):
        return derive("TransReal", d1, d2)
    if isinstance(ty, FnType):
        z = fresh_name("z", frozenset(_used_names(d1) | _used_names(d2)))
        # the middle subjects match syntactically after application
        return derive("Abs", _trans(_applied(d1, z), _applied(d2, z)))
    if isinstance(ty, PairType):
        return derive("Pair", *(
            _trans(derive(rule, d1), derive(rule, d2))
            for rule in ("Fst", "Snd")))
    raise TypeError(f"not a type: {ty!r}")
