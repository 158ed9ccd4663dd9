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
two Real-only rules to every type by one walk on the stack-safe fold, over
the positions of the judgment type: application to a fresh variable at
arrows, projections at products, the rule at each Real position, then
re-abstraction and pairing back up, with a conversion at each level of the
self-distance lift and the pointwise-addition combinator after the
triangle lift.  Their nodes are built with ``derive`` too.
"""

from __future__ import annotations

from typing import Mapping

from ..prims import DEFAULT_REGISTRY, Registry
from ..syntax.derivative import partial_type
from ..syntax.terms import (App, Context, First, FnType, Lam, Lit, Pair,
                            PairType, PrimOp, REAL, RealType, Scope, Second,
                            Term, Type, Var, all_var_names, alpha_equal,
                            dotted, fold, fresh_name, fresh_names, free_vars,
                            is_dotted, rename_binders, var_names, walker)
from ..syntax.typecheck import typecheck
from .addterm import add_term
from .judgments import Derivation, DistanceJudgment, derive


class SynthesisError(ValueError):
    pass


def _used_names(*ds: Derivation) -> set[str]:
    """The names that ``ds`` bind or mention, in contexts and subjects;
    each scope and subterm they share is read once."""
    out, seen, todo = set(), set(), list(ds)
    while todo:
        j = (node := todo.pop()).conclusion
        scope = j.ctx
        while scope.depth and id(scope) not in seen:
            seen.add(id(scope))
            out.add(scope.entry[0])
            scope = scope.parent
        out.update(var_names((j.left, j.dist, j.right), seen))
        todo.extend(node.premises)
    return out


def weaken(d: Derivation, ctx: Context) -> Derivation:
    """Restate a derivation in an extended ambient context.

    ``ctx`` must extend the derivation's conclusion context; the new
    names must not collide with anything the derivation mentions."""
    old, ctx = tuple(d.conclusion.ctx), tuple(ctx)
    if ctx[:len(old)] != old:
        raise SynthesisError("weakening target does not extend the context")
    added = ctx[len(old):]
    used = _used_names(d)
    for name, _ in added:
        if name in used or dotted(name) in used:
            raise SynthesisError(f"weakening variable {name!r} collides")
    return fold(d, _WEAKEN, ({}, len(old), added))


def _rerooted(state, scope: Scope) -> Scope:
    """``scope`` with the ``added`` entries after its first ``n``, each
    scope re-rooted once: ``memo`` keeps them by id."""
    memo, n, added = state
    above = []
    while (new := memo.get(id(scope))) is None and scope.depth > n:
        above.append(scope)
        scope = scope.parent
    if new is None:
        new = memo[id(scope)] = scope + added
    for scope in reversed(above):
        new = memo[id(scope)] = new.enter(*scope.entry)
    return new


_WEAKEN = {Derivation: (None, lambda d: d.premises, lambda state, node, kids:
                        Derivation(node.rule, DistanceJudgment(
                            _rerooted(state, (j := node.conclusion).ctx),
                            j.left, j.dist, j.right, j.ty), tuple(kids)))}


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

    avoid = _used_names(*components.values()) | {n for n, _ in ambient}

    def pick(var: str, body: Term, scope: set[str]) -> str:
        # rename binders clashing with ambient names (or their partners)
        if is_dotted(var) or var in scope or dotted(var) in scope:
            return fresh_name(var, scope | all_var_names(body))
        return var

    t = rename_binders(t, avoid | {n for n, _ in ctx}, pick)
    return _synth(t, ambient, dict(components), ctx_types)


def _synth(t: Term, ctx: Context, components: dict[str, Derivation],
           bound: dict[str, Type]) -> Derivation:
    return fold(t, _SYNTH, ([Scope.of(ctx)], components, dict(bound)))


def _enter_binder(state, t: Lam) -> Lam:
    ctxs, _, bound = state
    ctxs.append(ctxs[-1].enter(t.var, t.var_type))
    bound[t.var] = t.var_type
    return t


def _leave_binder(state, t: Lam, kids) -> Derivation:
    state[0].pop()
    return derive("Abs", *kids)


def _synth_var(state, t: Var, kids) -> Derivation:
    ctxs, components, bound = state
    if t.name in components:
        comp = components[t.name]
        if comp.conclusion.ctx is not ctxs[-1]:
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
    return _lift("QuasiReflReal", d)


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

    combined = _lift("TransReal", d1, d2)
    target_dist = App(App(add_term(partial_type(j1.ty)), j1.dist), j2.dist)
    return Derivation("Conv", DistanceJudgment(
        j1.ctx, j1.left, target_dist, j2.right, j1.ty), (combined,))


def _lift(rule: str, *ds: Derivation) -> Derivation:
    """The Real-only ``rule`` lifted over ``ds`` to their judgment type.
    A position is a tuple (type, ``ds`` applied and projected to it in
    their own context, its context); at a Real one, they are weakened."""
    top = ds[0].conclusion.ctx
    fresh, zs = fresh_names("z", _used_names(*ds)), []  # z of each depth

    def below(position):
        ty, nodes, ctx = position
        if isinstance(ty, FnType):
            if len(zs) == (k := ctx.depth - top.depth):
                zs.append(next(fresh))
            var = Derivation("Var", DistanceJudgment(
                top, Var(z := zs[k]), Var(dotted(z)), Var(z), ty.arg))
            return (ty.res, [derive("App", d, var) for d in nodes],
                    ctx.enter(z, ty.arg)),
        if isinstance(ty, PairType):
            return ((ty.left, [derive("Fst", d) for d in nodes], ctx),
                    (ty.right, [derive("Snd", d) for d in nodes], ctx))
        if not isinstance(ty, RealType):
            raise TypeError(f"not a type: {ty!r}")

    def close(state, position, kids) -> Derivation:
        ty, nodes, ctx = position
        if not kids:
            if added := tuple(ctx)[top.depth:]:
                state = ({}, top.depth, added)
                nodes = [fold(d, _WEAKEN, state) for d in nodes]
            return derive(rule, *nodes)
        lifted = derive("Abs" if isinstance(ty, FnType) else "Pair", *kids)
        if rule == "TransReal":
            return lifted
        j = nodes[0].conclusion
        return Derivation("Conv", DistanceJudgment(
            ctx, j.left, j.dist, j.left, j.ty), (lifted,))

    return fold((ds[0].conclusion.ty, ds, top), {tuple: (None, below, close)})
