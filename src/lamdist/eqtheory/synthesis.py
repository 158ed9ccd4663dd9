"""Derivation synthesis.

``synthesize_fundamental`` turns a well-typed term plus one component
derivation per free variable into a derivation whose conclusion is the
substituted triple with the term's derivative as the distance — the
deductive counterpart of running the difference evaluator.  With no
components (a closed term) the conclusion is the canonical self-distance
triple (t, derivative of t, t).

``quasi_reflexive_derivation`` and ``transitivity_derivation`` lift the
two Real-only rules to every type: the lifts go through application to a
fresh variable (or projections), the inductive step, re-abstraction, and
a final conversion, with the pointwise-addition combinator mediating
transitivity.
"""

from __future__ import annotations

from typing import Mapping

from ..prims import DEFAULT_REGISTRY, Registry
from ..syntax.derivative import partial_type
from ..syntax.terms import (App, Context, First, FnType, Lam, Lit, Pair,
                            PairType, PrimOp, REAL, RealType, Second, Term,
                            Type, Var, all_var_names, dotted, fresh_name,
                            free_vars, is_dotted, rename_binders)
from ..syntax.typecheck import typecheck
from .judgments import Derivation, DistanceJudgment


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
    """Build the derivation of the substituted triple by structural
    recursion, one congruence node per construct.

    ``ctx`` types the free variables of ``t``; ``components`` maps each
    of them to a derivation (all in one shared ambient context) whose
    type matches.  Missing components are an error.
    """
    ty = typecheck(ctx, t, registry)
    ctx_types = dict(ctx)
    ambient: Context = ()
    for name in sorted(free_vars(t)):
        if name not in ctx_types:
            raise SynthesisError(f"free variable {name!r} is not in the context")
        if name not in components:
            raise SynthesisError(f"no component derivation for {name!r}")
    for name, comp in components.items():
        if name not in ctx_types:
            raise SynthesisError(f"component for unknown variable {name!r}")
        if comp.conclusion.ty != ctx_types[name]:
            raise SynthesisError(
                f"component for {name!r} concludes at the wrong type")
        if ambient == ():
            ambient = comp.conclusion.ctx
        elif comp.conclusion.ctx != ambient:
            raise SynthesisError("components live in different contexts")

    avoid = set()
    for comp in components.values():
        avoid |= _used_names(comp)
    avoid |= {n for n, _ in ambient}

    def pick(var: str, body: Term, scope: set[str]) -> str:
        # rename binders clashing with ambient names (or their partners)
        if var in scope or dotted(var) in scope or is_dotted(var):
            return fresh_name(var, scope | all_var_names(body))
        return var

    t = rename_binders(t, avoid | {n for n, _ in ctx}, pick)
    return _synth(t, ambient, dict(components), ctx_types, registry)


def _synth(t: Term, ctx: Context, components: dict[str, Derivation],
           bound: dict[str, Type], registry: Registry) -> Derivation:
    if isinstance(t, Var):
        if t.name in components:
            comp = components[t.name]
            if comp.conclusion.ctx != ctx:
                comp = weaken(comp, ctx)
            return comp
        return Derivation("Var", DistanceJudgment(
            ctx, Var(t.name), Var(dotted(t.name)), Var(t.name),
            bound[t.name]))
    if isinstance(t, Lit):
        return Derivation("Lit", DistanceJudgment(
            ctx, t, Lit(0), t, REAL))
    if isinstance(t, PrimOp):
        premises = tuple(_synth(a, ctx, components, bound, registry)
                         for a in t.args)
        lefts = tuple(p.conclusion.left for p in premises)
        dists = tuple(p.conclusion.dist for p in premises)
        rights = tuple(p.conclusion.right for p in premises)
        deriv = registry.derivative(t.name)
        return Derivation("Prim", DistanceJudgment(
            ctx, PrimOp(t.name, lefts), PrimOp(deriv.name, lefts + dists),
            PrimOp(t.name, rights), REAL), premises)
    if isinstance(t, App):
        pf = _synth(t.fn, ctx, components, bound, registry)
        pa = _synth(t.arg, ctx, components, bound, registry)
        jf, ja = pf.conclusion, pa.conclusion
        if not isinstance(jf.ty, FnType):
            raise SynthesisError(f"applied term has type {jf.ty!r}")
        return Derivation("App", DistanceJudgment(
            ctx, App(jf.left, ja.left),
            App(App(jf.dist, ja.left), ja.dist),
            App(jf.right, ja.right), jf.ty.res), (pf, pa))
    if isinstance(t, Lam):
        inner_ctx = ctx + ((t.var, t.var_type),)
        inner_bound = dict(bound)
        inner_bound[t.var] = t.var_type
        p = _synth(t.body, inner_ctx, components, inner_bound, registry)
        j = p.conclusion
        return Derivation("Abs", DistanceJudgment(
            ctx, Lam(t.var, t.var_type, j.left),
            Lam(t.var, t.var_type,
                Lam(dotted(t.var), partial_type(t.var_type), j.dist)),
            Lam(t.var, t.var_type, j.right),
            FnType(t.var_type, j.ty)), (p,))
    if isinstance(t, Pair):
        p1 = _synth(t.left, ctx, components, bound, registry)
        p2 = _synth(t.right, ctx, components, bound, registry)
        j1, j2 = p1.conclusion, p2.conclusion
        return Derivation("Pair", DistanceJudgment(
            ctx, Pair(j1.left, j2.left), Pair(j1.dist, j2.dist),
            Pair(j1.right, j2.right), PairType(j1.ty, j2.ty)), (p1, p2))
    if isinstance(t, (First, Second)):
        p = _synth(t.pair, ctx, components, bound, registry)
        j = p.conclusion
        if not isinstance(j.ty, PairType):
            raise SynthesisError(f"projected term has type {j.ty!r}")
        rule = "Fst" if isinstance(t, First) else "Snd"
        side = First if isinstance(t, First) else Second
        ty = j.ty.left if isinstance(t, First) else j.ty.right
        return Derivation(rule, DistanceJudgment(
            ctx, side(j.left), side(j.dist), side(j.right), ty), (p,))
    raise TypeError(f"not a term: {t!r}")


def self_distance_derivation(t: Term,
                             registry: Registry = DEFAULT_REGISTRY
                             ) -> Derivation:
    """The canonical (t, derivative of t, t) derivation for closed t."""
    return synthesize_fundamental((), t, {}, registry)


def quasi_reflexive_derivation(d: Derivation,
                               registry: Registry = DEFAULT_REGISTRY
                               ) -> Derivation:
    """From a derivation of (t, a, t2), derive (t, a, t) at any type."""
    j = d.conclusion
    if isinstance(j.ty, RealType):
        return Derivation("QuasiReflReal", DistanceJudgment(
            j.ctx, j.left, j.dist, j.left, j.ty), (d,))
    if isinstance(j.ty, FnType):
        z = fresh_name("z", frozenset(_used_names(d)))
        inner_ctx = j.ctx + ((z, j.ty.arg),)
        applied = Derivation("App", DistanceJudgment(
            inner_ctx, App(j.left, Var(z)),
            App(App(j.dist, Var(z)), Var(dotted(z))),
            App(j.right, Var(z)), j.ty.res),
            (weaken(d, inner_ctx),
             Derivation("Var", DistanceJudgment(
                 inner_ctx, Var(z), Var(dotted(z)), Var(z), j.ty.arg))))
        ih = quasi_reflexive_derivation(applied, registry)
        hj = ih.conclusion
        abstracted = Derivation("Abs", DistanceJudgment(
            j.ctx, Lam(z, j.ty.arg, hj.left),
            Lam(z, j.ty.arg, Lam(dotted(z), partial_type(j.ty.arg), hj.dist)),
            Lam(z, j.ty.arg, hj.right), j.ty), (ih,))
        return Derivation("Conv", DistanceJudgment(
            j.ctx, j.left, j.dist, j.left, j.ty), (abstracted,))
    if isinstance(j.ty, PairType):
        fst = Derivation("Fst", DistanceJudgment(
            j.ctx, First(j.left), First(j.dist), First(j.right),
            j.ty.left), (d,))
        snd = Derivation("Snd", DistanceJudgment(
            j.ctx, Second(j.left), Second(j.dist), Second(j.right),
            j.ty.right), (d,))
        qf = quasi_reflexive_derivation(fst, registry)
        qs = quasi_reflexive_derivation(snd, registry)
        paired = Derivation("Pair", DistanceJudgment(
            j.ctx, Pair(qf.conclusion.left, qs.conclusion.left),
            Pair(qf.conclusion.dist, qs.conclusion.dist),
            Pair(qf.conclusion.right, qs.conclusion.right), j.ty), (qf, qs))
        return Derivation("Conv", DistanceJudgment(
            j.ctx, j.left, j.dist, j.left, j.ty), (paired,))
    raise TypeError(f"not a type: {j.ty!r}")


def transitivity_derivation(d1: Derivation, d2: Derivation,
                            registry: Registry = DEFAULT_REGISTRY
                            ) -> Derivation:
    """Chain (t, a, t2) and (t2, a2, t3) into (t, add a a2, t3), the
    addition being pointwise at the judgment type."""
    from .addterm import add_term

    j1, j2 = d1.conclusion, d2.conclusion
    if j1.ctx != j2.ctx:
        raise SynthesisError("derivations live in different contexts")
    if j1.ty != j2.ty:
        raise SynthesisError("derivations conclude at different types")
    from ..syntax.terms import alpha_equal
    if not alpha_equal(j1.right, j2.left):
        raise SynthesisError("derivations do not share the middle subject")

    combined = _trans(d1, d2, registry)
    target_dist = App(App(add_term(partial_type(j1.ty)), j1.dist), j2.dist)
    return Derivation("Conv", DistanceJudgment(
        j1.ctx, j1.left, target_dist, j2.right, j1.ty), (combined,))


def _trans(d1: Derivation, d2: Derivation, registry) -> Derivation:
    j1, j2 = d1.conclusion, d2.conclusion
    if isinstance(j1.ty, RealType):
        return Derivation("TransReal", DistanceJudgment(
            j1.ctx, j1.left, PrimOp("add", (j1.dist, j2.dist)), j2.right,
            REAL), (d1, d2))
    if isinstance(j1.ty, FnType):
        z = fresh_name("z", frozenset(_used_names(d1) | _used_names(d2)))
        inner_ctx = j1.ctx + ((z, j1.ty.arg),)
        var_node = Derivation("Var", DistanceJudgment(
            inner_ctx, Var(z), Var(dotted(z)), Var(z), j1.ty.arg))

        def apply(d: Derivation) -> Derivation:
            j = d.conclusion
            return Derivation("App", DistanceJudgment(
                inner_ctx, App(j.left, Var(z)),
                App(App(j.dist, Var(z)), Var(dotted(z))),
                App(j.right, Var(z)), j.ty.res),
                (weaken(d, inner_ctx), var_node))

        a1, a2 = apply(d1), apply(d2)
        # the middle subjects match syntactically after application
        ih = _trans(a1, a2, registry)
        hj = ih.conclusion
        return Derivation("Abs", DistanceJudgment(
            j1.ctx, Lam(z, j1.ty.arg, hj.left),
            Lam(z, j1.ty.arg, Lam(dotted(z), partial_type(j1.ty.arg),
                                  hj.dist)),
            Lam(z, j1.ty.arg, hj.right), j1.ty), (ih,))
    if isinstance(j1.ty, PairType):
        def project(d: Derivation, rule, side, ty) -> Derivation:
            j = d.conclusion
            return Derivation(rule, DistanceJudgment(
                j.ctx, side(j.left), side(j.dist), side(j.right), ty), (d,))

        fst = _trans(project(d1, "Fst", First, j1.ty.left),
                     project(d2, "Fst", First, j1.ty.left), registry)
        snd = _trans(project(d1, "Snd", Second, j1.ty.right),
                     project(d2, "Snd", Second, j1.ty.right), registry)
        f, s = fst.conclusion, snd.conclusion
        return Derivation("Pair", DistanceJudgment(
            j1.ctx, Pair(f.left, s.left), Pair(f.dist, s.dist),
            Pair(f.right, s.right), j1.ty), (fst, snd))
    raise TypeError(f"not a type: {j1.ty!r}")
