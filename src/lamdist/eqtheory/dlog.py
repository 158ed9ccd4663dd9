"""Membership in the syntactic distance relation.

At ``Real`` the relation is decidable outright: evaluate the three
closed terms exactly (exact-mode ``evaluate``, the evaluator ``normalize``
reads back from) and compare the rationals.  Products recurse through
projections.  Arrows are probe-based: the triple is applied to a
family of syntactic probe triples — literal triples at the base, and
canonical self-distance triples (u, derivative of u, u) at higher types,
which the synthesized fundamental derivations certify — and both the
two-sided and self application triples must stay members.
"""

from __future__ import annotations

from fractions import Fraction

from ..prims import DEFAULT_REGISTRY, Registry
from ..relations.checkers import Consistent, Falsified, Verdict
from ..relations.probes import library_terms
from ..semantics.eval import evaluate
from ..syntax.derivative import derivative_term, partial_type
from ..syntax.printer import render_term
from ..syntax.terms import (App, First, FnType, Lit, Pair, PairType,
                            RealType, Second, Term, Type, arrow_depth)
from ..syntax.typecheck import typecheck
from .judgments import DistanceJudgment


_LITERAL_TRIPLES = (
    ("0", "0", "0"),
    ("1", "0.5", "1.25"),
    ("-2", "1", "-1.5"),
    ("0.5", "0.1", "0.45"),
    ("3", "0.2", "3.2"),
    ("-0.75", "2", "0.25"),
)


def syntactic_probes(ty: Type, registry: Registry = DEFAULT_REGISTRY
                     ) -> list[tuple[Term, Term, Term]]:
    """Closed probe triples known to be members at ``ty``."""
    if isinstance(ty, RealType):
        out = []
        for l, s, r in _LITERAL_TRIPLES:
            out.append((Lit(Fraction(l)), Lit(Fraction(s)), Lit(Fraction(r))))
        return out
    if isinstance(ty, PairType):
        lefts = syntactic_probes(ty.left, registry)
        rights = syntactic_probes(ty.right, registry)
        return [(Pair(l1, l2), Pair(s1, s2), Pair(r1, r2))
                for (l1, s1, r1), (l2, s2, r2)
                in zip(lefts, rights)]
    if isinstance(ty, FnType):
        out = []
        for u in library_terms(ty, registry):
            out.append((u, derivative_term((), u, registry), u))
        return out
    raise TypeError(f"not a type: {ty!r}")


def check_dlog(ty: Type, left: Term, dist: Term, right: Term,
               registry: Registry = DEFAULT_REGISTRY) -> Verdict:
    """Decide (exactly at Real, probe-based at arrows) whether the closed
    triple belongs to the syntactic distance relation.  The subjects must
    be closed at ``ty`` and the distance at its difference type."""
    for name, term, want in (("left", left, ty),
                             ("distance", dist, partial_type(ty)),
                             ("right", right, ty)):
        got = typecheck((), term, registry)
        if got != want:
            raise TypeError(f"{name} subject is not closed at the claimed type")
    counter = [0]
    bad = _go(ty, left, dist, right, [], counter, registry)
    if bad is not None:
        return bad
    return Consistent(counter[0], arrow_depth(ty))


def _go(ty, left, dist, right, path, counter, registry):
    if isinstance(ty, RealType):
        counter[0] += 1
        l, s, r = (evaluate(term, registry=registry, exact=True)
                   for term in (left, dist, right))
        if abs(l - r) <= s:
            return None
        return Falsified("base", tuple(path) + (
            f"|{l} - {r}| > {s}",), float(abs(l - r)), float(s))
    if isinstance(ty, PairType):
        return (_go(ty.left, First(left), First(dist), First(right),
                    path + ["fst"], counter, registry)
                or _go(ty.right, Second(left), Second(dist), Second(right),
                       path + ["snd"], counter, registry))
    if isinstance(ty, FnType):
        for (s, b, s2) in syntactic_probes(ty.arg, registry):
            here = f"applied to {render_term(s)}"
            out_dist = App(App(dist, s), b)
            for side, fn_term in (("cross", right), ("self", left)):
                bad = _go(ty.res, App(left, s), out_dist, App(fn_term, s2),
                          path + [f"{here} [{side}]"], counter, registry)
                if bad is not None:
                    return bad
        return None
    raise TypeError(f"not a type: {ty!r}")


def check_dlog_judgment(j: DistanceJudgment,
                        registry: Registry = DEFAULT_REGISTRY) -> Verdict:
    if j.ctx:
        raise ValueError("membership checking needs closed judgments")
    return check_dlog(j.ty, j.left, j.dist, j.right, registry)
