"""Membership in the syntactic distance relation.

The syntactic relation has the semantic one's membership clauses, so
``check_dlog`` is ``check_rho`` on the exact denotations of its three
closed terms (exact-mode ``evaluate``, the evaluator conversion runs
too): at ``Real`` it compares rationals, which decides membership
outright; products go componentwise; at arrows both the two-sided and
the self application triples must stay members for every probe.  The
probes are ``SyntacticProbes``: literal triples at the base, and
canonical self-distance triples (u, derivative of u, u) at higher types,
which the synthesized fundamental derivations certify.
"""

from __future__ import annotations

from fractions import Fraction

from ..prims import DEFAULT_REGISTRY, Registry
from ..relations.checkers import Verdict, check_rho
from ..relations.probes import ProbeSet, ProbeTriple, library_terms
from ..semantics.eval import evaluate
from ..syntax.derivative import derivative_term, partial_type
from ..syntax.printer import render_term
from ..syntax.terms import (FnType, PairType, Term, TermTooDeep, Type,
                            on_overflow)
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


class SyntacticProbes(ProbeSet):
    """Exact denotations of closed probe triples known to be members: the
    literal triples at ``Real`` and (u, derivative of u, u) for each
    library term u at an arrow, at any arrow depth.  A difference stays
    curried, as the derivative evaluates."""

    def __init__(self, registry: Registry = DEFAULT_REGISTRY):
        super().__init__(registry=registry)

    def _real_triples(self) -> list[ProbeTriple]:
        return [ProbeTriple(Fraction(l), Fraction(s), Fraction(r), label=l)
                for l, s, r in _LITERAL_TRIPLES]

    def _fn_triples(self, ty: FnType, family: str) -> list[ProbeTriple]:
        reg = self.registry
        out = []
        for u in library_terms(ty, reg):
            x = evaluate(u, registry=reg, exact=True)
            d = evaluate(derivative_term((), u, reg), registry=reg, exact=True)
            out.append(ProbeTriple(x, d, x, label=render_term(u)))
        return out


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
    x, a, x2 = (evaluate(term, registry=registry, exact=True)
                for term in (left, dist, right))
    with on_overflow(TermTooDeep, "term nested too deeply to evaluate"):
        return check_rho(ty, x, _uncurried(ty, a), x2,
                         SyntacticProbes(registry))


def _uncurried(ty: Type, a):
    """A distance value in the checkers' shape: ``a(y, b)`` is ``a y b``."""
    if isinstance(ty, FnType):
        return lambda y, b: _uncurried(ty.res, a(y)(b))
    if isinstance(ty, PairType):
        return (_uncurried(ty.left, a[0]), _uncurried(ty.right, a[1]))
    return a


def check_dlog_judgment(j: DistanceJudgment,
                        registry: Registry = DEFAULT_REGISTRY) -> Verdict:
    if j.ctx:
        raise ValueError("membership checking needs closed judgments")
    return check_dlog(j.ty, j.left, j.dist, j.right, registry)
