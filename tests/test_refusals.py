"""Each public call refuses what lies outside its domain (something that
is no type or term, a malformed argument, an inconsistent request) with
a typed error that names the problem."""

import pytest

from lamdist.eqtheory import (check_dlog_judgment, quasi_reflexive_derivation,
                              synthesize_fundamental, transitivity_derivation)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.eqtheory.synthesis import SynthesisError, weaken
from lamdist.eqtheory.addterm import add_term
from lamdist.prims import Registry, default_registry, prim_modulus
from lamdist.quantale import QRel, QuantaleStructureError, builtin, chain
from lamdist.relations import ProbeSet, check_rho, eta_transitivity_split
from lamdist.relations.probes import canonical_term
from lamdist.relations.checkers import estimate_self_distance
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.semantics.diff import top_diff
from lamdist.syntax import FnType, Lit, REAL
from lamdist.syntax.terms import (App, First, Var, alpha_equal, dotted,
                                  free_vars)

FN = FnType(REAL, REAL)
BOGUS = object()


def _lit(l, s, r, ctx=(), ty=REAL):
    return Derivation("Lit", DistanceJudgment(ctx, Lit(l), Lit(s), Lit(r), ty))


def _var(name, ctx):
    return Derivation("Var", DistanceJudgment(
        ctx, Var(name), Var(dotted(name)), Var(name), REAL))


X = (("x", REAL),)
ONE_TWO = _lit(1, 1, 2)

REFUSALS = {
    # walkers of terms and types
    "fold on no term": (lambda: free_vars(BOGUS), TypeError, "not a term"),
    "fold on no type inside a type": (
        lambda: add_term(FnType(REAL, BOGUS)), TypeError, "not a type"),
    "alpha_equal": (lambda: alpha_equal(BOGUS, object()), TypeError,
                    "not a term"),
    "a dotted name dotted again": (lambda: dotted("x'"), ValueError,
                                   "already a difference variable"),
    "evaluate": (lambda: evaluate(BOGUS), TypeError, "not a term"),
    "diff_evaluate": (lambda: diff_evaluate(BOGUS), TypeError, "not a term"),
    "top_diff": (lambda: top_diff(BOGUS), TypeError, "not a type"),
    # exact evaluation of an ill-typed term
    "exact evaluation applying a number": (
        lambda: evaluate(App(Lit(1), Lit(2)), exact=True), TypeError,
        "cannot apply"),
    "exact evaluation projecting a number": (
        lambda: evaluate(First(Lit(1)), exact=True), TypeError,
        "cannot project"),
    # probes and checkers
    "probes at no type": (lambda: ProbeSet().triples(BOGUS), TypeError,
                          "not a type"),
    "probes of no family": (lambda: ProbeSet().triples(REAL, "delta"),
                            ValueError, "unknown probe family 'delta'"),
    "canonical_term": (lambda: canonical_term(BOGUS), TypeError,
                       "not a type"),
    "check_rho": (lambda: check_rho(BOGUS, 0.0, 0.0, 0.0, ProbeSet()),
                  TypeError, "not a type"),
    "estimate_self_distance": (
        lambda: estimate_self_distance(BOGUS, 0.0, ProbeSet()), TypeError,
        "not a type"),
    "eta_transitivity_split at no type": (
        lambda: eta_transitivity_split(BOGUS, 0.0, 0.0), TypeError,
        "not a type"),
    "eta_transitivity_split without decompositions": (
        lambda: eta_transitivity_split(FN, top_diff(FN), top_diff(FN)),
        ValueError, "needs the decompositions of both differences"),
    # primitives
    "an unknown primitive": (lambda: Registry()["nope"], KeyError,
                             "unknown primitive 'nope'"),
    "a modulus with too few radii": (
        lambda: prim_modulus(default_registry()["sin"], (0.0,), ()),
        TypeError, r"sin modulus expects 1\+1 args"),
    # derivations
    "add_term": (lambda: add_term(BOGUS), TypeError, "not a type"),
    "membership of an open judgment": (
        lambda: check_dlog_judgment(_var("x", X).conclusion), ValueError,
        "needs closed judgments"),
    "weakening to a context that does not extend": (
        lambda: weaken(_var("x", X), (("y", REAL),)), SynthesisError,
        "does not extend the context"),
    "weakening with a name in use": (
        lambda: weaken(_var("x", X), X + (("x", REAL),)), SynthesisError,
        "weakening variable 'x' collides"),
    "synthesis with a component for an unknown name": (
        lambda: synthesize_fundamental(X, Lit(0), {"y": ONE_TWO}),
        SynthesisError, "component for unknown variable 'y'"),
    "synthesis with a component at the wrong type": (
        lambda: synthesize_fundamental(
            (("f", FN),), Var("f"), {"f": ONE_TWO}),
        SynthesisError, "component for 'f' concludes at the wrong type"),
    "synthesis with components in different contexts": (
        lambda: synthesize_fundamental(
            X + (("y", REAL),), Lit(0),
            {"x": _lit(1, 1, 2, ctx=(("u", REAL),)),
             "y": _lit(1, 1, 2, ctx=(("v", REAL),))}),
        SynthesisError, "components live in different contexts"),
    "the quasi-reflexive lift at no type": (
        lambda: quasi_reflexive_derivation(_lit(1, 1, 2, ty=BOGUS)),
        TypeError, "not a type"),
    "chaining across contexts": (
        lambda: transitivity_derivation(ONE_TWO, _lit(2, 0, 2, ctx=X)),
        SynthesisError, "live in different contexts"),
    "chaining across types": (
        lambda: transitivity_derivation(ONE_TWO, _lit(2, 0, 2, ty=FN)),
        SynthesisError, "conclude at different types"),
    "chaining without a shared middle": (
        lambda: transitivity_derivation(ONE_TWO, _lit(3, 0, 3)),
        SynthesisError, "do not share the middle subject"),
    "chaining at no type": (
        lambda: transitivity_derivation(_lit(1, 1, 2, ty=BOGUS),
                                        _lit(2, 0, 2, ty=BOGUS)),
        TypeError, "not a type"),
    # quantales
    "an unknown builtin quantale": (lambda: builtin("nope"),
                                    QuantaleStructureError,
                                    "unknown builtin quantale 'nope'"),
    "a chain of negative length": (lambda: chain(-1), ValueError,
                                   "must be non-negative"),
    "an entry outside the carrier": (
        lambda: QRel.from_rows(chain(1), [["2"]]), QuantaleStructureError,
        "'2' is not in the carrier of chain1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_call_outside_its_domain_is_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()
