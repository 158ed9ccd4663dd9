"""Randomized derivation corpora and the subsumption/round-trip suite.

The generator builds derivations that are valid by construction (every
rule instance is emitted with its side conditions satisfied), with
closed conclusions so that membership and exact semantic checks apply.
The suite then verifies, for each derivation:

* the checker accepts it;
* the self-distance transform of it validates;
* chaining it with a matching derivation through the pointwise-addition
  combinator validates;
* its conclusion passes the syntactic membership check, which at
  ``Real`` decides the exact inequality
  |value(left) - value(right)| <= value(dist) in rational arithmetic,
  and is probe-based at arrows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from ..prims import DEFAULT_REGISTRY, Registry
from ..relations.checkers import Consistent
from ..syntax.equality import exact_value
from ..syntax.terms import App, Lam, Lit, REAL, RealType, Var, fresh_name
from .dlog import check_dlog_judgment
from .judgments import (Derivation, DistanceJudgment, check_derivation,
                        derive)
from .synthesis import (quasi_reflexive_derivation, self_distance_derivation,
                        transitivity_derivation)


def _rational(rng: random.Random, lo=-3.0, hi=3.0) -> Fraction:
    return Fraction(round(rng.uniform(lo, hi), 2)).limit_denominator(400)


def random_literal_node(rng: random.Random, ctx=()) -> Derivation:
    l = _rational(rng)
    r = _rational(rng)
    slack = Fraction(rng.randint(0, 4), 4)
    s = abs(l - r) + slack
    return Derivation("Lit", DistanceJudgment(ctx, Lit(l), Lit(s), Lit(r),
                                              REAL))


def random_real_derivation(rng: random.Random, ctx=(),
                           depth: int = 3) -> Derivation:
    """A valid derivation concluding at Real in the given context."""
    if depth <= 0:
        return random_literal_node(rng, ctx)
    choice = rng.random()
    if choice < 0.25:
        return random_literal_node(rng, ctx)
    if choice < 0.55:
        name = rng.choice(("add", "mul", "sin"))
        arity = 1 if name == "sin" else 2
        return derive("Prim", *(
            random_real_derivation(rng, ctx, depth - 1)
            for _ in range(arity)), prim=name)
    if choice < 0.7:
        # chain two literal nodes through the triangle rule
        first = random_literal_node(rng, ctx)
        middle = first.conclusion.right
        r = _rational(rng)
        slack = Fraction(rng.randint(0, 4), 4)
        second = Derivation("Lit", DistanceJudgment(
            ctx, middle, Lit(abs(middle.value - r) + slack), Lit(r), REAL))
        return derive("TransReal", first, second)
    if choice < 0.85:
        return derive("QuasiReflReal",
                      random_real_derivation(rng, ctx, depth - 1))
    # a beta-redex introduced by conversion
    p = random_real_derivation(rng, ctx, depth - 1)
    j = p.conclusion
    u = fresh_name("u", frozenset(n for n, _ in ctx))
    wrapped = App(Lam(u, REAL, Var(u)), j.left)
    return Derivation("Conv", DistanceJudgment(
        ctx, wrapped, j.dist, j.right, REAL), (p,))


def random_fn_derivation(rng: random.Random, depth: int = 3) -> Derivation:
    """A valid closed derivation at Real -> Real via abstraction."""
    x = "x"
    ctx = ((x, REAL),)
    if rng.random() < 0.5:
        # congruence over a primitive applied to the variable
        var_node = Derivation("Var", DistanceJudgment(
            ctx, Var(x), Var("x'"), Var(x), REAL))
        if rng.choice(("sin", "add")) == "sin":
            body = derive("Prim", var_node, prim="sin")
        else:
            body = derive("Prim", var_node, random_literal_node(rng, ctx),
                          prim="add")
    else:
        body = random_real_derivation(rng, ctx, depth - 1)
    return derive("Abs", body)


def random_derivation(rng: random.Random, depth: int = 3) -> Derivation:
    if rng.random() < 0.7:
        return random_real_derivation(rng, (), depth)
    return random_fn_derivation(rng, depth)


@dataclass
class SuiteReport:
    total: int = 0
    checked: int = 0
    quasi_reflexive_ok: int = 0
    transitivity_ok: int = 0
    membership_ok: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_suite(count: int = 100, seed: int = 0,
                registry: Registry = DEFAULT_REGISTRY) -> SuiteReport:
    """Generate a corpus and run every cross-check on it."""
    rng = random.Random(seed)
    report = SuiteReport(total=count)
    for i in range(count):
        d = random_derivation(rng)
        j = d.conclusion

        r = check_derivation(d, registry)
        if not r:
            report.failures.append(f"[{i}] checker: {r.message} at {r.path}")
            continue
        report.checked += 1

        q = quasi_reflexive_derivation(d)
        rq = check_derivation(q, registry)
        wants_self = (q.conclusion.left == j.left
                      and q.conclusion.right == j.left)
        if rq and wants_self:
            report.quasi_reflexive_ok += 1
        else:
            report.failures.append(f"[{i}] self-distance transform: "
                                   f"{rq.message}")

        # chain with a derivation that starts from the right subject
        try:
            chained = transitivity_derivation(
                d, chain_partner(d, rng, registry))
            rc = check_derivation(chained, registry)
            if rc:
                report.transitivity_ok += 1
            else:
                report.failures.append(f"[{i}] chaining: {rc.message} at {rc.path}")
        except Exception as e:  # noqa: BLE001 - recorded, not raised
            report.failures.append(f"[{i}] chaining: {e}")

        verdict = check_dlog_judgment(j, registry)
        if isinstance(verdict, Consistent):
            report.membership_ok += 1
        else:
            report.failures.append(f"[{i}] membership: {verdict}")
    return report


def chain_partner(d: Derivation, rng: random.Random,
                  registry: Registry = DEFAULT_REGISTRY) -> Derivation:
    """A valid derivation whose left subject is ``d``'s right subject.

    At ``Real`` the right subject is closed, so it evaluates exactly to a
    literal; a literal judgment plus one conversion step restates it with
    the original term.  At arrows the canonical self-distance derivation
    of the right subject already starts in the right place.
    """
    j = d.conclusion
    if isinstance(j.ty, RealType):
        n = Lit(exact_value({}, j.right, registry))
        step = Fraction(rng.randint(0, 6), 4)
        target = n.value + step
        lit_node = Derivation("Lit", DistanceJudgment(
            (), n, Lit(step), Lit(target), REAL))
        return Derivation("Conv", DistanceJudgment(
            (), j.right, Lit(step), Lit(target), REAL), (lit_node,))
    return self_distance_derivation(j.right, registry)
