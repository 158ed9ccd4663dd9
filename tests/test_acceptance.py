"""The acceptance suite: eight end-to-end criteria, each printing one
pass line with its runtime.  Tolerances are pinned in the assertions; the
runtime bounds are asserted against wall-clock time.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lamdist.eqtheory import (check_derivation, check_dlog_judgment,
                              self_distance_derivation, synthesize_fundamental)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.prims import DEFAULT_REGISTRY, default_registry
from lamdist.quantale.finite import boolean, builtin, chain
from lamdist.quantale.lawvere import ExtReal, INFINITY, leq, residual, tensor
from lamdist.quantale.props import check_section3_props
from lamdist.relations import (Consistent, ProbeConfig, ProbeSet,
                               check_theorem_approx)
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.semantics.triples import apply_member_triple
from lamdist.syntax import Lit, REAL, derivative_term, parse_file, parse_term
from lamdist.syntax.terms import Var

from gen import random_closed_fn_term, random_real_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _report(n, description, elapsed, budget):
    print(f"ACCEPTANCE {n}: PASS — {description} ({elapsed:.2f}s "
          f"< {budget:.0f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def _deps_term(eps: str):
    return parse_term(
        rf"\f:Real->Real. \x:Real. (f (x + {eps}) - f x) / {eps}")


def test_criterion_1_worked_example_numerics():
    start = time.perf_counter()
    deps = parse_file((CORPUS / "deps.lam").read_text(),
                      DEFAULT_REGISTRY)["deps"]
    triple = (evaluate(deps), diff_evaluate(deps), evaluate(deps))

    def a(x, b):
        return abs(x - math.sin(x)) + b

    _, a_prime, _ = apply_member_triple(triple, (lambda v: v, a, math.sin))
    got = a_prime(0.0, 0.1)
    oracle = (abs(0.1 - math.sin(0.1)) + abs(0.0 - math.sin(0.0))
              + 2 * 0.1) / 0.1
    assert abs(got - oracle) <= 1e-9
    assert abs(got - 2.0) < 0.01  # the displayed "about 2"

    d = evaluate(deps)
    got2 = abs(d(lambda v: v)(0.0) - d(math.sin)(0.1))
    oracle2 = abs((0.1 - 0.0) / 0.1
                  - (math.sin(0.2) - math.sin(0.1)) / 0.1)
    assert abs(got2 - oracle2) <= 1e-9
    assert round(got2, 2) == 0.01  # the displayed "about 0.01"

    _report(1, f"applied difference bound {got:.9f}, observed gap "
               f"{got2:.9f}", time.perf_counter() - start, 1.0)


def test_criterion_2_quotient_bound_exact_rationals():
    start = time.perf_counter()
    for eps in ("0.1", "0.01", "0.5"):
        deps = _deps_term(eps)
        d = evaluate(deps, exact=True, registry=DEFAULT_REGISTRY)
        identity = lambda v: v  # noqa: E731

        def sine(v):
            return Fraction(math.sin(float(v)))

        lhs = abs(d(identity)(Fraction(0)) - d(sine)(Fraction(0)))
        eps_q = Fraction(eps)
        bound = abs(eps_q - Fraction(math.sin(float(eps_q)))) / eps_q
        assert isinstance(lhs, Fraction)
        assert lhs <= bound  # exact rational comparison
    _report(2, "forward-quotient distance below |eps - sin eps|/eps for "
               "eps in {0.1, 0.01, 0.5}, exact",
            time.perf_counter() - start, 1.0)


def test_criterion_3_vertical_plus_self_bound():
    start = time.perf_counter()
    cfg = ProbeConfig(count=1000, lo=-10.0, hi=10.0, b_max=1.0, seed=2024)
    probes = ProbeSet(cfg, DEFAULT_REGISTRY)

    def vertical(x, b):
        return abs(x - math.sin(x))

    def unit_self(x, b):
        return b

    report = check_theorem_approx(lambda v: v, math.sin, vertical,
                                  unit_self, REAL, probes)
    assert report.hypotheses_hold
    assert isinstance(report.conclusion, Consistent)
    assert report.probes >= 1000

    # independent re-verification: brute-force the combined bound
    for probe in probes.triples(REAL):
        x, b = probe.left, probe.diff
        bound = abs(x - math.sin(x)) + b
        worst = max(abs(x - math.sin(x + (2 * k / 40 - 1) * b))
                    for k in range(41))
        assert worst <= bound
    _report(3, f"combined bound consistent on {report.probes} probes, "
               "brute-force grid agrees", time.perf_counter() - start, 5.0)


def test_criterion_4_soundness_first_order_exact():
    start = time.perf_counter()
    rng = random.Random(4242)
    terms = [random_closed_fn_term(rng) for _ in range(500)]
    violations = 0
    checked = 0
    for t in terms:
        f = evaluate(t, registry=DEFAULT_REGISTRY)
        d = diff_evaluate(t, registry=DEFAULT_REGISTRY)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.0, 1.0)
            x2 = x + rng.uniform(-1.0, 1.0) * b
            if abs(x - x2) > b:
                b = abs(x - x2)
            checked += 1
            if abs(f(x) - f(x2)) > d(x, b):
                violations += 1
    assert violations == 0
    assert checked == 500 * 20
    _report(4, f"{checked} probe pairs over 500 random terms, "
               "zero violations (exact comparison)",
            time.perf_counter() - start, 10.0)


def test_criterion_5_observational_metric_propositions_exhaustive():
    start = time.perf_counter()
    configs = ([(boolean(), n) for n in (1, 2, 3)]
               + [(chain(1), n) for n in (1, 2, 3)]
               + [(chain(2), 2)])
    counts = {}
    for q, size in configs:
        report = check_section3_props(q, size)
        assert report.passed, (q.name, size, report.failures[:3])
        counts[(q.name, size)] = report.relations_checked
    assert counts[("chain1", 3)] == 19683
    assert counts[("chain2", 2)] == 256  # 256^2 = 65536 candidate pairs
    elapsed = time.perf_counter() - start
    _report(5, "all propositions hold on Boolean/chain models "
               f"({sum(counts.values())} relations, zero counterexamples)",
            elapsed, 30.0)


def test_criterion_6_adjunction_exhaustive_and_randomized():
    start = time.perf_counter()
    for name in ("bool", "chain1", "chain2", "chain3"):
        q = builtin(name)
        m = len(q)
        for a, b, c in itertools.product(range(m), repeat=3):
            assert q.leq(c, q.residual(a, b)) == q.leq(q.tensor(c, a), b)
    rng = random.Random(6)

    def element():
        if rng.random() < 0.1:
            return INFINITY
        return ExtReal(Fraction(rng.randint(0, 400), rng.randint(1, 40)))

    for _ in range(10_000):
        a, b, c = element(), element(), element()
        assert leq(c, residual(a, b)) == leq(tensor(c, a), b)
    _report(6, "residual adjunction exhaustive on builtins and on 10^4 "
               "exact rational triples", time.perf_counter() - start, 2.0)


def test_criterion_7_derivation_round_trip():
    start = time.perf_counter()
    reg = default_registry()
    rng = random.Random(77)
    real_count = 0
    for i in range(100):
        if i % 2 == 0:
            # open first-order term closed off by literal components
            term = random_real_term(rng, ("x", "y"), depth=3)
            components = {}
            for v in ("x", "y"):
                l = Fraction(rng.randint(-20, 20), 10)
                r = l + Fraction(rng.randint(-10, 10), 10)
                s = abs(l - r) + Fraction(rng.randint(0, 4), 4)
                components[v] = Derivation("Lit", DistanceJudgment(
                    (), Lit(l), Lit(s), Lit(r), REAL))
            d = synthesize_fundamental(
                (("x", REAL), ("y", REAL)), term, components, reg)
        else:
            d = self_distance_derivation(random_closed_fn_term(rng, 3), reg)
        result = check_derivation(d, reg)
        assert result, (i, result.message)
        j = d.conclusion
        verdict = check_dlog_judgment(j, reg)
        assert isinstance(verdict, Consistent), (i, verdict)
        if j.ty == REAL:
            real_count += 1
            lv = evaluate(j.left, exact=True, registry=reg)
            rv = evaluate(j.right, exact=True, registry=reg)
            dv = evaluate(j.dist, exact=True, registry=reg)
            assert abs(lv - rv) <= dv  # exact rationals
    assert real_count == 50
    _report(7, "100 synthesized derivations validate, stay members, and "
               f"satisfy the exact inequality at Real ({real_count} cases)",
            time.perf_counter() - start, 5.0)


def test_criterion_8_two_path_derivative_coherence():
    start = time.perf_counter()
    rng = random.Random(88)
    for _ in range(200):
        t = random_closed_fn_term(rng)
        syntactic = evaluate(derivative_term((), t, DEFAULT_REGISTRY),
                             registry=DEFAULT_REGISTRY)
        semantic = diff_evaluate(t, registry=DEFAULT_REGISTRY)
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.0, 1.0)
            assert abs(syntactic(x)(b) - semantic(x, b)) <= 1e-9
    _report(8, "syntactic and semantic difference paths agree within 1e-9 "
               "on 200 terms x 10 probes", time.perf_counter() - start, 5.0)
