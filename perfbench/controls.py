"""Negative controls: every output check of the benchmark, fed the right
answer and a deliberately wrong one.

    python3 perfbench/controls.py

Each line reports one control.  A control passes when the check accepts
the program's real output and rejects the wrong answer; the exit code is
1 if any control does not.
"""

from __future__ import annotations

import os
import random
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import towers  # noqa: E402
import workloads  # noqa: E402
from lamdist.eqtheory import (check_derivation,  # noqa: E402
                              derivation_from_json)
from lamdist.quantale import (check_section3_props, parse_quantale,  # noqa: E402
                              validate)
from lamdist.relations import (Consistent, Falsified, ProbeConfig,  # noqa: E402
                               ProbeSet, check_fundamental, check_gamma)
from lamdist.semantics import diff_evaluate, evaluate  # noqa: E402
from lamdist.syntax import REAL, FnType, parse_term  # noqa: E402

ROOT = os.path.dirname(HERE)


def laws_controls():
    with open(os.path.join(workloads.INPUTS, "frame3.qnt"), encoding="utf-8") as fh:
        text = fh.read()
    model = parse_quantale(text)
    elements = len(workloads.element_names(text))
    with open(os.path.join(ROOT, "corpus", "bad.qnt"), encoding="utf-8") as fh:
        bad = parse_quantale(fh.read())
    size = 2
    r = check_section3_props(model, size)
    right = checks.laws_report(r.relations_checked, r.passed, elements, size)
    yield ("laws: relations_checked off by one", right,
           checks.laws_report(r.relations_checked + 1, r.passed, elements, size))
    yield ("laws: propositions reported failing", right,
           checks.laws_report(r.relations_checked, False, elements, size))
    yield ("laws: bad.qnt passes validation",
           checks.rejected_quantale(validate(bad)),
           checks.rejected_quantale(validate(model)))


def probes_controls():
    rng = random.Random(0)
    probes = ProbeSet(ProbeConfig(count=workloads.PROBE_COUNT, seed=0))
    levels = towers.sin_add_tower(rng, 20)
    term = parse_term(towers.first_order_source(levels))
    f, df = evaluate(term), diff_evaluate(term)
    tower = workloads.first_order_checks("tower20", levels, term, rng)
    yield ("probes: value off by 1e-6 relative", tower(),
           tower(f=lambda x: f(x) * (1 + 1e-6)))
    yield ("probes: halved first-order difference", tower(),
           tower(df=lambda x, b: 0.5 * df(x, b)))

    qterm = parse_term(workloads.QUOTIENT)
    quotient = workloads.quotient_checks(qterm, rng)
    dF = diff_evaluate(qterm)
    yield ("probes: halved second-order difference", quotient(),
           quotient(dF=lambda g, dg: (lambda x, b: 0.5 * dF(g, dg)(x, b))))

    verdict = check_fundamental(term, probes)
    yield ("probes: member reported falsified",
           checks.verdict_member("tower20", verdict),
           checks.verdict_member("tower20", Falsified("base", (), 1.0, 0.5)))
    shifted = lambda x: f(x) + 1.0  # noqa: E731
    falsified = check_gamma(FnType(REAL, REAL), f, df, shifted, probes)
    yield ("probes: non-member reported consistent",
           checks.verdict_non_member("shifted", falsified),
           checks.verdict_non_member("shifted", Consistent(10)))
    yield ("probes: witness that does not re-check",
           checks.verdict_non_member("shifted", falsified),
           checks.verdict_non_member(
               "shifted", Falsified("base", (), falsified.rhs, falsified.lhs)))

    fault = check_fundamental(qterm, workloads.fixed_probes(
        workloads.FAULT_PROBE_SEED))
    yield ("probes: member falsified by more than a rounding step",
           checks.rounding_fault("central-quotient", fault),
           checks.rounding_fault("central-quotient", Falsified(
               "base", (), 1.5 * fault.lhs, fault.rhs)))


def run_controls():
    def op(call):
        return workloads.Op("op", call, lambda result: [])

    def errors(call):
        found = []
        run.run_round(workloads.Workload([op(call)], list), [], found, None)
        return found

    def raises():
        raise ValueError("deliberate")
    yield ("run: an operation that raises", errors(lambda: None),
           errors(raises))


def derivations_controls():
    texts = workloads.load_derivations()
    valid = next(t for n, t in texts.items() if n.startswith("q-"))
    mutated = next(t for n, t in texts.items() if n.startswith("m-"))

    def verdict(text, result=None):
        d = derivation_from_json(text)
        r = result or check_derivation(d)
        rule = None if r.ok else workloads.failing_rule(d, r.path)
        return checks.derivation_verdict("input", checks.undercut(text), r.ok,
                                         rule)

    ok = SimpleNamespace(ok=True, path=())
    yield ("derivations: undercut copy accepted", verdict(mutated),
           verdict(mutated, ok))
    yield ("derivations: valid derivation rejected", verdict(valid),
           verdict(valid, SimpleNamespace(ok=False, path=(0,))))
    yield ("derivations: undercut copy rejected at a non-Lit node",
           verdict(mutated), verdict(mutated, SimpleNamespace(ok=False, path=())))


def main() -> int:
    failures = 0
    for group in (laws_controls, probes_controls, derivations_controls,
                  run_controls):
        for name, right, wrong in group():
            good = not right and bool(wrong)
            failures += not good
            detail = wrong[0] if wrong else "wrong answer accepted"
            if right:
                detail = "right answer rejected: " + right[0]
            print(f"{'ok  ' if good else 'FAIL'} {name}: {detail}")
    print(f"{failures} control(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
