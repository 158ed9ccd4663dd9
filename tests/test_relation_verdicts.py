"""The verdicts of the four relation families, pinned by their ``repr``.

The golden was recorded before the membership checkers shared one
type-directed walker; a refactor of the checkers must reproduce it byte
for byte.  Inputs whose verdicts a later correction changed on purpose
are left out: the right-observational family at product types, and its
coarse-probe call when no coarse self-distance of the left element
verifies.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from lamdist.relations import (ProbeConfig, ProbeSet, check_delta, check_eta,
                               check_fundamental, check_gamma, check_rho,
                               check_theorem_approx, estimate_self_distance)
from lamdist.semantics import diff_evaluate, evaluate, top_diff
from lamdist.syntax import FnType, PairType, REAL, parse_term

GOLDEN = Path(__file__).parent / "golden" / "relation_verdicts.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FN = FnType(REAL, REAL)
COARSE = ("lipschitz", "top")


def named(src):
    t = parse_term(src)
    return t, evaluate(t), diff_evaluate(t)


def halved(d):
    return lambda x, b: 0.5 * d(x, b)


def halved_fn(d):
    return lambda f, df: halved(d(f, df))


def zero(x, b):
    return 0.0


def probes_workload() -> dict:
    """The 13 timed operations of perfbench ``probes`` at seed 4242, and
    its untimed central quotient over probe seed 17."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        wl = workloads.setup_probes(str(PERFBENCH.parent), 4242)
        out = {f"probes/{op.name}": repr(op.run()) for op in wl.ops}
        quotient = parse_term(workloads.QUOTIENT)
        out["probes/central-quotient@17"] = repr(check_fundamental(
            quotient, workloads.fixed_probes(workloads.FAULT_PROBE_SEED)))
        return out
    finally:
        sys.path.remove(str(PERFBENCH))


def library_triples() -> dict:
    """Every family on each function probe of three probe sets, as given
    and with its difference halved."""
    out = {}
    for seed in (3, 17, 26):
        ps = ProbeSet(ProbeConfig(count=40, seed=seed))
        for family in ("rho", "eta"):
            for i, p in enumerate(ps.triples(FN, family)):
                if family == "eta" and p.left_term is p.right_term:
                    # the self triples of both families agree but for
                    # their decomposition
                    out[f"{seed}/eta/{i}/member/eta/supplied"] = repr(
                        check_eta(FN, p.left, p.diff, p.right, ps,
                                  decomposition=p.decomposition))
                    continue
                f, f2 = p.left, p.right
                coarse = any(
                    name in COARSE for name, _ in estimate_self_distance(
                        FN, f, ps, term=p.left_term, family="eta").candidates)
                for tag, d in (("member", p.diff), ("halved", halved(p.diff))):
                    key = f"{seed}/{family}/{i}/{tag}/"
                    out[key + "rho"] = repr(check_rho(FN, f, d, f2, ps))
                    for tight in (False, True):
                        out[key + f"gamma/{tight}"] = repr(check_gamma(
                            FN, f, d, f2, ps, right_term=p.right_term,
                            tight_self_probes=tight))
                        if tight or coarse:
                            out[key + f"delta/{tight}"] = repr(check_delta(
                                FN, f, d, f2, ps, left_term=p.left_term,
                                tight_self_probes=tight))
                    out[key + "eta"] = repr(check_eta(
                        FN, f, d, f2, ps, left_term=p.left_term))
                    if p.decomposition is not None and tag == "member":
                        out[key + "eta/supplied"] = repr(check_eta(
                            FN, f, d, f2, ps, decomposition=p.decomposition))
    return out


def small_cases() -> dict:
    ps = ProbeSet(ProbeConfig(count=40, seed=11))
    sin_t, sin_v, sin_d = named(r"\x:Real. sin(x)")
    cos_t, cos_v, cos_d = named(r"\x:Real. cos(x)")
    c2_t, c2_v, _ = named(r"\x:Real. 2")
    out = {}
    for name, check in (("rho", check_rho), ("gamma", check_gamma),
                        ("eta", check_eta), ("delta", check_delta)):
        out[f"real/{name}/holds"] = repr(check(REAL, 0.0, 0.5, 0.3, ps))
        out[f"real/{name}/fails"] = repr(check(REAL, 0.0, 0.1, 0.3, ps))
    pair = PairType(REAL, FN)
    for name, check in (("rho", check_rho), ("gamma", check_gamma),
                        ("eta", check_eta)):
        out[f"pair/{name}/member"] = repr(check(
            pair, (1.0, sin_v), (0.5, sin_d), (1.25, sin_v), ps))
        out[f"pair/{name}/left-fails"] = repr(check(
            pair, (1.0, sin_v), (0.1, sin_d), (1.25, sin_v), ps))
        out[f"pair/{name}/right-fails"] = repr(check(
            pair, (1.0, sin_v), (0.5, zero), (1.0, cos_v), ps))
        out[f"pair/{name}/zero-self"] = repr(check(
            pair, (1.0, sin_v), (0.0, zero), (1.0, sin_v), ps))
    out["pair/eta/supplied"] = repr(check_eta(
        pair, (1.0, sin_v), (0.5, sin_d), (1.25, sin_v), ps,
        decomposition=((0.0, sin_d), (0.5, top_diff(FN)))))
    out["fn/eta/supplied-member"] = repr(check_eta(
        FN, sin_v, sin_d, sin_v, ps, decomposition=(sin_d, top_diff(FN))))
    out["fn/eta/supplied-fails"] = repr(check_eta(
        FN, sin_v, sin_d, cos_v, ps, decomposition=(sin_d, zero)))
    out["fn/eta/no-split"] = repr(check_eta(FN, sin_v, zero, cos_v, ps))
    # the crossing gap to a constant is covered and the self drift is not
    out["fn/rho/self-fails"] = repr(check_rho(
        FN, lambda x: x, lambda x, b: abs(x), lambda x: 0.0, ps))
    out["fn/gamma/id-sin"] = repr(check_gamma(
        FN, lambda x: x, lambda x, b: abs(x - math.sin(x)), sin_v, ps,
        right_term=sin_t, tight_self_probes=True))
    out["fn/delta/constants"] = repr(check_delta(
        FN, c2_v, lambda x, b: 0.5, evaluate(parse_term(r"\x:Real. 0")), ps,
        left_term=c2_t))

    fn_fn = FnType(FN, FN)
    quot_t, quot_v, quot_d = named(
        r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1")
    ident_t, ident_v, _ = named(r"\f:Real->Real. \x:Real. f x")
    # the case and probe set of tests/test_relations.py
    out["second-order/eta/quotient-vs-identity"] = repr(check_eta(
        fn_fn, quot_v, top_diff(fn_fn), ident_v,
        ProbeSet(ProbeConfig(count=150, seed=11))))
    out["second-order/rho/quotient"] = repr(check_rho(
        fn_fn, quot_v, quot_d, quot_v, ps))
    out["second-order/gamma/quotient-vs-identity"] = repr(check_gamma(
        fn_fn, quot_v, top_diff(fn_fn), ident_v, ps, right_term=ident_t,
        tight_self_probes=True))
    out["second-order/delta/quotient"] = repr(check_delta(
        fn_fn, quot_v, quot_d, quot_v, ps, left_term=quot_t,
        tight_self_probes=True))
    for i, p in enumerate(ps.triples(fn_fn)):
        out[f"second-order/{i}/eta/halved"] = repr(check_eta(
            fn_fn, p.left, halved_fn(p.diff), p.right, ps,
            left_term=p.left_term))

    fn_real = FnType(FN, REAL)
    functionals = [named(src) for src in (
        r"\f:Real->Real. f 0", r"\f:Real->Real. f 1 + f (-1)",
        r"\f:Real->Real. 3")]
    for i, (t, v, d) in enumerate(functionals):
        for j, (_, v2, _) in enumerate(functionals):
            for k, a in enumerate((d, top_diff(fn_real),
                                   lambda f, df: 100.0)):
                # only the constant has a coarse self-distance
                for tight in (True, False) if i == 2 else (True,):
                    out[f"fn-real/delta/{i}/{j}/{k}/{tight}"] = repr(
                        check_delta(fn_real, v, a, v2, ps, left_term=t,
                                    tight_self_probes=tight))
    for name, f, f2, a, a2 in (
            ("id-sin", lambda x: x, math.sin,
             lambda x, b: abs(x - math.sin(x)), lambda x, b: b),
            ("too-small", lambda x: x, math.sin,
             lambda x, b: abs(x - math.sin(x)) / 2, lambda x, b: b),
            ("no-self", math.sin, math.cos, lambda x, b: 1.5, zero)):
        out[f"approx/{name}"] = repr(check_theorem_approx(
            f, f2, a, a2, REAL, ps))

    for src in (r"\x:Real. sin(x)", r"\x:Real. 2", r"\x:Real. x * x",
                r"\x:Real. 1 / (x * x + 0.0001)"):
        t, v, _ = named(src)
        for family in ("rho", "eta"):
            for term in (None, t):
                est = estimate_self_distance(FN, v, ps, term=term,
                                             family=family)
                out[f"self-distance/{src}/{family}/{term is not None}"] = (
                    repr(([p for p, _ in est.candidates], est.probes)))
    est = estimate_self_distance(PairType(REAL, REAL), (1.0, 2.0), ps)
    out["self-distance/pair-of-reals"] = repr(est.candidates)
    return out


SECTIONS = {"probes": probes_workload, "library": library_triples,
            "cases": small_cases}


def section_of(key: str) -> str:
    if key.startswith("probes/"):
        return "probes"
    return "library" if key[0].isdigit() else "cases"


def relation_verdicts() -> dict:
    """Regenerate the golden with ``python -c "import json, sys;
    sys.path[:0] = ['src', 'tests']; import test_relation_verdicts as t;
    print(json.dumps(t.relation_verdicts(), indent=1))"`` run from the
    repository root."""
    return {k: v for make in SECTIONS.values() for k, v in make().items()}


@pytest.mark.parametrize("section", SECTIONS)
def test_verdict_reprs_match_golden(section):
    golden = json.loads(GOLDEN.read_text("utf-8"))
    expected = {k: v for k, v in golden.items() if section_of(k) == section}
    live = SECTIONS[section]()
    assert live.keys() == expected.keys()
    for key in expected:
        assert live[key] == expected[key], key
