"""The deep-input scaling gate: checking a derivation is linear in binder
depth, lifting it to the self-distance and triangle rules too, and
parsing is linear in nesting depth.

Run it from the repository root::

    python tests/deep_scaling.py

For closed binder chains ``\\x0:Real. ... \\x{n-1}:Real. x0`` of 1,000,
3,000 and 10,000 binders it builds the self-distance derivation and
times ``check_derivation`` on it, then ``quasi_reflexive_derivation`` and
``transitivity_derivation`` on it.  For chains of 100, 200 and 300
binders it times ``check_derivation`` on the self-distance lift, whose
every level ends in a ``Conv`` node; these rows report their time and
fail only if the check raises or judges the lift invalid.  For 1,000,
3,000 and 10,000 nested ``sin(`` calls it times ``parse_term`` and
``parse_shared`` (with an empty span table), and it times ``parse_term``
on 10,000 nested binders that all bind ``x``, each one renamed.  For
sums ``\\x:Real. x + ... + x`` and towers ``\\x:Real. sin(... sin(x))``
of 1,000, 3,000 and 10,000 levels it times ``evaluate`` and
``diff_evaluate``, compiling the term and applying it once, and checks
the result against the same computation made level by level.  Each
measurement runs in a fresh interpreter, and the script prints its wall
time and the interpreter's peak RSS.  It exits 1 if a measurement
raises, if a derivation is not judged valid, if an evaluator returns a
wrong value, if 10,000 binders take more than ``LIMIT_S`` seconds to
check or ``LIFT_LIMIT_S`` to lift, if the shadowing binders take more
than ``SHADOWED_LIMIT_S`` to parse, if parsing 10,000 nested calls peaks
above ``PARSE_RSS_MB`` (a span table that stored every nested span would
hold tokens quadratic in the depth), or if an evaluator on 10,000
levels takes more than ``EVAL_LIMIT_S`` or peaks above ``EVAL_RSS_MB``.

For the closed self-distance triple of the sum ``1 + ... + 1`` of 1,000,
3,000 and 10,000 terms, whose distance restates each left argument of
``add`` (about 4n distinct nodes, n² as a tree), it times exact
``evaluate`` of the distance, ``check_dlog`` on the triple and
``derivative_term`` of the distance, and checks the distance's value 0,
a consistent verdict and the derivative's value 0.  It exits 1 if one of
them is wrong, or at 10,000 terms takes more than ``SHARED_LIMIT_S`` or
peaks above ``SHARED_RSS_MB``: walking the tree takes minutes.  It times
exact ``evaluate`` of the product ``1.1 * ... * 1.1`` of 10,000 factors,
which shares nothing, and exits 1 if the value is not 1.1 to the
10,000th or the call grows the peak RSS by more than
``PRODUCT_GROWTH_MB``: keeping each factor's value, as large as its
subterm, would add about 40 MB.

For products ``Real * (Real * ...)`` 1,000, 3,000 and 10,000 deep it
times ``check_rho``, ``estimate_self_distance``,
``eta_transitivity_split`` and ``tensor_diff`` on a value of the type
related to itself at distance 0, ``ProbeSet.triples`` at the type, and
``check_dlog`` on the pair term ``(1, (1, ...))`` against itself at its
derivative, and checks each result leaf by leaf.  It exits 1 if one is
wrong, or at 10,000 takes more than ``PAIR_LIMIT_S`` or peaks above
``PAIR_RSS_MB``; ``triples`` keeps these bounds too, as a product
probe's label is rendered from its components' only when read.

For 1,000, 3,000 and 10,000 binders it times the capture-avoiding walk:
``substitute`` of ``x`` by ``(y, w)`` under binders alternately named
``y`` and ``w``, each one renamed; ``rename_binders`` renaming every
binder of the chain ``\\x0:Real. ... \\x{n-1}:Real. x0``; and
``parse_term`` of ``(\\x0:Real. ... \\x{n-1}:Real. x0) (x0 + ... +
x{n-1})``, whose binders shadow the argument's free names.  It exits 1
if a result is wrong or at 10,000 binders takes more than
``BINDER_LIMIT_S``: a walk started within the walk of each renamed
binder takes minutes.
Standard library only.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1_000, 3_000, 10_000)
LIMIT_S = 20.0  # for the largest size
PARSERS = ("parse_term", "parse_shared")
PARSE_RSS_MB = 400.0  # for the largest size: about 85 bounded, 2,000 without
LIFTS = ("quasi_reflexive_derivation", "transitivity_derivation")
LIFT_LIMIT_S = 10.0  # for the largest size: about 0.4 and 1.2 s
LIFT_CHECK_SIZES = (100, 200, 300)  # quadratic in the depth: no limit yet
SHADOWED = 10_000
SHADOWED_LIMIT_S = 1.0  # about 0.05 s; 3 s when each renaming counted from 1
EVALUATORS = ("evaluate", "diff_evaluate")
SHAPES = ("sum", "sin")
EVAL_LIMIT_S = 5.0  # for the largest size: about 0.3 s
EVAL_RSS_MB = 200.0  # for the largest size: about 35
SHARED_WALKS = ("evaluate", "check_dlog", "derivative_term")
SHARED_LIMIT_S = 5.0  # for the largest size: about 0.2-0.6 s
SHARED_RSS_MB = 200.0  # for the largest size: about 35
PRODUCT = 10_000
PRODUCT_GROWTH_MB = 5.0  # about 0; 43 when every value is kept
PAIR_CALLS = ("check_rho", "estimate_self_distance",
              "eta_transitivity_split", "tensor_diff", "triples",
              "check_dlog")
PAIR_LIMIT_S = 5.0  # for the largest size: about 0.05-0.5 s, 2 for triples
PAIR_RSS_MB = 200.0  # for the largest size: about 25-35, 90 for triples
BINDER_CALLS = ("substitute", "rename_binders", "parse_term")
BINDER_LIMIT_S = 2.0  # for the largest size: about 0.05-0.25 s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _chain(n: int):
    """The closed chain of ``n`` binders, parsed in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.syntax import parse_term

    return parse_term("".join(f"\\x{i}:Real. " for i in range(n)) + "x0")


def measure(n: int) -> dict:
    """Build and check the self-distance derivation of an ``n``-binder
    chain in this interpreter."""
    chain = _chain(n)
    from lamdist.eqtheory import check_derivation, self_distance_derivation

    start = perf_counter()
    d = self_distance_derivation(chain)
    built = perf_counter() - start
    start = perf_counter()
    result = check_derivation(d)
    checked = perf_counter() - start
    return {"binders": n, "valid": result.ok, "build_s": built,
            "check_s": checked, "peak_rss_mb": _peak_rss_mb()}


def measure_lift(lift: str, n: int) -> dict:
    """Lift the self-distance derivation of an ``n``-binder chain with
    ``lift`` in this interpreter, to the chain related to itself."""
    chain = _chain(n)
    from lamdist import eqtheory
    from lamdist.syntax.terms import alpha_equal

    d = eqtheory.self_distance_derivation(chain)
    start = perf_counter()
    if lift == "quasi_reflexive_derivation":
        lifted = eqtheory.quasi_reflexive_derivation(d)
    else:
        lifted = eqtheory.transitivity_derivation(d, d)
    took = perf_counter() - start
    j = lifted.conclusion
    return {"lift": lift, "binders": n, "lift_s": took,
            "same": alpha_equal(j.left, chain) and alpha_equal(j.right, chain),
            "peak_rss_mb": _peak_rss_mb()}


def measure_parse(parser: str, n: int) -> dict:
    """Parse ``n`` nested ``sin(`` calls with ``parser``, or with
    ``shadowed``, ``n`` nested binders of ``x``, in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.syntax import parse_term, render_term
    from lamdist.syntax.parser import parse_shared
    from lamdist.syntax.terms import all_var_names, free_vars

    if parser == "shadowed":  # read with each binder renamed apart
        start = perf_counter()
        t = parse_term("\\x:Real. " * n + "x")
        parsed = perf_counter() - start
        same = len(all_var_names(t)) == n and not free_vars(t)
    else:
        text = "sin(" * n + "x" + ")" * n
        start = perf_counter()
        t = (parse_term(text) if parser == "parse_term"
             else parse_shared(text, {}))
        parsed = perf_counter() - start
        same = render_term(t) == text
    return {"parser": parser, "calls": n, "same": same, "parse_s": parsed,
            "peak_rss_mb": _peak_rss_mb()}


def measure_lift_check(n: int) -> dict:
    """Check the self-distance lift of an ``n``-binder chain in this
    interpreter."""
    chain = _chain(n)
    from lamdist.eqtheory import (check_derivation,
                                  quasi_reflexive_derivation,
                                  self_distance_derivation)

    lifted = quasi_reflexive_derivation(self_distance_derivation(chain))
    start = perf_counter()
    result = check_derivation(lifted)
    checked = perf_counter() - start
    return {"binders": n, "valid": result.ok, "check_s": checked,
            "peak_rss_mb": _peak_rss_mb()}


def measure_evaluator(evaluator: str, shape: str, n: int) -> dict:
    """Compile an ``n``-level ``shape`` with ``evaluator`` and apply it
    once, in this interpreter; compare with the same computation made
    level by level: the sum of ``n`` ones (of ``n`` radii 0.5), or
    ``math.sin`` iterated ``n`` times (with the difference that
    ``prim_modulus`` gives each level)."""
    import math
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.prims import DEFAULT_REGISTRY, prim_modulus
    from lamdist.semantics import diff_evaluate, evaluate
    from lamdist.syntax import parse_term

    if shape == "sum":
        t = parse_term("\\x:Real. " + " + ".join(["x"] * n))
        y, b, want = 1.0, 0.5, (float(n) if evaluator == "evaluate"
                                else 0.5 * n)
    else:
        t = parse_term("\\x:Real. " + "sin(" * n + "x" + ")" * n)
        y, b = 0.75, 1e-3
        value, diff = y, b
        for _ in range(n):
            value, diff = (math.sin(value),
                           prim_modulus(DEFAULT_REGISTRY["sin"], (value,),
                                        (diff,)))
        want = value if evaluator == "evaluate" else diff
    start = perf_counter()
    got = evaluate(t)(y) if evaluator == "evaluate" else diff_evaluate(t)(y, b)
    took = perf_counter() - start
    return {"evaluator": evaluator, "shape": shape, "levels": n,
            "same": repr(got) == repr(want), "eval_s": took,
            "peak_rss_mb": _peak_rss_mb()}


def measure_shared(walk: str, n: int) -> dict:
    """Run ``walk`` on the closed self-distance triple of an ``n``-term
    sum of ones in this interpreter, or with ``product``, exact
    ``evaluate`` on the product of ``n`` factors 1.1."""
    from fractions import Fraction
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.eqtheory import check_dlog, self_distance_derivation
    from lamdist.relations import Consistent
    from lamdist.semantics import evaluate
    from lamdist.syntax import derivative_term, parse_term

    if walk == "product":
        t = parse_term(" * ".join(["1.1"] * n))
    else:
        j = self_distance_derivation(parse_term(" + ".join(["1"] * n))
                                     ).conclusion
    before = _peak_rss_mb()
    start = perf_counter()
    if walk == "product":
        got = evaluate(t, exact=True)
    elif walk == "evaluate":
        got = evaluate(j.dist, exact=True)
    elif walk == "check_dlog":
        got = check_dlog(j.ty, j.left, j.dist, j.right)
    else:
        got = derivative_term((), j.dist)
    took = perf_counter() - start
    peak = _peak_rss_mb()
    if walk == "product":
        same = got == Fraction(11, 10) ** n
    elif walk == "check_dlog":
        same = isinstance(got, Consistent) and got.established
    elif walk == "derivative_term":
        same = evaluate(got, exact=True) == 0
    else:
        same = got == 0
    return {"walk": walk, "terms": n, "same": same, "walk_s": took,
            "peak_rss_mb": peak, "grown_mb": peak - before}


def _leaves(value, n: int) -> list:
    """The ``n + 1`` leaves of a value of a product ``n`` deep."""
    out = []
    for _ in range(n):
        out.append(value[0])
        value = value[1]
    return out + [value]


def measure_pair(call: str, n: int) -> dict:
    """Run ``call`` at the product ``Real * (Real * ...)`` ``n`` deep in
    this interpreter, and check its result leaf by leaf."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.eqtheory import check_dlog
    from lamdist.relations import (Consistent, ProbeConfig, ProbeSet,
                                   check_rho)
    from lamdist.relations.checkers import (estimate_self_distance,
                                            eta_transitivity_split)
    from lamdist.semantics.diff import tensor_diff
    from lamdist.syntax import REAL, derivative_term, parse_term
    from lamdist.syntax.terms import PairType

    ty, x, a = REAL, 1.0, 0.0
    for _ in range(n):
        ty, x, a = PairType(REAL, ty), (1.0, x), (0.0, a)
    probes = ProbeSet(ProbeConfig(count=5))
    if call == "check_dlog":
        t = parse_term("(1, " * n + "1" + ")" * n)
        dt = derivative_term((), t)
    start = perf_counter()
    if call == "check_rho":
        got = check_rho(ty, x, a, x, probes)
    elif call == "estimate_self_distance":
        got = estimate_self_distance(ty, x, probes)
    elif call == "eta_transitivity_split":
        got = eta_transitivity_split(ty, a, x)
    elif call == "tensor_diff":
        got = tensor_diff(ty, a, x)
    elif call == "triples":
        got = probes.triples(ty)
    else:
        got = check_dlog(ty, t, dt, t)
    took = perf_counter() - start
    ones = [1.0] * (n + 1)
    if call in ("check_rho", "check_dlog"):
        same = got == Consistent(probes=n + 1)
    elif call == "estimate_self_distance":
        (_, zeros), = got.candidates
        same = _leaves(zeros, n) == [0.0] * (n + 1)
    elif call == "eta_transitivity_split":
        same = (_leaves(got[0], n) == [0.0] * (n + 1)
                and _leaves(got[1], n) == ones)
    elif call == "tensor_diff":
        same = _leaves(got, n) == ones
    else:
        reals = probes.triples(REAL)
        same = len(got) == len(reals) and all(
            _leaves(p.left, n) == [r.left] * (n + 1)
            for p, r in zip(got, reals))
    return {"call": call, "depth": n, "same": same, "call_s": took,
            "peak_rss_mb": _peak_rss_mb()}


def measure_binders(call: str, n: int) -> dict:
    """Run ``call`` on ``n`` binders in this interpreter, and check that
    its result binds and leaves free the names it should."""
    sys.path.insert(0, str(ROOT / "src"))
    from lamdist.syntax import parse_term
    from lamdist.syntax.terms import (REAL, Lam, Pair, Var, all_var_names,
                                      alpha_equal, free_vars, rename_binders,
                                      substitute)

    xs = [f"x{i}" for i in range(n)]
    if call == "substitute":
        t = Var("x")
        for i in range(n):
            t = Lam("yw"[i % 2], REAL, t)
    elif call == "rename_binders":
        t = _chain(n)
    else:
        text = ("(" + "".join(f"\\{x}:Real. " for x in xs) + "x0) ("
                + " + ".join(xs) + ")")
    start = perf_counter()
    if call == "substitute":
        got = substitute(t, {"x": Pair(Var("y"), Var("w"))})
    elif call == "rename_binders":
        got = rename_binders(t, (), lambda var, body, scope: var + "r")
    else:
        got = parse_term(text)
    took = perf_counter() - start
    if call == "substitute":
        same = free_vars(got) == {"y", "w"}
    elif call == "rename_binders":
        same = (alpha_equal(got, t)
                and all_var_names(got) == {x + "r" for x in xs})
    else:
        same = free_vars(got) == set(xs) and len(all_var_names(got)) == 2 * n
    return {"call": call, "binders": n, "same": same, "call_s": took,
            "peak_rss_mb": _peak_rss_mb()}


MEASURES = {"check": measure, "lift": measure_lift, "parse": measure_parse,
            "lift-check": measure_lift_check, "evaluate": measure_evaluator,
            "shared": measure_shared, "pair": measure_pair,
            "binders": measure_binders}


def run(*args: str) -> dict | None:
    """The row that this script prints for ``args`` in a fresh
    interpreter, or ``None`` if it failed."""
    proc = subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(f"{' '.join(args)} failed:\n{proc.stderr}")
        return None
    return json.loads(proc.stdout)


def main() -> int:
    failed = False
    print(f"{'binders':>8} {'build s':>8} {'check s':>8} {'peak RSS MB':>12}")
    for n in SIZES:
        if (row := run("check", str(n))) is None:
            return 1
        print(f"{n:>8} {row['build_s']:>8.2f} {row['check_s']:>8.2f} "
              f"{row['peak_rss_mb']:>12.1f}")
        if not row["valid"]:
            print(f"  the derivation over {n} binders is not judged valid")
            failed = True
    if row["check_s"] > LIMIT_S:
        print(f"  checking {n} binders took over {LIMIT_S:g} s")
        failed = True
    print(f"\n{'lift':>26} {'binders':>8} {'lift s':>8} {'peak RSS MB':>12}")
    for lift in LIFTS:
        for n in SIZES:
            if (row := run("lift", lift, str(n))) is None:
                return 1
            print(f"{lift:>26} {n:>8} {row['lift_s']:>8.2f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {lift} does not relate {n} binders to themselves")
                failed = True
        if row["lift_s"] > LIFT_LIMIT_S:
            print(f"  {lift} on {n} binders took over {LIFT_LIMIT_S:g} s")
            failed = True
    print(f"\n{'lift checked':>26} {'binders':>8} {'check s':>8} "
          f"{'peak RSS MB':>12}")
    for n in LIFT_CHECK_SIZES:
        if (row := run("lift-check", str(n))) is None:
            return 1
        print(f"{'quasi_reflexive_derivation':>26} {n:>8} "
              f"{row['check_s']:>8.2f} {row['peak_rss_mb']:>12.1f}")
        if not row["valid"]:
            print(f"  the self-distance lift over {n} binders is not judged "
                  "valid")
            failed = True
    print(f"\n{'parser':>12} {'depth':>8} {'parse s':>8} {'peak RSS MB':>12}")
    for parser, sizes in (*((p, SIZES) for p in PARSERS),
                          ("shadowed", (SHADOWED,))):
        for n in sizes:
            if (row := run("parse", parser, str(n))) is None:
                return 1
            print(f"{parser:>12} {n:>8} {row['parse_s']:>8.3f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {parser} misreads {n} levels")
                failed = True
        if parser == "shadowed" and row["parse_s"] > SHADOWED_LIMIT_S:
            print(f"  {n} shadowing binders took over "
                  f"{SHADOWED_LIMIT_S:g} s to parse")
            failed = True
        elif parser != "shadowed" and row["peak_rss_mb"] > PARSE_RSS_MB:
            print(f"  {parser} on {n} nested calls peaked above "
                  f"{PARSE_RSS_MB:g} MB")
            failed = True
    print(f"\n{'evaluator':>14} {'shape':>6} {'levels':>8} {'eval s':>8} "
          f"{'peak RSS MB':>12}")
    for evaluator in EVALUATORS:
        for shape in SHAPES:
            for n in SIZES:
                if (row := run("evaluate", evaluator, shape, str(n))) is None:
                    return 1
                print(f"{evaluator:>14} {shape:>6} {n:>8} "
                      f"{row['eval_s']:>8.3f} {row['peak_rss_mb']:>12.1f}")
                if not row["same"]:
                    print(f"  {evaluator} gives a wrong value on {n} levels "
                          f"of {shape}")
                    failed = True
            if row["eval_s"] > EVAL_LIMIT_S:
                print(f"  {evaluator} on {n} levels of {shape} took over "
                      f"{EVAL_LIMIT_S:g} s")
                failed = True
            if row["peak_rss_mb"] > EVAL_RSS_MB:
                print(f"  {evaluator} on {n} levels of {shape} peaked above "
                      f"{EVAL_RSS_MB:g} MB")
                failed = True
    print(f"\n{'shared walk':>16} {'terms':>8} {'walk s':>8} "
          f"{'peak RSS MB':>12}")
    for walk, sizes in (*((w, SIZES) for w in SHARED_WALKS),
                        ("product", (PRODUCT,))):
        for n in sizes:
            if (row := run("shared", walk, str(n))) is None:
                return 1
            print(f"{walk:>16} {n:>8} {row['walk_s']:>8.3f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {walk} is wrong on {n} terms")
                failed = True
        if walk == "product":
            if row["grown_mb"] > PRODUCT_GROWTH_MB:
                print(f"  the product of {n} factors grew the peak RSS by "
                      f"{row['grown_mb']:.1f} MB, over {PRODUCT_GROWTH_MB:g}")
                failed = True
        elif row["walk_s"] > SHARED_LIMIT_S:
            print(f"  {walk} on {n} terms took over {SHARED_LIMIT_S:g} s")
            failed = True
        elif row["peak_rss_mb"] > SHARED_RSS_MB:
            print(f"  {walk} on {n} terms peaked above {SHARED_RSS_MB:g} MB")
            failed = True
    print(f"\n{'product call':>24} {'depth':>8} {'call s':>8} "
          f"{'peak RSS MB':>12}")
    for call in PAIR_CALLS:
        for n in SIZES:
            if (row := run("pair", call, str(n))) is None:
                return 1
            print(f"{call:>24} {n:>8} {row['call_s']:>8.3f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {call} is wrong on a product {n} deep")
                failed = True
        if row["call_s"] > PAIR_LIMIT_S:
            print(f"  {call} on a product {n} deep took over "
                  f"{PAIR_LIMIT_S:g} s")
            failed = True
        if row["peak_rss_mb"] > PAIR_RSS_MB:
            print(f"  {call} on a product {n} deep peaked above "
                  f"{PAIR_RSS_MB:g} MB")
            failed = True
    print(f"\n{'binder call':>16} {'binders':>8} {'call s':>8} "
          f"{'peak RSS MB':>12}")
    for call in BINDER_CALLS:
        for n in SIZES:
            if (row := run("binders", call, str(n))) is None:
                return 1
            print(f"{call:>16} {n:>8} {row['call_s']:>8.3f} "
                  f"{row['peak_rss_mb']:>12.1f}")
            if not row["same"]:
                print(f"  {call} is wrong on {n} binders")
                failed = True
        if row["call_s"] > BINDER_LIMIT_S:
            print(f"  {call} on {n} binders took over {BINDER_LIMIT_S:g} s")
            failed = True
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        measure_row = MEASURES[sys.argv[1]]
        print(json.dumps(measure_row(*sys.argv[2:-1], int(sys.argv[-1]))))
        sys.exit(0)
    sys.exit(main())
