import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lamdist.gen import random_closed_fn_term
from lamdist.prims import EvalDomainError, Primitive, default_registry
from lamdist.relations import ProbeConfig, ProbeSet, check_fundamental
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import App, Lam, Lit, PrimOp, REAL, Var, parse_term

DEPS = r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1"


def test_eval_identity_application():
    assert evaluate(parse_term(r"(\x:Real. x) 3.0")) == 3.0


def test_eval_projections():
    assert evaluate(parse_term("fst((1, 2))")) == 1.0
    assert evaluate(parse_term("snd((1, (2, 3)))")) == (2.0, 3.0)


def test_eval_difference_quotient_of_sin():
    d = evaluate(parse_term(DEPS))
    got = d(math.sin)(0.0)
    assert got == pytest.approx(math.sin(0.1) / 0.1, abs=1e-12)
    assert got == pytest.approx(0.998334, abs=1e-6)


def test_eval_division_by_zero_is_domain_error():
    with pytest.raises(EvalDomainError):
        evaluate(parse_term("1 / (2 - 2)"))


def test_exact_mode_field_arithmetic():
    t = parse_term(r"(\x:Real. (x + 0.1) / 0.3) 0.2")
    assert evaluate(t, exact=True) == Fraction(1)


def test_exact_mode_is_deterministic_for_sin():
    t = parse_term("sin(0.5) + sin(0.5)")
    assert evaluate(t, exact=True) == 2 * Fraction(math.sin(0.5))


def test_diff_variable_projects_environment():
    t = parse_term("x")
    assert diff_evaluate(t, {"x": 5.0}, {"x": 0.3}) == 0.3


def test_diff_literal_is_zero():
    assert diff_evaluate(parse_term("3.5"), {}, {}) == 0.0


def test_diff_primitive_uses_modulus():
    t = parse_term("sin(x)")
    got = diff_evaluate(t, {"x": 0.0}, {"x": 0.1})
    assert got == pytest.approx(math.sin(0.1), abs=1e-15)


def test_diff_of_difference_quotient_matches_displayed_formula():
    # the difference of the forward quotient at f with input-difference
    # function a is  (a(x + eps)(b) + a(x)(b)) / eps
    eps = 0.1
    dd = diff_evaluate(parse_term(DEPS))

    def a(x, b):
        return abs(x - math.sin(x)) + b

    e_of_id = dd(lambda v: v, a)
    rng = random.Random(3)
    for _ in range(40):
        x = rng.uniform(-5, 5)
        b = rng.uniform(0, 1)
        want = (a(x + eps, b) + a(x, b)) / eps
        assert e_of_id(x, b) == pytest.approx(want, rel=1e-12)


def test_diff_zero_error_collapses_to_zero():
    rng = random.Random(4)
    for _ in range(30):
        t = random_closed_fn_term(rng)
        d = diff_evaluate(t)
        x = rng.uniform(-3, 3)
        assert d(x, 0.0) == 0.0


def test_diff_monotone_in_the_error():
    rng = random.Random(5)
    for _ in range(30):
        t = random_closed_fn_term(rng)
        d = diff_evaluate(t)
        x = rng.uniform(-3, 3)
        b1 = rng.uniform(0, 1)
        b2 = b1 + rng.uniform(0, 1)
        assert d(x, b1) <= d(x, b2) + 1e-12


def test_diff_pairs_and_projections():
    t = parse_term(r"\x:Real. (x, sin(x))")
    d = diff_evaluate(t)
    dx, dsin = d(0.0, 0.1)
    assert dx == 0.1
    assert dsin == pytest.approx(math.sin(0.1))
    t2 = parse_term(r"\x:Real. fst((x, x))")
    assert diff_evaluate(t2)(1.0, 0.25) == 0.25


# --- work and errors of the compiled evaluators ------------------------------

def test_diff_evaluate_is_linear_in_depth():
    # one primitive call per node whose value is used (every node but the
    # root) and one modulus per node; re-evaluating argument subterms at
    # every level would call the primitive 780 times
    reg = default_registry()
    calls = {"fn": 0, "modulus": 0}

    def fn(y):
        calls["fn"] += 1
        return 0.5 * y

    def modulus(ys, bs):
        calls["modulus"] += 1
        return 0.5 * bs[0]

    reg.register(Primitive("half", 1, fn, modulus=modulus))
    body = "x"
    for _ in range(40):
        body = f"half({body})"
    d = diff_evaluate(parse_term(rf"\x:Real. {body}", reg), registry=reg)
    assert d(1.0, 0.25) == 0.25 * 0.5 ** 40
    assert calls == {"fn": 39, "modulus": 40}


def test_domain_error_waits_for_application():
    f = evaluate(parse_term(r"\x:Real. 1 / (x - x)"))
    assert callable(f)
    with pytest.raises(EvalDomainError, match="outside declared domain"):
        f(2.0)


def test_unbound_variable_waits_for_the_call():
    f = evaluate(Lam("x", REAL, PrimOp("add", (Var("x"), Var("y")))))
    assert callable(f)
    with pytest.raises(NameError, match="unbound variable 'y'"):
        f(1.0)
    assert evaluate(Lam("x", REAL, Var("y")), {"y": 3.0})(1.0) == 3.0
    exact = evaluate(Lam("x", REAL, PrimOp("add", (Var("x"), Var("y")))),
                     exact=True)
    with pytest.raises(NameError, match="^unbound variable 'y' at evaluation"):
        exact(Fraction(1))


def test_diff_needs_values_of_primitive_arguments():
    with pytest.raises(NameError, match="unbound variable 'x'"):
        diff_evaluate(parse_term("sin(x)"), {}, {"x": 0.1})
    with pytest.raises(NameError, match="no difference bound"):
        diff_evaluate(parse_term("sin(x)"), {"x": 0.1}, {})


def test_negative_radius_is_rejected():
    with pytest.raises(ValueError, match="error radius"):
        diff_evaluate(parse_term("sin(x)"), {"x": 0.0}, {"x": -0.5})
    d = diff_evaluate(parse_term(r"\x:Real. x * x"))
    with pytest.raises(ValueError, match="error radius"):
        d(1.0, -1.0)


def test_applied_difference_must_be_a_function():
    t = App(Var("f"), Lit(1))
    with pytest.raises(TypeError, match="not a function"):
        diff_evaluate(t, {"f": math.sin}, {"f": 0.0})


def test_checks_survive_python_optimize():
    # the compiled fast path may not rely on assert statements
    script = textwrap.dedent(r"""
        from lamdist.prims import EvalDomainError
        from lamdist.semantics import diff_evaluate, evaluate
        from lamdist.syntax import parse_term

        def raises(exc, thunk):
            try:
                thunk()
            except exc:
                return
            raise SystemExit(f"no {exc.__name__}")

        raises(EvalDomainError,
               lambda: evaluate(parse_term(r"\x:Real. 1 / (x - x)"))(1.0))
        raises(EvalDomainError,
               lambda: evaluate(parse_term(r"\x:Real. x * x"))(1e200))
        raises(ValueError,
               lambda: diff_evaluate(parse_term(r"\x:Real. sin(x)"))(0.0, -1))
        print("checked")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "checked"


# --- bit identity against recorded outputs -----------------------------------

GOLDEN = Path(__file__).parent / "golden" / "semantics_values.json"
QUOTIENT = r"\f:Real->Real. \x:Real. (f (x + 0.285) - f (x - 0.285)) / 0.57"


def _hex(thunk):
    try:
        return float.hex(thunk())
    except ArithmeticError as e:
        return f"raises {type(e).__name__}"


def semantic_values() -> dict:
    """Outputs of ``evaluate`` (float and exact mode) and ``diff_evaluate``
    at b = 0, a finite b and b = inf, on seeded random first-order terms
    and on the central quotient at ``sin``, plus the central quotient's
    probe-seed-17 witness.  Regenerate the golden with
    ``python -c "import json, sys; sys.path[:0] = ['src', 'tests'];
    import test_semantics as t; print(json.dumps(t.semantic_values(),
    indent=1))"`` run from the repository root."""
    rng = random.Random(2026)
    out = {}
    for i in range(30):
        t = random_closed_fn_term(rng, depth=4)
        f, df, fx = evaluate(t), diff_evaluate(t), evaluate(t, exact=True)
        rows = []
        for _ in range(4):
            x = round(rng.uniform(-3, 3), 3)
            b = rng.uniform(0, 1)
            rows.append({
                "x": x, "b": float.hex(b),
                "value": _hex(lambda: f(x)),
                "diff": [_hex(lambda: df(x, bb)) for bb in (0.0, b, math.inf)],
                "exact": str(fx(Fraction(x)))})
        out[f"random-{i}"] = rows
    quotient = parse_term(QUOTIENT)
    F, dF = evaluate(quotient), diff_evaluate(quotient)
    Fsin = F(math.sin)
    bound = dF(math.sin, lambda y, b: 2 * abs(y) + b)
    rows = []
    for _ in range(20):
        x, b = rng.uniform(-5, 5), rng.uniform(0, 1)
        rows.append({
            "x": float.hex(x), "b": float.hex(b),
            "value": _hex(lambda: Fsin(x)),
            "diff": [_hex(lambda: bound(x, bb)) for bb in (0.0, b, math.inf)]})
    out["central-quotient-sin"] = rows
    verdict = check_fundamental(quotient, ProbeSet(ProbeConfig(count=200,
                                                               seed=17)))
    out["central-quotient-seed17"] = {
        "verdict": type(verdict).__name__, "lhs": repr(verdict.lhs),
        "rhs": repr(verdict.rhs), "path": list(verdict.path)}
    return out


def test_outputs_bit_identical_to_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    live = semantic_values()
    assert live.keys() == golden.keys()
    for key in golden:
        assert live[key] == golden[key], key
