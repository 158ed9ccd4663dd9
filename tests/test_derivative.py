import random

import pytest

from lamdist.prims import default_registry
from lamdist.syntax import (DottedVariableClash, FnType, Lit, REAL,
                            derivative_term, parse_term, partial_type,
                            render_type, typecheck)
from lamdist.syntax.terms import Lam, PrimOp, Var, alpha_equal
from lamdist.syntax.derivative import partial_context

from gen import random_closed_fn_term


def test_partial_type_equations():
    assert partial_type(REAL) == REAL
    assert render_type(partial_type(parse_term(r"\f:Real->Real. f").var_type)) \
        == "Real -> Real -> Real"
    ty = parse_term(r"\f:(Real*Real)->Real. f").var_type
    assert render_type(partial_type(ty)) == "Real * Real -> Real * Real -> Real"


def test_identity_derivative():
    t = parse_term(r"\x:Real. x")
    dt = derivative_term((), t)
    assert alpha_equal(dt, Lam("x", REAL, Lam("x'", REAL, Var("x'"))))


def test_literal_derivative_is_zero():
    assert derivative_term((), Lit(5)) == Lit(0)


def test_prim_derivative_shape():
    reg = default_registry()
    dt = derivative_term((("x", REAL),), parse_term("sin(x)"), reg)
    assert dt == PrimOp("sin_d", (Var("x"), Var("x'")))


def test_application_clause():
    reg = default_registry()
    t = parse_term(r"(\x:Real. x) 3")
    dt = derivative_term((), t, reg)
    # derivative of application: derivative of fn, original arg, derivative of arg
    want = parse_term(r"(\x:Real. \x':Real. x') 3 0")
    assert alpha_equal(dt, want)


def test_type_soundness_on_random_terms():
    reg = default_registry()
    rng = random.Random(13)
    for _ in range(60):
        t = random_closed_fn_term(rng)
        ty = typecheck((), t, reg)
        dt = derivative_term((), t, reg)
        assert typecheck((), dt, reg) == partial_type(ty)


def test_type_soundness_in_context():
    reg = default_registry()
    ctx = (("x", REAL), ("f", FnType(REAL, REAL)))
    t = parse_term("f (x + 1) * x")
    dt = derivative_term(ctx, t, reg)
    full = ctx + partial_context(ctx)
    assert typecheck(full, dt, reg) == partial_type(REAL)


def test_refuses_primed_inputs():
    with pytest.raises(DottedVariableClash):
        derivative_term((("x'", REAL),), Var("x'"))
    with pytest.raises(DottedVariableClash):
        derivative_term((), parse_term(r"\x:Real. \x':Real. x"))
