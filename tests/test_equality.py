import random
from fractions import Fraction

import pytest

from lamdist.prims import DEFAULT_REGISTRY, EvalDomainError
from lamdist.syntax import (FnType, REAL, TypecheckError, parse_term,
                            term_equal, typecheck)
from lamdist.syntax.terms import alpha_equal

from gen import random_closed_fn_term
from reference.normalizer import normal_form


def eq(a, b, ctx=()):
    return term_equal(ctx, parse_term(a), parse_term(b))


def test_beta():
    assert eq(r"(\x:Real. x) 3", "3")


def test_delta_folding():
    assert eq("add(1, 2)", "3")
    assert eq("1 + 2 * 3", "7")
    assert eq("sin(0)", "0")
    assert not eq("add(1, 2)", "4")


def test_eta_for_functions():
    ctx = (("f", FnType(REAL, REAL)),)
    assert eq(r"\x:Real. f x", "f", ctx=ctx)


def test_eta_for_products():
    from lamdist.syntax.terms import PairType
    ctx = (("p", PairType(REAL, REAL)),)
    assert eq("(fst(p), snd(p))", "p", ctx=ctx)


def test_folding_under_binders_with_literal_args_only():
    assert eq(r"\x:Real. x + sin(0)", r"\y:Real. y + 0")
    # partially-literal calls stay put
    ctx = (("x", REAL),)
    assert not eq("x + 1", "x + 2", ctx=ctx)
    assert eq("x + (1 + 1)", "x + 2", ctx=ctx)


def test_alpha_comparison():
    assert eq(r"\x:Real. \y:Real. x", r"\a:Real. \b:Real. a")
    assert not eq(r"\x:Real. \y:Real. x", r"\a:Real. \b:Real. b")


def test_type_mismatch_rejected():
    with pytest.raises(TypecheckError):
        eq("3", r"\x:Real. x")


def test_normal_forms_are_eta_long():
    """Of the reference normalizer, which the conversion tests trust."""
    ctx = (("f", FnType(REAL, FnType(REAL, REAL))),)
    n = normal_form(ctx, parse_term("f"), DEFAULT_REGISTRY)
    # two lambdas around a neutral application
    src = parse_term(r"\a:Real. \b:Real. f a b")
    assert alpha_equal(n, src)


def test_division_by_literal_zero_raises_during_folding():
    with pytest.raises(EvalDomainError):
        eq("div(1, 0)", "0")


def test_normalization_idempotent_on_random_terms():
    """Of the reference normalizer, whose normal forms lamdist's typing
    accepts at the term's type."""
    rng = random.Random(21)
    for _ in range(60):
        t = random_closed_fn_term(rng)
        n1 = normal_form((), t, DEFAULT_REGISTRY)
        n2 = normal_form((), n1, DEFAULT_REGISTRY)
        assert n1 == n2
        assert typecheck((), n1) == typecheck((), t)


def test_subject_reduction_on_random_redexes():
    # applying a generated function to a literal preserves the type through
    # exact evaluation, and the value is the literal the redex converts to
    from lamdist.semantics import evaluate
    from lamdist.syntax import Lit
    from lamdist.syntax.terms import App
    rng = random.Random(22)
    for _ in range(40):
        t = random_closed_fn_term(rng, depth=3)
        redex = App(t, Lit(rng.randint(-3, 3)))
        assert typecheck((), redex) == REAL
        value = evaluate(redex, exact=True)
        assert isinstance(value, Fraction)
        assert term_equal((), redex, Lit(value))
