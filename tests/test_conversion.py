"""Conversion against the reference normalizer.

``Equality.equal`` decides the theory by a type-directed comparison with
a shared-subterm shortcut; its oracle is ``tests/reference``, which types
both sides itself and compares their de Bruijn normal forms, built by
substitution and eta expansion apart from lamdist.  The two must agree
on each pair of ``test_equality.py``, on seeded pairs from ``gen.py``,
and on every ``Conv`` node of the benchmark's derivation files and of the
corpus.  The named cases below fail if the shortcut skips its
environment test or reads free names as bound ones.
"""

import random
from pathlib import Path

import pytest

from lamdist.eqtheory import check_derivation, derivation_from_json
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.prims import DEFAULT_REGISTRY, EvalDomainError
from lamdist.syntax import (FnType, REAL, TypecheckError, parse_term,
                            term_equal)
from lamdist.syntax.terms import App, Lam, Lit, PairType, PrimOp, Var

from gen import random_closed_fn_term
from reference.normalizer import IllTyped, equal, normal_form

ROOT = Path(__file__).resolve().parent.parent
F = FnType(REAL, REAL)


def by_normal_forms(ctx, t, s) -> bool:
    """The oracle: do ``t`` and ``s`` have one normal form in the
    reference?"""
    return equal(ctx, t, s, DEFAULT_REGISTRY)


def outcome(decide, ctx, t, s):
    """``decide``'s verdict on ``t = s``, or the type of error it raised:
    ``TypecheckError`` for either side's refusal to type."""
    try:
        return decide(ctx, t, s)
    except (TypecheckError, IllTyped):
        return TypecheckError
    except EvalDomainError:
        return EvalDomainError


def assert_agree(ctx, t, s):
    verdict = outcome(term_equal, ctx, t, s)
    assert verdict == outcome(by_normal_forms, ctx, t, s), (ctx, t, s)
    return verdict


# The pairs of test_equality.py, with their contexts and the verdicts there
EQUALITY_PAIRS = [
    ((), r"(\x:Real. x) 3", "3", True),
    ((), "add(1, 2)", "3", True),
    ((), "1 + 2 * 3", "7", True),
    ((), "sin(0)", "0", True),
    ((), "add(1, 2)", "4", False),
    ((("f", F),), r"\x:Real. f x", "f", True),
    ((("p", PairType(REAL, REAL)),), "(fst(p), snd(p))", "p", True),
    ((), r"\x:Real. x + sin(0)", r"\y:Real. y + 0", True),
    ((("x", REAL),), "x + 1", "x + 2", False),
    ((("x", REAL),), "x + (1 + 1)", "x + 2", True),
    ((), r"\x:Real. \y:Real. x", r"\a:Real. \b:Real. a", True),
    ((), r"\x:Real. \y:Real. x", r"\a:Real. \b:Real. b", False),
    ((), "3", r"\x:Real. x", TypecheckError),
    ((("f", FnType(REAL, F)),), "f", r"\a:Real. \b:Real. f a b", True),
    ((), "div(1, 0)", "0", EvalDomainError),
]


@pytest.mark.parametrize("ctx,t,s,want", EQUALITY_PAIRS)
def test_agrees_with_normal_forms_on_the_equality_pairs(ctx, t, s, want):
    assert assert_agree(ctx, parse_term(t), parse_term(s)) == want


def seeded_pairs(n: int = 75):
    """``4 * n`` pairs: each seeded term against itself, its
    eta-expansion, an identity redex around it, and another term."""
    rng = random.Random(31)
    for _ in range(n):
        t = random_closed_fn_term(rng, depth=rng.randint(1, 5))
        yield t, t
        yield t, Lam("y", REAL, App(t, Var("y")))
        yield t, App(Lam("g", F, Var("g")), t)
        yield t, random_closed_fn_term(rng, depth=rng.randint(1, 5))


def test_agrees_with_normal_forms_on_three_hundred_seeded_pairs():
    pairs = list(seeded_pairs())
    verdicts = [assert_agree((), t, s) for t, s in pairs]
    assert len(pairs) == 300
    assert verdicts[:3] == [True] * 3 and False in verdicts[3::4]


def conv_pairs(d: Derivation):
    """The three (context, premise side, conclusion side) pairs of each
    ``Conv`` node of ``d``."""
    todo = [d]
    while todo:
        node = todo.pop()
        todo.extend(node.premises)
        if node.rule == "Conv":
            j, p = node.conclusion, node.premises[0].conclusion
            yield j.ctx, p.left, j.left
            yield j.ctx, p.right, j.right
            yield j.dist_ctx, p.dist, j.dist


FILES = sorted((ROOT / "perfbench" / "inputs" / "derivations").glob(
    "*.json")) + [ROOT / "corpus" / "golden_sin.json"]


def test_agrees_with_normal_forms_on_every_conv_node_of_the_files():
    """The benchmark's files hold 15 ``Conv`` nodes, each a lift level's
    eta-expansion; the corpus derivation holds none."""
    pairs = [pair for path in FILES for pair in conv_pairs(
        derivation_from_json(path.read_text(encoding="utf-8")))]
    assert len(pairs) == 45
    assert all(assert_agree(*pair) for pair in pairs)


@pytest.mark.parametrize("body", [Var("x"), PrimOp("sin", (Var("x"),))],
                         ids=["x", "sin(x)"])
def test_one_lambda_applied_to_two_variables_is_two_terms(body):
    """The applied lambda is one object, so after contracting the redex
    both sides hold one body: only the environment test of the shortcut
    tells ``a`` from ``b`` there, or the lookup of ``x``."""
    lam = Lam("x", REAL, body)
    ctx = (("a", REAL), ("b", REAL))
    t, s = App(lam, Var("a")), App(lam, Var("b"))
    assert assert_agree(ctx, t, s) is False
    assert assert_agree(ctx, t, App(lam, Var("a"))) is True


@pytest.mark.parametrize("t,s", [
    ("x + 1", "x * 1"), ("fst(p)", "snd(p)"), ("f x", "g x"),
    ("f x", "f 1"), ("h f", r"h (\y:Real. y)"), ("fst(p)", "x"),
])
def test_neutrals_that_differ_in_one_part(t, s):
    ctx = (("x", REAL), ("p", PairType(REAL, REAL)), ("f", F), ("g", F),
           ("h", FnType(F, REAL)))
    assert assert_agree(ctx, parse_term(t), parse_term(s)) is False


@pytest.mark.parametrize("t,s,want", [
    # a variable bound to a lambda heads the redex
    (r"(\f:Real -> Real. \y:Real. f y) (\x:Real. sin(x))",
     r"\x:Real. sin(x)", True),
    # more arguments than binders: the rest apply the body's value
    (r"(\f:Real -> Real. f) (\x:Real. sin(x)) 2", "sin(2)", True),
    (r"(\f:Real -> Real. f) (\x:Real. sin(x)) 2", "sin(3)", False),
    # no redex at an arrow: the side is evaluated, to a closure
    (r"fst((\x:Real. sin(x), 1))", r"\y:Real. sin(y)", True),
    (r"fst((\x:Real. sin(x), 1))", r"\y:Real. sin(y + 1)", False),
])
def test_redexes_are_contracted_without_evaluating_bodies(t, s, want):
    assert assert_agree((), parse_term(t), parse_term(s)) is want


def test_a_variable_is_its_eta_expansion():
    ctx = (("f", F),)
    assert assert_agree(ctx, Var("f"), parse_term(r"\y:Real. f y")) is True


def test_a_shared_body_under_swapped_binders():
    """``x`` is one object on both sides, bound by the outer binder on
    the left and by the inner one on the right."""
    body = Var("x")
    t = Lam("x", REAL, Lam("y", REAL, body))
    s = Lam("y", REAL, Lam("x", REAL, body))
    assert assert_agree((), t, s) is False
    assert assert_agree((), t, Lam("y", REAL, Lam("z", REAL, Var("y")))) \
        is True


def test_one_side_holding_an_out_of_domain_call_is_equal_to_itself():
    """Both sides are one term, or alpha-equivalent ones, so the shortcut
    accepts them without evaluating ``div(1, 0)``, as the reference does;
    normalizing refuses.  Against another term the call is evaluated, and
    refused."""
    t = parse_term("div(1, 0)")
    assert term_equal((), t, t) and term_equal((), t, parse_term("div(1, 0)"))
    assert assert_agree((), t, parse_term("div(1, 0)")) is True
    with pytest.raises(EvalDomainError):
        normal_form((), t, DEFAULT_REGISTRY)
    with pytest.raises(EvalDomainError):
        term_equal((), t, Lit(0))
    # a Conv node over a premise about the call: the node passes, so the
    # checker reaches the premise, which is no Lit node
    premise = Derivation("Lit", DistanceJudgment((), t, Lit(0), t, REAL))
    same = parse_term("div(1, 0)")
    result = check_derivation(Derivation("Conv", DistanceJudgment(
        (), same, Lit(0), same, REAL), (premise,)))
    assert (result.path, result.message) == (
        (0,), "Lit subjects must be literals")
    with pytest.raises(EvalDomainError):
        check_derivation(Derivation("Conv", DistanceJudgment(
            (), Lit(0), Lit(0), same, REAL), (premise,)))
