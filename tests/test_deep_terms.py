"""Terms ten thousand deep: every term walker runs on the explicit-stack
fold, and what still recurses raises ``TermTooDeep`` from the library."""

import time
from fractions import Fraction

import pytest

from lamdist.eqtheory import check_dlog, self_distance_derivation
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import (App, FnType, Lam, Lit, Pair, REAL, TermTooDeep,
                            Var, all_var_names, alpha_equal, derivative_term,
                            free_vars, normalize, parse_file, parse_term,
                            render_term, substitute, term_equal, typecheck)
from lamdist.syntax.terms import rename_binders, subterms

N = 10_000
DEEP_SUM = Lam("x", REAL, parse_term(" + ".join(["x"] * N)))
BINDER_CHAIN = parse_term("".join(f"\\x{i}:Real. " for i in range(N)) + "x0")


@pytest.mark.parametrize("walk", [
    lambda t: typecheck((), t),
    lambda t: derivative_term((), t),  # shares each sum's left argument
    render_term,
    free_vars,
    all_var_names,
    lambda t: sum(1 for _ in subterms(t)),
    lambda t: substitute(t, {"x": Var("y"), "y": Var("x")}),
    lambda t: alpha_equal(t, substitute(t, {"z": Var("x")})),
    lambda t: parse_file(f"s = {render_term(t)}\nt = s"),
    lambda t: rename_binders(t, {"x"}, lambda var, body, scope: var + "1"),
    self_distance_derivation,
], ids=["typecheck", "derivative", "render", "free_vars", "all_var_names",
        "subterms", "substitute", "alpha_equal", "inline", "rename",
        "synthesis"])
def test_each_walker_takes_a_ten_thousand_term_sum(walk):
    assert walk(DEEP_SUM) is not None


@pytest.mark.parametrize("walk", [lambda t: typecheck((), t),
                                  lambda t: derivative_term((), t)],
                         ids=["typecheck", "derivative"])
def test_a_ten_thousand_binder_chain_takes_under_a_second(walk):
    start = time.perf_counter()
    walk(BINDER_CHAIN)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("run", [
    lambda t: evaluate(t)(1.0),  # compiling recurses on the depth
    lambda t: diff_evaluate(t)(1.0, 0.5),
    lambda t: normalize((), t),  # reading back the open sum recurses
    lambda t: term_equal((), t, t),
], ids=["evaluate", "diff_evaluate", "normalize", "term_equal"])
def test_recursion_that_stays_raises_term_too_deep(run):
    with pytest.raises(TermTooDeep):
        run(DEEP_SUM)


def test_renaming_binders_within_renamed_binders_raises_term_too_deep():
    """Every binder captures a name of the substituted term, so each one
    is renamed by a walk nested in the walk renaming the one above it."""
    t = Var("x")
    for i in range(1000):  # each walk reads the rest: keep it short
        t = Lam("yw"[i % 2], REAL, t)
    with pytest.raises(TermTooDeep, match="binders renamed too deeply"):
        substitute(t, {"x": Pair(Var("y"), Var("w"))})


def test_a_ten_thousand_literal_sum_normalizes_to_a_literal():
    ones = parse_term(" + ".join(["1"] * N))
    assert normalize((), ones) == Lit(N)
    assert term_equal((), ones, Lit(N))


def test_exact_evaluation_of_a_ten_thousand_literal_sum():
    """Exact mode runs normalization's evaluator, a fold on an explicit
    stack."""
    ones = parse_term(" + ".join(["1"] * N))
    assert evaluate(ones, exact=True) == Fraction(N)


def test_exact_evaluation_applies_a_ten_thousand_term_sum():
    assert evaluate(DEEP_SUM, exact=True)(Fraction(1)) == N


def test_check_dlog_on_ten_thousand_nested_redexes_raises_term_too_deep():
    """Each redex applies a closure in the one before it, so applying the
    function at a probe recurses on the nesting."""
    body = Var("x")
    for i in range(N):
        body = App(Lam(f"a{i}", REAL, body), Var("x"))
    f = Lam("x", REAL, body)
    dist = parse_term(r"\x:Real. \x':Real. x'")
    with pytest.raises(TermTooDeep):
        check_dlog(FnType(REAL, REAL), f, dist, f)
