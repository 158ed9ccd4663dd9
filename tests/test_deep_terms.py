"""Terms ten thousand deep: every term walker runs on the explicit-stack
fold, and what still recurses raises ``TermTooDeep`` from the library."""

import time
from fractions import Fraction

import pytest

from lamdist.eqtheory import (DerivationFormatError, check_derivation,
                              check_dlog, derivation_to_json,
                              quasi_reflexive_derivation,
                              self_distance_derivation,
                              transitivity_derivation)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment, derive
from lamdist.eqtheory.serialize import derivation_to_dict
from lamdist.prims import Primitive, default_registry
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import (FnType, Lit, REAL, TermTooDeep, derivative_term,
                            parse_file, parse_term, render_term, term_equal,
                            typecheck)
from lamdist.syntax.equality import normalize
from lamdist.syntax.terms import (REBUILD, App, Lam, Pair, PrimOp, Var,
                                  all_var_names, alpha_equal, arrow_depth,
                                  fold, free_vars, rename_binders, substitute,
                                  subterms, walker)

N = 10_000
DEEP_SUM = Lam("x", REAL, parse_term(" + ".join(["x"] * N)))


def binder_chain(n: int):
    return parse_term("".join(f"\\x{i}:Real. " for i in range(n)) + "x0")


BINDER_CHAIN = binder_chain(N)


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


LIFTS = [quasi_reflexive_derivation, lambda d: transitivity_derivation(d, d)]


@pytest.mark.parametrize("lift", LIFTS, ids=["self-distance", "triangle"])
def test_both_lifts_of_a_three_thousand_binder_chain_build(lift):
    """The lifts walk the judgment type on the fold: a chain of binders
    is lifted without recursion, to a conclusion relating it to itself."""
    chain = binder_chain(3000)
    j = lift(self_distance_derivation(chain)).conclusion
    assert alpha_equal(j.left, chain) and alpha_equal(j.right, chain)


@pytest.mark.parametrize("lift", LIFTS, ids=["self-distance", "triangle"])
def test_both_lifts_of_a_forty_binder_chain_check(lift):
    assert check_derivation(lift(self_distance_derivation(binder_chain(40))))


@pytest.mark.parametrize("run", [
    lambda t: evaluate(t)(1.0),  # compiling recurses on the depth
    lambda t: diff_evaluate(t)(1.0, 0.5),
    lambda t: normalize((), t),  # reading back the open sum recurses
], ids=["evaluate", "diff_evaluate", "normalize"])
def test_recursion_that_stays_raises_term_too_deep(run):
    with pytest.raises(TermTooDeep):
        run(DEEP_SUM)


SIN_TOWER = Lam("x", REAL, parse_term("sin(" * N + "x" + ")" * N))


@pytest.mark.parametrize("t", [DEEP_SUM, SIN_TOWER, BINDER_CHAIN],
                         ids=["sum", "sin-tower", "binder-chain"])
def test_term_equal_returns_at_depth_ten_thousand(t):
    """Conversion runs on an explicit stack and reads no normal form: a
    term against itself, against a copy, and against the copy with each
    variable put in an identity redex, which is contracted."""
    copy = parse_term(render_term(t))
    assert term_equal((), t, t) and term_equal((), t, copy)
    inner = fold(copy, walker({**REBUILD, Var: lambda state, v, kids: App(
        Lam("r", REAL, Var("r")), v)}))
    assert term_equal((), t, inner)


def test_comparing_ten_thousand_nested_closures_raises_term_too_deep():
    """At ``Real`` both sides are evaluated, and each ``sin`` argument
    applies a closure whose body applies the next one."""
    body = Var("x")
    for i in range(N):
        body = PrimOp("sin", (App(Lam(f"a{i}", REAL, body), Var("x")),))
    with pytest.raises(TermTooDeep, match="too deeply to compare"):
        term_equal((), Lam("x", REAL, body), parse_term(r"\x:Real. x"))


def test_a_recursion_error_raised_within_a_comparison_is_term_too_deep():
    """The handler of the test above, reached without an overflow: past
    the recursion limit a tracer such as ``tests/line_coverage.py``'s may
    be the call that overflows, and the interpreter then removes it."""
    def too_deep(a):
        raise RecursionError("maximum recursion depth exceeded")

    registry = default_registry()
    registry.register(Primitive("deep", 1, too_deep, exact_fn=too_deep))
    with pytest.raises(TermTooDeep, match="too deeply to compare"):
        term_equal((), parse_term("deep(1)", registry), Lit(0), registry)


def test_renaming_binders_within_renamed_binders_raises_term_too_deep():
    """Every binder captures a name of the substituted term, so each one
    is renamed by a walk nested in the walk renaming the one above it."""
    t = Var("x")
    for i in range(1000):  # each walk reads the rest: keep it short
        t = Lam("yw"[i % 2], REAL, t)
    with pytest.raises(TermTooDeep, match="binders renamed too deeply"):
        substitute(t, {"x": Pair(Var("y"), Var("w"))})


def test_types_ten_thousand_deep_compare_and_hash():
    """Types are interned, so two typings of one chain are one type and a
    comparison costs the same at any depth."""
    ty, again = typecheck((), BINDER_CHAIN), typecheck((), BINDER_CHAIN)
    # unequal at the innermost result only
    paired = typecheck((), parse_term(render_term(BINDER_CHAIN)[:-2]
                                      + "(x0, x0)"))
    start = time.perf_counter()
    for _ in range(1000):
        assert ty == again and hash(ty) == hash(again)
        assert ty != paired and ty is not paired
    assert time.perf_counter() - start < 0.1


def test_arrow_depth_and_repr_of_three_thousand_nested_types():
    ty = typecheck((), binder_chain(3000))
    assert repr(ty) == "(Real -> " * 3000 + "Real" + ")" * 3000
    assert arrow_depth(ty) == 1
    curried = REAL
    for _ in range(3000):
        curried = FnType(curried, REAL)
    assert arrow_depth(curried) == 3000


def test_repr_of_a_three_thousand_binder_chain():
    """Error messages print terms with ``repr``, so a misplaced deep term
    raises the intended ``TypeError``, not ``RecursionError``."""
    chain = binder_chain(3000)
    text = repr(chain)
    assert text.startswith("Lam(var='x0', var_type=Real, body=Lam(var='x1'")
    assert text.endswith("body=Var(name='x0'))" + ")" * 2999)
    with pytest.raises(TypeError, match=r"^not a term: \[Lam\(var='x0'"):
        fold([chain], walker(REBUILD))
    with pytest.raises(TypeError, match=r"^not a term: \[Lam\(var='x0'"):
        evaluate([chain])


def test_repr_prints_a_child_of_no_term_class_by_its_own_repr():
    """As the dataclasses did: a misplaced type or number still prints."""
    assert repr(App(REAL, Pair(Lit(1), 5))) == \
        "App(fn=Real, arg=Pair(left=Lit(value=Fraction(1, 1)), right=5))"


def test_normal_forms_of_three_hundred_summands_compare():
    ctx = (("x", REAL),)
    sums = [parse_term(" + ".join([s] * 300))
            for s in ("x", "(\\y:Real. y) x")]
    assert term_equal(ctx, *sums)
    assert not term_equal(ctx, sums[0], parse_term(" + ".join(["x"] * 299)
                                                   + " + 1"))


def test_writing_a_thousand_premise_levels_refuses_deep_json():
    """The dict is built on a stack; ``json`` nests it by recursion."""
    d = Derivation("Lit", DistanceJudgment((), Lit(1), Lit(0), Lit(1), REAL))
    for _ in range(1000):
        d = derive("QuasiReflReal", d)
    data, depth = derivation_to_dict(d), 0
    while data["premises"]:
        data, depth = data["premises"][0], depth + 1
    assert depth == 1000 and data["rule"] == "Lit"
    with pytest.raises(DerivationFormatError, match="too deeply to write"):
        derivation_to_json(d)


def test_a_derivation_over_a_three_hundred_binder_chain_checks():
    """Its distance type nests twice as deep as the chain."""
    assert check_derivation(self_distance_derivation(binder_chain(300)))


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
