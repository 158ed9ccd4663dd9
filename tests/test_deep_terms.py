"""Terms ten thousand deep: every term walker runs on the explicit-stack
fold, and what still recurses raises ``TermTooDeep`` from the library."""

import hashlib
import math
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
from lamdist.prims import Primitive, default_registry, prim_modulus
from lamdist.relations import (Consistent, ProbeConfig, ProbeSet, check_delta,
                               check_eta, check_gamma, check_rho)
from lamdist.relations.checkers import (estimate_self_distance,
                                        eta_transitivity_split)
from lamdist.relations.probes import canonical_term, library_terms
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.semantics.diff import residual_diff, tensor_diff, top_diff
from lamdist.syntax import (FnType, Lit, REAL, TermTooDeep, derivative_term,
                            parse_file, parse_term, render_term, term_equal,
                            typecheck)
from lamdist.syntax.terms import (REBUILD, App, Lam, Pair, PairType, PrimOp,
                                  Var, all_var_names, alpha_equal,
                                  arrow_depth, fold, free_vars,
                                  rename_binders, substitute, subterms,
                                  walker)

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


SIN_TOWER = Lam("x", REAL, parse_term("sin(" * N + "x" + ")" * N))


def _iterated_sine(y: float, b: float) -> tuple[float, float]:
    """``math.sin`` applied N times to ``y``, and the difference that
    ``prim_modulus`` gives it level by level from the radius ``b``."""
    sin = default_registry()["sin"]
    for _ in range(N):
        y, b = math.sin(y), prim_modulus(sin, (y,), (b,))
    return y, b


@pytest.mark.parametrize("run, want", [
    (lambda: evaluate(DEEP_SUM)(1.0), 10000.0),
    (lambda: diff_evaluate(DEEP_SUM)(1.0, 0.5), 5000.0),
    (lambda: evaluate(SIN_TOWER)(0.75), _iterated_sine(0.75, 0.0)[0]),
    (lambda: diff_evaluate(SIN_TOWER)(0.75, 1e-3),
     _iterated_sine(0.75, 1e-3)[1]),
], ids=["evaluate-sum", "diff_evaluate-sum", "evaluate-sin-tower",
        "diff_evaluate-sin-tower"])
def test_the_evaluators_return_at_depth_ten_thousand(run, want):
    """Compiling runs on the fold and a region is straight-line code, cut
    into chunks that run one after another; the values are bit for bit
    those of the node-by-node computation."""
    assert repr(run()) == repr(want)


def _nested_redexes(n: int):
    """``(\\a0. (\\a1. ... 1) 1) 1``: each body applies the next lambda."""
    body = Lit(1)
    for i in range(n):
        body = App(Lam(f"a{i}", REAL, body), Lit(1))
    return body


@pytest.mark.parametrize("run", [
    lambda t: evaluate(t),
    lambda t: diff_evaluate(t),
], ids=["evaluate", "diff_evaluate"])
def test_closures_applied_within_closures_raise_term_too_deep(run):
    """Each closure's code applies the next one, so running the term
    recurses on the nesting."""
    with pytest.raises(TermTooDeep, match="too deeply to evaluate"):
        run(_nested_redexes(N))


def _overflowing_registry():
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    registry = default_registry()
    registry.register(Primitive("deep", 1, too_deep, modulus=too_deep))
    return registry


@pytest.mark.parametrize("run", [
    lambda t, registry: evaluate(t, {"x": 1.0}, registry=registry),
    lambda t, registry: diff_evaluate(t, {"x": 1.0}, {"x": 0.5},
                                      registry=registry),
], ids=["evaluate", "diff_evaluate"])
def test_a_recursion_error_raised_within_an_evaluation_is_term_too_deep(run):
    """The handlers of the test above, reached without an overflow: past
    the recursion limit a tracer such as ``tests/line_coverage.py``'s may
    be the call that overflows, and the interpreter then removes it."""
    registry = _overflowing_registry()
    with pytest.raises(TermTooDeep, match="too deeply to evaluate"):
        run(parse_term("deep(x)", registry), registry)


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


@pytest.mark.parametrize("t", [DEEP_SUM, SIN_TOWER, BINDER_CHAIN],
                         ids=["sum", "sin-tower", "binder-chain"])
def test_terms_ten_thousand_deep_compare_and_hash(t):
    """``==`` walks pairs on a list and ``hash`` runs on the fold."""
    copy = parse_term(render_term(t))
    assert copy == t and hash(copy) == hash(t) and copy is not t
    changed = fold(copy, walker({**REBUILD, Var: lambda state, v, kids:
                                 Var(v.name + "1")}))
    assert changed != t and t != changed and t != render_term(t)


def test_derivations_over_three_thousand_binders_compare_and_hash():
    d, again = (self_distance_derivation(binder_chain(3000))
                for _ in range(2))
    assert d == again and hash(d) == hash(again) and d is not again
    assert d != self_distance_derivation(binder_chain(2999))
    assert d != d.conclusion


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
    """As the dataclasses did: a misplaced type or number still prints,
    compares and hashes."""
    assert repr(App(REAL, Pair(Lit(1), 5))) == \
        "App(fn=Real, arg=Pair(left=Lit(value=Fraction(1, 1)), right=5))"
    assert App(REAL, Pair(Lit(1), 5)) == App(REAL, Pair(Lit(1), 5))
    assert App(REAL, Pair(Lit(1), 5)) != App(REAL, Pair(Lit(1), 6))
    assert hash(App(REAL, Pair(Lit(1), 5))) == hash(App(REAL,
                                                        Pair(Lit(1), 5)))


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


def test_a_six_hundred_binder_derivation_is_refused_before_rendering():
    """The shape is written first, with no term rendered: writing the
    whole object worked for 21.7 s and peaked at 556 MB before refusing."""
    d = self_distance_derivation(binder_chain(600))
    start = time.perf_counter()
    with pytest.raises(DerivationFormatError,
                       match="^derivation nested too deeply to write$"):
        derivation_to_json(d)
    assert time.perf_counter() - start < 2.0


def test_a_hundred_binder_derivation_writes_the_same_json():
    """The digest of the text written before the shape was written
    first."""
    text = derivation_to_json(self_distance_derivation(binder_chain(100)))
    assert len(text) == 6_215_775
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c6da6dee7235aa8186755ef3ab91d53e84ef60d9ecc3f0c83b28183f3f8a26ba")


def _nested_product(n: int):
    """A product type ``n`` deep, ``Real * (Real * ...)``, and a value
    of it related to itself at distance 0."""
    ty, x, a = REAL, 1.0, 0.0
    for _ in range(n):
        ty, x, a = PairType(REAL, ty), (1.0, x), (0.0, a)
    return ty, x, a


@pytest.mark.parametrize("run", [
    lambda ty, x, a, p: check_rho(ty, x, a, x, p),
    lambda ty, x, a, p: check_eta(ty, x, a, x, p),
    lambda ty, x, a, p: check_gamma(ty, x, a, x, p),
    lambda ty, x, a, p: check_delta(ty, x, a, x, p),
    lambda ty, x, a, p: estimate_self_distance(ty, x, p),
    lambda ty, x, a, p: eta_transitivity_split(ty, a, a),
    lambda ty, x, a, p: p.triples(ty),
], ids=["check_rho", "check_eta", "check_gamma", "check_delta",
        "estimate_self_distance", "eta_transitivity_split", "triples"])
def test_checkers_return_on_a_product_ten_thousand_deep(run):
    """Products are walked on ``componentwise``'s fold, or on
    ``_Walk.member``'s list."""
    assert run(*_nested_product(N), ProbeSet(ProbeConfig(count=5))) \
        is not None


def _leaves(value, n: int):
    """The ``n + 1`` leaves of a value of ``_nested_product(n)``'s type."""
    out = []
    for _ in range(n):
        out.append(value[0])
        value = value[1]
    return out + [value]


@pytest.mark.parametrize("run, want", [
    (lambda ty, x, a: top_diff(ty), 0.0),
    (lambda ty, x, a: tensor_diff(ty, a, x), 1.0),
    (lambda ty, x, a: residual_diff(ty, a, x), 1.0),
], ids=["top_diff", "tensor_diff", "residual_diff"])
def test_the_pointwise_operations_at_a_product_ten_thousand_deep(run, want):
    assert _leaves(run(*_nested_product(N)), N) == [want] * (N + 1)


def test_probe_terms_at_a_product_ten_thousand_deep():
    ty = _nested_product(N)[0]
    assert canonical_term(ty) == parse_term("(0, " * N + "0" + ")" * N)
    canonical, = library_terms(FnType(REAL, ty))
    assert canonical == Lam("u", REAL, canonical_term(ty))


def test_check_dlog_on_a_pair_ten_thousand_deep():
    """The pair term against itself at its derivative, which is the
    literal pair of zeros: one exact comparison per leaf."""
    t = parse_term("(1, " * N + "1" + ")" * N)
    ty = typecheck((), t)
    assert check_dlog(ty, t, derivative_term((), t), t) == \
        Consistent(probes=N + 1)


def test_a_derivation_over_a_three_hundred_binder_chain_checks():
    """Its distance type nests twice as deep as the chain."""
    assert check_derivation(self_distance_derivation(binder_chain(300)))


def test_a_ten_thousand_literal_sum_normalizes_to_a_literal():
    """Conversion folds the sum to the literal, with no normal form."""
    ones = parse_term(" + ".join(["1"] * N))
    assert term_equal((), ones, Lit(N))


def test_exact_evaluation_of_a_ten_thousand_literal_sum():
    """Exact mode runs conversion's evaluator, a fold on an explicit
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
