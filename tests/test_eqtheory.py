import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lamdist.eqtheory import (check_derivation, check_dlog,
                              check_dlog_judgment, check_suite,
                              derivation_from_json, derivation_to_json,
                              quasi_reflexive_derivation,
                              self_distance_derivation, synthesize_fundamental,
                              transitivity_derivation)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.eqtheory.synthesis import SynthesisError
from lamdist.eqtheory.dlog import SyntacticProbes
from lamdist.eqtheory.addterm import add_term
from lamdist.eqtheory import corpus
from lamdist.eqtheory.corpus import chain_partner, random_derivation
from lamdist.prims import default_registry
from lamdist.relations import Consistent, Falsified
from lamdist.syntax import (FnType, Lit, REAL, parse_file, parse_term,
                            render_term, term_equal, typecheck)
from lamdist.syntax.terms import PrimOp, Var, alpha_equal
from lamdist.syntax.equality import normalize

REG = default_registry()


def lit_node(l, s, r, ctx=()):
    return Derivation("Lit", DistanceJudgment(
        ctx, Lit(Fraction(str(l))), Lit(Fraction(str(s))),
        Lit(Fraction(str(r))), REAL))


def var_node(name, ty, ctx):
    return Derivation("Var", DistanceJudgment(
        ctx, Var(name), Var(name + "'"), Var(name), ty))


# --- single-node checks --------------------------------------------------------

def test_literal_rule_side_condition():
    assert check_derivation(lit_node(3, 0.5, 3.2), REG)
    bad = check_derivation(lit_node(3, 0.1, 3.2), REG)
    assert not bad and "exceeds" in bad.message


def test_var_rule():
    ctx = (("x", REAL),)
    assert check_derivation(var_node("x", REAL, ctx), REG)
    wrong = Derivation("Var", DistanceJudgment(
        ctx, Var("x"), Var("y'"), Var("x"), REAL))
    assert not check_derivation(wrong, REG)


def test_unknown_rule_tag():
    d = Derivation("Magic", lit_node(0, 0, 0).conclusion)
    r = check_derivation(d, REG)
    assert not r and "unknown rule" in r.message


def test_prim_rule():
    p1, p2 = lit_node(0, 0.1, 0.05), lit_node(1, 0.5, 1.2)
    good = Derivation("Prim", DistanceJudgment(
        (), PrimOp("add", (p1.conclusion.left, p2.conclusion.left)),
        PrimOp("add_d", (p1.conclusion.left, p2.conclusion.left,
                         p1.conclusion.dist, p2.conclusion.dist)),
        PrimOp("add", (p1.conclusion.right, p2.conclusion.right)),
        REAL), (p1, p2))
    REG.derivative("add")
    assert check_derivation(good, REG)


def test_trans_and_quasi_refl_rules():
    d1 = lit_node(1, 1, 2)
    d2 = lit_node(2, 1, 3)
    chained = Derivation("TransReal", DistanceJudgment(
        (), Lit(1), PrimOp("add", (Lit(1), Lit(1))), Lit(3), REAL), (d1, d2))
    assert check_derivation(chained, REG)
    self_node = Derivation("QuasiReflReal", DistanceJudgment(
        (), Lit(1), Lit(1), Lit(1), REAL), (d1,))
    assert check_derivation(self_node, REG)
    # mismatched middle subject
    bad = Derivation("TransReal", DistanceJudgment(
        (), Lit(1), PrimOp("add", (Lit(1), Lit(1))), Lit(3), REAL),
        (d1, lit_node(5, 1, 3)))
    assert not check_derivation(bad, REG)


def test_conv_rule_discharges_by_normalization():
    d = lit_node(3, 0.5, 3.2)
    conv = Derivation("Conv", DistanceJudgment(
        (), parse_term(r"(\u:Real. u) 3"), parse_term("0.5 + 0"),
        parse_term("3.2"), REAL), (d,))
    assert check_derivation(conv, REG)
    bad = Derivation("Conv", DistanceJudgment(
        (), parse_term("4"), parse_term("0.5"), parse_term("3.2"), REAL), (d,))
    r = check_derivation(bad, REG)
    assert not r and "not provably equal" in r.message


# --- synthesis ------------------------------------------------------------------

def test_synthesize_variable_case_is_the_component():
    comp = lit_node(3, 0.5, 3.2)
    d = synthesize_fundamental((("x", REAL),), Var("x"), {"x": comp}, REG)
    assert d == comp
    assert check_derivation(d, REG)


def test_synthesize_closed_term_gives_self_distance():
    t = parse_term(r"\x:Real. sin(x) + x")
    d = self_distance_derivation(t, REG)
    assert check_derivation(d, REG)
    j = d.conclusion
    assert alpha_equal(j.left, t) and alpha_equal(j.right, t)
    from lamdist.syntax import derivative_term
    assert alpha_equal(j.dist, derivative_term((), t, REG))


def test_synthesis_renames_a_primed_binder():
    """A binder named like a difference variable is renamed, whether or
    not its plain partner is in scope."""
    for text in (r"\x:Real. \x':Real. x' * x", r"\y':Real. y' + 1"):
        t = parse_term(text)
        d = self_distance_derivation(t, REG)
        assert check_derivation(d, REG), text
        assert alpha_equal(d.conclusion.left, t)


def test_synthesize_prim_over_component():
    comp = lit_node(0, 0.1, 0.05)
    d = synthesize_fundamental((("x", REAL),), parse_term("sin(x)"),
                               {"x": comp}, REG)
    assert check_derivation(d, REG)
    j = d.conclusion
    assert j.left == PrimOp("sin", (Lit(0),))
    assert j.dist == PrimOp("sin_d", (Lit(0), Lit(Fraction("0.1"))))
    assert j.right == PrimOp("sin", (Lit(Fraction("0.05")),))
    # numeric value of the synthesized distance matches the grid oracle
    from lamdist.semantics import evaluate
    got = evaluate(j.dist, registry=REG)
    grid = max(abs(math.sin(0.0) - math.sin(z / 1000.0))
               for z in range(-100, 101))
    assert got >= grid - 1e-12
    assert got == pytest.approx(math.sin(0.1), abs=1e-12)


def test_synthesized_conclusion_is_substituted_triple():
    comp = lit_node(1, 0.5, 1.25)
    t = parse_term(r"(\y:Real. y * x) 2")
    d = synthesize_fundamental((("x", REAL),), t, {"x": comp}, REG)
    assert check_derivation(d, REG)
    j = d.conclusion
    from lamdist.syntax import derivative_term
    from lamdist.syntax.terms import substitute
    want_left = substitute(t, {"x": Lit(1)})
    want_dist = substitute(derivative_term((("x", REAL),), t, REG),
                           {"x": Lit(1), "x'": Lit(Fraction("0.5"))})
    want_right = substitute(t, {"x": Lit(Fraction("1.25"))})
    assert alpha_equal(j.left, want_left)
    assert alpha_equal(j.dist, want_dist)
    assert alpha_equal(j.right, want_right)


def test_synthesize_missing_component():
    with pytest.raises(SynthesisError):
        synthesize_fundamental((("x", REAL),), Var("x"), {}, REG)


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_synthesis_weakens_an_empty_context_component_in_either_order(order):
    comps = {"x": lit_node(1, 0.5, 1.25),
             "y": lit_node(2, 0.25, 2, ctx=(("u", REAL),))}
    d = synthesize_fundamental((("x", REAL), ("y", REAL)),
                               parse_term("x + y"),
                               {name: comps[name] for name in order}, REG)
    assert d.conclusion.ctx == (("u", REAL),)
    assert render_term(d.conclusion.left) == "1 + 2"
    assert check_derivation(d, REG)


# --- derived transforms -----------------------------------------------------------

def test_quasi_reflexive_transform_at_real():
    d = lit_node(3, 0.5, 3.2)
    q = quasi_reflexive_derivation(d)
    assert check_derivation(q, REG)
    assert q.conclusion.right == Lit(3)


def test_quasi_reflexive_transform_at_arrow():
    d = self_distance_derivation(parse_term(r"\x:Real. sin(x)"), REG)
    # make it a two-sided derivation first: chain with a partner, then
    # take the self-distance of the chained conclusion
    q = quasi_reflexive_derivation(d)
    assert check_derivation(q, REG)
    assert alpha_equal(q.conclusion.left, q.conclusion.right)


def test_transitivity_transform_at_real():
    t = transitivity_derivation(lit_node(1, 1, 2), lit_node(2, 1, 3))
    assert check_derivation(t, REG)
    j = t.conclusion
    assert j.left == Lit(1) and j.right == Lit(3)
    assert normalize((), j.dist, REAL, REG) == Lit(2)


def test_transitivity_transform_at_arrow():
    sin_t = parse_term(r"\x:Real. sin(x)")
    d1 = self_distance_derivation(sin_t, REG)
    d2 = self_distance_derivation(sin_t, REG)
    t = transitivity_derivation(d1, d2)
    assert check_derivation(t, REG)
    ty = t.conclusion.ty
    assert ty == FnType(REAL, REAL)
    # the combined distance evaluates to twice the modulus
    from lamdist.semantics import diff_evaluate, evaluate
    combined = evaluate(t.conclusion.dist, registry=REG)
    single = diff_evaluate(sin_t, registry=REG)
    for x, b in ((0.0, 0.1), (1.0, 0.5)):
        assert combined(x)(b) == pytest.approx(2 * single(x, b), rel=1e-12)


def pair_node(d1, d2):
    from lamdist.syntax.terms import Pair, PairType
    j1, j2 = d1.conclusion, d2.conclusion
    return Derivation("Pair", DistanceJudgment(
        j1.ctx, Pair(j1.left, j2.left), Pair(j1.dist, j2.dist),
        Pair(j1.right, j2.right), PairType(j1.ty, j2.ty)), (d1, d2))


def test_transitivity_transform_at_product():
    d1 = pair_node(lit_node(1, 1, 2), lit_node(0, 0.5, 0.25))
    d2 = pair_node(lit_node(2, 1, 3), lit_node(0.25, 0.5, 0.5))
    t = transitivity_derivation(d1, d2)
    assert check_derivation(t, REG)
    from lamdist.semantics import evaluate
    assert evaluate(t.conclusion.dist, registry=REG) == (2.0, 1.0)


def test_quasi_reflexive_transform_at_product():
    d = pair_node(lit_node(1, 1, 2), lit_node(0, 0.5, 0.25))
    q = quasi_reflexive_derivation(d)
    assert check_derivation(q, REG)
    assert alpha_equal(q.conclusion.left, q.conclusion.right)
    assert alpha_equal(q.conclusion.left, d.conclusion.left)


def test_add_term_shapes():
    assert normalize((), parse_term("add(1, 2)"), REAL, REG) == Lit(3)
    two_args = add_term(REAL)
    assert typecheck((), two_args, REG) == FnType(REAL, FnType(REAL, REAL))
    from lamdist.syntax.terms import App
    applied = App(App(two_args, Lit(1)), Lit(2))
    assert normalize((), applied, REAL, REG) == Lit(3)
    fn_add = add_term(FnType(REAL, REAL))
    f = parse_term(r"\x:Real. x")
    g = parse_term(r"\x:Real. sin(x)")
    summed = App(App(fn_add, f), g)
    from lamdist.semantics import evaluate
    h = evaluate(summed, registry=REG)
    assert h(0.5) == pytest.approx(0.5 + math.sin(0.5))
    from lamdist.syntax.terms import PairType, Pair
    pair_add = add_term(PairType(REAL, REAL))
    applied = App(App(pair_add, Pair(Lit(1), Lit(2))), Pair(Lit(3), Lit(4)))
    assert evaluate(applied, registry=REG) == (4.0, 6.0)


def test_add_term_proves_equal_to_the_corpus_instances():
    """``corpus/addfn.lam`` writes out the sums at ``Real`` and at
    ``Real -> Real``."""
    corpus_file = Path(__file__).resolve().parent.parent / "corpus" / "addfn.lam"
    defs = parse_file(corpus_file.read_text(encoding="utf-8"), REG)
    assert term_equal((), add_term(REAL), defs["add_real"], REG)
    assert term_equal((), add_term(FnType(REAL, REAL)), defs["add_fn"], REG)


# --- membership ---------------------------------------------------------------------

def test_dlog_at_real():
    assert isinstance(check_dlog(REAL, Lit(3), Lit(Fraction("0.5")),
                                 Lit(Fraction("3.2")), REG), Consistent)
    assert isinstance(check_dlog(REAL, Lit(3), Lit(Fraction("0.1")),
                                 Lit(Fraction("3.2")), REG), Falsified)


def test_an_exact_falsification_keeps_its_rationals():
    """Exact membership decides ties that floats round away; the path
    then says why the comparison failed."""
    tiny = Fraction(1, 10 ** 30)
    verdict = check_dlog(REAL, Lit(0), Lit(Fraction("0.1")),
                         Lit(Fraction("0.1") + tiny), REG)
    assert isinstance(verdict, Falsified) and verdict.lhs == verdict.rhs
    assert verdict.path == (f"{Fraction('0.1') + tiny} > 1/10",)


def test_dlog_closed_under_conversion():
    left = parse_term(r"(\x:Real. x) 3")
    dist = parse_term("0 + 0.5")
    right = parse_term("3.2")
    assert isinstance(check_dlog(REAL, left, dist, right, REG), Consistent)


def test_dlog_at_arrow_probe_based():
    t = parse_term(r"\x:Real. sin(x)")
    d = self_distance_derivation(t, REG)
    verdict = check_dlog_judgment(d.conclusion, REG)
    assert isinstance(verdict, Consistent)
    # an undersized constant distance is refuted on literal probes
    bad_dist = parse_term(r"\x:Real. \x':Real. 0")
    verdict = check_dlog(FnType(REAL, REAL), t, bad_dist, t, REG)
    assert isinstance(verdict, Falsified)


@pytest.mark.parametrize("src, labels", [
    # the fixed second-order library
    (r"\g:(Real->Real)->Real. g (\x:Real. x)",
     [r"\f:Real -> Real. f 0", r"\f:Real -> Real. f 1 + f (-1)"]),
    # any other arrow: its canonical term, and the identity when the
    # argument and the result agree
    (r"\h:(Real*Real)->(Real*Real). fst (h (1, 2))",
     [r"\u:Real * Real. (0, 0)", r"\u:Real * Real. u"]),
])
def test_dlog_probes_a_function_argument_from_the_library(src, labels):
    d = self_distance_derivation(parse_term(src), REG)
    probes = SyntacticProbes(REG).triples(d.conclusion.ty.arg)
    assert [p.label for p in probes] == labels
    assert isinstance(check_dlog_judgment(d.conclusion, REG), Consistent)


@pytest.mark.parametrize("dist", ["z", r"\x:Real. x", "(1, 2)"])
def test_dlog_typechecks_the_distance(dist):
    """The distance is closed at the difference type, like the subjects
    at the claimed type, before anything is normalized."""
    with pytest.raises(TypeError, match="unbound|distance subject"):
        check_dlog(REAL, Lit(1), parse_term(dist), Lit(1), REG)


# --- serialization -------------------------------------------------------------------

def test_derivation_json_round_trip():
    d = transitivity_derivation(lit_node(1, 1, 2), lit_node(2, 1, 3))
    text = derivation_to_json(d)
    back = derivation_from_json(text, REG)
    assert check_derivation(back, REG)
    assert back.rule == d.rule
    assert alpha_equal(back.conclusion.left, d.conclusion.left)
    assert alpha_equal(back.conclusion.dist, d.conclusion.dist)


def test_derivation_json_schema_errors():
    from lamdist.eqtheory import DerivationFormatError
    with pytest.raises(DerivationFormatError):
        derivation_from_json("[1, 2]", REG)
    with pytest.raises(DerivationFormatError):
        derivation_from_json('{"rule": "Magic", "conclusion": {}, "premises": []}',
                             REG)
    with pytest.raises(DerivationFormatError):
        derivation_from_json('{"rule": "Lit", "premises": []}', REG)


def _subjects(d, out):
    j = d.conclusion
    out.extend((j.left, j.dist, j.right))
    for p in d.premises:
        _subjects(p, out)
    return out


def test_derivation_parses_are_shared_within_one_call_only():
    d = self_distance_derivation(parse_term(r"\x:Real. sin(x) + x"), REG)
    text = derivation_to_json(d)
    first = derivation_from_json(text, REG)
    second = derivation_from_json(text, REG)
    by_text = {}
    for t in _subjects(first, []):
        by_text.setdefault(render_term(t), []).append(t)
    assert any(len(ts) > 1 for ts in by_text.values())
    for ts in by_text.values():
        assert all(t is ts[0] for t in ts)  # one parse per distinct text
    for a, b in zip(_subjects(first, []), _subjects(second, [])):
        assert a == b and a is not b  # and none kept between calls


def test_derivation_subject_must_be_a_string():
    from lamdist.eqtheory import DerivationFormatError
    data = ('{"rule": "Lit", "premises": [], "conclusion": {"ctx": [], '
            '"left": ["1"], "dist": "0", "right": "1", "type": "Real"}}')
    with pytest.raises(DerivationFormatError, match="expected a string"):
        derivation_from_json(data, REG)


def _lit_in_context(ctx):
    import json
    return json.dumps({"rule": "Lit", "premises": [], "conclusion": {
        "ctx": ctx, "left": "1", "dist": "0", "right": "1", "type": "Real"}})


@pytest.mark.parametrize("ctx, message", [
    ([[1, "Real"]], "expected a string, got int"),
    ([["x y", "Real"]], "context name 'x y' is not a variable"),
    ([["1", "Real"]], "context name '1' is not a variable"),
    ([["x"]], r"expected a context entry \[name, type\]"),
    (["xR"], r"expected a context entry \[name, type\]"),
])
def test_a_context_name_must_read_back_as_its_variable(ctx, message):
    from lamdist.eqtheory import DerivationFormatError
    with pytest.raises(DerivationFormatError,
                       match=r"^\$\.conclusion: " + message):
        derivation_from_json(_lit_in_context(ctx), REG)


def test_a_primed_context_name_reaches_the_checker():
    d = derivation_from_json(_lit_in_context([["x'", "Real"]]), REG)
    assert d.conclusion.ctx == (("x'", REAL),)
    result = check_derivation(d, REG)
    assert not result
    assert result.message == "context binds primed variable \"x'\""


def test_a_deeply_nested_derivation_is_a_format_error():
    from lamdist.eqtheory import DerivationFormatError
    from lamdist.eqtheory.serialize import derivation_from_dict
    conclusion = ('{"ctx": [], "left": "1", "dist": "0", "right": "1", '
                  '"type": "Real"}')
    text = f'{{"rule": "Lit", "premises": [], "conclusion": {conclusion}}}'
    for _ in range(600):
        text = (f'{{"rule": "Conv", "conclusion": {conclusion}, '
                f'"premises": [{text}]}}')
    with pytest.raises(DerivationFormatError, match="nested too deeply"):
        derivation_from_json(text, REG)
    data = leaf = {"rule": "Lit", "premises": [],
                   "conclusion": {"ctx": [], "left": "1", "dist": "0",
                                  "right": "1", "type": "Real"}}
    for _ in range(2000):
        data = {"rule": "Conv", "premises": [data],
                "conclusion": leaf["conclusion"]}
    with pytest.raises(DerivationFormatError, match="nested too deeply"):
        derivation_from_dict(data, REG)


def test_a_deep_conversion_chain_is_checked_in_preorder():
    """3,000 ``Conv`` nodes built in Python: the checker walks the premises
    on an explicit stack, so the first invalid node is found at its path."""
    def chain(leaf):
        d = leaf
        for _ in range(3000):
            d = Derivation("Conv", leaf.conclusion, (d,))
        return d
    assert check_derivation(chain(lit_node(3, 0.5, 3.2)), REG)
    bad = check_derivation(chain(lit_node(3, 0.1, 3.2)), REG)
    assert not bad and bad.path == (0,) * 3000 and "exceeds" in bad.message


    def path(first, second):  # of the first invalid node of a TransReal
        j1, j2 = first.conclusion, second.conclusion
        return check_derivation(Derivation("TransReal", DistanceJudgment(
            (), j1.left, PrimOp("add", (j1.dist, j2.dist)), j2.right, REAL),
            (first, second)), REG).path
    assert path(lit_node(3, 0.5, 3.2), lit_node(3.2, 0.01, 3.5)) == (1,)
    assert path(lit_node(3, 0.1, 3.2), lit_node(3.2, 0.01, 3.5)) == (0,)
    assert path(lit_node(3, 0.5, 3.7), lit_node(3.2, 0.01, 3.5)) == ()


def test_judging_a_derivation_leaves_no_cyclic_garbage():
    import gc
    from pathlib import Path
    files = sorted((Path(__file__).parent.parent / "perfbench" / "inputs"
                    / "derivations").glob("*.json"))
    texts = [f.read_text("utf-8") for f in files]
    assert len(texts) == 12
    for text in texts:  # first calls may fill caches
        check_derivation(derivation_from_json(text))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for f, text in zip(files, texts):
            result = check_derivation(derivation_from_json(text))
            del result
            assert gc.collect() == 0, f.name
    finally:
        if enabled:
            gc.enable()


def test_synthesis_rejects_ill_typed_premises_without_asserts():
    from lamdist.eqtheory.synthesis import _synth
    from lamdist.syntax.terms import App, First
    real = {"f": lit_node(1, 0, 1)}
    with pytest.raises(SynthesisError, match="applied term"):
        _synth(App(Var("f"), Lit(1)), (), real, {})
    with pytest.raises(SynthesisError, match="projected term"):
        _synth(First(Var("f")), (), real, {})


# --- the randomized suite ------------------------------------------------------------

def test_corpus_suite_passes():
    report = check_suite(count=60, seed=7, registry=default_registry())
    assert report.passed, report.failures[:5]
    assert report.checked == 60


def _refuse(*args):
    raise SynthesisError("no partner")


@pytest.mark.parametrize("part, broken, report", [
    ("random_derivation", lambda rng: lit_node(3, 0.1, 3.2),
     "[0] checker: "),
    ("quasi_reflexive_derivation", lambda d: lit_node(3, 0.1, 3.2),
     "[0] self-distance transform: "),
    ("transitivity_derivation", lambda d1, d2: lit_node(3, 0.1, 3.2),
     "[0] chaining: "),
    ("transitivity_derivation", _refuse, "[0] chaining: no partner"),
    ("check_dlog_judgment",
     lambda j, registry: Falsified("base", (), 1.0, 0.0),
     "[0] membership: Falsified(clause='base'"),
])
def test_the_suite_reports_a_broken_part(monkeypatch, part, broken, report):
    """Each cross-check of the suite fails when the part it checks is
    broken."""
    monkeypatch.setattr(corpus, part, broken)
    failures = check_suite(count=1, seed=1, registry=REG).failures
    assert len(failures) == 1 and failures[0].startswith(report)


def test_chain_partner_matches_endpoint():
    rng = random.Random(3)
    for _ in range(20):
        d = random_derivation(rng)
        partner = chain_partner(d, rng, REG)
        assert check_derivation(partner, REG)
        from lamdist.syntax import term_equal
        assert term_equal((), d.conclusion.right, partner.conclusion.left, REG)
