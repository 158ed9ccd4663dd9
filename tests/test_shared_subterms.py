"""The shortcuts that let one derivation share its subterms, each with a
test that fails without its guard.

* ``derivation_from_json`` parses each binder-free token span once, and
  the subjects that restate it share its term: every subject must still
  read as its text alone would, binders renamed alike.
* ``alpha_equal`` takes one object on both sides as equal to itself
  only while the open binder pairs bind the same names.
* ``check_derivation`` types each (scope, subterm) pair once: one object
  met under two scopes gets each scope's type or message, and a context
  entry and a binder of one name and type open one scope, in the
  distance's doubled context too.
* The span table keeps no prefix of a sum, so a long sum reads in space
  linear in its length; nor any span nested in more than ``SPAN_DEPTH``
  groups, so deep nesting reads in space linear in its depth.
"""

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

from lamdist.eqtheory import (check_derivation, derivation_from_json,
                              self_distance_derivation)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.syntax import (FnType, Lit, ParseError, REAL, TermTooDeep,
                            parse_term)
from lamdist.syntax.terms import App, Lam, PairType, Var, alpha_equal
from lamdist.syntax.parser import SPAN_DEPTH, parse_shared
from lamdist.syntax.typecheck import typechecker

ROOT = Path(__file__).resolve().parent.parent
READ = (*sorted((ROOT / "perfbench" / "inputs" / "derivations").glob("*.json")),
        *sorted((ROOT / "corpus").glob("*.json")))


def document(left, dist, right, ctx=(("x", "Real"),), premises=()):
    return json.dumps({"rule": "Var", "premises": list(premises),
                       "conclusion": {"ctx": [list(b) for b in ctx],
                                      "left": left, "dist": dist,
                                      "right": right, "type": "Real"}})


def subjects(data, d):
    """(text, term read) of every subject of ``d``, read from ``data``."""
    todo = [(data, d)]
    while todo:
        data, d = todo.pop()
        c, j = data["conclusion"], d.conclusion
        yield from ((c["left"], j.left), (c["dist"], j.dist),
                    (c["right"], j.right))
        todo.extend(zip(data["premises"], d.premises))


def assert_read_as_alone(text):
    for src, t in subjects(json.loads(text), derivation_from_json(text)):
        alone = parse_term(src)
        assert t == alone and repr(t) == repr(alone), src


def test_a_shared_span_reads_as_its_text_alone_under_a_binder():
    # sin(x) is stored from the first text; in the second its x is free
    # while the binder x is not, so the binder must still be renamed
    assert_read_as_alone(document("sin(x)", "(\\x:Real. x) + sin(x)", "x"))


def test_every_committed_derivation_reads_as_its_texts_alone():
    assert READ
    for path in READ:
        assert_read_as_alone(path.read_text("utf-8"))


def random_text(rng, depth):
    """A random term text over shadowing binders, sums, products,
    negation, primitive calls, groups, pairs and applications."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(["x", "y", "x1", "f", "z'", "1", "2.5", "0"])
    a, b, c = (random_text(rng, depth - 1) for _ in range(3))
    return rng.choice([
        f"\\{rng.choice(['x', 'y', 'x1', 'f'])}:"
        f"{rng.choice(['Real', 'Real -> Real', 'Real * Real'])}. {a}",
        f"{a} + {b}", f"{a} * {b} - {c}", f"-{a} / {b}", f"sin({a})",
        f"add({a}, {b})", f"({a})", f"({a}, {b})", f"fst({a}) {b}"])


def outcome(parse, *args):
    try:
        t = parse(*args)
    except (ParseError, TermTooDeep) as e:
        return type(e), str(e)
    return t, repr(t)


def test_texts_read_through_one_table_parse_as_alone():
    # a random text, then runs of its tokens, most of them malformed:
    # through one span table each gives parse_term's term or error
    rng = random.Random(2210)
    for _ in range(1000):
        text = random_text(rng, 5)
        toks = text.replace("(", " ( ").replace(")", " ) ").replace(
            ",", " , ").split()
        spans = {}
        for _ in range(12):
            i = rng.randrange(len(toks))
            part = " ".join(toks[i:rng.randrange(i + 1, len(toks) + 1)])
            for src in (text, part):
                assert outcome(parse_shared, src, spans) == outcome(
                    parse_term, src), src


def test_subjects_that_restate_a_span_share_its_term():
    d = derivation_from_json(document(
        "sin(x + 1) * 2", "0", "x", premises=[json.loads(document(
            "x + 1", "0", "sin(x + 1)"))]))
    j, p = d.conclusion, d.premises[0].conclusion
    assert p.left is j.left.args[0].args[0]
    assert p.right is j.left.args[0]


def test_alpha_equal_walks_one_body_under_binders_of_two_names():
    x = Var("x")
    assert not alpha_equal(Lam("x", REAL, Lam("y", REAL, x)),
                           Lam("y", REAL, Lam("x", REAL, x)))
    assert alpha_equal(Lam("x", REAL, Lam("y", REAL, x)),
                       Lam("y", REAL, Lam("x", REAL, Var("y"))))
    assert alpha_equal(Lam("x", REAL, Lam("x", REAL, x)),
                       Lam("x", REAL, Lam("x", REAL, x)))


def test_one_subterm_under_two_scopes_gets_each_scope_s_type():
    def node(left, right, ty=REAL):
        return Derivation("Lit", DistanceJudgment((), left, Lit(Fraction(0)),
                                                  right, ty))

    fn, ident = FnType(REAL, REAL), parse_term("\\y:Real. y")
    # one x + x: Real where x is, ill-typed where x is a function
    body = parse_term("x + x")
    r = check_derivation(node(App(Lam("x", REAL, body), Lit(Fraction(1))),
                              App(Lam("x", fn, body), ident)))
    assert not r.ok and r.path == ()
    assert r.message == ("ill-typed judgment: primitive argument has type "
                         "Real -> Real, expected Real in x + x")
    # one (x, 1): Real * Real where x is Real, (Real -> Real) * Real where
    # x is a function
    pair = parse_term("(x, 1)")
    r = check_derivation(node(App(Lam("x", REAL, pair), Lit(Fraction(1))),
                              App(Lam("x", fn, pair), ident),
                              PairType(REAL, REAL)))
    assert not r.ok and r.path == ()
    assert r.message == ("right subject has type (Real -> Real) * Real, "
                         "not Real * Real")


def test_a_context_entry_and_a_binder_share_a_scope():
    """An ``Abs`` premise types its subjects in the context extended by
    the binder that its conclusion's subjects open: one scope."""
    typed = typechecker()
    ctx, body = (("f", FnType(REAL, REAL)),), parse_term("(f x, x)")
    outer = typed(ctx, Lam("x", REAL, body))
    assert typed(ctx + (("x", REAL),), body) is outer.res


def test_an_abs_premise_s_distance_shares_its_conclusion_s_scopes():
    """The doubled context lists each variable before its primed partner,
    the order the ``Abs`` rule binds them in."""
    d = self_distance_derivation(parse_term(r"\x:Real. \y:Real. (x * y, x)"))
    outer, inner = d.premises[0].conclusion, d.premises[0].premises[0]
    typed = typechecker()
    ty = typed(outer.dist_ctx, outer.dist)
    assert typed(inner.conclusion.dist_ctx, inner.conclusion.dist) is \
        ty.res.res


def test_reading_a_long_sum_keeps_no_prefix_of_it():
    # reading this peaked at 8.1 MB before spans were shared (Python
    # 3.11); storing each of the 10,000 prefixes takes hundreds of MB
    big = " + ".join(["x"] * 10_000)
    text = document(big, "x'", big)
    tracemalloc.start()
    try:
        d = derivation_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.conclusion.left is d.conclusion.right
    assert peak < 12 * 2 ** 20


def test_the_span_table_keeps_no_span_nested_past_its_depth():
    # each nested span repeats the calls inside it in its key: storing all
    # 3,000 levels would hold about 27 million tokens
    n = 3_000
    spans = {}
    parse_shared("sin(" * n + "x" + ")" * n, spans)
    # the calls in no more than SPAN_DEPTH groups, and the argument of
    # the last of them
    assert len([k for k in spans if isinstance(k, tuple)]) == SPAN_DEPTH + 1
