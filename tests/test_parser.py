import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lamdist.syntax import (FnType, Lit, REAL, parse_file,
                            parse_term, render_term, render_type, ParseError)
from lamdist.syntax.terms import (App, Lam, Pair, PairType, PrimOp, Var,
                                  all_var_names, alpha_equal, free_vars)
from lamdist.syntax.parser import _freshen_shadowed, parse_shared, parse_type

GOLDEN = Path(__file__).parent / "golden" / "parse_identity.json"


def test_identity():
    assert parse_term(r"\x:Real. x") == Lam("x", REAL, Var("x"))


def test_application_and_prim():
    t = parse_term(r"(\x:Real. sin(x)) 0.0")
    assert t == App(Lam("x", REAL, PrimOp("sin", (Var("x"),))), Lit(0))


def test_literals_are_exact():
    assert parse_term("0.1") == Lit(Fraction(1, 10))
    assert parse_term("-2.5") == Lit(Fraction(-5, 2))


def test_infix_sugar():
    assert parse_term("1 + 2 * 3") == PrimOp(
        "add", (Lit(1), PrimOp("mul", (Lit(2), Lit(3)))))
    assert parse_term("1 - 2 - 3") == PrimOp(
        "sub", (PrimOp("sub", (Lit(1), Lit(2))), Lit(3)))
    assert parse_term("-x") == PrimOp("neg", (Var("x"),))


def test_pairs_and_projections():
    t = parse_term("fst((1, 2))")
    assert t.pair == Pair(Lit(1), Lit(2))


def test_types():
    t = parse_term(r"\f:Real->Real. \x:Real*Real. f (fst(x))")
    assert t.var_type == FnType(REAL, REAL)
    assert t.body.var_type == PairType(REAL, REAL)
    # arrows are right associative
    u = parse_term(r"\g:Real->Real->Real. g")
    assert u.var_type == FnType(REAL, FnType(REAL, REAL))


def test_primed_variables_bindable():
    t = parse_term(r"\x:Real. \x':Real. x'")
    assert t.body.var == "x'"


def test_juxtaposed_application_is_left_associative():
    t = parse_term("f x y")
    assert t == App(App(Var("f"), Var("x")), Var("y"))


def test_shadowing_binders_are_freshened():
    t = parse_term(r"\x:Real. \x:Real. x")
    assert isinstance(t, Lam) and isinstance(t.body, Lam)
    assert t.var != t.body.var
    assert t.body.body == Var(t.body.var)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as e:
        parse_term(r"(\x:Real")
    assert "end of input" in str(e.value)
    with pytest.raises(ParseError):
        parse_term("sin(1, 2)")  # arity
    with pytest.raises(ParseError):
        parse_term("sin")  # bare primitive


def test_round_trip_through_printer():
    sources = [
        r"\x:Real. x",
        r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1",
        r"\p:Real*Real. (snd(p), fst(p))",
        r"\f:(Real->Real)->Real. f (\y:Real. y * y)",
        "sin(0.5) + cos(-1)",
        "-(x + 1)",
        r"\x:Real. \x':Real. x' - x",
    ]
    for src in sources:
        t = parse_term(src)
        assert alpha_equal(parse_term(render_term(t)), t), src


def test_render_type_round_trip():
    t = parse_term(r"\f:(Real->Real)*(Real->Real*Real). f")
    assert render_type(t.var_type) == "(Real -> Real) * (Real -> Real * Real)"


def test_parse_file_inlines_earlier_names():
    defs = parse_file("""
        idf = \\x:Real. x
        twice = idf (idf 2)
    """)
    assert defs["twice"] == App(Lam("x", REAL, Var("x")),
                                App(Lam("x", REAL, Var("x")), Lit(2)))


def test_parse_file_errors():
    with pytest.raises(ParseError):
        parse_file("idf = \\x:Real. x\nidf = 3")
    with pytest.raises(ParseError):
        parse_file("sin = 3")
    with pytest.raises(ParseError):
        parse_file("3 + 4")


def test_parse_identity_golden():
    """Every derivation subject of the benchmark inputs, every corpus
    definition and a set of shadowing sources print exactly as they did
    when the golden was recorded (before the single-pass parser)."""
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["subjects"]) == 361 and len(golden["shadowing"]) >= 20
    for section in ("subjects", "shadowing"):
        for src, want in golden[section].items():
            assert render_term(parse_term(src)) == want, src
    for src, want in golden["types"].items():
        assert render_type(parse_type(src)) == want, src
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    files = dict(golden["files"])
    files.update({(corpus / name).read_text(): want
                  for name, want in golden["corpus"].items()})
    for src, want in files.items():
        got = {n: render_term(t) for n, t in parse_file(src).items()}
        assert got == want, src


# A number that runs into a name once parsed as an application (``1e300``
# as ``1 e300``) or, before a minus, as a subtraction
SCIENTIFIC = ("a number is digits with at most one point; scientific "
              "notation is not supported")


@pytest.mark.parametrize("parse, src, message", [
    (parse_term, "x + $", "1:5: unexpected character '$'"),
    (parse_term, "1e300", f"1:1: malformed number '1e300': {SCIENTIFIC}"),
    (parse_term, "2.5e3", f"1:1: malformed number '2.5e3': {SCIENTIFIC}"),
    (parse_term, "1e-3", f"1:1: malformed number '1e': {SCIENTIFIC}"),
    (parse_file, "a = 1\nb = a * 1e300",
     f"2:9: malformed number '1e300': {SCIENTIFIC}"),
    (parse_file, "a = 1\nb = a * 2.5e3",
     f"2:9: malformed number '2.5e3': {SCIENTIFIC}"),
    (parse_file, "a = 1\nb = a * 1e-3",
     f"2:9: malformed number '1e': {SCIENTIFIC}"),
    (parse_term, "x )", "1:3: trailing input after term (found ')')"),
    (parse_term, "sin(1, 2)", "1:1: primitive 'sin' takes 1 argument(s), got 2"),
    (parse_term, "\\x:Real.\n  x $", "2:5: unexpected character '$'"),
    (parse_term, "(x +\n", "2:1: expected a term (found end of input)"),
    (parse_term, "add(1, )", "1:8: expected a term (found ')')"),
    (parse_term, "sin()", "1:1: primitive 'sin' takes 1 argument(s), got 0"),
    (parse_term, "(1, 2, 3)", "1:6: expected ')' (found ',')"),
    (parse_term, "fst(1, 2)", "1:6: expected ')' (found ',')"),
    (parse_type, "Real -> ", "1:9: expected a type (found end of input)"),
    (parse_type, "(Real -> Real", "1:14: expected ')' (found end of input)"),
    (parse_file, "a = 1\n\n# comment\nb = a +\nc = 2",
     "4:0: expected a term (found end of input)"),
    (parse_file, "a = 1\n  b = sin(a, 1)",
     "2:7: primitive 'sin' takes 1 argument(s), got 2"),
    (parse_file, "a = 1\nb = 2 3)\n",
     "2:8: trailing input after definition (found ')')"),
    (parse_file, "a = 1\nb = 2\n  c = ?", "3:7: unexpected character '?'"),
])
def test_parse_error_text_and_position(parse, src, message):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == message
    line, col = message.split(":")[:2]
    assert (e.value.line, e.value.col) == (int(line), int(col))


def _random_source(rng, depth):
    names = ["x", "y", "x1", "x'", "y'", "f"]
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice(names + ["1", "0.5"])

    def sub():
        return _random_source(rng, depth - 1)

    if r < 0.45:
        return f"(\\{rng.choice(names)}:Real. {sub()})"
    if r < 0.6:
        return f"({sub()}) ({sub()})"
    if r < 0.75:
        return f"{sub()} + {sub()}"
    if r < 0.85:
        return f"sin({sub()})"
    if r < 0.92:
        return f"({sub()}, {sub()})"
    return f"-{sub()}"


def test_skipping_the_rename_walk_never_changes_a_term():
    """The parser skips the rename walk when it would be the identity;
    running it anyway on any parsed term changes nothing."""
    rng = random.Random(5)
    for _ in range(400):
        t = parse_term(_random_source(rng, rng.randint(1, 6)))
        assert _freshen_shadowed(t, free_vars(t), all_var_names(t)) == t


def _left_spine(t, depth):
    for _ in range(depth):
        t = t.args[0]
    return t


SUM = " + ".join(["x"] * 10_000)


def test_a_ten_thousand_term_sum_parses():
    t = parse_term(SUM)
    assert t.name == "add" and t.args[1] == Var("x")
    assert _left_spine(t, 9_999) == Var("x")
    body = parse_file(f"s = \\x:Real. {SUM}\n")["s"].body
    assert _left_spine(body, 9_999) == Var("x")


def test_long_prefix_and_binder_chains_parse():
    t = parse_term("-" * 10_000 + "x")
    assert _left_spine(t, 10_000) == Var("x")
    assert parse_term("-" * 10_001 + "2") == Lit(-2)
    t = parse_term("".join(f"\\x{i}:Real. " for i in range(10_000)) + "x0")
    for i in range(10_000):
        assert t.var == f"x{i}"
        t = t.body
    assert t == Var("x0")


DEEP = 10_000
CALLS = "sin(" * DEEP + "x" + ")" * DEEP


def test_nesting_ten_thousand_deep_parses():
    """Groups, argument lists and arrow types run on an explicit stack.
    Results are checked by loops and printing, since the dataclasses'
    ``==`` and ``hash`` on terms recurse."""
    assert parse_term("(" * DEEP + "x" + ")" * DEEP) == Var("x")
    t = parse_term(CALLS)
    for _ in range(DEEP):
        assert t.name == "sin"
        (t,) = t.args
    assert t == Var("x")
    t = parse_term("(x, " * DEEP + "1" + ")" * DEEP)
    for _ in range(DEEP):
        assert t.left == Var("x")
        t = t.right
    assert t == Lit(1)
    ty = parse_type(" -> ".join(["Real"] * DEEP))
    for _ in range(DEEP - 1):
        assert ty.arg is REAL
        ty = ty.res
    assert ty is REAL
    ty = parse_type("(" * DEEP + "Real" + " -> Real)" * DEEP)
    for _ in range(DEEP):
        assert ty.res is REAL
        ty = ty.arg
    assert ty is REAL
    body = parse_file(f"f = \\x:Real. {CALLS}\n")["f"].body
    assert render_term(body) == CALLS


def test_a_span_table_reads_deep_calls_as_parse_term_does():
    src = "sin(" * 3_000 + "x + 1" + ")" * 3_000
    assert alpha_equal(parse_shared(src, {}), parse_term(src))


def test_the_rename_walk_takes_a_deep_term():
    t = parse_term(SUM + r" + (\x:Real. x) 1")
    assert t.args[1] == App(Lam("x1", REAL, Var("x1")), Lit(1))
    assert _left_spine(t, 10_000) == Var("x")


def test_inlining_takes_a_deep_term():
    t = parse_file(f"a = 1\ns = {SUM} + a")["s"]
    assert t.args[1] == Lit(1) and _left_spine(t, 10_000) == Var("x")
