"""Every syntax walker on seeded random terms, pinned by its output.

The golden was recorded before the walkers shared one stack-safe fold;
the fold must reproduce it byte for byte.  The terms come in two kinds:
well-typed ones drawn type-directed in a small context, and untyped ones
with several faults each (unbound and primed names, shadowing binders,
unknown primitives, wrong arities, ill-typed applications and
projections).  For each term the golden holds its type or the exact
error text, its rendering, its derivative, its free and all names, its
subterms in order, five capturing substitutions, a set of alpha
comparisons, its normal form (from ``tests/reference``, once lamdist's
typing has accepted the term), its round trip through the parser and,
for closed well-typed terms, its synthesized self-distance conclusion.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from lamdist.eqtheory import self_distance_derivation
from lamdist.prims import DEFAULT_REGISTRY
from lamdist.syntax import (FnType, Lit, REAL, derivative_term, parse_term,
                            render_term, typecheck)
from lamdist.syntax.terms import (App, First, Lam, Pair, PairType, PrimOp,
                                  Second, Var, all_var_names, alpha_equal,
                                  free_vars, substitute, subterms)

from reference.normalizer import normal_form

GOLDEN = Path(__file__).parent / "golden" / "syntax_walkers.json"

FN = FnType(REAL, REAL)
CTX = (("x", REAL), ("f", FN), ("p", PairType(REAL, REAL)))
TYPES = (REAL, REAL, FN, PairType(REAL, REAL), FnType(FN, REAL),
         FnType(REAL, FN), PairType(REAL, FN))
BINDERS = ("x", "y", "z", "w", "g", "x'", "y'", "y1", "x1")
NAMES = BINDERS + ("f", "p", "u", "u'")
LITERALS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
            Fraction(1, 3), Fraction(-7, 4), Fraction(5, 8))
SUBSTITUTIONS = (
    {"x": Var("y")},
    {"x": App(Var("y"), Var("z")), "f": Lam("y", REAL, Var("z"))},
    {"y": Var("x"), "x": Var("y'"), "u": Pair(Var("w"), Var("x1"))},
    {"x": Var("y"), "y1": Lit(Fraction(5))},
    {"u": Var("w"), "x": Var("y")},
)
# first-error order: checks made before the children come first
ORDERED = (
    App(Lit(Fraction(3)), Var("u")),
    App(Var("f"), App(Lit(Fraction(1)), Var("u"))),
    App(Lam("y", REAL, Var("u")), Lam("z", REAL, Var("z"))),
    PrimOp("sin", (Var("f"), Var("u"))),
    PrimOp("add", (Var("x"), Var("f"), Var("u"))),
    PrimOp("add", (Var("f"), Var("u"))),
    PrimOp("add", (Var("x"), Var("f"))),
    PrimOp("foo", (Var("u"),)),
    Lam("x", REAL, Var("u")),
    Lam("y", REAL, Lam("y", REAL, Var("u"))),
    First(App(Var("u"), Lit(Fraction(1)))),
    Pair(Var("u"), First(Lit(Fraction(2)))),
    Lam("y'", REAL, Lam("y", REAL, Var("y'"))),
    # binders a substitution skips, renames, and leaves
    Lam("x", REAL, Lam("y", REAL, Var("x"))),
    Pair(Lam("x", REAL, Var("y")), Var("x")),
    Lam("y", REAL, Pair(Var("x"), Var("y1"))),
    Lam("y", REAL, Lam("y", REAL, Pair(Var("x"), Var("y")))),
    App(Lam("y", REAL, Var("x")), Lam("x", REAL, Lam("y", REAL, Var("x")))),
    Lam("y", REAL, Lam("u", REAL, Lam("x", REAL, Lam("w", REAL, Var("y"))))),
)
_KIND = {Var: "v", Lit: "l", PrimOp: "o", App: "a", Lam: "L", Pair: "p",
         First: "1", Second: "2"}


def _typed(rng, ty, env, depth):
    """A term of type ``ty`` under ``env`` (name to type, no shadowing)."""
    here = [n for n, t in env.items() if t == ty]
    if depth <= 0 or rng.random() < 0.2:
        if here and rng.random() < 0.7:
            return Var(rng.choice(here))
        if ty == REAL:
            return Lit(rng.choice(LITERALS))
    sub = depth - 1
    r = rng.random() if depth > 0 else 1.0
    if r < 0.2:
        arg = rng.choice(TYPES[:4])
        return App(_typed(rng, FnType(arg, ty), env, sub),
                   _typed(rng, arg, env, sub))
    if r < 0.3:
        other = rng.choice(TYPES[:3])
        if rng.random() < 0.5:
            return First(_typed(rng, PairType(ty, other), env, sub))
        return Second(_typed(rng, PairType(other, ty), env, sub))
    if ty == REAL:
        op = rng.choice(("add", "sub", "mul", "div", "sin", "neg", "cos"))
        arity = 1 if op in ("sin", "neg", "cos") else 2
        return PrimOp(op, tuple(_typed(rng, REAL, env, sub)
                                for _ in range(arity)))
    if isinstance(ty, FnType):
        free = [n for n in BINDERS if n not in env] or [f"v{len(env)}"]
        name = rng.choice(free)
        return Lam(name, ty.arg, _typed(rng, ty.res, {**env, name: ty.arg},
                                        sub))
    return Pair(_typed(rng, ty.left, env, sub),
                _typed(rng, ty.right, env, sub))


def _untyped(rng, depth):
    """A term drawn with no regard for types, scope or arity."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var(rng.choice(NAMES))
        return Lit(rng.choice(LITERALS))
    sub = depth - 1
    r = rng.random()
    if r < 0.3:
        return Lam(rng.choice(BINDERS), rng.choice(TYPES),
                   _untyped(rng, sub))
    if r < 0.45:
        return App(_untyped(rng, sub), _untyped(rng, sub))
    if r < 0.7:
        op = rng.choice(("add", "sin", "neg", "mul", "foo", "sub"))
        arity = rng.choice((0, 1, 2, 2, 3))
        return PrimOp(op, tuple(_untyped(rng, sub) for _ in range(arity)))
    if r < 0.85:
        return Pair(_untyped(rng, sub), _untyped(rng, sub))
    kind = First if rng.random() < 0.5 else Second
    return kind(_untyped(rng, sub))


def _alpha_variant(t, rename, env=None):
    """``t`` with every binder renamed by ``rename`` (test-side walk)."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Lam):
        new = rename(t.var)
        return Lam(new, t.var_type,
                   _alpha_variant(t.body, rename, {**env, t.var: new}))
    if isinstance(t, PrimOp):
        return PrimOp(t.name, tuple(_alpha_variant(a, rename, env)
                                    for a in t.args))
    if isinstance(t, App):
        return App(_alpha_variant(t.fn, rename, env),
                   _alpha_variant(t.arg, rename, env))
    if isinstance(t, Pair):
        return Pair(_alpha_variant(t.left, rename, env),
                    _alpha_variant(t.right, rename, env))
    if isinstance(t, (First, Second)):
        return type(t)(_alpha_variant(t.pair, rename, env))
    return t


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - the error text is the output
        return f"{type(e).__name__}: {e}"


def _record(t, neighbour):
    out = {"render": render_term(t)}
    out["type"] = _outcome(lambda: repr(typecheck(CTX, t)))
    out["derivative"] = _outcome(lambda: render_term(derivative_term(CTX, t)))
    out["free"] = sorted(free_vars(t))
    out["names"] = sorted(all_var_names(t))
    out["subterms"] = "".join(_KIND[type(s)] for s in subterms(t))
    out["substitute"] = [render_term(substitute(t, m)) for m in SUBSTITUTIONS]
    primed = _alpha_variant(t, lambda n: n.rstrip("'") + "_a")
    collapsed = _alpha_variant(t, lambda n: "x")
    out["alpha"] = [alpha_equal(t, t), alpha_equal(t, primed),
                    alpha_equal(primed, t), alpha_equal(t, collapsed),
                    alpha_equal(t, neighbour), alpha_equal(neighbour, t),
                    alpha_equal(t, substitute(t, SUBSTITUTIONS[0]))]
    # the reference's normal form, once lamdist's typing has passed: a
    # term it refuses records lamdist's error text
    out["normalize"] = _outcome(lambda: typecheck(CTX, t) and render_term(
        normal_form(CTX, t, DEFAULT_REGISTRY)))
    out["reparse"] = _outcome(lambda: render_term(parse_term(render_term(t))))
    if not free_vars(t) and not out["type"].startswith("TypecheckError"):
        out["self_distance"] = _outcome(
            lambda: self_distance_derivation(t).conclusion.render())
    return out


def walker_terms():
    rng = random.Random(20261018)
    typed = [_typed(rng, rng.choice(TYPES), dict(CTX), rng.randint(1, 5))
             for _ in range(120)]
    closed = [_typed(rng, rng.choice(TYPES), {}, rng.randint(1, 5))
              for _ in range(40)]
    untyped = [_untyped(rng, rng.randint(2, 5)) for _ in range(120)]
    return typed + closed + untyped + list(ORDERED)


def syntax_walkers() -> list:
    """Regenerate the golden with ``python -c "import json, sys;
    sys.path[:0] = ['src', 'tests']; import test_syntax_walkers as t;
    print(json.dumps(t.syntax_walkers(), indent=1))"`` run from the
    repository root."""
    terms = walker_terms()
    return [_record(t, terms[(i + 1) % len(terms)])
            for i, t in enumerate(terms)]


def test_walker_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    live = syntax_walkers()
    assert len(live) == len(golden) == 299
    for i, (got, want) in enumerate(zip(live, golden)):
        assert got == want, (i, want["render"])

