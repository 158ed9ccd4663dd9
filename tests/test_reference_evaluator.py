"""The emitted code of ``evaluate`` and ``diff_evaluate`` against a tree
walker written apart from it, on whole terms.

The reference walks the term node by node and calls the reference
checks themselves: ``Registry.call_float`` for each primitive's value and
``prims.prim_modulus`` for its difference.  It first runs the checks the
evaluators make when they compile (the registry's arity test and each
literal's float conversion), in the order a recursive walk meets them,
then evaluates lazily, as the compiled code does.  Outcomes are compared
by ``repr`` (which tells -0.0, nan and inf apart), errors by type and
message.
"""

import math
import random
from fractions import Fraction

import pytest

from lamdist.prims import (EvalDomainError, Primitive, default_registry,
                           prim_modulus)
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.semantics import eval as eval_module
from lamdist.syntax import FnType, parse_term
from lamdist.syntax.terms import (App, First, Lam, Lit, Pair, PrimOp, REAL,
                                  Second, Var, substitute)

from gen import random_literal, random_real_term

REG = default_registry()


# --- the reference ---------------------------------------------------------

def _compile_checks(t, registry):
    """Raise what compiling ``t`` raises: an unknown primitive or a wrong
    arity, or a literal beyond the float range, pre-order."""
    if isinstance(t, PrimOp):
        registry.resolve(t.name, len(t.args))
    if isinstance(t, Lit):
        try:
            float(t.value)
        except OverflowError:
            raise EvalDomainError(
                f"literal {t.value} is beyond the float range") from None
    for kid in _kids(t):
        _compile_checks(kid, registry)


def _kids(t):
    if isinstance(t, PrimOp):
        return t.args
    if isinstance(t, (App, Pair)):
        return (t.fn, t.arg) if isinstance(t, App) else (t.left, t.right)
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, (First, Second)):
        return (t.pair,)
    return ()


def ref_value(t, bound, free, registry):
    """``t``'s value; ``bound`` maps the names of the enclosing binders,
    ``free`` the others."""
    if isinstance(t, Var):
        if t.name in bound:
            return bound[t.name]
        if t.name in free:
            return free[t.name]
        raise NameError(f"unbound variable {t.name!r} at evaluation")
    if isinstance(t, Lit):
        return float(t.value)
    if isinstance(t, PrimOp):
        args = [ref_value(a, bound, free, registry) for a in t.args]
        return registry.call_float(t.name, args)
    if isinstance(t, App):
        fn = ref_value(t.fn, bound, free, registry)
        return fn(ref_value(t.arg, bound, free, registry))
    if isinstance(t, Lam):
        return lambda v: ref_value(t.body, {**bound, t.var: v}, free,
                                   registry)
    if isinstance(t, Pair):
        return (ref_value(t.left, bound, free, registry),
                ref_value(t.right, bound, free, registry))
    return ref_value(t.pair, bound, free, registry)[
        0 if isinstance(t, First) else 1]


def ref_dual(t, bound, dbound, free, dfree, registry, want):
    """``t``'s (value or None, difference): the value only when ``want``
    is set, as the difference clauses use it."""
    if isinstance(t, Var):
        name = t.name
        if name in bound:
            return bound[name], dbound[name]
        if (name in free or not want) and name in dfree:
            return free.get(name), dfree[name]
        if want and name not in free:
            raise NameError(f"unbound variable {name!r} at evaluation")
        raise NameError(f"no difference bound for variable {name!r}")
    if isinstance(t, Lit):
        return float(t.value), 0.0
    if isinstance(t, PrimOp):
        pairs = [ref_dual(a, bound, dbound, free, dfree, registry, True)
                 for a in t.args]
        ys, bs = [y for y, _ in pairs], [b for _, b in pairs]
        value = registry.call_float(t.name, ys) if want else None
        return value, prim_modulus(registry[t.name], ys, bs)
    if isinstance(t, App):
        f, df = ref_dual(t.fn, bound, dbound, free, dfree, registry, want)
        if not callable(df):
            raise TypeError("difference of an applied term is not a "
                            "function; environment shape does not match "
                            "the typing")
        y, b = ref_dual(t.arg, bound, dbound, free, dfree, registry, True)
        return (f(y) if want else None), df(y, b)
    if isinstance(t, Lam):
        value = ref_value(t, bound, free, registry) if want else None

        def dclosure(y, b):
            return ref_dual(t.body, {**bound, t.var: y},
                            {**dbound, t.var: b}, free, dfree, registry,
                            False)[1]
        return value, dclosure
    if isinstance(t, Pair):
        (x, a), (x2, a2) = (ref_dual(s, bound, dbound, free, dfree,
                                     registry, want)
                            for s in (t.left, t.right))
        return (x, x2), (a, a2)
    x, a = ref_dual(t.pair, bound, dbound, free, dfree, registry, want)
    k = 0 if isinstance(t, First) else 1
    return (x[k] if want else None), a[k]


def reference_evaluate(t, env=None, registry=REG):
    _compile_checks(t, registry)
    return ref_value(t, {}, dict(env or {}), registry)


def reference_diff_evaluate(t, env=None, denv=None, registry=REG):
    _compile_checks(t, registry)
    return ref_dual(t, {}, {}, dict(env or {}), dict(denv or {}), registry,
                    False)[1]


# --- comparing outcomes -----------------------------------------------------

def _outcome(thunk):
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raise", type(exc).__name__, str(exc))


def _applied(make, *args):
    """``make()`` applied to each tuple of ``args`` in turn."""
    def run():
        out = make()
        for a in args:
            out = out(*a)
        return out
    return run


SPECIAL_YS = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e200, 1e308,
              math.inf, -math.inf, math.nan]
SPECIAL_BS = [0.0, -0.0, 0.5, 1e300, math.inf, -0.25, math.nan]


def _y(rng):
    return (rng.choice(SPECIAL_YS) if rng.random() < 0.2
            else rng.uniform(-4.0, 4.0))


def _b(rng):
    return (rng.choice(SPECIAL_BS) if rng.random() < 0.2
            else rng.uniform(0.0, 1.5))


def _dressed(rng, t, depth=0):
    """``t`` with some of its real subterms put in a redex or a
    projection of a pair, so the code between regions runs too, with and
    without its value wanted, or in a subtraction or a division, whose
    arguments do not commute."""
    if isinstance(t, PrimOp):
        t = PrimOp(t.name, tuple(_dressed(rng, a, depth + 1)
                                 for a in t.args))
    r = rng.random()
    if r < 0.1:
        return App(Lam(f"w{depth}", REAL,
                       PrimOp("add", (Var(f"w{depth}"), random_literal(rng)))),
                   t)
    if r < 0.15:
        return First(Pair(t, random_literal(rng)))
    if r < 0.2:
        return Second(Pair(Lam("v", REAL, Var("v")), t))
    if r < 0.25:
        return PrimOp("sub", (random_literal(rng), t))
    if r < 0.3:
        return PrimOp("div", (t, random_literal(rng)))
    return t


def _first_order(rng):
    return Lam("x", REAL, _dressed(rng, random_real_term(
        rng, ("x",), depth=rng.randint(1, 6))))


def _second_order(rng):
    """``\\f:Real->Real. \\x:Real. body`` with ``f`` applied inside."""
    body = random_real_term(rng, ("x", "y"), depth=rng.randint(1, 5))
    inner = random_real_term(rng, ("x",), depth=rng.randint(0, 3))
    body = substitute(body, {"y": App(Var("f"), inner)})
    return Lam("f", FnType(REAL, REAL), Lam("x", REAL, _dressed(rng, body)))


# the functions and differences ``f`` is applied to at second order
FUNCTIONS = [
    (math.sin, lambda y, b: prim_modulus(REG["sin"], (y,), (b,))),
    (lambda y: 2.0 * y, lambda y, b: 2.0 * b),
    (lambda y: y * y, lambda y, b: 2 * abs(y) * b + b * b),
]

SEEDS = range(300)


@pytest.mark.parametrize("seed", SEEDS)
def test_first_order_terms_match_the_reference(seed):
    rng = random.Random(seed)
    t = _first_order(rng)
    for _ in range(4):
        y, b = _y(rng), _b(rng)
        assert _outcome(_applied(lambda: evaluate(t), (y,))) == \
            _outcome(_applied(lambda: reference_evaluate(t), (y,))), (t, y)
        assert _outcome(_applied(lambda: diff_evaluate(t), (y, b))) == \
            _outcome(_applied(lambda: reference_diff_evaluate(t),
                              (y, b))), (t, y, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_second_order_terms_match_the_reference(seed):
    rng = random.Random(10_000 + seed)
    t = _second_order(rng)
    for _ in range(2):
        f, df = rng.choice(FUNCTIONS)
        y, b = _y(rng), _b(rng)
        assert _outcome(_applied(lambda: evaluate(t), (f,), (y,))) == \
            _outcome(_applied(lambda: reference_evaluate(t), (f,), (y,))), \
            (t, y)
        assert _outcome(_applied(lambda: diff_evaluate(t), (f, df),
                                 (y, b))) == \
            _outcome(_applied(lambda: reference_diff_evaluate(t), (f, df),
                              (y, b))), (t, y, b)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_regions_cut_into_small_chunks_match_the_reference(monkeypatch,
                                                           chunk):
    """Every node a chunk of its own, or two or three to a chunk: the
    values pending between chunks are passed in evaluation order."""
    monkeypatch.setattr(eval_module, "CHUNK", chunk)
    for seed in range(0, 300, 5):
        test_first_order_terms_match_the_reference(seed)
        test_second_order_terms_match_the_reference(seed)


# --- named cases ------------------------------------------------------------

BIG = str(10 ** 300)  # the parser reads no exponents

NAMED = [
    # an unbound name under a node, with and without a value for it
    (r"\x:Real. sin(x + z)", {}, {}, [(1.0, 0.5)]),
    (r"\x:Real. sin(x + z)", {"z": 2.0}, {}, [(1.0, 0.5)]),
    (r"\x:Real. sin(x + z)", {"z": 2.0}, {"z": 0.25}, [(1.0, 0.0)]),
    (r"\x:Real. (\y:Real. y * z) x", {}, {}, [(1.0, 0.5)]),
    # a literal zero divisor
    (r"\x:Real. x / 0", {}, {}, [(1.0, 0.5), (0.0, 0.0)]),
    # a negative or NaN radius passed through denv, at a node and bare
    (r"sin(z) * 2", {"z": 1.0}, {"z": -0.5}, []),
    (r"sin(z) * 2", {"z": 1.0}, {"z": math.nan}, []),
    (r"\x:Real. x + z", {"z": 1.0}, {"z": -0.0}, [(1.0, 0.5)]),
    # a non-finite result
    (rf"\x:Real. x * {BIG}", {}, {}, [(1e300, 0.5), (2.0, 0.5)]),
    (rf"\x:Real. (x * {BIG}) * {BIG}", {}, {}, [(1.0, 0.0)]),
    (rf"\x:Real. sin(x * {BIG})", {}, {}, [(1e10, 1.0)]),
    # a domain error ahead of a modulus, with the value wanted or not
    (r"\x:Real. sin(x)", {}, {}, [(math.inf, 0.5), (math.nan, 0.0)]),
    (r"\x:Real. sin(sin(x)) + 1", {}, {}, [(math.inf, 0.5)]),
    (r"\x:Real. x / (x - x)", {}, {}, [(1.0, 0.5)]),
    # a radius that is infinite, and the oscillation it gives
    (r"\x:Real. sin(x) + cos(x)", {}, {}, [(0.5, math.inf)]),
    # an applied difference that is not a function, a literal applied
    # and an unbound name applied: no term is typechecked here
    (r"\x:Real. f x", {"f": math.sin}, {"f": 0.5}, [(1.0, 0.5)]),
    (r"\x:Real. 2 x", {}, {}, [(1.0, 0.5)]),
    (r"\x:Real. sin(2 x)", {}, {}, [(1.0, 0.5)]),
    (r"\x:Real. z x", {}, {}, [(1.0, 0.5)]),
]


@pytest.mark.parametrize("text, env, denv, args", NAMED,
                         ids=[str(i) for i in range(len(NAMED))])
def test_named_cases_match_the_reference(text, env, denv, args):
    t = parse_term(text)
    assert _outcome(_applied(lambda: evaluate(t, env),
                             *[a[:1] for a in args])) == \
        _outcome(_applied(lambda: reference_evaluate(t, env),
                          *[a[:1] for a in args]))
    assert _outcome(_applied(lambda: diff_evaluate(t, env, denv), *args)) == \
        _outcome(_applied(lambda: reference_diff_evaluate(t, env, denv),
                          *args))


def test_compile_time_errors_come_first():
    """A literal beyond the float range is refused when the term is
    compiled, before a division by zero met earlier could run."""
    huge = Lit(Fraction(10) ** 400)
    t = PrimOp("add", (parse_term("1 / 0"), huge))
    for run in (lambda: evaluate(t), lambda: diff_evaluate(t)):
        assert _outcome(run) == _outcome(lambda: reference_evaluate(t))
    assert _outcome(lambda: evaluate(t))[1] == "EvalDomainError"


def test_a_borrowed_wave_modulus_computes_its_own_centre():
    """A primitive may take the sine's modulus with an implementation of
    its own: the modulus then computes the sine at the centre itself, as
    ``prim_modulus`` has it, rather than reading the node's value."""
    registry = default_registry()
    registry.register(Primitive("twice_sin", 1, lambda a: 2 * math.sin(a),
                                modulus=registry["sin"].modulus))
    t = parse_term(r"\x:Real. twice_sin(twice_sin(x))", registry)
    for y, b in [(0.3, 0.1), (1.2, 0.0), (-2.0, 2.5)]:
        assert _outcome(lambda: diff_evaluate(t, registry=registry)(y, b)) \
            == _outcome(lambda: reference_diff_evaluate(t, registry=registry)
                        (y, b))
