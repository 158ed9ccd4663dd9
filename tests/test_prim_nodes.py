"""The compiled primitive nodes of ``evaluate`` and ``diff_evaluate``
agree bit for bit with the reference calls: ``Registry.call_float`` and
``Registry.call_exact`` for values, ``prim_modulus`` for differences.
Results are compared by ``repr`` (which tells -0.0, nan and inf apart),
errors by type and message."""

import math
import random
from fractions import Fraction

import pytest

from lamdist.prims import (EvalDomainError, Primitive, default_registry,
                           prim_modulus, register_constant)
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import App, Lam, PrimOp, REAL, Var, parse_term


def _root_modulus(ys, bs):
    y, b = ys[0], bs[0]
    return max(math.sqrt(y) - math.sqrt(max(y - b, 0.0)),
               math.sqrt(y + b) - math.sqrt(y))


def _registry():
    reg = default_registry()
    register_constant(reg, "k", 0.75)
    # arity 3, interval modulus only
    reg.register(Primitive("fma", 3, lambda a, b, c: a * b + c))
    # a domain, with an analytic modulus
    reg.register(Primitive("root", 1, math.sqrt, modulus=_root_modulus,
                           domain=lambda a: a >= 0))
    # interval modulus only; overflows to inf on large inputs
    reg.register(Primitive("grow", 1, lambda a: a * 1e300))
    # neither an analytic modulus nor an interval-capable implementation
    reg.register(Primitive("opaque", 1, lambda a: math.exp(min(a, 700.0))))
    # an analytic modulus that answers nan, so wobble_d produces nan
    reg.register(Primitive("wobble", 2, lambda a, b: a - b,
                           modulus=lambda ys, bs: math.nan))
    return reg


REG = _registry()
NAMES = ["add", "sub", "mul", "div", "neg", "abs", "sin", "cos", "k", "fma",
         "root", "grow", "opaque", "wobble", "sin_d", "div_d", "wobble_d"]
SPECIAL_YS = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e200, 1e308,
              math.inf, -math.inf, math.nan]
SPECIAL_BS = [0.0, -0.0, 0.5, 1e300, math.inf, -0.25, math.nan]


def _points(arity: int, seed: int, count: int = 120):
    rng = random.Random(seed)
    for _ in range(count):
        def y():
            return (rng.choice(SPECIAL_YS) if rng.random() < 0.25
                    else rng.uniform(-4.0, 4.0))

        def b():
            return (rng.choice(SPECIAL_BS) if rng.random() < 0.3
                    else rng.uniform(0.0, 2.0))
        yield (tuple(y() for _ in range(arity)),
               tuple(b() for _ in range(arity)))


def _outcome(thunk):
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raise", type(exc).__name__, str(exc))


def _node(name, arity):
    xs = [f"x{i}" for i in range(arity)]
    return xs, PrimOp(name, tuple(Var(x) for x in xs))


@pytest.mark.parametrize("name", NAMES)
def test_value_nodes_match_call_float(name):
    arity = REG.arity(name)
    xs, term = _node(name, arity)
    # a closed lambda over the same node, so bound slots are read too
    closed = term
    for x in reversed(xs):
        closed = Lam(x, REAL, closed)
    for ys, _ in _points(arity, NAMES.index(name)):
        want = _outcome(lambda: REG.call_float(name, ys))
        assert _outcome(lambda: evaluate(term, dict(zip(xs, ys)),
                                         registry=REG)) == want, (name, ys)

        def applied():
            f = evaluate(closed, registry=REG)
            for y in ys:
                f = f(y)
            return f
        if arity:
            assert _outcome(applied) == want, (name, ys)


@pytest.mark.parametrize("name", NAMES)
def test_exact_value_nodes_match_call_exact(name):
    arity = REG.arity(name)
    xs, term = _node(name, arity)
    for ys, _ in _points(arity, 7 + NAMES.index(name), count=60):
        qs = tuple(Fraction(y) if math.isfinite(y) else Fraction(0)
                   for y in ys)
        want = _outcome(lambda: REG.call_exact(name, qs))
        assert _outcome(lambda: evaluate(term, dict(zip(xs, qs)),
                                         registry=REG, exact=True)) == want


@pytest.mark.parametrize("name", NAMES)
def test_dual_nodes_match_prim_modulus(name):
    arity = REG.arity(name)
    xs, term = _node(name, arity)
    # the identity applied to the node makes the node compute its value
    # too, before its modulus, as an argument does
    valued = App(Lam("z", REAL, Var("z")), term)
    for ys, bs in _points(arity, 31 + NAMES.index(name)):
        env, denv = dict(zip(xs, ys)), dict(zip(xs, bs))
        want = _outcome(lambda: prim_modulus(REG[name], ys, bs))
        assert _outcome(lambda: diff_evaluate(term, env, denv,
                                              registry=REG)) == want, \
            (name, ys, bs)

        def reference():
            REG.call_float(name, ys)
            return prim_modulus(REG[name], ys, bs)
        assert _outcome(lambda: diff_evaluate(valued, env, denv,
                                              registry=REG)) == \
            _outcome(reference), (name, ys, bs)


def test_wrong_arity_is_rejected_at_compile_time_with_one_message():
    term = PrimOp("add", (Var("x"),))
    want = _outcome(lambda: REG.checked("add", 1))
    assert want[:2] == ("raise", "TypeError")
    assert _outcome(lambda: evaluate(term, {"x": 1.0}, registry=REG)) == want
    assert _outcome(lambda: evaluate(term, {"x": Fraction(1)}, registry=REG,
                                     exact=True)) == want
    assert _outcome(lambda: diff_evaluate(term, {"x": 1.0}, {"x": 0.0},
                                          registry=REG)) == want


SIN = r"\x:Real. sin(x)"
HUGE = Fraction(10) ** 400  # beyond the float range


@pytest.mark.parametrize("call, where", [
    (lambda: diff_evaluate(parse_term(SIN), registry=REG)(math.inf, 0.5),
     "sin(inf,)"),
    (lambda: diff_evaluate(parse_term(SIN), registry=REG)(math.nan, 0.0),
     "sin(nan,)"),
    (lambda: evaluate(parse_term(r"\x:Real. sin_d(x, 0.5)"),
                      registry=REG)(math.nan), "sin_d(nan, 0.5)"),
    (lambda: prim_modulus(REG["sin"], [math.inf], [0.5]), "sin(inf,)"),
    (lambda: REG.call_exact("sin", (HUGE,)), f"sin({HUGE!r},)"),
    (lambda: REG.call_exact("sin_d", (HUGE, Fraction(1))),
     f"sin_d({HUGE!r}, Fraction(1, 1))"),
], ids=["dual-inf", "dual-nan-zero-box", "sin_d-nan", "prim_modulus-inf",
        "exact-huge", "exact-sin_d-huge"])
def test_the_domain_is_tested_before_the_modulus(call, where):
    """The centre of the box must lie in the domain, whether or not the
    value at it is wanted; a rational no float holds lies outside a
    domain of finite floats."""
    with pytest.raises(EvalDomainError) as caught:
        call()
    assert str(caught.value) == f"{where} outside declared domain"


@pytest.mark.parametrize("args", [(1, 0, 0, 0), (1, 0, 1, 0), (1, 2, -1, 0)])
def test_derived_domains_agree_in_both_arithmetics(args):
    """A ``_d`` primitive's domain holds the base domain at the centre and
    the radii in [0, +inf]; float and exact calls test the same one, even
    on a zero box."""
    with pytest.raises(EvalDomainError, match=r"^div_d\("):
        REG.call_float("div_d", tuple(map(float, args)))
    with pytest.raises(EvalDomainError, match=r"^div_d\("):
        REG.call_exact("div_d", tuple(map(Fraction, args)))


def test_a_box_a_period_wide_reaches_both_extremes_exactly():
    """No endpoint of the box needs a float: a radius past the float
    range still gives the wave's full swing around the centre."""
    assert REG.call_exact("sin_d", (Fraction(0), HUGE)) == 1
    assert REG.call_exact("sin_d", (Fraction(0), Fraction(4))) == \
        Fraction(prim_modulus(REG["sin"], [0.0], [4.0]))
