"""The compiled primitive nodes of ``evaluate`` and ``diff_evaluate``
agree bit for bit with the reference calls: ``Registry.call_float`` and
``Registry.call_exact`` for values, ``prim_modulus`` for differences.
Results are compared by ``repr`` (which tells -0.0, nan and inf apart),
errors by type and message."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from lamdist.prims import (EvalDomainError, Primitive, default_registry,
                           prim_modulus, register_constant)
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import Lit, REAL, parse_term
from lamdist.syntax.terms import App, Lam, PrimOp, Var


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
    want = _outcome(lambda: REG.resolve("add", 1))
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


# --- leaf arguments read inside the node -------------------------------------

# the default primitives and their derived partners, then every arity
# from 0 to 4, interval moduli, an implementation that takes no intervals
# and a modulus that answers nan
LEAF_NAMES = ["add", "sub", "mul", "div", "neg", "abs", "sin", "cos",
              "neg_d", "abs_d", "sin_d", "cos_d", "k", "fma", "grow",
              "opaque", "wobble", "add_d", "div_d", "wobble_d"]
# how each argument of the node is written: a bound variable, a free
# variable, a literal, or a nested node over a bound variable
LEAVES = ("slot", "free", "lit", "nested")


def _shaped(name, leaves, ys, bs):
    """The node ``name`` with its arguments written as ``leaves``; the
    variables it is closed over and the (value, radius) pairs they are
    applied to; the environments of its free variables; and for each
    argument a (value, radius) pair of thunks making the reference calls
    the node makes, in the same order."""
    args, bound, applied, env, denv, refs = [], [], [], {}, {}, []
    for k, (leaf, y, b) in enumerate(zip(leaves, ys, bs)):
        var = f"{leaf}{k}"
        if leaf == "lit":
            y = float(Fraction(y if math.isfinite(y) else 1.5))
            args.append(Lit(Fraction(y)))
            refs.append((lambda y=y: y, lambda: 0.0))
        elif leaf == "nested":
            bound.append(var)
            applied.append((y, b))
            args.append(PrimOp("neg", (Var(var),)))
            refs.append((lambda y=y: REG.call_float("neg", (y,)),
                         lambda y=y, b=b: prim_modulus(REG["neg"], (y,),
                                                       (b,))))
        else:
            if leaf == "slot":
                bound.append(var)
                applied.append((y, b))
            else:
                env[var], denv[var] = y, b
            args.append(Var(var))
            refs.append((lambda y=y: y, lambda b=b: b))
    return PrimOp(name, tuple(args)), bound, applied, env, denv, refs


def _close(term, bound):
    for var in reversed(bound):
        term = Lam(var, REAL, term)
    return term


@pytest.mark.parametrize("name", LEAF_NAMES)
def test_leaf_arguments_match_the_reference_calls(name):
    """Literals on either side or both, free-variable constants, bound
    slots and nested nodes, against ``Registry.call_float`` and
    ``prim_modulus`` on the arguments' reference values, with radii 0,
    -0.0, inf, NaN and negative among the draws."""
    arity = REG.arity(name)
    prim = REG[name]
    shapes = list(itertools.product(LEAVES, repeat=arity))
    rng = random.Random(101 + LEAF_NAMES.index(name))
    for ys, bs in _points(arity, 61 + LEAF_NAMES.index(name), count=40):
        leaves = rng.choice(shapes)
        node, bound, applied, env, denv, refs = _shaped(name, leaves, ys, bs)

        def values():
            return [value() for value, _ in refs]

        def pairs():
            out = [(value(), radius()) for value, radius in refs]
            return [y for y, _ in out], [b for _, b in out]

        def run_value():
            f = evaluate(_close(node, bound), env, registry=REG)
            for y, _ in applied:
                f = f(y)
            return f

        def run_dual(term):
            def run():
                d = diff_evaluate(_close(term, bound), env, denv,
                                  registry=REG)
                for y, b in applied:
                    d = d(y, b)
                return d
            return run

        def diff_reference():
            zs, rs = pairs()
            return prim_modulus(prim, zs, rs)

        def valued_reference():
            zs, rs = pairs()
            REG.call_float(name, zs)
            return prim_modulus(prim, zs, rs)
        where = (name, leaves, ys, bs)
        assert _outcome(run_value) == \
            _outcome(lambda: REG.call_float(name, values())), where
        assert _outcome(run_dual(node)) == _outcome(diff_reference), where
        valued = App(Lam("z", REAL, Var("z")), node)
        assert _outcome(run_dual(valued)) == \
            _outcome(valued_reference), where


def test_a_literal_divisor_of_zero_raises_when_the_node_runs():
    term = parse_term(r"\x:Real. x / 0")
    f, df = evaluate(term), diff_evaluate(term)
    with pytest.raises(EvalDomainError,
                       match=r"^div\(1\.0, 0\.0\) outside declared domain$"):
        f(1.0)
    with pytest.raises(EvalDomainError,
                       match=r"^div\(1\.0, 0\.0\) outside declared domain$"):
        df(1.0, 0.5)


def test_an_unbound_name_under_a_node_raises_when_reached():
    term = parse_term(r"\x:Real. sin(x + z)")
    f, df = evaluate(term), diff_evaluate(term)
    with pytest.raises(NameError, match="unbound variable 'z'"):
        f(1.0)
    with pytest.raises(NameError, match="unbound variable 'z'"):
        df(1.0, 0.5)
    with pytest.raises(NameError, match="no difference bound for variable"):
        diff_evaluate(term, {"z": 2.0})(1.0, 0.5)
    assert diff_evaluate(term, {"z": 2.0}, {"z": 0.25})(1.0, 0.0) == \
        prim_modulus(REG["sin"], (3.0,), (0.25,))


def test_a_literal_beyond_the_float_range_fails_at_compile_time():
    term = Lam("x", REAL, PrimOp("add", (Var("x"), Lit(HUGE))))
    with pytest.raises(EvalDomainError, match="beyond the float range"):
        evaluate(term)
    with pytest.raises(EvalDomainError, match="beyond the float range"):
        diff_evaluate(term)


def _call_names(fn, *args):
    """The Python functions that run while ``fn(*args)`` does, in call
    order; functions written in C are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(outer)
    return names


def test_leaf_arguments_cost_no_call():
    """A lambda whose body is straight-line code takes its parameter
    itself, so applying it is one frame: the bound ``x`` and the literal
    0.5 are read inline, and ``add`` and ``sin`` are statements of it.  A
    difference adds one call where a modulus is not written inline: the
    sine's scalar modulus, which makes one flat call.  The sum modulus
    is an expression on the radii."""
    term = parse_term(r"\x:Real. sin(x + 0.5)")
    f, df = evaluate(term), diff_evaluate(term)
    assert _call_names(f, 1.0) == ["region"]
    assert _call_names(df, 1.0, 0.0) == ["region"]
    assert _call_names(df, 1.0, 0.5) == ["region", "scalar",
                                          "_critical_points"]


# --- the wave modulus against the range-of-sine path it replaced ------------

def _contains_critical(lo, hi, offset):
    if math.isinf(lo) or math.isinf(hi):
        return True
    k = math.ceil((lo - offset) / (2 * math.pi))
    return offset + 2 * math.pi * k <= hi


def _sin_range(lo, hi):
    if hi - lo >= 2 * math.pi:
        return (-1.0, 1.0)
    has_max = _contains_critical(lo, hi, math.pi / 2)
    has_min = _contains_critical(lo, hi, -math.pi / 2)
    if has_max and has_min:
        return (-1.0, 1.0)
    s_lo, s_hi = math.sin(lo), math.sin(hi)
    return (-1.0 if has_min else min(s_lo, s_hi),
            1.0 if has_max else max(s_lo, s_hi))


def _reference_wave_modulus(fn, offset):
    def modulus(ys, bs):
        y, b = ys[0] + offset, bs[0]
        lo, hi = _sin_range(y - b, y + b)
        centre = fn(ys[0])
        return max(hi - centre, centre - lo)
    return modulus


def _reference_wave_modulus_exact(fn, offset):
    def modulus(ys, bs):
        y, b = ys[0], bs[0]
        centre = Fraction(fn(float(y)))
        if b >= math.pi:
            return max(1 - centre, centre + 1)
        lo, hi = y - b, y + b
        v_lo, v_hi = Fraction(fn(float(lo))), Fraction(fn(float(hi)))
        flo, fhi = float(lo) + offset, float(hi) + offset
        top = Fraction(1) if _contains_critical(flo, fhi, math.pi / 2) \
            else max(v_lo, v_hi)
        bot = Fraction(-1) if _contains_critical(flo, fhi, -math.pi / 2) \
            else min(v_lo, v_hi)
        return max(top - centre, centre - bot)
    return modulus


WAVE_RADII = [0.0, 5e-324, math.pi, 2 * math.pi, 1e300, math.inf]


@pytest.mark.parametrize("name, fn, offset", [
    ("sin", math.sin, 0.0), ("cos", math.cos, math.pi / 2)])
def test_the_wave_modulus_matches_the_range_of_sine(name, fn, offset):
    rng = random.Random(17)
    want = _reference_wave_modulus(fn, offset)
    want_exact = _reference_wave_modulus_exact(fn, offset)
    got, got_exact = REG[name].modulus, REG[name].exact_modulus
    for i in range(20000):
        r = rng.random()
        if r < 0.1:
            y = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan])
        elif r < 0.2:  # a box edge at or next to a critical point
            y = (rng.choice([-1, 1]) * math.pi / 2
                 + 2 * math.pi * rng.randrange(-3, 4)
                 + rng.choice([0.0, 1e-15, -1e-15, 1e-9, -1e-9]))
        elif r < 0.4:
            y = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
        else:
            y = rng.uniform(-20.0, 20.0)
        r = rng.random()
        if r < 0.3:
            b = rng.choice(WAVE_RADII)
        elif r < 0.5:
            b = 10.0 ** rng.uniform(-16, 3)
        else:
            b = rng.uniform(0.0, 4.0)
        ys, bs = (y,), (b,)
        assert _outcome(lambda: got(ys, bs)) == \
            _outcome(lambda: want(ys, bs)), (name, y, b)
        if i % 10 == 0 and math.isfinite(y) and math.isfinite(b):
            qs, rs = (Fraction(y),), (Fraction(b),)
            assert _outcome(lambda: got_exact(qs, rs)) == \
                _outcome(lambda: want_exact(qs, rs)), (name, y, b)
