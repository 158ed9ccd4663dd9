import math
import random
from fractions import Fraction

import pytest

from lamdist.interval import Interval
from lamdist.prims import (EvalDomainError, ModulusError, Primitive,
                           default_registry, prim_modulus, register_constant)


@pytest.fixture()
def reg():
    return default_registry()


def brute_modulus(fn, ys, bs, steps=80):
    """Grid oracle for sup |fn(ys) - fn(zs)| over the error box."""
    centre = fn(*ys)
    worst = 0.0
    axes = []
    for y, b in zip(ys, bs):
        axes.append([y + b * (2 * i / steps - 1) for i in range(steps + 1)])

    def rec(i, zs):
        nonlocal worst
        if i == len(axes):
            worst = max(worst, abs(centre - fn(*zs)))
            return
        for z in axes[i]:
            rec(i + 1, zs + [z])

    rec(0, [])
    return worst


def test_add_modulus_exact(reg):
    p = reg["add"]
    assert prim_modulus(p, (1.0, 2.0), (0.5, 0.25)) == 0.75
    assert prim_modulus(p, (1.0, 2.0), (0.5, 0.25)) >= \
        brute_modulus(p.fn, (1.0, 2.0), (0.5, 0.25)) - 1e-12


def test_sin_modulus_matches_grid(reg):
    p = reg["sin"]
    got = prim_modulus(p, (0.0,), (0.1,))
    assert got == pytest.approx(math.sin(0.1), abs=1e-15)
    rng = random.Random(5)
    for _ in range(50):
        y = rng.uniform(-8, 8)
        b = rng.uniform(0, 4)
        got = prim_modulus(p, (y,), (b,))
        grid = brute_modulus(math.sin, (y,), (b,), steps=400)
        assert got >= grid - 1e-9
        assert got <= grid + 0.05  # grid misses the sup by at most a step


def test_mul_modulus_exact_at_corners(reg):
    p = reg["mul"]
    rng = random.Random(6)
    for _ in range(60):
        ys = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        bs = (rng.uniform(0, 2), rng.uniform(0, 2))
        got = prim_modulus(p, ys, bs)
        corners = max(abs(ys[0] * ys[1] - z1 * z2)
                      for z1 in (ys[0] - bs[0], ys[0] + bs[0])
                      for z2 in (ys[1] - bs[1], ys[1] + bs[1]))
        assert got == pytest.approx(corners, rel=1e-12)
        assert got >= brute_modulus(p.fn, ys, bs) - 1e-9


def test_zero_box_gives_zero(reg):
    for name in ("add", "mul", "sin", "div", "abs", "neg", "cos"):
        p = reg[name]
        ys = tuple([1.5] * p.arity)
        bs = tuple([0.0] * p.arity)
        assert prim_modulus(p, ys, bs) == 0.0


def test_infinite_radius_gives_declared_oscillation(reg):
    assert prim_modulus(reg["sin"], (0.3,), (math.inf,)) == 2.0
    assert prim_modulus(reg["cos"], (0.3,), (math.inf,)) == 2.0
    assert prim_modulus(reg["add"], (1.0, 2.0), (math.inf, 0.0)) == math.inf


def test_div_modulus(reg):
    p = reg["div"]
    # denominator error 0: the bound is numerator error over |denominator|
    assert prim_modulus(p, (3.0, 2.0), (0.5, 0.0)) == pytest.approx(0.25)
    # denominator box touching zero blows up
    assert prim_modulus(p, (3.0, 1.0), (0.0, 1.0)) == math.inf
    assert prim_modulus(p, (1.0, 2.0), (0.2, 0.5)) >= \
        brute_modulus(p.fn, (1.0, 2.0), (0.2, 0.5)) - 1e-12


def test_abs_modulus_is_radius(reg):
    p = reg["abs"]
    for y, b in [(1.0, 3.0), (0.0, 2.0), (-4.0, 1.0)]:
        assert prim_modulus(p, (y,), (b,)) == b
        assert prim_modulus(p, (y,), (b,)) >= brute_modulus(abs, (y,), (b,)) - 1e-12


def test_div_domain_error(reg):
    with pytest.raises(EvalDomainError):
        reg.call_float("div", (1.0, 0.0))


def test_exact_mode_field_ops_are_exact(reg):
    got = reg.call_exact("div", (Fraction(1), Fraction(3)))
    assert got == Fraction(1, 3)
    got = reg.call_exact("add", (Fraction(1, 10), Fraction(2, 10)))
    assert got == Fraction(3, 10)


def test_exact_mode_sin_is_rationalized_float(reg):
    got = reg.call_exact("sin", (Fraction(1, 2),))
    assert got == Fraction(math.sin(0.5))


def test_derivative_primitive_registration(reg):
    d = reg.derivative("sin")
    assert d.name == "sin_d" and d.arity == 2
    assert reg.derivative("sin") is d
    assert d.fn(0.0, 0.1) == pytest.approx(math.sin(0.1))
    with pytest.raises(ValueError):
        reg.register(Primitive("sin", 1, math.sin))


def test_constant_primitive(reg):
    c = register_constant(reg, "half", 0.5)
    assert reg.call_float("half", ()) == 0.5
    assert prim_modulus(c, (), ()) == 0.0


def test_interval_fallback_is_sound():
    reg = default_registry()
    reg.register(Primitive("poly", 1, lambda x: x * x + 2 * x + 1))
    p = reg["poly"]
    rng = random.Random(7)
    for _ in range(40):
        y = rng.uniform(-3, 3)
        b = rng.uniform(0, 1.5)
        got = prim_modulus(p, (y,), (b,))
        grid = brute_modulus(lambda x: x * x + 2 * x + 1, (y,), (b,), steps=200)
        assert got >= grid - 1e-9


def test_interval_fallback_requires_interval_capable_fn():
    reg = default_registry()
    reg.register(Primitive("opaque", 1, lambda x: math.exp(x)))
    with pytest.raises(ModulusError):
        prim_modulus(reg["opaque"], (0.0,), (1.0,))


def test_interval_arithmetic_outward():
    i = Interval.around(1.0, 0.5)
    assert i.lo <= 0.5 and i.hi >= 1.5
    j = (i * i - i) / 2
    assert isinstance(j, Interval)
    assert j.lo <= (0.5 * 0.5 - 1.5) / 2
    assert j.hi >= (1.5 * 1.5 - 0.5) / 2
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


@pytest.mark.parametrize("name, args", [
    ("sin_d", (0.0, -1.0)), ("sin_d", (0.0, math.nan)),
    ("div_d", (1.0, 2.0, 0.5, -0.25)), ("sin", (math.inf,)),
    ("cos", (-math.inf,)), ("sin", (math.nan,)),
])
def test_bad_arguments_are_outside_the_declared_domain(reg, name, args):
    """A radius below 0 or NaN, and an argument of ``sin``/``cos`` that is
    not finite, fail the domain check in both arithmetics."""
    with pytest.raises(EvalDomainError, match="outside declared domain"):
        reg.call_float(name, args)
    if all(math.isfinite(a) for a in args):
        with pytest.raises(EvalDomainError, match="outside declared domain"):
            reg.call_exact(name, [Fraction(a) for a in args])
