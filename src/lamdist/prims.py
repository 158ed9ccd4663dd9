"""The primitive-function registry and the deviation modulus.

Every primitive is a declared-total real function with

* a float implementation,
* an exact-mode implementation over ``Fraction`` (field operations are
  computed exactly; transcendental results are rationalized from the
  float value, which keeps exact-mode evaluation deterministic),
* optionally an analytic *modulus*: the largest deviation
  ``|phi(y) - phi(z)|`` as ``z`` ranges over the box ``|z_i - y_i| <= b_i``.

When no analytic modulus is registered, a sound over-approximation is
derived by running the float implementation on outward-rounded intervals.
Every primitive ``phi`` has a derived partner ``phi_d`` of doubled arity
whose value *is* the modulus; the derivative transform emits calls to it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .interval import Interval

DERIVED_SUFFIX = "_d"


class EvalDomainError(ArithmeticError):
    """A primitive was applied outside its declared domain."""


class ModulusError(ArithmeticError):
    """No analytic modulus and the implementation is not interval-capable."""


@dataclass(frozen=True)
class Primitive:
    name: str
    arity: int
    fn: Callable[..., float]
    exact_fn: Callable[..., Fraction] | None = None
    modulus: Callable[[Sequence[float], Sequence[float]], float] | None = None
    # rational-arithmetic modulus; must agree with the exact-mode
    # evaluation of the primitive at box endpoints, so that tight
    # instances of the soundness inequality stay exact
    exact_modulus: Callable[[Sequence[Fraction], Sequence[Fraction]],
                            Fraction] | None = None
    domain: Callable[..., bool] | None = None
    # modulus value when some input error is infinite (global oscillation)
    oscillation: float = math.inf
    derived_from: str | None = None


def derived_name(name: str) -> str:
    return name + DERIVED_SUFFIX


class Registry:
    """Mutable name -> Primitive table.

    The ``_d`` suffix is reserved: for any registered ``phi``, the name
    ``phi_d`` resolves to the modulus primitive of ``phi``, materialized
    on first use, so parsers and typecheckers can treat derivative
    primitives as always-present.
    """

    def __init__(self):
        self._prims: dict[str, Primitive] = {}

    def register(self, prim: Primitive) -> Primitive:
        if prim.name in self._prims:
            raise ValueError(f"primitive {prim.name!r} already registered")
        self._prims[prim.name] = prim
        return prim

    @staticmethod
    def _base_of(name: str) -> str | None:
        if name.endswith(DERIVED_SUFFIX) and len(name) > len(DERIVED_SUFFIX):
            return name[:-len(DERIVED_SUFFIX)]
        return None

    def __contains__(self, name: str) -> bool:
        if name in self._prims:
            return True
        base = self._base_of(name)
        return base is not None and base in self

    def __getitem__(self, name: str) -> Primitive:
        if name not in self._prims:
            base = self._base_of(name)
            if base is not None and base in self:
                self.derivative(base)
            else:
                raise KeyError(f"unknown primitive {name!r}")
        return self._prims[name]

    def arity(self, name: str) -> int:
        return self[name].arity

    def derivative(self, name: str) -> Primitive:
        """The modulus primitive ``name_d`` of arity 2n, registering it if new."""
        dname = derived_name(name)
        if dname in self._prims:
            return self._prims[dname]
        base = self[name]

        def dfn(*args: float) -> float:
            ys, bs = args[:base.arity], args[base.arity:]
            return prim_modulus(base, ys, bs)

        def dexact(*args: Fraction) -> Fraction:
            ys, bs = args[:base.arity], args[base.arity:]
            if all(b == 0 for b in bs):
                return Fraction(0)
            if base.exact_modulus is not None:
                val = base.exact_modulus(ys, bs)
            else:
                val = dfn(*(float(a) for a in args))
            if isinstance(val, float):
                if math.isinf(val):
                    raise EvalDomainError(
                        f"{dname}: infinite deviation bound is not a Real "
                        "value in exact mode")
                val = Fraction(val)
            return val

        def domain(*args) -> bool:
            # the centre in the base domain, each radius in [0, +inf]
            ys, bs = args[:base.arity], args[base.arity:]
            return ((base.domain is None or base.domain(*ys))
                    and all(b >= 0 for b in bs))

        prim = Primitive(name=dname, arity=2 * base.arity, fn=dfn,
                         exact_fn=dexact, domain=domain, derived_from=name)
        return self.register(prim)

    def resolve(self, name: str, nargs: int) -> Primitive:
        """The primitive ``name``, checked to take ``nargs`` arguments."""
        p = self[name]
        if nargs != p.arity:
            raise TypeError(f"{name} expects {p.arity} args, got {nargs}")
        return p

    def call_float(self, name: str, args: Sequence[float]) -> float:
        """``name`` on floats, after the declared domain test, checking that
        a declared-total primitive stayed finite.  The compiled nodes of
        the evaluators run the same tests inline and share the error
        helpers below."""
        p = self.resolve(name, len(args))
        args = tuple(args)
        if p.domain is not None and not p.domain(*args):
            raise outside_domain(name, args)
        out = p.fn(*args)
        if isinstance(out, float) and not math.isfinite(out):
            out = nonfinite_result(name, args, out, p.derived_from is None)
        return out

    def call_exact(self, name: str, args: Sequence[Fraction]) -> Fraction:
        """``name`` on rationals, after the domain check: the exact
        implementation, or the float one rationalized.  A rational that
        a float domain test cannot convert lies outside that domain."""
        p = self.resolve(name, len(args))
        try:
            inside = p.domain is None or p.domain(*args)
        except OverflowError:  # past the float range
            inside = False
        if not inside:
            raise outside_domain(name, tuple(args))
        if p.exact_fn is not None:
            return p.exact_fn(*args)
        return Fraction(p.fn(*map(float, args)))


# --- the checks' errors, shared by ``call_float``, ``call_exact`` and the
# compiled nodes of the evaluators, which run the same tests inline --------

def outside_domain(name: str, args: tuple) -> EvalDomainError:
    return EvalDomainError(f"{name}{args} outside declared domain")


def nonfinite_result(name: str, args: tuple, out: float, total: bool) -> float:
    """``out``, a float result of ``name`` on ``args`` that is not finite,
    if the primitive may return it: primitives are total reals by
    declaration, and only the derived modulus primitives (``total``
    unset) map into [0, +inf]."""
    if total or math.isnan(out):
        raise EvalDomainError(f"{name}{args} produced {out}; declared-total "
                              "primitives must stay finite")
    return out


def bad_radius(b) -> ValueError:
    return ValueError(f"error radius {b} is not in [0, +inf]")


def prim_modulus(prim: Primitive, ys: Sequence[float],
                 bs: Sequence[float]) -> float:
    """Largest output deviation of ``prim`` over the error box around ``ys``.

    Exact when the primitive registers an analytic modulus; otherwise a
    sound over-approximation via interval evaluation.  The centre ``ys``
    must lie in the primitive's domain.  A zero box then always gives 0,
    and any infinite error radius gives the declared global oscillation.
    """
    if len(ys) != prim.arity or len(bs) != prim.arity:
        raise TypeError(f"{prim.name} modulus expects {prim.arity}+{prim.arity} args")
    if prim.domain is not None and not prim.domain(*ys):
        raise outside_domain(prim.name, tuple(ys))
    zero = True
    infinite = False
    for b in bs:
        if not b >= 0:  # negative or NaN
            raise bad_radius(b)
        if b:
            zero = False
            infinite = infinite or b == math.inf
    if zero:
        return 0.0
    if infinite:
        return prim.oscillation
    return box_modulus(prim)(ys, bs)


def box_modulus(prim: Primitive) -> Callable[[Sequence[float],
                                              Sequence[float]], float]:
    """The modulus ``prim_modulus`` and the evaluators' nodes call on a
    box with some radius nonzero and none infinite: the analytic one, or
    else the interval enclosure."""
    if prim.modulus is not None:
        return prim.modulus
    return functools.partial(_interval_modulus, prim)


def _interval_modulus(prim: Primitive, ys, bs) -> float:
    boxes = [Interval.around(y, b) for y, b in zip(ys, bs)]
    try:
        enclosure = prim.fn(*boxes)
    except (TypeError, AttributeError) as exc:
        raise ModulusError(
            f"{prim.name} has no analytic modulus and its implementation "
            "does not accept intervals") from exc
    if not isinstance(enclosure, Interval):
        raise ModulusError(f"{prim.name} returned {type(enclosure).__name__} "
                           "from interval evaluation")
    centre = prim.fn(*ys)
    return max(centre - enclosure.lo, enclosure.hi - centre, 0.0)


# --- analytic moduli ---------------------------------------------------------

def _sum_modulus(ys, bs):
    return bs[0] + bs[1]


def _mul_modulus(ys, bs):
    y1, y2 = ys
    b1, b2 = bs
    # bilinear in the perturbation, so the sup sits at a box corner
    return abs(y1) * b2 + abs(y2) * b1 + b1 * b2


def _div_modulus(ys, bs):
    y1, y2 = ys
    b1, b2 = bs
    if b2 >= abs(y2):
        return math.inf  # denominator box reaches 0
    centre = y1 / y2
    worst = 0.0
    for z1 in (y1 - b1, y1 + b1):
        for z2 in (y2 - b2, y2 + b2):
            worst = max(worst, abs(centre - z1 / z2))
    return worst


def _id_modulus(ys, bs):
    return bs[0]


TWO_PI = 2 * math.pi
HALF_PI = math.pi / 2


def _critical_points(lo: float, hi: float) -> tuple[bool, bool]:
    """Does [lo, hi] hold a maximum pi/2 + 2*pi*k of sin, and a minimum
    -pi/2 + 2*pi*k?  Both tests inline: the first k with the point at or
    above ``lo``, then whether that point is at most ``hi``."""
    if math.isinf(lo) or math.isinf(hi):
        return True, True
    return (HALF_PI + TWO_PI * math.ceil((lo - HALF_PI) / TWO_PI) <= hi,
            -HALF_PI + TWO_PI * math.ceil((lo - -HALF_PI) / TWO_PI) <= hi)


def _wave_modulus(fn: Callable[[float], float], offset: float):
    """Float modulus for sine-shaped primitives, fn(y) = sin(y + offset):
    the sine's range over the shifted box against the centre value, as
    ``modulus(ys, bs)`` and in the scalar form ``scalar(y, b, centre)``
    that the evaluators call with the node's own value as the centre; a
    centre of None is computed last, as ``fn(y)``.  It makes one call, to
    the critical-point test it shares with the exact modulus.  A box a
    period wide, or one holding both critical points, spans [-1, 1];
    otherwise an end of the range is 1 or -1 where the box holds that
    critical point, else the sine at an endpoint."""
    sin = math.sin

    def scalar(y, b, centre=None):
        shifted = y + offset
        lo, hi = shifted - b, shifted + b
        if hi - lo >= TWO_PI:
            has_max = has_min = True
        else:
            has_max, has_min = _critical_points(lo, hi)
        # min and max written out, as they choose (the first of equals):
        # each call of theirs costs as much as the comparisons
        if has_max and has_min:
            bottom, top = -1.0, 1.0
        else:
            s_lo, s_hi = sin(lo), sin(hi)
            bottom = -1.0 if has_min else s_hi if s_hi < s_lo else s_lo
            top = 1.0 if has_max else s_hi if s_hi > s_lo else s_lo
        if centre is None:
            centre = fn(y)
        rise, fall = top - centre, centre - bottom
        return fall if fall > rise else rise

    def modulus(ys, bs):
        return scalar(ys[0], bs[0])
    return modulus, scalar


def _wave_modulus_exact(fn: Callable[[float], float], offset: float):
    """Rational modulus for sine-shaped primitives: interval extrema from
    the rationalized endpoint values (so box-endpoint instances are
    exactly tight) and the exact bounds +-1 across interior critical
    points."""
    def modulus(ys: Sequence[Fraction], bs: Sequence[Fraction]) -> Fraction:
        y, b = ys[0], bs[0]
        centre = Fraction(fn(float(y)))
        if b >= math.pi:  # a box a period wide, as in the float modulus
            return max(1 - centre, centre + 1)
        lo, hi = y - b, y + b
        v_lo = Fraction(fn(float(lo)))
        v_hi = Fraction(fn(float(hi)))
        has_max, has_min = _critical_points(float(lo) + offset,
                                            float(hi) + offset)
        top = Fraction(1) if has_max else max(v_lo, v_hi)
        bot = Fraction(-1) if has_min else min(v_lo, v_hi)
        return max(top - centre, centre - bot)
    return modulus


_SIN_MODULUS, _SIN_SCALAR = _wave_modulus(math.sin, 0.0)
_COS_MODULUS, _COS_SCALAR = _wave_modulus(math.cos, HALF_PI)

# How the evaluators' emitted code writes a primitive inline, keyed by the
# id of the implementation or modulus it stands for (each key lives as
# long as this module, and an id needs no hash of a user's callable): add,
# sub and mul as infix operators; the sum and identity moduli as
# expressions on the radii; the wave moduli as a call of their scalar form,
# with the function whose value at the centre the node may pass to it.
_INFIX = {id(operator.add): "+", id(operator.sub): "-",
          id(operator.mul): "*"}
_RADIUS_MODULI = {id(_sum_modulus): "{0} + {1}", id(_id_modulus): "{0}"}
_SCALAR_MODULI = {id(_SIN_MODULUS): (_SIN_SCALAR, math.sin),
                  id(_COS_MODULUS): (_COS_SCALAR, math.cos)}


def default_registry() -> Registry:
    # the field-op modulus formulas are exact algebra, valid verbatim
    # over rationals; the trigonometric ones get endpoint-exact variants
    reg = Registry()
    reg.register(Primitive("add", 2, operator.add,
                           exact_fn=lambda a, b: a + b,
                           modulus=_sum_modulus, exact_modulus=_sum_modulus))
    reg.register(Primitive("sub", 2, operator.sub,
                           exact_fn=lambda a, b: a - b,
                           modulus=_sum_modulus, exact_modulus=_sum_modulus))
    reg.register(Primitive("mul", 2, operator.mul,
                           exact_fn=lambda a, b: a * b,
                           modulus=_mul_modulus, exact_modulus=_mul_modulus))
    reg.register(Primitive("div", 2, operator.truediv,
                           exact_fn=lambda a, b: a / b,
                           modulus=_div_modulus, exact_modulus=_div_modulus,
                           domain=lambda a, b: b != 0))
    reg.register(Primitive("neg", 1, operator.neg,
                           exact_fn=lambda a: -a,
                           modulus=_id_modulus, exact_modulus=_id_modulus))
    reg.register(Primitive("abs", 1, abs,
                           exact_fn=lambda a: abs(a),
                           modulus=_id_modulus, exact_modulus=_id_modulus))
    reg.register(Primitive("sin", 1, math.sin,
                           exact_fn=lambda a: Fraction(math.sin(float(a))),
                           domain=math.isfinite,  # math.sin(inf) raises
                           modulus=_SIN_MODULUS,
                           exact_modulus=_wave_modulus_exact(math.sin, 0.0),
                           oscillation=2.0))
    reg.register(Primitive("cos", 1, math.cos,
                           exact_fn=lambda a: Fraction(math.cos(float(a))),
                           domain=math.isfinite,  # math.cos(inf) raises
                           modulus=_COS_MODULUS,
                           exact_modulus=_wave_modulus_exact(
                               math.cos, math.pi / 2),
                           oscillation=2.0))
    return reg


def register_constant(reg: Registry, name: str, value: float) -> Primitive:
    """An arity-0 primitive returning a fixed real."""
    frozen = float(value)
    return reg.register(Primitive(name, 0, lambda: frozen,
                                  exact_fn=lambda: Fraction(frozen),
                                  modulus=lambda ys, bs: 0.0,
                                  oscillation=0.0))


DEFAULT_REGISTRY = default_registry()
