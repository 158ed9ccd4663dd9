"""The compositional difference evaluator.

``diff_evaluate`` runs a term into its *difference function*: given
values for the free variables and error bounds on them, it returns a
bound on the output error.  Differences mirror the type structure:

* at ``Real`` a difference is a non-negative float (``math.inf`` allowed),
* at a product, a pair of differences,
* at an arrow, a callable taking an input value and an input difference
  to an output difference.

The clauses: a variable projects its environment entry; a literal has
difference 0; a primitive call takes the deviation modulus of its
evaluated arguments and their differences; an application feeds the
argument's value and difference to the function's difference; a lambda
extends both environments; pairs and projections are componentwise.

The term is compiled once, by the evaluator's emitter, into code that
computes (value, difference) pairs in one fused pass, the forward-mode
"dual number" shape, so no subterm is evaluated twice and the cost is
linear in the term's depth.  Values are computed only where the clauses
above use them, the arguments of primitives and applications; elsewhere
the value half of the pair is ``None``.  A lambda's value is the code
the evaluator compiles, and its difference runs the fused pass of its
body; a lambda whose body is a region takes the input value and
difference as its parameters.

Each primitive call is one node of the emitted straight-line code: its
value half runs the implementation and its checks inline, as the
evaluator's nodes do, and its difference half applies ``prim_modulus``'s
radius rules inline before calling the modulus.  A literal's difference
is 0 when the code is written, so it costs no test.  The sum and
identity moduli are written as expressions on the radii, and the wave
moduli of ``sin`` and ``cos`` are called in their scalar form, with the
node's own value as the centre.  A primitive without an analytic
modulus, the derived ``_d`` primitives among them, has its interval
enclosure as the modulus (``prims.box_modulus``).  Runs on floats.
Exact differences need no mode here: the exact-mode ``evaluate`` of
``derivative_term(t)`` computes them, because the ``_d`` primitives'
exact implementations use ``Primitive.exact_modulus``.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Callable, Mapping, Union

from ..prims import (_RADIUS_MODULI, _SCALAR_MODULI, DEFAULT_REGISTRY,
                     Registry, box_modulus)
from ..syntax.terms import (REAL, FnType, Lam, Pair, Term, TermTooDeep, Type,
                            componentwise, on_overflow)
from .eval import (REGION, Const, Literal, Mode, Position, Region, Value,
                   ValueMode, emit, tuple_source)

Diff = Union[float, tuple, Callable]

# a compiled term: (value environment, difference environment) to
# (value or None, difference)
DualCode = Callable[[tuple, tuple], tuple]


def diff_evaluate(t: Term, env: Mapping[str, Value] | None = None,
                  denv: Mapping[str, Diff] | None = None, *,
                  registry: Registry = DEFAULT_REGISTRY) -> Diff:
    # closures applied within closures recurse
    with on_overflow(TermTooDeep, "term nested too deeply to evaluate"):
        code = _compile_dual(t, dict(env) if env else {},
                             dict(denv) if denv else {}, registry)
        return code((), ())[1]


def _compile_dual(t: Term, free: Mapping[str, Value],
                  dfree: Mapping[str, Diff], registry: Registry) -> DualCode:
    """The code computing ``t``'s (value, difference) pair from the empty
    environments, without its value; the value code of every position
    is compiled alongside, for the lambdas whose values are used."""
    values = ValueMode(free)
    return emit(t, registry, [values, DualMode(free, dfree, values)])[1]


_NOT_A_FUNCTION = ("difference of an applied term is not a function; "
                   "environment shape does not match the typing")


class DualMode(Mode):
    """The (value, difference) pair of every position, its value only
    where ``want`` is set."""

    def __init__(self, free: Mapping[str, Value], dfree: Mapping[str, Diff],
                 values: ValueMode):
        super().__init__(free)
        self.dfree, self.values = dfree, values

    @staticmethod
    def params(param: bool) -> str:
        return "env, denv, p, q" if param else "env, denv"

    def var(self, region: Region, pos: Position, name: str, slot):
        if slot is not None:
            return slot
        if (name in self.free or not pos.want) and name in self.dfree:
            return Const(self.free.get(name), self.dfree[name])
        if pos.want and name not in self.free:
            return self.unbound(region,
                                f"unbound variable {name!r} at evaluation")
        return self.unbound(region,
                            f"no difference bound for variable {name!r}")

    def prim(self, region: Region, pos: Position, args: list):
        """The node of ``Registry.call_float`` and ``prim_modulus``, with
        their tests inline.  It tests the domain whether or not the value
        is wanted, as ``prim_modulus`` does; its value half runs
        ``call_float``'s other test; its difference half applies
        ``prim_modulus``'s radius rules (a negative or NaN radius is an
        error, a zero box gives 0, an infinite radius the oscillation)
        before calling ``box_modulus(p)``: the analytic modulus, or else
        the interval enclosure."""
        region.begin(args)
        p = pos.info
        xs = [region.value(op) for op in args]
        bs = [region.diff(op) for op in args]
        self.test_domain(region, p, xs)
        t = self.call_checked(region, p, xs) if pos.want else None
        radii = [b for op, b in zip(args, bs) if type(op) is not Literal]
        for b in radii:
            region.line(f"if not {b} >= 0: raise bad_radius({b})")
        d = region.fresh("d")
        if not radii:
            region.line(f"{d} = 0.0")
            return region.local(t, d)
        form = _RADIUS_MODULI.get(id(p.modulus))
        scalar, centre = _SCALAR_MODULI.get(id(p.modulus), (None, None))
        if form is not None:
            modulus = form.format(*bs)
        elif scalar is not None:  # the node's value, if it is the centre
            centre = t if p.fn is centre else None
            modulus = f"{region.cell(scalar)}({xs[0]}, {bs[0]}, {centre})"
        else:
            modulus = (f"{region.cell(box_modulus(p))}({tuple_source(xs)}, "
                       f"{tuple_source(bs)})")
        region.line(f"{d} = (0.0 if not ({' or '.join(radii)}) else "
                    f"{region.cell(p.oscillation)} if "
                    f"{' or '.join(f'{b} == inf' for b in radii)} else "
                    f"{modulus})")
        return region.local(t, d)

    def app(self, region: Region, pos: Position, fn, arg):
        region.begin([fn, arg])
        y, b = region.value(arg), region.diff(arg)
        t = None
        if pos.want:
            t = region.fresh("t")
            region.line(f"{t} = {region.value(fn)}({y})")
        d = region.fresh("d")
        # a literal's difference from a cell: no constant is called
        df = region.cell(0.0) if type(fn) is Literal else region.diff(fn)
        region.line(f"{d} = {df}({y}, {b})")
        return region.local(t, d)

    def callee(self, region: Region, op) -> None:
        df = region.diff(op)
        region.line(f"if not callable({df}): "
                    f"raise TypeError({region.cell(_NOT_A_FUNCTION)})")

    def call(self, region: Region, pos: Position, code: DualCode):
        envs = ("env + (p,), denv + (q,)" if region.param is not None
                else "env, denv")
        d = region.fresh("d")
        if not pos.want:
            region.line(f"{d} = {region.cell(code)}({envs})[1]")
            return region.local(None, d)
        t = region.fresh("t")
        region.line(f"{t}, {d} = {region.cell(code)}({envs})")
        return region.local(t, d)

    def result(self, region: Region, pos: Position, op) -> str:
        if region.param is not None:  # a lambda's body: its difference
            return region.diff(op)
        value = region.value(op) if pos.want else "None"
        return f"({value}, {region.diff(op)})"

    def boundary(self, pos: Position) -> DualCode:
        kids = [self.codes[kid] for kid in pos.kids]
        want = pos.want
        if pos.cls is Lam:
            value = self.values.codes[pos] if want else None
            body = kids[0]
            if pos.kids[0].cls in REGION:  # it takes (y, b) itself
                if want:
                    return lambda env, denv: (value(env),
                                              partial(body, env, denv))
                return lambda env, denv: (None, partial(body, env, denv))

            def lam(env, denv):
                def dclosure(y: Value, b: Diff) -> Diff:
                    return body(env + (y,), denv + (b,))[1]
                return (value(env) if want else None), dclosure
            return lam
        if pos.cls is Pair:
            left, right = kids

            def pair(env, denv):
                x, a = left(env, denv)
                x2, a2 = right(env, denv)
                return (x, x2), (a, a2)
            return pair
        pair, k = kids[0], pos.info

        def project(env, denv):
            x, a = pair(env, denv)
            return (x[k] if want else None), a[k]
        return project


# --- pointwise structure on differences -------------------------------------

def _pointwise(ty: Type, op: Callable[..., float], *ds: Diff) -> Diff:
    """``op`` on ``Real`` differences, applied to ``ds`` at ``ty``:
    componentwise at products, and at arrows pointwise in (value, bound),
    the result type walked when the function is called."""
    if ty is REAL:
        return op(*ds)
    if type(ty) is FnType:
        if ty.res is REAL:  # the checkers' hot case: no call per value
            return lambda value, bound: op(*[d(value, bound) for d in ds])
        return lambda value, bound: _pointwise(
            ty.res, op, *[d(value, bound) for d in ds])
    return componentwise(ty, lambda at, *ds: _pointwise(at, op, *ds), *ds)


def _residual(a: float, b: float) -> float:
    if math.isinf(a):
        return 0.0
    return max(b - a, 0.0)


def top_diff(ty: Type) -> Diff:
    """The largest difference: zero bound everywhere (only constant
    functions are this close to themselves)."""
    return _pointwise(ty, lambda: 0.0)


def tensor_diff(ty: Type, a: Diff, b: Diff) -> Diff:
    """Pointwise monoid operation (addition at the base)."""
    return _pointwise(ty, operator.add, a, b)


def residual_diff(ty: Type, a: Diff, b: Diff) -> Diff:
    """Pointwise residual (truncated subtraction at the base)."""
    return _pointwise(ty, _residual, a, b)
