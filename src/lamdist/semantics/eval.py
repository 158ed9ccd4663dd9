"""The set-theoretic evaluator, and the emitter both float evaluators
compile through.

Values are plain Python data: floats (or ``Fraction`` in exact mode) at
``Real``, 2-tuples at products, and 1-argument callables at arrows.
Evaluation is call-by-value.

In float mode ``evaluate`` compiles the term once into Python code and
runs it.  ``emit`` lays the term out on ``terms.fold`` as a list of its
positions in evaluation order: bound variables become slots of a tuple
environment, free variables and literals become constants converted
once, and each primitive is looked up in the registry, and its arity checked, at
compile time.  Each maximal region of primitive calls, applications,
variables and literals is then written as one Python function, one
statement per node with temporaries in locals.  A leaf argument is read
inline (a bound variable from its slot, a constant from a closure cell),
so it costs no statement.  The field operations are infix operators,
and every call runs ``Registry.call_float``'s domain and finiteness
tests inline.  A lambda whose body is a region takes its parameter as an
argument, ``functools.partial(code, env)``, so applying it is one frame.
Lambdas, pairs and projections between regions are closures over the
code of their parts, and a region calls them as it calls a primitive.

The source of a function is compiled once per shape, and its constants
are passed in as the cells of a maker, as ``quantale.qrel`` does.  A
function holds at most ``CHUNK`` nodes, since ``compile`` needs memory in
proportion to the source: a larger region is cut into chunks that the
region runs one after another, passing the values still pending on a
list, so no chunk calls the next.  The checks run on every call, and an
unbound variable raises ``NameError`` only when its node runs, so errors
stay as lazy as evaluation itself.  The same emitter writes the
difference pass of ``diff``, from node templates of its own.

Exact mode carries ``Fraction`` values: field primitives compute exactly,
transcendentals rationalize their float result, which is deterministic.
It exists so inequalities between evaluated reals can be decided with no
rounding at all.  It runs conversion's evaluator,
``syntax.equality.exact_value``, which is stack-safe on deep terms and
raises the same errors lazily.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import inf, isfinite
from typing import Callable, Mapping, Union

from ..prims import (_INFIX, DEFAULT_REGISTRY, EvalDomainError, Primitive,
                     Registry, bad_radius, nonfinite_result, outside_domain)
from ..syntax.equality import exact_value
from ..syntax.terms import (App, First, Lam, Lit, Pair, PrimOp, Second, Term,
                            TermTooDeep, Var, fold, on_overflow, walker)

Value = Union[float, Fraction, tuple, Callable]

# a compiled term: environment tuple (one slot per enclosing binder) to value
Code = Callable[[tuple], Value]


def evaluate(t: Term, env: Mapping[str, Value] | None = None, *,
             registry: Registry = DEFAULT_REGISTRY,
             exact: bool = False) -> Value:
    env = dict(env) if env else {}
    # closures applied within closures recurse
    with on_overflow(TermTooDeep, "term nested too deeply to evaluate"):
        if exact:
            return exact_value(env, t, registry)
        return compile_value(t, env, registry)(())


def compile_value(t: Term, free: Mapping[str, Value],
                  registry: Registry) -> Code:
    """The code computing ``t``'s value from the empty environment; its
    free names are read from ``free`` now."""
    return emit(t, registry, [ValueMode(free)])[0]


def float_literal(value: Fraction) -> float:
    """A literal's float.  One beyond the float range is an evaluation
    error, as an infinite result is."""
    try:
        return float(value)
    except OverflowError:
        raise EvalDomainError(
            f"literal {value} is beyond the float range") from None


# --- the term, laid out by position -----------------------------------------

# The classes of the nodes a region holds; the others bound regions
REGION = (Var, Lit, PrimOp, App)


class Position:
    """One occurrence of a subterm: its class, its children's positions
    and what compiling it needs (a variable's name and slot, a literal's
    float, a primitive, a binder's slot).  ``want`` is set where the
    difference pass needs the value too; ``region`` is the root of the
    region whose code computes it, if any."""
    __slots__ = ("cls", "info", "kids", "parent", "want", "region")

    def __init__(self, cls, info, kids):
        self.cls, self.info, self.kids = cls, info, kids
        self.parent = None
        for kid in kids:
            kid.parent = self


class _Layout:
    """The fold's state: the positions in evaluation order, the slots of
    the binders in scope by name, and the primitives resolved on the way
    down."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.order: list[Position] = []
        self.binders: dict[str, list[int]] = {}
        self.depth = 0
        self.prims: list[Primitive] = []

    def enter(self, t: Lam) -> Lam:
        self.binders.setdefault(t.var, []).append(self.depth)
        self.depth += 1
        return t

    def leave(self, t: Lam) -> int:
        self.depth -= 1
        return self.binders[t.var].pop()

    def resolve(self, t: PrimOp) -> PrimOp:
        self.prims.append(self.registry.resolve(t.name, len(t.args)))
        return t

    def slot(self, t: Var) -> tuple[str, int | None]:
        slots = self.binders.get(t.name)
        return t.name, slots[-1] if slots else None


def _position(info: Callable):
    def combine(layout: _Layout, t: Term, kids) -> Position:
        pos = Position(type(t), info(layout, t), kids)
        layout.order.append(pos)
        return pos
    return combine


_LAYOUT = walker({
    Var: _position(_Layout.slot),
    Lit: _position(lambda layout, t: float_literal(t.value)),
    PrimOp: _position(lambda layout, t: layout.prims.pop()),
    App: _position(lambda layout, t: None),
    Lam: _position(_Layout.leave),
    Pair: _position(lambda layout, t: None),
    First: _position(lambda layout, t: 0),
    Second: _position(lambda layout, t: 1),
}, pre={Lam: _Layout.enter, PrimOp: _Layout.resolve})


def emit(t: Term, registry: Registry, modes: list[Mode]) -> list[Callable]:
    """Compile ``t`` in each of ``modes``; the code of the whole term in
    each.  Compile-time errors (an unknown primitive, a wrong arity, a
    literal beyond the float range) are raised in the order a recursive
    walk meets them."""
    layout = _Layout(registry)
    root = fold(t, _LAYOUT, layout)
    root.want = False
    root.region = root if root.cls in REGION else None
    for pos in reversed(layout.order):  # parents before their children
        cls = pos.cls
        inner = cls in REGION
        for i, kid in enumerate(pos.kids):
            kid.want = (cls is PrimOp or cls is App and i == 1
                        or cls is not Lam and pos.want)
            kid.region = (pos.region if inner
                          else kid if kid.cls in REGION else None)
    for pos in layout.order:
        for mode in modes:
            mode.place(pos)
    return [mode.codes[root] for mode in modes]


# --- regions as straight-line source ----------------------------------------

# Nodes per emitted function: ``compile`` takes transient memory in
# proportion to the source (a peak of about 35 KB per node of a difference
# pass) and keeps none of it, so a small function keeps the peak low
CHUNK = 16

# The names the emitted code reads besides its cells
_GLOBALS = {"isfinite": isfinite, "inf": inf,
            "outside_domain": outside_domain,
            "nonfinite_result": nonfinite_result, "bad_radius": bad_radius}


@functools.lru_cache(maxsize=1024)  # bounded: terms can take any shape
def _maker(source: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, "<region>", "exec"), _GLOBALS, namespace)
    return namespace["make"]


# What a node in a region reads: a bound variable is its slot, an int; a
# free variable, a literal or a node's result is one of these
class Const:
    """A free variable's value and difference, read from cells."""
    __slots__ = ("value", "diff")

    def __init__(self, value, diff=None):
        self.value, self.diff = value, diff


class Literal:
    """A literal's value, read from a cell; its difference is 0."""
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Local:
    """What a node computes, held in locals of the chunk that computed
    it: ``value`` and ``diff`` are their names, None for what is not
    computed; ``pending`` until a node reads it."""
    __slots__ = ("chunk", "value", "diff", "pending")

    def __init__(self, chunk, value, diff):
        self.chunk, self.value, self.diff = chunk, value, diff
        self.pending = True


NOTHING = Const(None)  # what an unbound variable's node leaves: it raised


class _Chunk:
    """One emitted function: its lines, its cells by the id of their
    object, its nodes, the locals it computes, and a counter naming
    them."""
    __slots__ = ("lines", "cells", "names", "nodes", "locals", "fresh")

    def __init__(self):
        self.lines: list[str] = []
        self.cells: list = []
        self.names: dict[int, str] = {}  # id of a cell's object -> its name
        self.nodes = 0
        self.locals: list[Local] = []
        self.fresh = 0


class Region:
    """The source of one region, as it is written: ``params`` are the
    parameters of its functions, and ``param`` the slot the lambda whose
    body it is binds, read from the parameter ``p`` (and its difference
    from ``q``), or None."""

    def __init__(self, params: str, param: int | None):
        self.params, self.param = params, param
        self.chunks: list[_Chunk] = []
        self._open()

    def _open(self):
        self.chunk = _Chunk()
        self.chunks.append(self.chunk)

    def begin(self, operands) -> None:
        """Start a node that reads ``operands``: in a new chunk if this
        one is full.  An operand computed in an earlier chunk is taken off
        the pending list; pending values are read last in, first out, as
        evaluation order leaves them."""
        if self.chunk.nodes == CHUNK:
            self._close()
            self._open()
        chunk = self.chunk
        chunk.nodes += 1
        for op in reversed(operands):
            if type(op) is Local:
                op.pending = False
                if op.chunk is not chunk:  # pushed as (value, diff)
                    op.chunk = chunk
                    if op.diff is not None:
                        op.diff = self._pop("d")
                    if op.value is not None:
                        op.value = self._pop("t")

    def _pop(self, prefix: str) -> str:
        name = self.fresh(prefix)
        self.line(f"{name} = s.pop()")
        return name

    def _close(self):
        names = [name for op in self.chunk.locals if op.pending
                 for name in (op.value, op.diff) if name is not None]
        if names:
            self.line(f"s.extend(({', '.join(names)},))")

    def line(self, text: str) -> None:
        self.chunk.lines.append(text)

    def fresh(self, prefix: str) -> str:
        self.chunk.fresh += 1
        return f"{prefix}{self.chunk.fresh}"

    def local(self, value: str | None, diff: str | None = None) -> Local:
        op = Local(self.chunk, value, diff)
        self.chunk.locals.append(op)
        return op

    def cell(self, obj) -> str:
        chunk = self.chunk
        name = chunk.names.get(id(obj))
        if name is None:
            name = chunk.names[id(obj)] = f"c{len(chunk.cells)}"
            chunk.cells.append(obj)
        return name

    def value(self, op) -> str:
        """The expression of ``op``'s value in the current chunk."""
        if type(op) is int:
            return "p" if op == self.param else f"env[{op}]"
        if type(op) is Local:
            return op.value
        return self.cell(op.value)

    def diff(self, op) -> str:
        """The expression of ``op``'s difference in the current chunk."""
        if type(op) is int:
            return "q" if op == self.param else f"denv[{op}]"
        if type(op) is Local:
            return op.diff
        if type(op) is Literal:
            return "0.0"
        return self.cell(op.diff)

    def finish(self, result: str) -> Callable:
        """The region's code, returning ``result``."""
        self.line(f"return {result}")
        if len(self.chunks) == 1:
            return self._function(self.chunk, "region", self.params)
        *first, last = [self._function(chunk, "chunk", f"{self.params}, s")
                        for chunk in self.chunks]
        return _maker(_SEQUENCE.format(params=self.params))(first, last)

    @staticmethod
    def _function(chunk: _Chunk, name: str, params: str) -> Callable:
        source = "".join(
            [f"def make({', '.join(chunk.names.values())}):\n",
             f"    def {name}({params}):\n"]
            + [f"        {line}\n" for line in chunk.lines]
            + [f"    return {name}\n"])
        return _maker(source)(*chunk.cells)


_SEQUENCE = """\
def make(chunks, last):
    def region({params}):
        s = []
        for chunk in chunks:
            chunk({params}, s)
        return last({params}, s)
    return region
"""


def tuple_source(items: list[str]) -> str:
    """A tuple display of ``items``, as ``Registry.call_float`` passes
    arguments to its error helpers."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


class Mode:
    """One evaluator's code for every position: ``codes`` for the roots
    of regions and for the nodes between them, ``ops`` for what each node
    in a region leaves to its parent.  Subclasses give the node
    templates."""

    def __init__(self, free: Mapping[str, Value]):
        self.free = free
        self.codes: dict[Position, Callable] = {}
        self.ops: dict[Position, object] = {}
        self.regions: dict[Position, Region] = {}

    def place(self, pos: Position) -> None:
        region = None
        if pos.region is not None:
            region = self.regions.get(pos.region)
            if region is None:
                lam = pos.region.parent  # a lambda's body takes p itself
                param = (lam.info if lam is not None and lam.cls is Lam
                         else None)
                region = self.regions[pos.region] = Region(
                    self.params(param is not None), param)
        if pos.cls in REGION:
            op = self.node(region, pos)
        else:
            code = self.codes[pos] = self.boundary(pos)
            if region is None:
                return
            region.begin(())
            op = self.call(region, pos, code)
        self.ops[pos] = op
        parent = pos.parent
        if parent is not None and parent.cls is App and parent.kids[0] is pos:
            self.callee(region, op)
        if pos.region is pos:
            self.codes[pos] = self.regions.pop(pos).finish(
                self.result(region, pos, op))

    def node(self, region: Region, pos: Position):
        if pos.cls is PrimOp:
            return self.prim(region, pos, [self.ops[k] for k in pos.kids])
        if pos.cls is App:
            return self.app(region, pos, *[self.ops[k] for k in pos.kids])
        if pos.cls is Lit:
            return Literal(pos.info)
        return self.var(region, pos, *pos.info)

    def unbound(self, region: Region, message: str):
        region.begin(())
        region.line(f"raise NameError({region.cell(message)})")
        return NOTHING

    def test_domain(self, region: Region, p: Primitive,
                    xs: list[str]) -> None:
        if p.domain is not None:
            region.line(f"if not {region.cell(p.domain)}({', '.join(xs)}): "
                        f"raise outside_domain({region.cell(p.name)}, "
                        f"{tuple_source(xs)})")

    def call_checked(self, region: Region, p: Primitive, xs: list[str]) -> str:
        """Emit the call of ``p`` on ``xs`` and its finiteness test; the
        local holding its value."""
        infix = _INFIX.get(id(p.fn)) if len(xs) == 2 else None
        call = (f"{xs[0]} {infix} {xs[1]}" if infix is not None
                else f"{region.cell(p.fn)}({', '.join(xs)})")
        t = region.fresh("t")
        region.line(f"{t} = {call}")
        region.line(f"if isinstance({t}, float) and not isfinite({t}): "
                    f"{t} = nonfinite_result({region.cell(p.name)}, "
                    f"{tuple_source(xs)}, {t}, {p.derived_from is None})")
        return t

    def callee(self, region: Region, op) -> None:
        """Emit what runs once an applied function is computed."""


class ValueMode(Mode):
    """The value of every position."""

    @staticmethod
    def params(param: bool) -> str:
        return "env, p" if param else "env"

    def var(self, region: Region, pos: Position, name: str, slot):
        if slot is not None:
            return slot
        if name in self.free:
            return Const(self.free[name])
        return self.unbound(region, f"unbound variable {name!r} at evaluation")

    def prim(self, region: Region, pos: Position, args: list):
        region.begin(args)
        xs = [region.value(op) for op in args]
        self.test_domain(region, pos.info, xs)
        return region.local(self.call_checked(region, pos.info, xs))

    def app(self, region: Region, pos: Position, fn, arg):
        region.begin([fn, arg])
        t = region.fresh("t")
        region.line(f"{t} = {region.value(fn)}({region.value(arg)})")
        return region.local(t)

    def call(self, region: Region, pos: Position, code: Code):
        t = region.fresh("t")
        env = "env + (p,)" if region.param is not None else "env"
        region.line(f"{t} = {region.cell(code)}({env})")
        return region.local(t)

    def result(self, region: Region, pos: Position, op) -> str:
        return region.value(op)

    def boundary(self, pos: Position) -> Code:
        kids = [self.codes[kid] for kid in pos.kids]
        if pos.cls is Lam:
            body = kids[0]
            if pos.kids[0].cls in REGION:  # it takes the parameter itself
                return lambda env: functools.partial(body, env)
            return lambda env: lambda v: body(env + (v,))
        if pos.cls is Pair:
            left, right = kids
            return lambda env: (left(env), right(env))
        pair, k = kids[0], pos.info
        return lambda env: pair(env)[k]
