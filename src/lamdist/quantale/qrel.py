"""Quantity-valued relations: square matrices over a quantale.

Every relation operation is stated once, in :data:`_SPECS`, as the term
of each cell of its result on flat row-major entry tuples.  One emitter
writes all of them as Python source, once per size, and compiles it into
the operations of :class:`Kernel`: with every loop unrolled up to
n = :data:`UNROLL_BOUND`, and as ``for`` loops above it.  The kernel
reads a quantale only through its :class:`Tables`, by field name, so it
serves finite quantales (carrier indices, precomputed tables) and the
exact Lawvere quantale (``ExtReal`` entries, lazy views over exact
functions) alike.  :class:`QRel` and the functions below wrap it; the
exhaustive model checker calls it directly.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence


class DomainMismatch(ValueError):
    pass


# A quantale's operations as ``table[a][b]`` lookups, plus its top.
Tables = namedtuple("Tables", "leq tensor join meet residual top")


class Kernel:
    """The relation operations on n x n entry tuples, read from the tables
    of ``ops``; raises what ``ops.tables`` raises, e.g.
    ``QuantaleStructureError`` for an order with a missing join.

    Each operation is documented on the function below that wraps it for
    :class:`QRel`.  The two left-handed forms have no wrapper:
    ``quasi_reflexive_cols`` tests s ⊑ Δ₂s, every entry below its column's
    self-distance, and ``strongly_transitive_left`` tests
    (s(z,z) ⊸ s(x,z)) ⊗ s(z,y) ⊑ s(x,y) for all x, y, z.

    Each operation is stated once (:data:`_SPECS`) and emitted unrolled,
    every index a constant, for sizes up to :data:`UNROLL_BOUND`, and as
    loops above it.  Both forms fold joins from the first term and meets
    from top, so no bottom is needed; evaluate the cells of a test in the
    same order, so it stops, or raises, at the same cell; and return
    ``bool`` from tests and ``tuple`` from operations.  Entry sequences
    have length n²."""

    def __init__(self, ops, n: int):
        check_size(n)
        for op in _operations(n)(ops.tables):
            setattr(self, op.__name__, op)


def check_size(n: int) -> None:
    """Raise :class:`DomainMismatch`, naming ``n``, unless n ≥ 0."""
    if n < 0:
        raise DomainMismatch(f"relation size must be at least 0, got {n}")


# One relation operation: its head; the indices of the cells of its
# result, outermost first, in the order they are evaluated; the term of a
# cell, on symbolic entries a(x,y) of the arguments and the tables leqt,
# ten, join, meet, res and top; optionally a fold of that term over one
# more index i, ("join", i) from its first value or ("meet", i) from top;
# and, for a test, the condition that each cell's value ``{}`` must meet.
# ``quasi_metric(e)`` runs the statements of ``reflexive(e)`` and then of
# ``transitive(e)``.
_Spec = namedtuple("_Spec", "head cells term fold test", defaults=(None, None))

_SPECS = (
    _Spec("leq(a, b)", "xy", "a(x,y)", test="leqt[{}][b(x,y)]"),
    _Spec("tensor(a, b)", "xz", "ten[a(x,y)][b(y,z)]", fold=("join", "y")),
    _Spec("residual_left(u, s)", "zy", "res[u(x,z)][s(x,y)]",
          fold=("meet", "x")),
    _Spec("residual_right(s, w)", "xz", "res[w(z,y)][s(x,y)]",
          fold=("meet", "y")),
    _Spec("theta_left(e)", "xy", "res[e(y,y)][e(x,y)]"),
    _Spec("theta_right(e)", "xy", "res[e(x,x)][e(x,y)]"),
    _Spec("reflexive(e)", "x", "e(x,x)", test="{} == top"),
    _Spec("quasi_reflexive_rows(e)", "xy", "e(x,y)", test="leqt[{}][e(x,x)]"),
    _Spec("quasi_reflexive_cols(e)", "xy", "e(x,y)", test="leqt[{}][e(y,y)]"),
    _Spec("transitive(e)", "xz", "ten[e(x,y)][e(y,z)]", fold=("join", "y"),
          test="leqt[{}][e(x,z)]"),
    _Spec("strongly_transitive_right(e)", "xzy",
          "ten[e(x,z)][res[e(z,z)][e(z,y)]]", test="leqt[{}][e(x,y)]"),
    _Spec("strongly_transitive_left(e)", "xzy",
          "ten[res[e(z,z)][e(x,z)]][e(z,y)]", test="leqt[{}][e(x,y)]"),
)

_ENTRY = re.compile(r"(\w)\((\w),(\w)\)")

# The largest size emitted unrolled.  That source grows as n³ (20 KiB,
# compiled in about 4.5 ms, at n = 4; the looped source stays near
# 3.5 KiB); n = 4 covers every enumeration check_section3_props can run on
# two or more elements, since 2^(5²) exceeds its bound of 10^6.
UNROLL_BOUND = 4


@functools.cache
def _operations(n: int):
    """Compile, once per size, ``make(tables)``, which returns the
    kernel's operations bound to ``tables`` by field name."""
    namespace: dict = {}
    exec(compile(_source(n), f"<relation kernel n={n}>", "exec"), {},
         namespace)
    return namespace["make"]


def _source(n: int) -> str:
    """The source of ``make(tables)`` at size n.  Unrolled, each entry
    argument is unpacked once into locals ``e0``, ``e1``, ... at entry;
    looped, an entry is read as ``e[x * n + y]``."""
    unrolled = n <= UNROLL_BOUND

    def at(term, env):
        # ``term`` with each entry a(x,y) at the indices bound in ``env``
        def entry(m):
            arg, x, y = m[1], env[m[2]], env[m[3]]
            if unrolled:
                return f"{arg}{x * n + y}"
            return f"{arg}[{x} * {n} + {y}]"
        return _ENTRY.sub(entry, term)

    def check(spec, env, value):
        return f"if not {at(spec.test, env).format(value)}: return False"

    def unrolled_value(spec, env):
        if not spec.fold:
            return at(spec.term, env)
        table, index = spec.fold
        terms = [at(spec.term, {**env, index: i}) for i in range(n)]
        value = "top" if table == "meet" else terms.pop(0)
        for term in terms:
            value = f"{table}[{value}][{term}]"
        return value

    def unrolled_body(spec):
        points = itertools.product(range(n), repeat=len(spec.cells))
        cells = [dict(zip(spec.cells, point)) for point in points]
        values = [unrolled_value(spec, env) for env in cells]
        if spec.test:
            return [check(spec, env, value)
                    for env, value in zip(cells, values)]
        return ["return (" + "".join(f"{v}, " for v in values) + ")"]

    def looped_body(spec):
        lines, indent = [], ""
        for index in spec.cells:
            lines.append(f"{indent}for {index} in range({n}):")
            indent += "    "
        env = {index: index for index in "xyz"}
        if spec.fold:
            table, index = spec.fold
            join = table == "join"
            first = at(spec.term, {**env, index: 0}) if join else "top"
            lines += [f"{indent}acc = {first}",
                      f"{indent}for {index} in range({int(join)}, {n}):",
                      f"{indent}    acc = {table}[acc][{at(spec.term, env)}]"]
            value = "acc"
        else:
            value = at(spec.term, env)
        if spec.test:
            return lines + [indent + check(spec, env, value)]
        return ["out = []", *lines, f"{indent}out.append({value})",
                "return tuple(out)"]

    body = unrolled_body if unrolled else looped_body
    values = {spec.head: body(spec) for spec in _SPECS if not spec.test}
    tests = {spec.head: body(spec) for spec in _SPECS if spec.test}
    tests["quasi_metric(e)"] = tests["reflexive(e)"] + tests["transitive(e)"]
    bodies = {**values, **{head: body + ["return True"]
                           for head, body in tests.items()}}
    lines = ["def make(tables):",
             "    leqt, ten, join = tables.leq, tables.tensor, tables.join",
             "    meet, res, top = tables.meet, tables.residual, tables.top"]
    for head, body in bodies.items():
        lines.append(f"    def {head}:")
        if unrolled and n:
            for arg in head[head.index("(") + 1:-1].split(", "):
                cells = "".join(f"{arg}{i}, " for i in range(n * n))
                lines.append(f"        {cells}= {arg}")
        lines += [f"        {line}" for line in body]
    names = ", ".join(head[:head.index("(")] for head in bodies)
    lines.append(f"    return {names}")
    return "\n".join(lines) + "\n"


# One kernel per (quantale, size), kept for the 64 most recently used.
kernel = functools.lru_cache(maxsize=64)(Kernel)


class QRel:
    """An n x n matrix with entries in a quantale, row-major."""

    __slots__ = ("ops", "n", "entries")

    def __init__(self, ops, n: int, entries: Sequence):
        check_size(n)
        if len(entries) != n * n:
            raise DomainMismatch(f"expected {n * n} entries, got {len(entries)}")
        self.ops = ops
        self.n = n
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, ops, rows: Sequence[Sequence]) -> "QRel":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainMismatch("relation matrix is not square")
        return cls(ops, n, [ops.coerce(v) for row in rows for v in row])

    @classmethod
    def identity(cls, ops, n: int) -> "QRel":
        unit, bottom = ops.unit, ops.bottom
        return cls(ops, n, [unit if i == j else bottom
                            for i in range(n) for j in range(n)])

    @classmethod
    def constant(cls, ops, n: int, value) -> "QRel":
        return cls(ops, n, [ops.coerce(value)] * (n * n))

    @property
    def kernel(self) -> Kernel:
        return kernel(self.ops, self.n)

    def __call__(self, x: int, y: int):
        return self.entries[x * self.n + y]

    def __eq__(self, other):
        if not isinstance(other, QRel):
            return NotImplemented
        return (self.ops is other.ops and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.entries))

    def rows(self) -> list[list]:
        return [list(self.entries[i * self.n:(i + 1) * self.n])
                for i in range(self.n)]

    def __repr__(self):
        return f"QRel({self.rows()})"

    def _check_same(self, other: "QRel"):
        if self.ops is not other.ops or self.n != other.n:
            raise DomainMismatch("relations live over different domains")


def qrel_leq(s: QRel, t: QRel) -> bool:
    """Pointwise lattice order."""
    s._check_same(t)
    return s.kernel.leq(s.entries, t.entries)


def qrel_tensor(s: QRel, t: QRel) -> QRel:
    """Relation composition: (s ⊗ t)(x,z) = join over y of s(x,y) ⊗ t(y,z)."""
    s._check_same(t)
    return QRel(s.ops, s.n, s.kernel.tensor(s.entries, t.entries))


def qrel_residual_left(u: QRel, s: QRel) -> QRel:
    """(u ⊸ s)(z,y) = meet over x of u(x,z) ⊸ s(x,y)."""
    u._check_same(s)
    return QRel(u.ops, u.n, u.kernel.residual_left(u.entries, s.entries))


def qrel_residual_right(s: QRel, w: QRel) -> QRel:
    """(s ⟜ w)(x,z) = meet over y of w(z,y) ⊸ s(x,y)."""
    s._check_same(w)
    return QRel(s.ops, s.n, s.kernel.residual_right(s.entries, w.entries))


def obs_quasi_left(s: QRel) -> QRel:
    """Left observational quasi-metric s ⟜ s.

    That it is a quasi-metric is a theorem, not checked here; the
    exhaustive model checker verifies it on finite models."""
    return qrel_residual_right(s, s)


def obs_quasi_right(s: QRel) -> QRel:
    """Right observational quasi-metric s ⊸ s (a quasi-metric; see
    :func:`obs_quasi_left`)."""
    return qrel_residual_left(s, s)


def theta_left(s: QRel) -> QRel:
    """Θ^l_s(x,y) = s(y,y) ⊸ s(x,y)."""
    return QRel(s.ops, s.n, s.kernel.theta_left(s.entries))


def theta_right(s: QRel) -> QRel:
    """Θ^r_s(x,y) = s(x,x) ⊸ s(x,y)."""
    return QRel(s.ops, s.n, s.kernel.theta_right(s.entries))


def is_reflexive(s: QRel) -> bool:
    """s above the identity relation, i.e. every diagonal entry is top."""
    return s.kernel.reflexive(s.entries)


def is_quasi_reflexive(s: QRel) -> bool:
    """s ⊑ Δ₁s: every entry is below its row's self-distance."""
    return s.kernel.quasi_reflexive_rows(s.entries)


def is_transitive(s: QRel) -> bool:
    """s ⊗ s ⊑ s."""
    return s.kernel.transitive(s.entries)


def is_strongly_transitive(s: QRel) -> bool:
    """s(x,z) ⊗ (s(z,z) ⊸ s(z,y)) ⊑ s(x,y) for all x, y, z."""
    return s.kernel.strongly_transitive_right(s.entries)


@dataclass(frozen=True)
class RelationClassification:
    reflexive: bool
    quasi_reflexive: bool
    transitive: bool
    strongly_transitive: bool

    @property
    def quasi_metric(self) -> bool:
        return self.reflexive and self.transitive

    @property
    def quasi2_metric(self) -> bool:
        return self.quasi_reflexive and self.transitive

    @property
    def partial_quasi_metric(self) -> bool:
        return self.quasi_reflexive and self.strongly_transitive


def classify(s: QRel) -> RelationClassification:
    """Evaluate each metric law exhaustively over the finite domain."""
    return RelationClassification(
        reflexive=is_reflexive(s),
        quasi_reflexive=is_quasi_reflexive(s),
        transitive=is_transitive(s),
        strongly_transitive=is_strongly_transitive(s))
