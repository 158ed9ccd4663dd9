"""Quantity-valued relations: square matrices over a quantale.

Every relation operation is implemented once, in :class:`Kernel`, on flat
row-major entry tuples: as loops over the points, which run above
n = :data:`UNROLL_BOUND`, and up to it as the same loops written out as
straight-line code, generated and compiled once per size.  The kernel
reads a quantale only through its :class:`Tables`, by field name, so it
serves finite quantales (carrier indices, precomputed tables) and the
exact Lawvere quantale (``ExtReal`` entries, lazy views over exact
functions) alike.  :class:`QRel` and the functions below wrap it; the
exhaustive model checker calls it directly.
"""

from __future__ import annotations

import functools
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

    Sizes up to :data:`UNROLL_BOUND` run the loops of
    :func:`_loop_operations` as straight-line code, every loop unrolled
    and every index a constant (:func:`_straight_line_source`); larger
    sizes run the loops.  Both forms fold joins from the first term and
    meets from top, so no bottom is needed; evaluate the cells of a test
    in the same order, so it stops, or raises, at the same cell; and
    return ``bool`` from tests and ``tuple`` from operations.  Entry
    sequences have length n²."""

    def __init__(self, ops, n: int):
        check_size(n)
        tables = ops.tables
        made = (_straight_line_maker(n)(tables) if n <= UNROLL_BOUND
                else _loop_operations(tables, n))
        for op in made:
            setattr(self, op.__name__, op)


def check_size(n: int) -> None:
    """Raise :class:`DomainMismatch`, naming ``n``, unless n ≥ 0."""
    if n < 0:
        raise DomainMismatch(f"relation size must be at least 0, got {n}")


def _loop_operations(tables: Tables, n: int) -> tuple:
    """The kernel's operations as loops over x, y and z."""
    leqt, ten, join = tables.leq, tables.tensor, tables.join
    meet, res, top = tables.meet, tables.residual, tables.top
    rng = range(n)
    rest = range(1, n)

    def leq(a, b):
        return all(leqt[x][y] for x, y in zip(a, b))

    def tensor(a, b):
        out = []
        for x in rng:
            row = a[x * n:(x + 1) * n]
            for z in rng:
                acc = ten[row[0]][b[z]]
                for y in rest:
                    acc = join[acc][ten[row[y]][b[y * n + z]]]
                out.append(acc)
        return tuple(out)

    def residual_left(u, s):
        out = []
        for z in rng:
            for y in rng:
                acc = top
                for x in rng:
                    acc = meet[acc][res[u[x * n + z]][s[x * n + y]]]
                out.append(acc)
        return tuple(out)

    def residual_right(s, w):
        out = []
        for x in rng:
            for z in rng:
                acc = top
                for y in rng:
                    acc = meet[acc][res[w[z * n + y]][s[x * n + y]]]
                out.append(acc)
        return tuple(out)

    def theta_left(e):
        return tuple(res[e[y * n + y]][e[x * n + y]] for x in rng for y in rng)

    def theta_right(e):
        return tuple(res[e[x * n + x]][e[x * n + y]] for x in rng for y in rng)

    def reflexive(e):
        return all(e[x * n + x] == top for x in rng)

    def quasi_reflexive_rows(e):
        return all(leqt[e[x * n + y]][e[x * n + x]] for x in rng for y in rng)

    def quasi_reflexive_cols(e):
        return all(leqt[e[x * n + y]][e[y * n + y]] for x in rng for y in rng)

    def transitive(e):
        for x in rng:
            for z in rng:
                acc = ten[e[x * n]][e[z]]
                for y in rest:
                    acc = join[acc][ten[e[x * n + y]][e[y * n + z]]]
                if not leqt[acc][e[x * n + z]]:
                    return False
        return True

    def quasi_metric(e):
        return reflexive(e) and transitive(e)

    def strongly_transitive_right(e):
        for x in rng:
            for z in rng:
                sxz = e[x * n + z]
                dz = e[z * n + z]
                for y in rng:
                    if not leqt[ten[sxz][res[dz][e[z * n + y]]]][e[x * n + y]]:
                        return False
        return True

    def strongly_transitive_left(e):
        for x in rng:
            for z in rng:
                lft = res[e[z * n + z]][e[x * n + z]]
                for y in rng:
                    if not leqt[ten[lft][e[z * n + y]]][e[x * n + y]]:
                        return False
        return True

    return (leq, tensor, residual_left, residual_right, theta_left,
            theta_right, reflexive, quasi_reflexive_rows,
            quasi_reflexive_cols, transitive, quasi_metric,
            strongly_transitive_right, strongly_transitive_left)


# The largest size run as straight-line code.  The generated source grows
# as n³ (20 KiB, compiled in about 3.5 ms, at n = 4); n = 4 covers every
# enumeration check_section3_props can run on two or more elements, since
# 2^(5²) exceeds its bound of 10^6.
UNROLL_BOUND = 4


@functools.cache
def _straight_line_maker(n: int):
    """Compile, once per size, ``make(tables)``: the operations of
    :func:`_loop_operations` with every loop unrolled and every index
    folded into a constant, bound to ``tables`` by field name."""
    source = _straight_line_source(n)
    namespace: dict = {}
    exec(compile(source, f"<relation kernel n={n}>", "exec"), {}, namespace)
    return namespace["make"]


def _straight_line_source(n: int) -> str:
    """The source of ``make(tables)`` at size n: each loop of
    :func:`_loop_operations` written out in its order, each entry argument
    unpacked once into locals ``e0``, ``e1``, ... at entry."""
    r = range(n)

    def fold(table, head, terms):
        for term in terms:
            head = f"{table}[{head}][{term}]"
        return head

    def compose(a, b, x, z):
        # (a ⊗ b)(x,z), the join of a(x,y) ⊗ b(y,z) from y = 0
        return fold("join", f"ten[{a}{x * n}][{b}{z}]",
                    [f"ten[{a}{x * n + y}][{b}{y * n + z}]" for y in r[1:]])

    def residual(u, s, cells):
        return [fold("meet", "top", [f"res[{u}{i}][{s}{j}]" for i, j in cell])
                for cell in cells]

    def value(cells):
        return ["return (" + "".join(f"{c}, " for c in cells) + ")"]

    def test(conditions):
        return [f"if not {c}: return False" for c in conditions]

    reflexive = test(f"e{x * n + x} == top" for x in r)
    transitive = test(f"leqt[{compose('e', 'e', x, z)}][e{x * n + z}]"
                      for x in r for z in r)
    strong_left = []
    for x in r:
        for z in r:
            strong_left.append(f"lft = res[e{z * n + z}][e{x * n + z}]")
            strong_left += test(f"leqt[ten[lft][e{z * n + y}]][e{x * n + y}]"
                                for y in r)
    values = {
        "tensor(a, b)": value(compose("a", "b", x, z) for x in r for z in r),
        "residual_left(u, s)": value(residual(
            "u", "s", ([(x * n + z, x * n + y) for x in r]
                       for z in r for y in r))),
        "residual_right(s, w)": value(residual(
            "w", "s", ([(z * n + y, x * n + y) for y in r]
                       for x in r for z in r))),
        "theta_left(e)": value(f"res[e{y * n + y}][e{x * n + y}]"
                               for x in r for y in r),
        "theta_right(e)": value(f"res[e{x * n + x}][e{x * n + y}]"
                                for x in r for y in r),
    }
    tests = {
        "leq(a, b)": test(f"leqt[a{i}][b{i}]" for i in range(n * n)),
        "reflexive(e)": reflexive,
        "quasi_reflexive_rows(e)": test(f"leqt[e{x * n + y}][e{x * n + x}]"
                                        for x in r for y in r),
        "quasi_reflexive_cols(e)": test(f"leqt[e{x * n + y}][e{y * n + y}]"
                                        for x in r for y in r),
        "transitive(e)": transitive,
        "quasi_metric(e)": reflexive + transitive,
        "strongly_transitive_right(e)": test(
            f"leqt[ten[e{x * n + z}][res[e{z * n + z}][e{z * n + y}]]]"
            f"[e{x * n + y}]" for x in r for z in r for y in r),
        "strongly_transitive_left(e)": strong_left,
    }
    bodies = {**values, **{head: body + ["return True"]
                           for head, body in tests.items()}}
    lines = ["def make(tables):",
             "    leqt, ten, join = tables.leq, tables.tensor, tables.join",
             "    meet, res, top = tables.meet, tables.residual, tables.top"]
    for head, body in bodies.items():
        lines.append(f"    def {head}:")
        if n:
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
