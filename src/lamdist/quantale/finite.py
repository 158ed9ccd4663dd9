"""User-suppliable finite quantales, their law checker, and built-ins.

A finite quantale is given by explicit tables: a carrier of named
elements, an order relation, a binary tensor, and a unit.  Construction
validates *structure* only (shapes, membership); the algebraic laws are
checked separately by :func:`validate`, which returns a list of named
violations with witnesses instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .qrel import Tables


class QuantaleStructureError(ValueError):
    """Malformed tables: wrong arity, out-of-carrier entries, duplicates."""


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple[str, ...]
    detail: str

    def __str__(self):
        return f"{self.law} at ({', '.join(self.witness)}): {self.detail}"


class FiniteQuantale:
    """Tables over element indices; the public API speaks element names.

    ``leq``/``tensor``/``residual``/``join``/``meet`` operate on indices;
    :attr:`tables` holds the same operations as the lookup tables that the
    relation kernel reads.
    """

    def __init__(self, name: str, elements: Sequence[str],
                 leq_table: Sequence[Sequence[bool]],
                 tensor_table: Sequence[Sequence[int]],
                 unit: int):
        if not elements:
            raise QuantaleStructureError("empty carrier")
        if len(set(elements)) != len(elements):
            raise QuantaleStructureError("duplicate element names")
        n = len(elements)
        if len(leq_table) != n or any(len(row) != n for row in leq_table):
            raise QuantaleStructureError("leq table is not |Q| x |Q|")
        if len(tensor_table) != n or any(len(row) != n for row in tensor_table):
            raise QuantaleStructureError("tensor table is not |Q| x |Q|")
        for row in tensor_table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise QuantaleStructureError(
                        f"tensor entry {v!r} is not a carrier index")
        if not isinstance(unit, int) or not 0 <= unit < n:
            raise QuantaleStructureError(f"unit {unit!r} is not a carrier index")
        self.name = name
        self.elements = tuple(elements)
        self._leq = tuple(tuple(bool(v) for v in row) for row in leq_table)
        self._tensor = tuple(tuple(row) for row in tensor_table)
        self.unit = unit

    def __len__(self):
        return len(self.elements)

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise QuantaleStructureError(
                f"{element!r} is not in the carrier of {self.name}") from None

    def leq(self, a: int, b: int) -> bool:
        return self._leq[a][b]

    def tensor(self, a: int, b: int) -> int:
        return self._tensor[a][b]

    # Lattice structure, computed from the order table.  ``None`` marks a
    # missing bound; validate() turns those into violations.
    def _bound(self, a: int, b: int, upper: bool) -> int | None:
        n = len(self.elements)
        rel = self._leq
        if upper:
            cands = [c for c in range(n) if rel[a][c] and rel[b][c]]
            least = [c for c in cands if all(rel[c][d] for d in cands)]
        else:
            cands = [c for c in range(n) if rel[c][a] and rel[c][b]]
            least = [c for c in cands if all(rel[d][c] for d in cands)]
        return least[0] if len(least) == 1 else None

    @cached_property
    def _bounds(self) -> tuple[tuple[tuple[int | None, ...], ...], ...]:
        r = range(len(self.elements))
        return tuple(tuple(tuple(self._bound(a, b, upper) for b in r) for a in r)
                     for upper in (True, False))

    # Cached once found; a carrier without one raises on every access.
    @cached_property
    def bottom(self) -> int:
        for c in range(len(self.elements)):
            if all(self._leq[c][d] for d in range(len(self.elements))):
                return c
        raise QuantaleStructureError("no bottom element")

    @cached_property
    def top(self) -> int:
        for c in range(len(self.elements)):
            if all(self._leq[d][c] for d in range(len(self.elements))):
                return c
        raise QuantaleStructureError("no top element")

    @cached_property
    def tables(self) -> Tables:
        """leq, tensor, join, meet and residual as index tables, plus top:
        what the relation kernel reads.  Raises when a join or meet is
        missing."""
        r = range(len(self.elements))
        joins, meets = self._bounds
        for kind, table in (("join", joins), ("meet", meets)):
            for a in r:
                for b in r:
                    if table[a][b] is None:
                        raise QuantaleStructureError(
                            f"no {kind} of {self.elements[a]}, {self.elements[b]}")
        tensor, rel, bottom = self._tensor, self._leq, self.bottom
        # x -> y, the join of every z with z (x) x below y
        residuals = tuple(
            tuple(_fold(joins, bottom, (z for z in r if rel[tensor[z][x]][y]))
                  for y in r)
            for x in r)
        return Tables(rel, tensor, joins, meets, residuals, self.top)

    def join(self, values: Iterable[int]) -> int:
        return _fold(self.tables.join, self.bottom, values)

    def meet(self, values: Iterable[int]) -> int:
        return _fold(self.tables.meet, self.top, values)

    def residual(self, a: int, b: int) -> int:
        """a -> b, the join of every z with z (x) a below b."""
        return self.tables.residual[a][b]

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value
        return self.index(str(value))

    def __repr__(self):
        return f"FiniteQuantale({self.name!r}, |Q|={len(self.elements)})"


def _fold(table, acc: int, values: Iterable[int]) -> int:
    for v in values:
        acc = table[acc][v]
    return acc


def validate(q: FiniteQuantale) -> list[LawViolation]:
    """Check every quantale law exhaustively; empty list means valid.

    Laws: the order is a partial order with all binary meets/joins (and
    hence, finitely, a complete lattice); the tensor is associative,
    commutative, unital with unit = top; the tensor distributes over
    joins including the empty one (bottom is absorbing); divisibility
    holds: x below y iff y (x) (y -> x) = x.
    """
    out: list[LawViolation] = []
    n = len(q)
    names = q.elements
    rel = q._leq
    ten = q._tensor

    for a in range(n):
        if not rel[a][a]:
            out.append(LawViolation("order.reflexive", (names[a],), "a ⊑ a fails"))
    for a in range(n):
        for b in range(n):
            if a != b and rel[a][b] and rel[b][a]:
                out.append(LawViolation("order.antisymmetric", (names[a], names[b]),
                                        "a ⊑ b and b ⊑ a for distinct elements"))
            for c in range(n):
                if rel[a][b] and rel[b][c] and not rel[a][c]:
                    out.append(LawViolation("order.transitive",
                                            (names[a], names[b], names[c]),
                                            "a ⊑ b ⊑ c but not a ⊑ c"))
    if out:
        return out  # order is broken; lattice/tensor diagnostics would be noise

    joins, meets = q._bounds
    for a in range(n):
        for b in range(n):
            if joins[a][b] is None:
                out.append(LawViolation("lattice.join", (names[a], names[b]),
                                        "no least upper bound"))
            if meets[a][b] is None:
                out.append(LawViolation("lattice.meet", (names[a], names[b]),
                                        "no greatest lower bound"))
    if out:
        return out

    for a in range(n):
        for b in range(n):
            if ten[a][b] != ten[b][a]:
                out.append(LawViolation("tensor.commutative", (names[a], names[b]),
                                        f"{names[ten[a][b]]} vs {names[ten[b][a]]}"))
            for c in range(n):
                if ten[ten[a][b]][c] != ten[a][ten[b][c]]:
                    out.append(LawViolation(
                        "tensor.associative", (names[a], names[b], names[c]),
                        f"(a⊗b)⊗c = {names[ten[ten[a][b]][c]]} but "
                        f"a⊗(b⊗c) = {names[ten[a][ten[b][c]]]}"))

    top = q.top
    if q.unit != top:
        out.append(LawViolation("tensor.unit-is-top", (names[q.unit],),
                                f"unit differs from top {names[top]}"))
    for a in range(n):
        if ten[q.unit][a] != a:
            out.append(LawViolation("tensor.unital", (names[a],),
                                    f"1 ⊗ a = {names[ten[q.unit][a]]}"))

    bottom = q.bottom
    for a in range(n):
        if ten[a][bottom] != bottom:
            out.append(LawViolation("tensor.continuous", (names[a],),
                                    "a ⊗ ⊥ is not ⊥ (empty join)"))
        for b in range(n):
            for c in range(n):
                lhs = ten[a][joins[b][c]]
                rhs = joins[ten[a][b]][ten[a][c]]
                if lhs != rhs:
                    out.append(LawViolation(
                        "tensor.continuous", (names[a], names[b], names[c]),
                        f"a⊗(b∨c) = {names[lhs]} but (a⊗b)∨(a⊗c) = {names[rhs]}"))

    for x in range(n):
        for y in range(n):
            back = ten[y][q.residual(y, x)]
            if rel[x][y] != (back == x):
                out.append(LawViolation(
                    "divisible", (names[x], names[y]),
                    f"x ⊑ y is {rel[x][y]} but y⊗(y⊸x) = {names[back]}"))
    return out


def boolean() -> FiniteQuantale:
    """The two-element frame: carrier {bot, top}, tensor = meet."""
    return FiniteQuantale(
        "bool", ("bot", "top"),
        leq_table=[[True, True], [False, True]],
        tensor_table=[[0, 0], [0, 1]],
        unit=1)


def chain(k: int) -> FiniteQuantale:
    """Truncated chain {0, 1, ..., k, inf}, ordered by >=, capped addition.

    This is the finite shadow of [0, +inf]: 0 is the top/unit, inf the
    bottom, and a ⊗ b = a + b when that stays within the chain, else inf.
    """
    if k < 0:
        raise ValueError("chain length must be non-negative")
    names = tuple(str(i) for i in range(k + 1)) + ("inf",)
    n = k + 2  # index k+1 is inf
    numeric = list(range(k + 1)) + [k + 1]  # inf sorts last

    def cap(a: int, b: int) -> int:
        if a == k + 1 or b == k + 1:
            return k + 1
        return a + b if a + b <= k else k + 1

    leq_table = [[numeric[a] >= numeric[b] for b in range(n)] for a in range(n)]
    tensor_table = [[cap(a, b) for b in range(n)] for a in range(n)]
    return FiniteQuantale(f"chain{k}", names, leq_table, tensor_table, unit=0)


BUILTINS = {
    "bool": boolean,
    "chain1": lambda: chain(1),
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
}


def builtin(name: str) -> FiniteQuantale:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise QuantaleStructureError(
            f"unknown builtin quantale {name!r}; have {sorted(BUILTINS)}") from None


def parse_quantale(text: str) -> FiniteQuantale:
    """Load a quantale from its text format.

    One declaration per line::

        quantale NAME
        elements a b c ...
        order a <= b          # one pair per line; reflexivity and
                              # transitive closure are filled in
        unit a
        tensor a b = c        # one entry per line; the symmetric entry
                              # may be omitted and is mirrored

    Blank lines and ``#`` comments are ignored.
    """
    name = "user"
    elements: list[str] = []
    order_pairs: list[tuple[str, str]] = []
    tensor_entries: dict[tuple[str, str], str] = {}
    unit_name: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "quantale" and len(parts) == 2:
            name = parts[1]
        elif parts[0] == "elements":
            elements.extend(parts[1:])
            if len(set(elements)) != len(elements):
                raise QuantaleStructureError("duplicate element names")
        elif parts[0] == "order" and len(parts) == 4 and parts[2] == "<=":
            order_pairs.append((parts[1], parts[3]))
        elif parts[0] == "unit" and len(parts) == 2:
            unit_name = parts[1]
        elif parts[0] == "tensor" and len(parts) == 5 and parts[3] == "=":
            tensor_entries[(parts[1], parts[2])] = parts[4]
        else:
            raise QuantaleStructureError(f"line {lineno}: cannot parse {raw!r}")

    if not elements:
        raise QuantaleStructureError("no elements declared")
    if unit_name is None:
        raise QuantaleStructureError("no unit declared")
    idx = {e: i for i, e in enumerate(elements)}
    for (a, b) in order_pairs:
        for e in (a, b):
            if e not in idx:
                raise QuantaleStructureError(f"order uses unknown element {e!r}")
    n = len(elements)
    rel = [[a == b for b in range(n)] for a in range(n)]
    for (a, b) in order_pairs:
        rel[idx[a]][idx[b]] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if rel[a][b]:
                    for c in range(n):
                        if rel[b][c] and not rel[a][c]:
                            rel[a][c] = True
                            changed = True

    tensor_table = [[-1] * n for _ in range(n)]
    for (a, b), c in tensor_entries.items():
        for e in (a, b, c):
            if e not in idx:
                raise QuantaleStructureError(f"tensor uses unknown element {e!r}")
        tensor_table[idx[a]][idx[b]] = idx[c]
        if tensor_table[idx[b]][idx[a]] == -1:
            tensor_table[idx[b]][idx[a]] = idx[c]
    for a in range(n):
        for b in range(n):
            if tensor_table[a][b] == -1:
                raise QuantaleStructureError(
                    f"tensor entry {elements[a]} {elements[b]} is missing")
    if unit_name not in idx:
        raise QuantaleStructureError(f"unit {unit_name!r} is not an element")
    return FiniteQuantale(name, elements, rel, tensor_table, idx[unit_name])
