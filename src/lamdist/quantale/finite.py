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

    ``leq``/``tensor``/``residual``/``join``/``meet`` operate on indices so
    exhaustive checkers can loop over ``range(len(q))`` cheaply.
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
        self._joins: tuple[tuple[int | None, ...], ...] | None = None
        self._meets: tuple[tuple[int | None, ...], ...] | None = None
        self._residuals: tuple[tuple[int, ...], ...] | None = None

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

    def _bound_tables(self):
        if self._joins is None:
            n = len(self.elements)
            self._joins = tuple(tuple(self._bound(a, b, True) for b in range(n))
                                for a in range(n))
            self._meets = tuple(tuple(self._bound(a, b, False) for b in range(n))
                                for a in range(n))
        return self._joins, self._meets

    def join2(self, a: int, b: int) -> int:
        j = self._bound_tables()[0][a][b]
        if j is None:
            raise QuantaleStructureError(
                f"no join of {self.elements[a]}, {self.elements[b]}")
        return j

    def meet2(self, a: int, b: int) -> int:
        m = self._bound_tables()[1][a][b]
        if m is None:
            raise QuantaleStructureError(
                f"no meet of {self.elements[a]}, {self.elements[b]}")
        return m

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

    def join(self, values: Iterable[int]) -> int:
        out = self.bottom
        for v in values:
            out = self.join2(out, v)
        return out

    def meet(self, values: Iterable[int]) -> int:
        out = self.top
        for v in values:
            out = self.meet2(out, v)
        return out

    def residual(self, a: int, b: int) -> int:
        """a -> b, the join of every z with z (x) a below b."""
        if self._residuals is None:
            n = len(self.elements)
            tensor, rel = self._tensor, self._leq
            self._residuals = tuple(
                tuple(self.join(z for z in range(n) if rel[tensor[z][x]][y])
                      for y in range(n))
                for x in range(n))
        return self._residuals[a][b]

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value
        return self.index(str(value))

    def __repr__(self):
        return f"FiniteQuantale({self.name!r}, |Q|={len(self.elements)})"


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

    joins, meets = q._bound_tables()
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
                lhs = ten[a][q.join2(b, c)]
                rhs = q.join2(ten[a][b], ten[a][c])
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
        try:
            if parts[0] == "quantale" and len(parts) == 2:
                name = parts[1]
            elif parts[0] == "elements":
                elements.extend(parts[1:])
            elif parts[0] == "order" and len(parts) == 4 and parts[2] == "<=":
                order_pairs.append((parts[1], parts[3]))
            elif parts[0] == "unit" and len(parts) == 2:
                unit_name = parts[1]
            elif parts[0] == "tensor" and len(parts) == 5 and parts[3] == "=":
                tensor_entries[(parts[1], parts[2])] = parts[4]
            else:
                raise QuantaleStructureError(f"line {lineno}: cannot parse {raw!r}")
        except IndexError:
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
