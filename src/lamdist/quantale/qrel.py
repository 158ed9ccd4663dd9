"""Quantity-valued relations: square matrices over a quantale.

Every relation operation is implemented once, in :class:`Kernel`, on flat
row-major entry tuples.  The kernel reads a quantale only through its
:class:`Tables`, so it serves finite quantales (carrier indices,
precomputed tables) and the exact Lawvere quantale (``ExtReal`` entries,
lazy views over exact functions) alike.  :class:`QRel` and the functions
below wrap it; the exhaustive model checker calls it directly.
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
    """The relation operations on n x n entry tuples, as closures over the
    tables of ``ops``; raises what ``ops.tables`` raises, e.g.
    ``QuantaleStructureError`` for an order with a missing join.

    Each operation is documented on the function below that wraps it for
    :class:`QRel`; the left-handed forms that have no wrapper carry their
    own docstrings.  Joins fold from the first term and meets from top, so no
    bottom is needed."""

    def __init__(self, ops, n: int):
        leqt, ten, join, meet, res, top = ops.tables
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
            """s ⊑ Δ₂s: every entry is below its column's self-distance."""
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
            """(s(z,z) ⊸ s(x,z)) ⊗ s(z,y) ⊑ s(x,y) for all x, y, z."""
            for x in rng:
                for z in rng:
                    lft = res[e[z * n + z]][e[x * n + z]]
                    for y in rng:
                        if not leqt[ten[lft][e[z * n + y]]][e[x * n + y]]:
                            return False
            return True

        for op in (leq, tensor, residual_left, residual_right, theta_left,
                   theta_right, reflexive, quasi_reflexive_rows,
                   quasi_reflexive_cols, transitive, quasi_metric,
                   strongly_transitive_right, strongly_transitive_left):
            setattr(self, op.__name__, op)


# One kernel per (quantale, size), kept for the 64 most recently used.
kernel = functools.lru_cache(maxsize=64)(Kernel)


class QRel:
    """An n x n matrix with entries in a quantale, row-major."""

    __slots__ = ("ops", "n", "entries")

    def __init__(self, ops, n: int, entries: Sequence):
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
