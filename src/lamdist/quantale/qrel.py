"""Quantity-valued relations: square matrices over a quantale.

Works uniformly over :class:`~lamdist.quantale.finite.FiniteQuantale`
(entries are carrier indices) and the exact Lawvere quantale (entries are
``ExtReal``); the quantale object supplies ``leq``, ``tensor``,
``residual``, ``join`` and ``meet`` on elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class DomainMismatch(ValueError):
    pass


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
        coerce = getattr(ops, "coerce", lambda v: v)
        return cls(ops, n, [coerce(v) for row in rows for v in row])

    @classmethod
    def identity(cls, ops, n: int) -> "QRel":
        unit, bottom = ops.unit, ops.bottom
        return cls(ops, n, [unit if i == j else bottom
                            for i in range(n) for j in range(n)])

    @classmethod
    def constant(cls, ops, n: int, value) -> "QRel":
        coerce = getattr(ops, "coerce", lambda v: v)
        v = coerce(value)
        return cls(ops, n, [v] * (n * n))

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
    leq = s.ops.leq
    return all(leq(a, b) for a, b in zip(s.entries, t.entries))


def qrel_tensor(s: QRel, t: QRel) -> QRel:
    """Relation composition: (s ⊗ t)(x,z) = join over y of s(x,y) ⊗ t(y,z)."""
    s._check_same(t)
    ops, n = s.ops, s.n
    se, te = s.entries, t.entries
    out = [ops.join(ops.tensor(se[x * n + y], te[y * n + z]) for y in range(n))
           for x in range(n) for z in range(n)]
    return QRel(ops, n, out)


def qrel_residual_left(u: QRel, s: QRel) -> QRel:
    """(u ⊸ s)(z,y) = meet over x of u(x,z) ⊸ s(x,y)."""
    u._check_same(s)
    ops, n = u.ops, u.n
    ue, se = u.entries, s.entries
    out = [ops.meet(ops.residual(ue[x * n + z], se[x * n + y]) for x in range(n))
           for z in range(n) for y in range(n)]
    return QRel(ops, n, out)


def qrel_residual_right(s: QRel, w: QRel) -> QRel:
    """(s ⟜ w)(x,z) = meet over y of w(z,y) ⊸ s(x,y)."""
    s._check_same(w)
    ops, n = s.ops, s.n
    se, we = s.entries, w.entries
    out = [ops.meet(ops.residual(we[z * n + y], se[x * n + y]) for y in range(n))
           for x in range(n) for z in range(n)]
    return QRel(ops, n, out)


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
    ops, n, e = s.ops, s.n, s.entries
    return QRel(ops, n, [ops.residual(e[y * n + y], e[x * n + y])
                         for x in range(n) for y in range(n)])


def theta_right(s: QRel) -> QRel:
    """Θ^r_s(x,y) = s(x,x) ⊸ s(x,y)."""
    ops, n, e = s.ops, s.n, s.entries
    return QRel(ops, n, [ops.residual(e[x * n + x], e[x * n + y])
                         for x in range(n) for y in range(n)])


def is_reflexive(s: QRel) -> bool:
    """s above the identity relation, i.e. every diagonal entry is top."""
    top, n, e = s.ops.top, s.n, s.entries
    return all(e[x * n + x] == top for x in range(n))


def is_quasi_reflexive(s: QRel) -> bool:
    """s ⊑ Δ₁s: every entry is below its row's self-distance."""
    leq, n, e = s.ops.leq, s.n, s.entries
    return all(leq(e[x * n + y], e[x * n + x])
               for x in range(n) for y in range(n))


def is_transitive(s: QRel) -> bool:
    return qrel_leq(qrel_tensor(s, s), s)


def is_strongly_transitive(s: QRel) -> bool:
    """s(x,z) ⊗ (s(z,z) ⊸ s(z,y)) ⊑ s(x,y) for all x, y, z."""
    ops, n, e = s.ops, s.n, s.entries
    leq, tensor, residual = ops.leq, ops.tensor, ops.residual
    for x in range(n):
        for z in range(n):
            sxz = e[x * n + z]
            step = e[z * n + z]
            for y in range(n):
                if not leq(tensor(sxz, residual(step, e[z * n + y])), e[x * n + y]):
                    return False
    return True


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
