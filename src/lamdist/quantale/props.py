"""Exhaustive verification of the observational-metric propositions on
finite models.

Covers every relation over an n-point set with entries in a finite
quantale and checks, with zero tolerance:

* the left/right observational constructions q^l = s ⟜ s, q^r = s ⊸ s are
  quasi-metrics, and the four biconditionals tying them to transitivity,
  reflexivity and quasi-metricity of s, plus left/right transitivity;
* for quasi-reflexive s: s is transitive iff some quasi-metric q above s
  satisfies s ⊗ q ⊑ s or q ⊗ s ⊑ s (witness q := q^r or q^l forward;
  full enumeration of candidates for falsification);
* q^c ⊑ Θ^c always, and the three-way equivalence between Θ^c ⊑ q^c,
  Θ^c being a quasi-metric, and strong transitivity.  The right-hand case
  uses row quasi-reflexivity (s ⊑ Δ₁s) as stated; the left-hand case is
  its mirror image and demands column quasi-reflexivity (s ⊑ Δ₂s) with the
  left-handed strong transitivity — the straight transcription with Δ₁ is
  falsified on finite models, so the checker pins the mirrored form.

The enumeration visits one relation per orbit of the simultaneous
permutations of the n points (every proposition is invariant under them)
and weights its counts by the orbit size, so ``relations_checked`` is
still |Q|^(n²).  ``prop3_pairs_checked`` counts the (s, q) pairs with s
non-transitive and row quasi-reflexive and q a quasi-metric; the search
itself only runs the tensor tests on the quasi-metrics above s, found by
intersecting per-entry bitmasks.  If any orbit fails, the checker sweeps
every relation in turn, so failures are listed in enumeration order.

Also provides the closure bijection between relations-as-matrices and
downward/join-closed ternary relations, which the test suite checks
exhaustively; no other module uses it.

The relation operations themselves (tensor, residuals, Θ, reflexivity
and transitivity) come from :func:`lamdist.quantale.qrel.kernel`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .finite import FiniteQuantale
from .qrel import QRel, kernel

ENUMERATION_BOUND = 10 ** 6


class EnumerationTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class PropFailure:
    prop: str
    relation: tuple[str, ...]
    detail: str

    def __str__(self):
        return f"{self.prop}: s = [{', '.join(self.relation)}] — {self.detail}"


@dataclass
class Section3Report:
    quantale: str
    size: int
    relations_checked: int = 0
    prop3_pairs_checked: int = 0
    failures: list[PropFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        return (f"{self.quantale} size {self.size}: {self.relations_checked} "
                f"relations, {self.prop3_pairs_checked} dominance pairs — {status}")


def check_section3_props(q: FiniteQuantale, size: int,
                         bound: int = ENUMERATION_BOUND,
                         max_failures: int = 20) -> Section3Report:
    """Run the full proposition suite over all |Q|^(size^2) relations,
    one representative per point-permutation orbit (see the module
    docstring)."""
    m = len(q)
    total = m ** (size * size)
    if total > bound:
        raise EnumerationTooLarge(
            f"|Q|^(n^2) = {total} exceeds the enumeration bound {bound}")

    n = size
    k = kernel(q, n)
    tables = q.tables
    names = q.elements
    report = Section3Report(q.name, size)
    rng = range(n)

    def rel_names(e):
        return tuple(names[v] for v in e)

    def record(prop, e, detail):
        if len(report.failures) < max_failures:
            report.failures.append(PropFailure(prop, rel_names(e), detail))
        else:
            report.failures.append(PropFailure(prop, (), "... further failures elided"))
            raise _Abort()

    # Quasi-metrics have top on the diagonal: enumerate only the
    # off-diagonal entries, in the lexicographic order of the full tuples.
    quasi_metrics = []
    for off in itertools.product(range(m), repeat=n * n - n):
        e = list(off)
        for p in range(0, n * n, n + 1):
            e.insert(p, tables.top)
        if k.transitive(e):
            quasi_metrics.append(tuple(e))
    # qm_above[p][v]: bitmask of the quasi-metrics whose entry p is above v;
    # ANDing the masks of s's entries leaves exactly the candidates above s.
    qm_above = [[sum(1 << i for i, c in enumerate(quasi_metrics)
                     if tables.leq[v][c[p]]) for v in range(m)]
                for p in range(n * n)]
    every_qm = (1 << len(quasi_metrics)) - 1

    def check(e, weight, fail):
        report.relations_checked += weight
        trans = k.transitive(e)
        refl = k.reflexive(e)
        ql = k.residual_right(e, e)  # q^l = s ⟜ s
        qr = k.residual_left(e, e)  # q^r = s ⊸ s

        for tag, qc in (("l", ql), ("r", qr)):
            if not k.quasi_metric(qc):
                fail(f"prop2.quasi-metric.{tag}", e,
                     f"q^{tag} = {rel_names(qc)} is not a quasi-metric")
            if k.leq(e, qc) != trans:
                fail(f"prop2.i.{tag}", e, "q^c above s iff s transitive")
            if k.leq(qc, e) != refl:
                fail(f"prop2.ii.{tag}", e, "q^c below s iff s reflexive")
            if (qc == e) != (refl and trans):
                fail(f"prop2.iii.{tag}", e, "q^c = s iff s quasi-metric")
        if not k.leq(k.tensor(ql, e), e):
            fail("prop2.iv.l", e, "q^l ⊗ s ⊑ s fails")
        if not k.leq(k.tensor(e, qr), e):
            fail("prop2.iv.r", e, "s ⊗ q^r ⊑ s fails")

        qrefl1 = k.quasi_reflexive_rows(e)
        if qrefl1:
            if trans:
                ok_r = (k.leq(e, qr) and k.leq(k.tensor(e, qr), e))
                ok_l = (k.leq(e, ql) and k.leq(k.tensor(ql, e), e))
                if not (ok_r or ok_l):
                    fail("prop3.forward", e,
                         "neither q^r nor q^l witnesses the dominating quasi-metric")
            else:
                report.prop3_pairs_checked += weight * len(quasi_metrics)
                above = every_qm
                for p, v in enumerate(e):
                    above &= qm_above[p][v]
                while above:
                    low = above & -above
                    above ^= low
                    cand = quasi_metrics[low.bit_length() - 1]
                    if (k.leq(k.tensor(e, cand), e)
                            or k.leq(k.tensor(cand, e), e)):
                        fail("prop3.backward", e,
                             f"non-transitive s dominated by quasi-metric "
                             f"{rel_names(cand)}")
                        break

        thr = k.theta_right(e)
        thl = k.theta_left(e)
        if not k.leq(qr, thr):
            fail("prop4.q-below-theta.r", e, "q^r ⊑ Θ^r fails")
        if not k.leq(ql, thl):
            fail("prop4.q-below-theta.l", e, "q^l ⊑ Θ^l fails")
        if qrefl1:
            a = k.leq(thr, qr)
            b = k.quasi_metric(thr)
            c = k.strongly_transitive_right(e)
            if not (a == b == c):
                fail("prop4.three-way.r", e,
                     f"Θ^r⊑q^r={a}, Θ^r qm={b}, strongly transitive={c}")
        if k.quasi_reflexive_cols(e):
            a = k.leq(thl, ql)
            b = k.quasi_metric(thl)
            c = k.strongly_transitive_left(e)
            if not (a == b == c):
                fail("prop4.three-way.l", e,
                     f"Θ^l⊑q^l={a}, Θ^l qm={b}, left strongly transitive={c}")

    # Every check is invariant under a simultaneous permutation of the
    # points when the folds over join and meet are order-free, as they are
    # on any lattice; then one relation per orbit, its lexicographic
    # minimum, stands for the whole orbit.
    if _associative(tables.join) and _associative(tables.meet):
        permuted = [operator.itemgetter(*(p[x] * n + p[y]
                                          for x in rng for y in rng))
                    for p in itertools.permutations(rng)][1:]
        try:
            for e in itertools.product(range(m), repeat=n * n):
                for image in permuted:
                    if image(e) < e:
                        break
                else:
                    check(e, len({e, *(image(e) for image in permuted)}),
                          _raise_abort)
            return report
        except _Abort:
            report.relations_checked = report.prop3_pairs_checked = 0

    # Some orbit failed (or a fold is order-dependent): sweep relation by
    # relation, so the failures come in enumeration order, every member of
    # a failing orbit is named, and the count stops where the failure list
    # is cut off.
    try:
        for e in itertools.product(range(m), repeat=n * n):
            check(e, 1, record)
    except _Abort:
        pass
    return report


class _Abort(Exception):
    pass


def _raise_abort(prop, e, detail):
    raise _Abort()


def _associative(table) -> bool:
    r = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in r for b in r for c in r)


# --- closure bijection between matrices and ternary relations ------------

def ternary_from_rel(s: QRel) -> frozenset:
    """The induced ternary relation {(x, a, y) | a below s(x,y)}.

    Only meaningful for finite quantales, where the set is finite.
    """
    ops, n = s.ops, s.n
    m = len(ops)
    return frozenset((x, a, y)
                     for x in range(n) for y in range(n)
                     for a in range(m) if ops.leq(a, s(x, y)))


def is_q_closed(ops, n: int, triples: frozenset) -> bool:
    """Downward closure in the quantity and closure under all joins."""
    m = len(ops)
    for (x, a, y) in triples:
        for a2 in range(m):
            if ops.leq(a2, a) and (x, a2, y) not in triples:
                return False
    for x in range(n):
        for y in range(n):
            quantities = [a for (x2, a, y2) in triples if x2 == x and y2 == y]
            if quantities and (x, ops.join(quantities), y) not in triples:
                return False
    return True


def rel_from_ternary(ops, n: int, triples: frozenset) -> QRel:
    """Recover the matrix: entry (x,y) is the join of related quantities."""
    entries = [ops.join(a for (x2, a, y2) in triples if x2 == x and y2 == y)
               for x in range(n) for y in range(n)]
    return QRel(ops, n, entries)
