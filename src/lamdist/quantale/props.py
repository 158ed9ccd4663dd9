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
downward/join-closed ternary relations, used by the relation-family
checkers and tested exhaustively here.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .finite import FiniteQuantale
from .qrel import QRel

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
    leqt = q._leq
    ten = q._tensor
    res = tuple(tuple(q.residual(a, b) for b in range(m)) for a in range(m))
    meet2 = tuple(tuple(q.meet2(a, b) for b in range(m)) for a in range(m))
    top = q.top
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

    def leq_rel(a, b):
        return all(leqt[x][y] for x, y in zip(a, b))

    def tensor_rel(a, b):
        out = []
        for x in rng:
            row = a[x * n:(x + 1) * n]
            for z in rng:
                acc = ten[row[0]][b[z]]
                for y in range(1, n):
                    v = ten[row[y]][b[y * n + z]]
                    # join = least upper bound; fold via meet2's dual
                    acc = _join2[acc][v]
                out.append(acc)
        return tuple(out)

    _join2 = tuple(tuple(q.join2(a, b) for b in range(m)) for a in range(m))

    def obs_left(e):
        # (s ⟜ s)(x,z) = meet over y of s(z,y) ⊸ s(x,y)
        out = []
        for x in rng:
            for z in rng:
                acc = top
                for y in rng:
                    acc = meet2[acc][res[e[z * n + y]][e[x * n + y]]]
                out.append(acc)
        return tuple(out)

    def obs_right(e):
        # (s ⊸ s)(z,y) = meet over x of s(x,z) ⊸ s(x,y)
        out = []
        for z in rng:
            for y in rng:
                acc = top
                for x in rng:
                    acc = meet2[acc][res[e[x * n + z]][e[x * n + y]]]
                out.append(acc)
        return tuple(out)

    def reflexive(e):
        return all(e[x * n + x] == top for x in rng)

    def transitive(e):
        for x in rng:
            for z in rng:
                exz = None
                for y in rng:
                    v = ten[e[x * n + y]][e[y * n + z]]
                    exz = v if exz is None else _join2[exz][v]
                if not leqt[exz][e[x * n + z]]:
                    return False
        return True

    def quasi_reflexive_rows(e):
        return all(leqt[e[x * n + y]][e[x * n + x]] for x in rng for y in rng)

    def quasi_reflexive_cols(e):
        return all(leqt[e[x * n + y]][e[y * n + y]] for x in rng for y in rng)

    def strong_trans_right(e):
        for x in rng:
            for z in rng:
                sxz = e[x * n + z]
                dz = e[z * n + z]
                for y in rng:
                    if not leqt[ten[sxz][res[dz][e[z * n + y]]]][e[x * n + y]]:
                        return False
        return True

    def strong_trans_left(e):
        for x in rng:
            for z in rng:
                dz = e[z * n + z]
                lft = res[dz][e[x * n + z]]
                for y in rng:
                    if not leqt[ten[lft][e[z * n + y]]][e[x * n + y]]:
                        return False
        return True

    def theta_right(e):
        return tuple(res[e[x * n + x]][e[x * n + y]] for x in rng for y in rng)

    def theta_left(e):
        return tuple(res[e[y * n + y]][e[x * n + y]] for x in rng for y in rng)

    def is_quasi_metric(e):
        return reflexive(e) and transitive(e)

    # Quasi-metrics have top on the diagonal: enumerate only the
    # off-diagonal entries, in the lexicographic order of the full tuples.
    quasi_metrics = []
    for off in itertools.product(range(m), repeat=n * n - n):
        e = list(off)
        for p in range(0, n * n, n + 1):
            e.insert(p, top)
        if transitive(e):
            quasi_metrics.append(tuple(e))
    # qm_above[p][v]: bitmask of the quasi-metrics whose entry p is above v;
    # ANDing the masks of s's entries leaves exactly the candidates above s.
    qm_above = [[sum(1 << i for i, c in enumerate(quasi_metrics)
                     if leqt[v][c[p]]) for v in range(m)]
                for p in range(n * n)]
    every_qm = (1 << len(quasi_metrics)) - 1

    def check(e, weight, fail):
        report.relations_checked += weight
        trans = transitive(e)
        refl = reflexive(e)
        ql = obs_left(e)
        qr = obs_right(e)

        for tag, qc in (("l", ql), ("r", qr)):
            if not is_quasi_metric(qc):
                fail(f"prop2.quasi-metric.{tag}", e,
                     f"q^{tag} = {rel_names(qc)} is not a quasi-metric")
            if leq_rel(e, qc) != trans:
                fail(f"prop2.i.{tag}", e, "q^c above s iff s transitive")
            if leq_rel(qc, e) != refl:
                fail(f"prop2.ii.{tag}", e, "q^c below s iff s reflexive")
            if (qc == e) != (refl and trans):
                fail(f"prop2.iii.{tag}", e, "q^c = s iff s quasi-metric")
        if not leq_rel(tensor_rel(ql, e), e):
            fail("prop2.iv.l", e, "q^l ⊗ s ⊑ s fails")
        if not leq_rel(tensor_rel(e, qr), e):
            fail("prop2.iv.r", e, "s ⊗ q^r ⊑ s fails")

        qrefl1 = quasi_reflexive_rows(e)
        if qrefl1:
            if trans:
                ok_r = (leq_rel(e, qr) and leq_rel(tensor_rel(e, qr), e))
                ok_l = (leq_rel(e, ql) and leq_rel(tensor_rel(ql, e), e))
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
                    if (leq_rel(tensor_rel(e, cand), e)
                            or leq_rel(tensor_rel(cand, e), e)):
                        fail("prop3.backward", e,
                             f"non-transitive s dominated by quasi-metric "
                             f"{rel_names(cand)}")
                        break

        thr = theta_right(e)
        thl = theta_left(e)
        if not leq_rel(qr, thr):
            fail("prop4.q-below-theta.r", e, "q^r ⊑ Θ^r fails")
        if not leq_rel(ql, thl):
            fail("prop4.q-below-theta.l", e, "q^l ⊑ Θ^l fails")
        if qrefl1:
            a = leq_rel(thr, qr)
            b = is_quasi_metric(thr)
            c = strong_trans_right(e)
            if not (a == b == c):
                fail("prop4.three-way.r", e,
                     f"Θ^r⊑q^r={a}, Θ^r qm={b}, strongly transitive={c}")
        if quasi_reflexive_cols(e):
            a = leq_rel(thl, ql)
            b = is_quasi_metric(thl)
            c = strong_trans_left(e)
            if not (a == b == c):
                fail("prop4.three-way.l", e,
                     f"Θ^l⊑q^l={a}, Θ^l qm={b}, left strongly transitive={c}")

    # Every check is invariant under a simultaneous permutation of the
    # points when the folds over join and meet are order-free, as they are
    # on any lattice; then one relation per orbit, its lexicographic
    # minimum, stands for the whole orbit.
    if _associative(_join2) and _associative(meet2):
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
