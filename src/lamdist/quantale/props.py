"""Exhaustive verification of the observational-metric propositions on
finite models.

Covers every relation over an n-point set with entries in a finite
quantale and checks, with zero tolerance:

* the left/right observational constructions q^l = s ⟜ s, q^r = s ⊸ s are
  quasi-metrics, and the four biconditionals tying them to transitivity,
  reflexivity and quasi-metricity of s, plus left/right transitivity;
* for quasi-reflexive s: s is transitive iff some quasi-metric q above s
  satisfies s ⊗ q ⊑ s or q ⊗ s ⊑ s (witness q := q^r or q^l forward;
  the least quasi-metric above s for falsification);
* q^c ⊑ Θ^c always, and the three-way equivalence between Θ^c ⊑ q^c,
  Θ^c being a quasi-metric, and strong transitivity.  The right-hand case
  uses row quasi-reflexivity (s ⊑ Δ₁s) as stated; the left-hand case is
  its mirror image and demands column quasi-reflexivity (s ⊑ Δ₂s) with the
  left-handed strong transitivity — the straight transcription with Δ₁ is
  falsified on finite models, so the checker pins the mirrored form.

The enumeration visits one relation per orbit and weights its counts by
the orbit size, so ``relations_checked`` is still |Q|^(n²) while
``orbits_checked`` counts the relations actually checked.
The group is that of the simultaneous permutations Sₙ of the n points,
under which every proposition is invariant once the folds over join and
meet are order-free.  They are when :func:`validate` reports no
``order.*`` law broken: join and meet of a partial order with all binary
bounds are associative.  No ``lattice.*`` law can be broken there:
``kernel(q, n)`` reads ``q.tables``, which raises
``QuantaleStructureError`` on a missing join or meet, the only case
``validate`` reports as ``lattice.*``.  When ``tensor.commutative``
holds as well, the group is Sₙ × {id, transpose}: every check on sᵀ
mirrors one on s with ``.l`` and ``.r`` swapped, since q^l(sᵀ) = q^r(s)ᵀ,
Θ^r(sᵀ) = Θ^l(s)ᵀ and aᵀ ⊗ bᵀ = (b ⊗ a)ᵀ, while transitivity, reflexivity
and quasi-metricity do not change.  Prop3 is the exception: its verdict on
sᵀ is its verdict on s, but it applies to sᵀ when s is *column*
quasi-reflexive.  So a representative whose transpose lies outside its
Sₙ-orbit runs prop3 when it is row or column quasi-reflexive, and weights
``prop3_pairs_checked`` by the orbit halves it stands for.

The representatives come straight from :func:`orbit_representatives`, not
from filtering every relation: each has a nondecreasing diagonal and the
least off-diagonal entries among its images under the diagonal's
stabiliser.  Which member stands for an orbit does not show in a report:
every count is a sum over orbits, and an orbit that fails hands over to
the relation-by-relation sweep.  With one element in Q there is a single
relation, and it is checked directly.

``prop3_pairs_checked`` counts the (s, q) pairs with s non-transitive and
row quasi-reflexive and q a quasi-metric, but prop3.backward tests one
candidate, not every pair: q*, the least quasi-metric above s (s with top
on the diagonal, closed under q ↦ q ∨ q ⊗ q).  When the order is a partial
order, join its least upper bound and the tensor monotone in each
argument, as in any quantale, some quasi-metric q above s has s ⊗ q ⊑ s
or q ⊗ s ⊑ s exactly when q* does.  The transposition gate gives the
order, and ``tensor.continuous`` with ``tensor.commutative`` gives the
monotone tensor: a ⊗ (b ∨ c) = (a ⊗ b) ∨ (a ⊗ c) makes a ⊗ - monotone,
and commutativity carries that to - ⊗ a.  Only when q* is such a witness,
or the table fails that gate, are the quasi-metrics scanned in
enumeration order, so a failure names the first witness; there is no
index of them by entry.  If any orbit fails, the checker sweeps every
relation in turn, so failures are listed in enumeration order.

The three gates come from one :func:`validate` call, which stops at a
broken order, so each gate needs the order laws first.  A table that
fails a gate gets the sweep or the scan instead, with the same report.

Also provides the closure bijection between relations-as-matrices and
downward/join-closed ternary relations, which the test suite checks
exhaustively; no other module uses it.

The relation operations themselves (tensor, residuals, Θ, reflexivity
and transitivity) come from :func:`lamdist.quantale.qrel.kernel`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .finite import FiniteQuantale, validate
from .qrel import QRel, check_size, kernel

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
    # the relations the checks actually ran on, one per orbit (or every
    # relation when the sweep ran); left out of summary() and the CLI
    orbits_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        return (f"{self.quantale} size {self.size}: {self.relations_checked} "
                f"relations, {self.prop3_pairs_checked} dominance pairs — {status}")


def check_section3_props(q: FiniteQuantale, size: int,
                         max_failures: int = 20) -> Section3Report:
    """Run the full proposition suite over all |Q|^(size^2) relations,
    one representative per orbit (see the module docstring).  Raises
    ``DomainMismatch`` for a negative size."""
    check_size(size)
    m = len(q)
    total = m ** (size * size)
    if total > ENUMERATION_BOUND:
        raise EnumerationTooLarge(f"|Q|^(n^2) = {total} exceeds the "
                                  f"enumeration bound {ENUMERATION_BOUND}")

    n = size
    k = kernel(q, n)
    broken = {v.law for v in validate(q)}
    ordered = not any(law.startswith("order.") for law in broken)
    transposes = ordered and "tensor.commutative" not in broken
    closure_decides = transposes and "tensor.continuous" not in broken
    tables = q.tables
    names = q.elements
    report = Section3Report(q.name, size)

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
    layout = _layout(n)
    tops = (tables.top,) * n
    quasi_metrics = []
    for off in itertools.product(range(m), repeat=n * n - n):
        e = layout(tops + off)
        if k.transitive(e):
            quasi_metrics.append(e)

    def dominating(e):
        """The first quasi-metric q above e with e ⊗ q ⊑ e or q ⊗ e ⊑ e."""
        if closure_decides:
            star = least_quasi_metric_above(QRel(q, n, e)).entries
            if not (k.leq(k.tensor(e, star), e)
                    or k.leq(k.tensor(star, e), e)):
                return None
        for cand in quasi_metrics:
            if k.leq(e, cand) and (k.leq(k.tensor(e, cand), e)
                                   or k.leq(k.tensor(cand, e), e)):
                return cand
        return None

    def check(e, weight, mirror_weight, fail):
        """Check e on behalf of ``weight`` relations and of ``mirror_weight``
        transposes of them."""
        report.orbits_checked += 1
        report.relations_checked += weight + mirror_weight
        trans = k.transitive(e)
        refl = k.reflexive(e)
        ql = k.residual_right(e, e)  # q^l = s ⟜ s
        qr = k.residual_left(e, e)  # q^r = s ⊸ s
        above_l = k.leq(e, ql)
        above_r = k.leq(e, qr)

        for tag, qc, above in (("l", ql, above_l), ("r", qr, above_r)):
            if not k.quasi_metric(qc):
                fail(f"prop2.quasi-metric.{tag}", e,
                     f"q^{tag} = {rel_names(qc)} is not a quasi-metric")
            if above != trans:
                fail(f"prop2.i.{tag}", e, "q^c above s iff s transitive")
            if k.leq(qc, e) != refl:
                fail(f"prop2.ii.{tag}", e, "q^c below s iff s reflexive")
            if (qc == e) != (refl and trans):
                fail(f"prop2.iii.{tag}", e, "q^c = s iff s quasi-metric")
        absorbs_l = k.leq(k.tensor(ql, e), e)
        if not absorbs_l:
            fail("prop2.iv.l", e, "q^l ⊗ s ⊑ s fails")
        absorbs_r = k.leq(k.tensor(e, qr), e)
        if not absorbs_r:
            fail("prop2.iv.r", e, "s ⊗ q^r ⊑ s fails")

        qrefl_rows = k.quasi_reflexive_rows(e)
        qrefl_cols = k.quasi_reflexive_cols(e)
        # sᵀ is row quasi-reflexive when s is column quasi-reflexive, and
        # its prop3 verdict is that of s
        if qrefl_rows or (mirror_weight and qrefl_cols):
            if trans:
                if not ((above_r and absorbs_r) or (above_l and absorbs_l)):
                    fail("prop3.forward", e,
                         "neither q^r nor q^l witnesses the dominating quasi-metric")
            else:
                report.prop3_pairs_checked += len(quasi_metrics) * (
                    (weight if qrefl_rows else 0)
                    + (mirror_weight if qrefl_cols else 0))
                cand = dominating(e)
                if cand is not None:
                    fail("prop3.backward", e,
                         f"non-transitive s dominated by quasi-metric "
                         f"{rel_names(cand)}")

        thr = k.theta_right(e)
        thl = k.theta_left(e)
        if not k.leq(qr, thr):
            fail("prop4.q-below-theta.r", e, "q^r ⊑ Θ^r fails")
        if not k.leq(ql, thl):
            fail("prop4.q-below-theta.l", e, "q^l ⊑ Θ^l fails")
        if qrefl_rows:
            a = k.leq(thr, qr)
            b = k.quasi_metric(thr)
            c = k.strongly_transitive_right(e)
            if not (a == b == c):
                fail("prop4.three-way.r", e,
                     f"Θ^r⊑q^r={a}, Θ^r qm={b}, strongly transitive={c}")
        if qrefl_cols:
            a = k.leq(thl, ql)
            b = k.quasi_metric(thl)
            c = k.strongly_transitive_left(e)
            if not (a == b == c):
                fail("prop4.three-way.l", e,
                     f"Θ^l⊑q^l={a}, Θ^l qm={b}, left strongly transitive={c}")

    # One relation per orbit stands for the whole orbit (see the module
    # docstring for the group, its gates and the representative kept).
    # With one element in Q there is one relation, whose diagonal's
    # stabiliser is all of Sₙ: it goes straight to the sweep.
    if ordered and m > 1:
        try:
            for e, weight, mirror_weight in orbit_representatives(
                    m, n, transposes):
                check(e, weight, mirror_weight, _raise_abort)
            return report
        except _Abort:
            report.relations_checked = report.prop3_pairs_checked = 0
            report.orbits_checked = 0

    # Some orbit failed (or the order is broken): sweep relation by
    # relation, so the failures come in enumeration order, every member of
    # a failing orbit is named, and the count stops where the failure list
    # is cut off.
    try:
        for e in itertools.product(range(m), repeat=n * n):
            check(e, 1, 0, record)
    except _Abort:
        pass
    return report


def _off_diagonal(n: int) -> dict[tuple[int, int], int]:
    """The slot of each off-diagonal cell (x, y), in row-major order."""
    rng = range(n)
    return {(x, y): i for i, (x, y) in enumerate(
        (x, y) for x in rng for y in rng if x != y)}


def _layout(n: int):
    """Maps diagonal + off-diagonal entries (each in row-major order) to
    the row-major entries of the relation."""
    # n < 2 has no off-diagonal entries, and itemgetter returns a tuple
    # only for two indices or more
    if n < 2:
        return tuple
    slot = _off_diagonal(n)
    return operator.itemgetter(*(x if x == y else n + slot[x, y]
                                 for x in range(n) for y in range(n)))


def orbit_representatives(m: int, n: int, transposes: bool):
    """Yield one relation per orbit of the n-point relations with entries
    in range(m), with its orbit size and mirror weight: ``(e, weight,
    mirror_weight)``.

    The group is Sₙ acting by simultaneous point permutation, times
    {id, transpose} when ``transposes``.  Each orbit meets the relations
    with a nondecreasing diagonal, and among those exactly the images
    under the diagonal's stabiliser (the permutations that only exchange
    points with equal diagonal entries), composed with transposition,
    which keeps the diagonal.  So the diagonals are taken nondecreasing
    and only the off-diagonal entries tested: the representative has the
    least off-diagonal tuple of those images.  ``weight`` is the Sₙ-orbit
    size, n! over the number of stabiliser permutations that fix e;
    ``mirror_weight`` is ``weight`` when the transposes form a second
    Sₙ-orbit, no transposed stabiliser element fixing e, and 0 otherwise."""
    slot = _off_diagonal(n)
    layout = _layout(n)
    group_order = math.factorial(n)
    for diagonal in itertools.combinations_with_replacement(range(m), n):
        # the stabiliser permutes each run of equal diagonal entries;
        # the identity comes first
        runs = [tuple(run) for _, run in itertools.groupby(
            range(n), diagonal.__getitem__)]
        stabiliser = [tuple(itertools.chain.from_iterable(p)) for p in
                      itertools.product(*map(itertools.permutations, runs))]
        permuted = [operator.itemgetter(*(slot[p[x], p[y]] for x, y in slot))
                    for p in stabiliser[1:]]
        transposed = []
        if transposes and n > 1:
            transposed = [operator.itemgetter(*(slot[p[y], p[x]]
                                                for x, y in slot))
                          for p in stabiliser]
        images = permuted + transposed
        for off in itertools.product(range(m), repeat=len(slot)):
            for image in images:
                if image(off) < off:
                    break
            else:
                weight = group_order // (1 + sum(image(off) == off
                                                 for image in permuted))
                mirrored = transposed and not any(image(off) == off
                                                  for image in transposed)
                yield layout(diagonal + off), weight, weight if mirrored else 0


class _Abort(Exception):
    pass


def _raise_abort(prop, e, detail):
    raise _Abort()


def least_quasi_metric_above(s: QRel) -> QRel:
    """q*: s with top on the diagonal, closed under q ↦ q ∨ q ⊗ q.

    A quasi-metric above s that lies below every other when the order is a
    partial order, join is its least upper bound and the tensor is monotone
    (true in any quantale): the reflexive-transitive closure of s."""
    k, tables = s.kernel, s.ops.tables
    join, top = tables.join, tables.top
    star = list(s.entries)
    star[::s.n + 1] = [top] * s.n
    star = tuple(star)
    while True:
        nxt = tuple(join[a][b] for a, b in zip(star, k.tensor(star, star)))
        if nxt == star:
            return QRel(s.ops, s.n, star)
        star = nxt


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
