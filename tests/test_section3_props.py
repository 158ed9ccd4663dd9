import itertools
import json
import random
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest

from lamdist.quantale.finite import FiniteQuantale, boolean, chain, validate
from lamdist.quantale.props import (EnumerationTooLarge, check_section3_props,
                                    is_q_closed, least_quasi_metric_above,
                                    orbit_representatives, rel_from_ternary,
                                    ternary_from_rel)
from lamdist.quantale.qrel import (DomainMismatch, QRel, is_quasi_reflexive,
                                   is_reflexive, is_transitive, kernel,
                                   qrel_leq, qrel_tensor)

GOLDEN = Path(__file__).parent / "golden"


def test_boolean_size2_all_pass():
    report = check_section3_props(boolean(), 2)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 16


def test_chain1_size2_all_pass():
    report = check_section3_props(chain(1), 2)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 81


def test_chain1_size3_all_pass():
    report = check_section3_props(chain(1), 3)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 19683
    # 1090 non-transitive row-quasi-reflexive s times 281 quasi-metrics
    assert report.prop3_pairs_checked == 306290


def test_boolean_size3_dominance_pairs():
    report = check_section3_props(boolean(), 3)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 512
    assert report.prop3_pairs_checked == 47 * 29


def unit_mid() -> FiniteQuantale:
    """The chain bot ⊑ mid ⊑ top with unit mid: validate rejects it, and
    the propositions fail on many relations."""
    return FiniteQuantale("unitmid", ("bot", "mid", "top"),
                          [[a <= b for b in range(3)] for a in range(3)],
                          [[0, 0, 0], [0, 1, 2], [0, 2, 2]], unit=1)


@pytest.mark.parametrize("size", [2, 3])
def test_failing_model_matches_relation_by_relation_goldens(size):
    # recorded from the checker that visited every relation in turn
    golden = json.loads((GOLDEN / "section3_unit_mid.json").read_text("utf-8"))
    report = check_section3_props(unit_mid(), size)
    assert report.passed == golden[str(size)]["passed"]
    assert report.relations_checked == golden[str(size)]["relations_checked"]
    assert [str(f) for f in report.failures] == golden[str(size)]["failures"]


def test_failing_propositions_invariant_under_point_permutations():
    q = unit_mid()
    report = check_section3_props(q, 2, max_failures=10 ** 6)
    assert len(report.failures) == 246
    failing = defaultdict(set)
    for f in report.failures:
        failing[f.relation].add(f.prop)
    for entries in itertools.product(q.elements, repeat=4):
        for p in itertools.permutations(range(2)):
            image = tuple(entries[p[x] * 2 + p[y]]
                          for x in range(2) for y in range(2))
            assert failing[image] == failing[entries], (entries, p)


def broken_laws(q):
    return {v.law for v in validate(q)}


def first_witnesses(q):
    """Each non-transitive quasi-reflexive relation at n = 2 with the
    first quasi-metric that dominates it, by a plain scan; and the pairs
    the checker reports."""
    rels = [QRel(q, 2, e) for e in itertools.product(range(len(q)), repeat=4)]
    quasi_metrics = [c for c in rels if is_reflexive(c) and is_transitive(c)]
    want = []
    for s in rels:
        if is_quasi_reflexive(s) and not is_transitive(s):
            for c in quasi_metrics:
                if qrel_leq(s, c) and (qrel_leq(qrel_tensor(s, c), s)
                                       or qrel_leq(qrel_tensor(c, s), s)):
                    want.append((s.entries, c.entries))
                    break
    report = check_section3_props(q, 2, max_failures=10 ** 6)
    got = [(tuple(map(q.index, f.relation)), f.detail)
           for f in report.failures if f.prop == "prop3.backward"]
    return got, [(e, "non-transitive s dominated by quasi-metric "
                     f"{tuple(q.elements[v] for v in c)}") for e, c in want]


def test_dominating_witnesses_match_a_scan_of_every_relation():
    # bot ⊗ bot = mid, mid ⊗ mid = top, top ⊗ top = mid: on this table
    # non-transitive relations are dominated by quasi-metrics, with nine
    # different first witnesses
    q = FiniteQuantale("scrambled", ("bot", "mid", "top"),
                       [[a <= b for b in range(3)] for a in range(3)],
                       [[1, 0, 0], [0, 2, 0], [0, 0, 1]], unit=2)
    got, want = first_witnesses(q)
    assert len(want) == 27
    assert got == want


def test_a_tensor_monotone_on_one_side_keeps_its_scan():
    # a ⊗ - distributes over joins, so validate finds the tensor
    # continuous, but bot ⊗ top = top while mid ⊗ top = bot: without
    # commutativity the least quasi-metric decides nothing
    q = FiniteQuantale("leftcont", ("bot", "mid", "top"),
                       [[a <= b for b in range(3)] for a in range(3)],
                       [[0, 0, 2], [0, 0, 0], [0, 1, 2]], unit=2)
    laws = broken_laws(q)
    assert "tensor.commutative" in laws and "tensor.continuous" not in laws
    got, want = first_witnesses(q)
    assert want and got == want


def frame3() -> FiniteQuantale:
    """The chain bot ⊑ mid ⊑ top with tensor = meet."""
    return FiniteQuantale("frame3", ("bot", "mid", "top"),
                          [[a <= b for b in range(3)] for a in range(3)],
                          [[min(a, b) for b in range(3)] for a in range(3)],
                          unit=2)


@pytest.mark.parametrize("q, relations", [
    (boolean(), 47), (chain(1), 1090), (frame3(), 1622)])
def test_least_quasi_metric_decides_prop3_like_a_full_scan(q, relations):
    assert not validate(q)
    k = kernel(q, 3)
    top = q.tables.top
    every = list(itertools.product(range(len(q)), repeat=9))
    quasi_metrics = [c for c in every
                     if c[0] == c[4] == c[8] == top and k.transitive(c)]
    seen = 0
    for e in every:
        if k.transitive(e) or not k.quasi_reflexive_rows(e):
            continue
        seen += 1
        star = least_quasi_metric_above(QRel(q, 3, e)).entries
        assert k.quasi_metric(star) and k.leq(e, star)
        above = [c for c in quasi_metrics if k.leq(e, c)]
        assert all(k.leq(star, c) for c in above)
        scan = any(k.leq(k.tensor(e, c), e) or k.leq(k.tensor(c, e), e)
                   for c in above)
        assert scan == (k.leq(k.tensor(e, star), e)
                        or k.leq(k.tensor(star, e), e)), e
    assert seen == relations


def test_failing_propositions_of_the_transpose_are_mirrored():
    # unit_mid's tensor is commutative, so every check on the transpose is
    # the mirror image of one on s; prop3 applies under different
    # quasi-reflexivity conditions and is set aside
    q = unit_mid()
    report = check_section3_props(q, 2, max_failures=10 ** 6)
    failing = defaultdict(set)
    for f in report.failures:
        if not f.prop.startswith("prop3."):
            failing[f.relation].add(f.prop)
    mirror = {"l": "r", "r": "l"}
    for entries in itertools.product(q.elements, repeat=4):
        transpose = tuple(entries[y * 2 + x] for x in range(2) for y in range(2))
        assert failing[transpose] == {p[:-1] + mirror[p[-1]]
                                      for p in failing[entries]}, entries
    assert any(len(failing[e]) for e in failing)


@pytest.mark.parametrize("size", [2, 3])
def test_noncommutative_table_matches_its_golden(size):
    # recorded while the orbits were those of point permutations alone;
    # a ⊗ b = b for a above bot is not commutative, so transposes stay out
    golden = json.loads((GOLDEN / "section3_noncommutative.json")
                        .read_text("utf-8"))[str(size)]
    q = FiniteQuantale("rightproj", ("bot", "mid", "top"),
                       [[a <= b for b in range(3)] for a in range(3)],
                       [[0, 0, 0], [0, 1, 2], [0, 1, 2]], unit=2)
    report = check_section3_props(q, size,
                                  max_failures=10 ** 6 if size == 2 else 20)
    assert report.passed == golden["passed"]
    assert report.relations_checked == golden["relations_checked"]
    assert report.prop3_pairs_checked == golden["prop3_pairs_checked"]
    assert [str(f) for f in report.failures] == golden["failures"]


def test_boolean_size4_counts():
    report = check_section3_props(boolean(), 4)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 65536
    assert report.prop3_pairs_checked == 1925875
    # the orbit counts here and at chain2 size 3 were read from the
    # checker that filtered every relation against all of its images
    assert report.orbits_checked == 1740


def test_chain2_size3_counts():
    report = check_section3_props(chain(2), 3)
    assert report.passed, report.failures[:3]
    assert report.relations_checked == 262144
    assert report.prop3_pairs_checked == 15762710
    assert report.orbits_checked == 23480


@pytest.mark.parametrize("q", [chain(1), frame3()])
def test_one_check_per_transpose_and_permutation_orbit(q):
    report = check_section3_props(q, 3)
    assert report.passed
    # 3,411 orbits under point permutations alone
    assert report.orbits_checked == 1950
    assert report.relations_checked == 19683
    assert "1950" not in report.summary()


@pytest.mark.parametrize("transposes", [False, True])
@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3)
                                  for n in (0, 1, 2, 3)] + [(2, 4)])
def test_orbit_representatives_partition_the_relations(m, n, transposes):
    """Each orbit is yielded once, with its size under point permutations
    and the size of its mirror image when that is another such orbit;
    the orbits are built here by applying every permutation."""
    rng = range(n)
    perms = [[p[x] * n + p[y] for x in rng for y in rng]
             for p in itertools.permutations(rng)]
    transpose = [y * n + x for x in rng for y in rng]

    def orbit(e):
        return frozenset(tuple(e[i] for i in perm) for perm in perms)

    seen = set()
    for e, weight, mirror_weight in orbit_representatives(m, n, transposes):
        own = orbit(e)
        mirror = orbit(tuple(e[i] for i in transpose)) if transposes else own
        assert not (own | mirror) & seen, e
        seen |= own | mirror
        assert weight == len(own), e
        assert mirror_weight == (0 if mirror == own else len(mirror)), e
    assert len(seen) == m ** (n * n)


def test_a_one_element_quantale_checks_its_one_relation():
    # 1^(n^2) = 1 relation: nothing may be built per permutation of n points
    q = FiniteQuantale("one", ("x",), [[True]], [[0]], unit=0)
    tracemalloc.start()
    try:
        report = check_section3_props(q, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.relations_checked == report.orbits_checked == 1
    assert peak < 2 * 2 ** 20


def test_the_sweep_checks_every_relation():
    report = check_section3_props(unit_mid(), 2, max_failures=10 ** 6)
    assert report.orbits_checked == report.relations_checked == 81
    report = check_section3_props(unit_mid(), 3)
    assert report.orbits_checked == report.relations_checked == 13


def test_closure_gate_needs_a_monotone_tensor():
    # the closure decides prop3.backward when validate finds the tensor
    # commutative and continuous, as it does unit_mid's
    assert not broken_laws(unit_mid()) & {"tensor.commutative",
                                          "tensor.continuous"}
    # bot ⊗ bot = mid but mid ⊗ bot = bot: the scrambled table of the
    # witness test keeps its scan
    scrambled = FiniteQuantale("scrambled", ("bot", "mid", "top"),
                               [[a <= b for b in range(3)] for a in range(3)],
                               [[1, 0, 0], [0, 2, 0], [0, 0, 1]], unit=2)
    assert "tensor.continuous" in broken_laws(scrambled)


CHAIN3 = ("bot", "mid", "top"), [[a <= b for b in range(3)] for a in range(3)]
# bot below l and r, both below top; l and r incomparable
DIAMOND = (("bot", "l", "r", "top"),
           [[a == b or a == 0 or b == 3 for b in range(4)] for a in range(4)])


def random_table(carrier, seed: int) -> FiniteQuantale:
    """A seeded tensor on ``carrier`` with a random unit.  Odd seeds mirror
    the tensor; seeds 2 and 3 mod 4 make bottom absorbing and then take,
    at (a, b), the join of every entry at or below it, so the tensor is
    monotone."""
    elements, leq = carrier
    m = len(elements)
    rng = random.Random(seed)
    ten = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
    if seed % 2:
        ten = [[ten[min(a, b)][max(a, b)] for b in range(m)] for a in range(m)]
    if seed // 2 % 2:
        order = FiniteQuantale("order", elements, leq, ten, 0)
        ten = [[order.join(ten[c][d] for c in range(m) for d in range(m)
                           if leq[c][a] and leq[d][b] and 0 not in (c, d))
                for b in range(m)] for a in range(m)]
    return FiniteQuantale(f"random{seed}", elements, leq, ten,
                          unit=rng.randrange(m))


def section3_random() -> dict:
    """Reports on 24 random tables over the 3-chain (n = 2 and 3) and 16
    over the diamond (n = 2).  Regenerate the golden with ``python -c
    "import json, sys; sys.path[:0] = ['src', 'tests'];
    import test_section3_props as t;
    print(json.dumps(t.section3_random(), indent=1, ensure_ascii=False))"``
    run from the repository root."""
    out = {}
    for seed in range(40):
        carrier, sizes = (CHAIN3, (2, 3)) if seed < 24 else (DIAMOND, (2,))
        q = random_table(carrier, seed)
        entry = {"tensor": [" ".join(q.elements[q.tensor(a, b)]
                                     for b in range(len(q)))
                            for a in range(len(q))],
                 "unit": q.elements[q.unit]}
        for size in sizes:
            report = check_section3_props(q, size)
            entry[str(size)] = {
                "passed": report.passed,
                "relations_checked": report.relations_checked,
                "prop3_pairs_checked": report.prop3_pairs_checked,
                "failures": [str(f) for f in report.failures]}
        out[q.name] = entry
    return out


def test_random_tables_match_their_golden():
    # recorded while the shortcut gates were the checker's own predicates
    golden = json.loads((GOLDEN / "section3_random.json").read_text("utf-8"))
    live = section3_random()
    assert live.keys() == golden.keys()
    for name in golden:
        assert live[name] == golden[name], name


def test_infeasible_size_rejected():
    with pytest.raises(EnumerationTooLarge):
        check_section3_props(chain(2), 4)


@pytest.mark.parametrize("size", [-1, -2])
def test_negative_size_rejected(size):
    with pytest.raises(DomainMismatch, match=str(size)):
        check_section3_props(boolean(), size)


@pytest.mark.parametrize("q", [boolean(), chain(1)])
@pytest.mark.parametrize("size", [0, 1])
def test_sizes_zero_and_one(q, size):
    # the empty relation, or one relation per element
    report = check_section3_props(q, size)
    assert report.passed
    assert report.relations_checked == report.orbits_checked == len(q) ** size
    assert report.prop3_pairs_checked == 0


def test_closure_bijection_round_trip_exhaustive():
    q = chain(1)
    for entries in itertools.product(range(len(q)), repeat=4):
        s = QRel(q, 2, entries)
        t = ternary_from_rel(s)
        assert is_q_closed(q, 2, t)
        assert rel_from_ternary(q, 2, t) == s


def test_not_closed_detected():
    q = chain(1)
    # missing a downward-closed triple: (0, inf, 0) absent
    triples = frozenset({(0, q.index("0"), 0)})
    assert not is_q_closed(q, 1, triples)
