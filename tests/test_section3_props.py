import itertools
import json
from collections import defaultdict
from pathlib import Path

import pytest

from lamdist.quantale.finite import FiniteQuantale, boolean, chain
from lamdist.quantale.props import (EnumerationTooLarge, _closure_decides,
                                    check_section3_props, is_q_closed,
                                    least_quasi_metric_above, rel_from_ternary,
                                    ternary_from_rel)
from lamdist.quantale.qrel import (QRel, is_quasi_reflexive, is_reflexive,
                                   is_transitive, kernel, qrel_leq,
                                   qrel_tensor)

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


def test_dominating_witnesses_match_a_scan_of_every_relation():
    # bot ⊗ bot = mid, mid ⊗ mid = top, top ⊗ top = mid: on this table
    # non-transitive relations are dominated by quasi-metrics, with nine
    # different first witnesses
    q = FiniteQuantale("scrambled", ("bot", "mid", "top"),
                       [[a <= b for b in range(3)] for a in range(3)],
                       [[1, 0, 0], [0, 2, 0], [0, 0, 1]], unit=2)
    rels = [QRel(q, 2, e) for e in itertools.product(range(3), repeat=4)]
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
    assert len(want) == 27
    assert got == [(e, "non-transitive s dominated by quasi-metric "
                       f"{tuple(q.elements[v] for v in c)}") for e, c in want]


def frame3() -> FiniteQuantale:
    """The chain bot ⊑ mid ⊑ top with tensor = meet."""
    return FiniteQuantale("frame3", ("bot", "mid", "top"),
                          [[a <= b for b in range(3)] for a in range(3)],
                          [[min(a, b) for b in range(3)] for a in range(3)],
                          unit=2)


@pytest.mark.parametrize("q, relations", [
    (boolean(), 47), (chain(1), 1090), (frame3(), 1622)])
def test_least_quasi_metric_decides_prop3_like_a_full_scan(q, relations):
    assert _closure_decides(q.tables)
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


@pytest.mark.parametrize("q", [chain(1), frame3()])
def test_one_check_per_transpose_and_permutation_orbit(q):
    report = check_section3_props(q, 3)
    assert report.passed
    # 3,411 orbits under point permutations alone
    assert report.orbits_checked == 1950
    assert report.relations_checked == 19683
    assert "1950" not in report.summary()


def test_the_sweep_checks_every_relation():
    report = check_section3_props(unit_mid(), 2, max_failures=10 ** 6)
    assert report.orbits_checked == report.relations_checked == 81
    report = check_section3_props(unit_mid(), 3)
    assert report.orbits_checked == report.relations_checked == 13


def test_closure_gate_needs_a_monotone_tensor():
    assert _closure_decides(unit_mid().tables)
    # bot ⊗ bot = mid but mid ⊗ bot = bot: the scrambled table of the
    # witness test keeps its scan
    scrambled = FiniteQuantale("scrambled", ("bot", "mid", "top"),
                               [[a <= b for b in range(3)] for a in range(3)],
                               [[1, 0, 0], [0, 2, 0], [0, 0, 1]], unit=2)
    assert not _closure_decides(scrambled.tables)


def test_infeasible_size_rejected():
    with pytest.raises(EnumerationTooLarge):
        check_section3_props(chain(2), 4)


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
