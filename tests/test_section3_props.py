import itertools
import json
from collections import defaultdict
from pathlib import Path

import pytest

from lamdist.quantale.finite import FiniteQuantale, boolean, chain
from lamdist.quantale.props import (EnumerationTooLarge, check_section3_props,
                                    is_q_closed, rel_from_ternary,
                                    ternary_from_rel)
from lamdist.quantale.qrel import (QRel, is_quasi_reflexive, is_reflexive,
                                   is_transitive, qrel_leq, qrel_tensor)


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
    golden = json.loads((Path(__file__).parent / "golden"
                         / "section3_unit_mid.json").read_text("utf-8"))
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
