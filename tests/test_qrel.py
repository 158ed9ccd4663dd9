import itertools
import random

import pytest

from lamdist.quantale import qrel as qr
from lamdist.quantale.finite import (FiniteQuantale, QuantaleStructureError,
                                     boolean, chain)
from lamdist.quantale.props import check_section3_props
from lamdist.quantale.lawvere import LAWVERE, ExtReal, INFINITY, ZERO
from lamdist.quantale.qrel import QRel


def lawvere_rel(rows):
    return QRel.from_rows(LAWVERE, rows)


S = lawvere_rel([[0, 1], [2, 0]])


def test_identity_is_unit_for_tensor():
    one = QRel.identity(LAWVERE, 2)
    assert qr.qrel_tensor(one, S) == S
    assert qr.qrel_tensor(S, one) == S


def test_min_plus_square():
    # min-plus matrix square of [[0,1],[2,0]] is itself
    assert qr.qrel_tensor(S, S) == S


def test_bottom_absorbs():
    bot = QRel.constant(LAWVERE, 2, INFINITY)
    assert qr.qrel_tensor(S, bot) == bot
    assert qr.qrel_tensor(bot, S) == bot


def test_residual_one_point():
    u = lawvere_rel([[0]])
    assert qr.qrel_residual_left(u, u) == u


def test_obs_left_by_entrywise_brute_force():
    # (s ⟜ s)(x,z) = max over y of (s(z,y) ⊸ s(x,y)) in numeric terms
    got = qr.obs_quasi_left(S)
    for x in range(2):
        for z in range(2):
            expect = max(
                (max(float(S(x, y)) - float(S(z, y)), 0.0) for y in range(2)),
                default=0.0)
            assert float(got(x, z)) == expect


def _random_lawvere(rng, n, values=(0, 1, 2, 3, "inf")):
    return lawvere_rel([[ExtReal(rng.choice(values)) for _ in range(n)]
                        for _ in range(n)])


def test_residual_adjunction_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        u = _random_lawvere(rng, 3)
        s = _random_lawvere(rng, 3)
        # u ⊗ (u ⊸ s) ⊑ s  and  (s ⟜ w) ⊗ w ⊑ s
        assert qr.qrel_leq(qr.qrel_tensor(u, qr.qrel_residual_left(u, s)), s)
        assert qr.qrel_leq(qr.qrel_tensor(qr.qrel_residual_right(s, u), u), s)


def test_tensor_associative_on_random_matrices():
    rng = random.Random(8)
    for _ in range(30):
        a, b, c = (_random_lawvere(rng, 3) for _ in range(3))
        assert (qr.qrel_tensor(qr.qrel_tensor(a, b), c)
                == qr.qrel_tensor(a, qr.qrel_tensor(b, c)))


def test_tensor_monoid_exhaustive_on_two_point_boolean_relations():
    q = boolean()
    rels = [QRel(q, 2, entries)
            for entries in itertools.product(range(2), repeat=4)]
    one = QRel.identity(q, 2)
    for a in rels:
        assert qr.qrel_tensor(one, a) == a
        assert qr.qrel_tensor(a, one) == a
    for a in rels:
        for b in rels:
            ab = qr.qrel_tensor(a, b)
            for c in rels:
                assert qr.qrel_tensor(ab, c) \
                    == qr.qrel_tensor(a, qr.qrel_tensor(b, c))


def test_obs_metrics_are_quasi_metrics_and_prop2():
    rng = random.Random(9)
    for _ in range(40):
        s = _random_lawvere(rng, 3)
        for qc in (qr.obs_quasi_left(s), qr.obs_quasi_right(s)):
            assert qr.is_reflexive(qc)
            assert qr.is_transitive(qc)
        # left/right transitivity
        assert qr.qrel_leq(qr.qrel_tensor(qr.obs_quasi_left(s), s), s)
        assert qr.qrel_leq(qr.qrel_tensor(s, qr.obs_quasi_right(s)), s)
        # q^c ⊑ Θ^c
        assert qr.qrel_leq(qr.obs_quasi_left(s), qr.theta_left(s))
        assert qr.qrel_leq(qr.obs_quasi_right(s), qr.theta_right(s))


def test_quasi_metric_is_its_own_observational_metric():
    assert qr.classify(S).quasi_metric
    assert qr.obs_quasi_left(S) == S
    assert qr.obs_quasi_right(S) == S


def test_indiscrete_relation():
    z = QRel.constant(LAWVERE, 2, ZERO)
    assert qr.obs_quasi_left(z) == z


def test_theta_with_reflexive_diagonal():
    s = lawvere_rel([[0, 3], [2, 0]])
    assert qr.theta_right(s) == s  # 0 ⊸ a = a


def test_theta_truncated_subtraction():
    s = lawvere_rel([[1, 3], [3, 1]])
    assert float(qr.theta_right(s)(0, 1)) == 2.0


def test_classify_examples():
    one = QRel.identity(LAWVERE, 3)
    c = qr.classify(one)
    assert c.reflexive and c.quasi_reflexive and c.transitive
    assert c.quasi_metric and c.quasi2_metric and c.partial_quasi_metric

    s = lawvere_rel([[1, 1], ["inf", 1]])
    c = qr.classify(s)
    assert c.quasi_reflexive and c.transitive and not c.reflexive
    assert c.quasi2_metric and not c.quasi_metric

    s = lawvere_rel([[0, 1], [0, 5]])
    assert not qr.classify(s).quasi_reflexive


def test_finite_quantale_relations():
    q = chain(1)
    a = QRel.from_rows(q, [["0", "1"], ["inf", "0"]])
    sq = qr.qrel_tensor(a, a)
    assert sq == a
    assert qr.classify(a).quasi_metric


def test_domain_mismatch():
    with pytest.raises(qr.DomainMismatch):
        qr.qrel_tensor(S, QRel.identity(LAWVERE, 3))
    with pytest.raises(qr.DomainMismatch):
        qr.qrel_tensor(S, QRel.identity(boolean(), 2))


def test_strong_transitivity_matches_pointwise_formula():
    rng = random.Random(11)
    for _ in range(40):
        s = _random_lawvere(rng, 3)
        expect = all(
            float(s(x, z)) + max(float(s(z, y)) - float(s(z, z)), 0.0)
            >= float(s(x, y)) - 1e-12
            for x, y, z in itertools.product(range(3), repeat=3))
        assert qr.is_strongly_transitive(s) == expect


def test_operations_over_an_order_without_a_join_raise():
    # bot below a and below b, nothing above both: a and b have no join
    q = FiniteQuantale("vee", ("bot", "a", "b"),
                       [[True, True, True], [False, True, False],
                        [False, False, True]],
                       [[0, 0, 0], [0, 1, 0], [0, 0, 2]], unit=1)
    s = QRel(q, 2, (1, 0, 0, 1))  # entries that never need the missing join
    for op in (lambda: qr.qrel_leq(s, s), lambda: qr.qrel_tensor(s, s),
               lambda: qr.obs_quasi_left(s), lambda: qr.theta_right(s),
               lambda: qr.is_reflexive(s), lambda: qr.classify(s)):
        with pytest.raises(QuantaleStructureError, match="no join of a, b"):
            op()
    with pytest.raises(QuantaleStructureError, match="no join of a, b"):
        check_section3_props(q, 2)
