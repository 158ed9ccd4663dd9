import math
import random

import pytest

from lamdist.semantics import (compose_triples, diff_evaluate, evaluate,
                               identity_triple)
from lamdist.semantics.triples import (DiffTriple, apply_member_triple,
                                       curry_triple, element_triple,
                                       eval_triple, pair_triples, proj1_triple,
                                       proj2_triple)
from lamdist.syntax import parse_term

DEPS = r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1"


def real_probes(seed=1, count=30):
    rng = random.Random(seed)
    return [(rng.uniform(-5, 5), rng.uniform(0, 1)) for _ in range(count)]


def sin_triple():
    t = parse_term(r"\x:Real. sin(x)")
    return DiffTriple(evaluate(t), diff_evaluate(t), evaluate(t))


def scale_triple(c):
    t = parse_term(rf"\x:Real. {c} * x")
    return DiffTriple(evaluate(t), diff_evaluate(t), evaluate(t))


def test_identity_is_a_unit_for_composition():
    m = sin_triple()
    for composed in (compose_triples(identity_triple(), m),
                     compose_triples(m, identity_triple())):
        for x, b in real_probes():
            assert composed.fwd(x) == m.fwd(x)
            assert composed.diff(x, b) == m.diff(x, b)
            assert composed.bwd(x) == m.bwd(x)


def test_composition_is_associative_at_probes():
    a, b_, c = sin_triple(), scale_triple(2), scale_triple(0.5)
    left = compose_triples(compose_triples(a, b_), c)
    right = compose_triples(a, compose_triples(b_, c))
    for x, b in real_probes(2):
        assert left.fwd(x) == right.fwd(x)
        assert left.diff(x, b) == right.diff(x, b)


def test_composing_quotient_triple_with_id_sin_element():
    # the applied element reproduces the worked difference formula
    eps = 0.1
    t = parse_term(DEPS)
    quotient = DiffTriple(evaluate(t), diff_evaluate(t), evaluate(t))

    def a(x, b):
        return abs(x - math.sin(x)) + b

    element = element_triple(lambda v: v, a, math.sin)
    composed = compose_triples(element, quotient)
    out_diff = composed.diff(None, None)
    for x, b in real_probes(3):
        want = (a(x + eps, b) + a(x, b)) / eps
        assert out_diff(x, b) == pytest.approx(want, rel=1e-12)
    # same thing through direct member application
    fn_triple = (evaluate(t), diff_evaluate(t), evaluate(t))
    _, a2, _ = apply_member_triple(fn_triple, (lambda v: v, a, math.sin))
    for x, b in real_probes(4):
        assert a2(x, b) == out_diff(x, b)


def test_projection_picks_first_difference_component():
    p = proj1_triple()
    assert p.fwd((1.0, 2.0)) == 1.0
    assert p.diff((1.0, 2.0), (0.25, 0.5)) == 0.25
    q = proj2_triple()
    assert q.diff((1.0, 2.0), (0.25, 0.5)) == 0.5


def test_tupling_pairs_differences():
    m = pair_triples(sin_triple(), scale_triple(2))
    for x, b in real_probes(5):
        dl, dr = m.diff(x, b)
        assert dl == sin_triple().diff(x, b)
        assert dr == 2 * b


def test_curry_eval_beta_law_at_probes():
    # uncurried sin . proj2 as a triple out of a product
    raw = DiffTriple(lambda zx: math.sin(zx[1]),
                     lambda zx, cb: sin_triple().diff(zx[1], cb[1]),
                     lambda zx: math.sin(zx[1]))
    curried = curry_triple(raw)
    ev = eval_triple()
    # eval . <curry m . proj1, proj2> == m
    recomposed = compose_triples(
        pair_triples(compose_triples(proj1_triple(), curried), proj2_triple()),
        ev)
    for x, b in real_probes(6):
        z = ((7.0, x))
        c = ((0.0, b))
        assert recomposed.fwd(z) == raw.fwd(z)
        assert recomposed.diff(z, c) == raw.diff(z, c)


def test_eval_triple_feeds_argument_pair():
    ev = eval_triple()
    assert ev.fwd((math.sin, 0.5)) == math.sin(0.5)
    got = ev.diff((math.sin, 0.5), (sin_triple().diff, 0.1))
    assert got == sin_triple().diff(0.5, 0.1)


def test_curry_eta_law_at_probes():
    # curry(eval . (m x id)) agrees with m for a triple into a function
    # space; (m x id) is the pairing of m.proj1 with proj2
    m = curry_triple(DiffTriple(lambda zx: math.sin(zx[0]) + zx[1],
                                lambda zx, cb: cb[0] + cb[1],
                                lambda zx: math.sin(zx[0]) + zx[1]))
    spread = pair_triples(compose_triples(proj1_triple(), m), proj2_triple())
    recurried = curry_triple(compose_triples(spread, eval_triple()))
    for z, c in real_probes(7):
        for x, b in real_probes(8, count=5):
            assert recurried.fwd(z)(x) == m.fwd(z)(x)
            assert recurried.diff(z, c)(x, b) == m.diff(z, c)(x, b)
            assert recurried.bwd(z)(x) == m.bwd(z)(x)
