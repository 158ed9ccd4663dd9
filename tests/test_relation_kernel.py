"""The relation kernel against element-wise transcriptions of each
definition, written with the quantale's element operations only.

The exhaustive checker and the ``qrel`` functions both run the kernel, so
these transcriptions are the independent reference for it.
"""

import itertools
import random
from types import SimpleNamespace

from lamdist.quantale import lawvere as lv
from lamdist.quantale.finite import FiniteQuantale, chain
from lamdist.quantale.lawvere import LAWVERE, ExtReal
from lamdist.quantale.qrel import kernel

# The [0, +inf] quantale through its module functions.
LAWVERE_REF = SimpleNamespace(leq=lv.leq, tensor=lv.tensor,
                              residual=lv.residual, join=lv.join,
                              meet=lv.meet)


def reference(q, n):
    """Each kernel operation, transcribed from its definition with
    q.leq, q.tensor, q.residual, q.join and q.meet."""
    r = range(n)
    top = q.meet([])

    def at(e, x, y):
        return e[x * n + y]

    def tensor(a, b):
        return tuple(q.join(q.tensor(at(a, x, y), at(b, y, z)) for y in r)
                     for x in r for z in r)

    def reflexive(e):
        return all(q.leq(top, at(e, x, x)) for x in r)

    def transitive(e):
        return all(q.leq(q.join(q.tensor(at(e, x, y), at(e, y, z)) for y in r),
                         at(e, x, z))
                   for x in r for z in r)

    return {
        "leq": lambda a, b: all(q.leq(u, v) for u, v in zip(a, b)),
        "tensor": tensor,
        # (u ⊸ s)(z,y) = meet over x of u(x,z) ⊸ s(x,y)
        "residual_left": lambda u, s: tuple(
            q.meet(q.residual(at(u, x, z), at(s, x, y)) for x in r)
            for z in r for y in r),
        # (s ⟜ w)(x,z) = meet over y of w(z,y) ⊸ s(x,y)
        "residual_right": lambda s, w: tuple(
            q.meet(q.residual(at(w, z, y), at(s, x, y)) for y in r)
            for x in r for z in r),
        "theta_left": lambda e: tuple(q.residual(at(e, y, y), at(e, x, y))
                                      for x in r for y in r),
        "theta_right": lambda e: tuple(q.residual(at(e, x, x), at(e, x, y))
                                       for x in r for y in r),
        "reflexive": reflexive,
        "quasi_reflexive_rows": lambda e: all(
            q.leq(at(e, x, y), at(e, x, x)) for x in r for y in r),
        "quasi_reflexive_cols": lambda e: all(
            q.leq(at(e, x, y), at(e, y, y)) for x in r for y in r),
        "transitive": transitive,
        "quasi_metric": lambda e: reflexive(e) and transitive(e),
        "strongly_transitive_right": lambda e: all(
            q.leq(q.tensor(at(e, x, z), q.residual(at(e, z, z), at(e, z, y))),
                  at(e, x, y))
            for x in r for y in r for z in r),
        "strongly_transitive_left": lambda e: all(
            q.leq(q.tensor(q.residual(at(e, z, z), at(e, x, z)), at(e, z, y)),
                  at(e, x, y))
            for x in r for y in r for z in r),
    }


BINARY = ("leq", "tensor", "residual_left", "residual_right")


def assert_kernel_matches(ops, ref_ops, n, rels, pairs):
    k = kernel(ops, n)
    ref = reference(ref_ops, n)
    assert set(vars(k)) == set(ref)
    for name, want in ref.items():
        got = getattr(k, name)
        if name in BINARY:
            for a, b in pairs:
                assert got(a, b) == want(a, b), (name, a, b)
        else:
            for e in rels:
                assert got(e) == want(e), (name, e)


def test_kernel_on_every_chain1_relation_and_pair():
    q = chain(1)
    rels = list(itertools.product(range(len(q)), repeat=4))
    assert_kernel_matches(q, q, 2, rels, list(itertools.product(rels, repeat=2)))


def test_kernel_on_every_scrambled_relation_and_pair():
    # the 3-element table of tests/test_section3_props.py whose tensor
    # makes non-transitive relations dominated by quasi-metrics
    q = FiniteQuantale("scrambled", ("bot", "mid", "top"),
                       [[a <= b for b in range(3)] for a in range(3)],
                       [[1, 0, 0], [0, 2, 0], [0, 0, 1]], unit=2)
    rels = list(itertools.product(range(3), repeat=4))
    assert_kernel_matches(q, q, 2, rels, list(itertools.product(rels, repeat=2)))


def test_kernel_on_seeded_lawvere_relations():
    rng = random.Random(12)
    values = (0, 1, 2, 3, "1/2", "inf")
    rels = [tuple(ExtReal(rng.choice(values)) for _ in range(9))
            for _ in range(50)]
    # half with a zero diagonal, so the reflexive cases are exercised too
    rels = [e if i % 2 else tuple(ExtReal(0) if p % 4 == 0 else v
                                  for p, v in enumerate(e))
            for i, e in enumerate(rels)]
    pairs = list(zip(rels, rels)) + list(zip(rels, rels[1:] + rels[:1]))
    assert_kernel_matches(LAWVERE, LAWVERE_REF, 3, rels, pairs)
