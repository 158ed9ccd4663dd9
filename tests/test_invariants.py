"""Cross-module property obligations: closure and coherence statements
tying the relation families, the difference semantics, and the deductive
theory together."""

import itertools
import math
import random

import pytest

from lamdist.eqtheory import (check_derivation, self_distance_derivation,
                              transitivity_derivation)
from lamdist.eqtheory.judgments import Derivation, DistanceJudgment
from lamdist.prims import DEFAULT_REGISTRY
from lamdist.quantale.finite import chain
from lamdist.quantale.qrel import (QRel, classify, obs_quasi_right,
                                   theta_right)
from lamdist.relations import (Consistent, ProbeConfig, ProbeSet, check_eta,
                               check_rho, eta_transitivity_split)
from lamdist.semantics import compose_triples, diff_evaluate, evaluate
from lamdist.semantics.triples import DiffTriple
from lamdist.semantics.diff import residual_diff, tensor_diff, top_diff
from lamdist.syntax import (FnType, Lit, REAL, derivative_term, parse_term,
                            term_equal)
from lamdist.syntax.terms import App, PairType, Var, alpha_equal, substitute

from gen import random_closed_fn_term

FN = FnType(REAL, REAL)
REAL2 = PairType(REAL, REAL)
FN_REAL = PairType(FN, REAL)


@pytest.fixture(scope="module")
def probes():
    return ProbeSet(ProbeConfig(count=120, seed=5))


# --- substitution -------------------------------------------------------------

def test_substitute_examples():
    assert substitute(Var("x"), {"x": Lit(5)}) == Lit(5)
    # capture avoidance: (\y. x)[y/x] renames the binder
    t = parse_term(r"\y:Real. x")
    s = substitute(t, {"x": Var("y")})
    assert s.var != "y" and s.body == Var("y")
    assert typechecks(s, (("y", REAL),))


def typechecks(t, ctx=()):
    from lamdist.syntax import typecheck
    typecheck(ctx, t, DEFAULT_REGISTRY)
    return True


def test_derivative_commutes_with_substitution_up_to_theory():
    # on closed first-order instances: the derivative of t[s/x] equals
    # the derivative of t with s and its derivative substituted in
    rng = random.Random(31)
    ctx = (("x", REAL),)
    for _ in range(30):
        from gen import random_real_term
        t = random_real_term(rng, ("x",), depth=3)
        s = random_real_term(rng, (), depth=2)
        ds = derivative_term((), s, DEFAULT_REGISTRY)
        lhs = derivative_term((), substitute(t, {"x": s}), DEFAULT_REGISTRY)
        dt = derivative_term(ctx, t, DEFAULT_REGISTRY)
        rhs = substitute(dt, {"x": s, "x'": ds})
        assert term_equal((), lhs, rhs, DEFAULT_REGISTRY)


# --- the main family at probes ---------------------------------------------------

def test_rho_quasi_reflexivity_at_probes(probes):
    # whenever a two-sided triple is accepted, the left self triple is too
    for probe in probes.triples(FN):
        left = check_rho(FN, probe.left, probe.diff, probe.right, probes)
        self_t = check_rho(FN, probe.left, probe.diff, probe.left, probes)
        assert isinstance(left, Consistent)
        assert isinstance(self_t, Consistent)


def test_rho_transitivity_at_real_exact():
    rng = random.Random(32)
    for _ in range(200):
        x = rng.uniform(-5, 5)
        a = rng.uniform(0, 2)
        z = x + rng.uniform(-1, 1) * a
        if abs(x - z) > a:
            a = abs(x - z)
        b = rng.uniform(0, 2)
        y = z + rng.uniform(-1, 1) * b
        if abs(z - y) > b:
            b = abs(z - y)
        assert abs(x - y) <= a + b


def test_falsification_witnesses_reverify(probes):
    from lamdist.relations import Falsified
    import math as m
    cases = [
        check_rho(REAL, 3.0, 0.4, 3.5, probes),
        check_rho(FN, lambda x: x, lambda x, b: 0.0, m.sin, probes),
        check_eta(FN, m.sin, lambda x, b: 0.0, m.cos, probes),
    ]
    for v in cases:
        assert isinstance(v, Falsified)
        assert v.reverifies()


# --- decomposition-family transitivity --------------------------------------------

def test_eta_transitivity_split_at_real():
    c1, c2 = eta_transitivity_split(REAL, 0.5, 0.75)
    assert c1 == 0.0 and c2 == 1.25
    # componentwise at a product of reals
    assert eta_transitivity_split(REAL2, (0.5, 1.0), (0.25, 2.0)) == \
        ((0.0, 0.0), (0.75, 3.0))


def test_eta_transitivity_split_on_chained_triples(probes):
    # build (f, a, g) and (g, b, h) decomposition-family triples with
    # their canonical splits, then check the constructive witness
    from lamdist.relations.probes import _eta_tail_diff
    from lamdist.semantics.diff import top_diff

    def entry(src):
        t = parse_term(src)
        return evaluate(t), diff_evaluate(t)

    f, df = entry(r"\x:Real. sin(x)")
    g, dg = entry(r"\x:Real. 0.5 * x + 1")
    h, dh = entry(r"\x:Real. x + 0.25")

    a_split = (df, _eta_tail_diff(f, g, df, dg))
    a = tensor_diff(FN, a_split[0], a_split[1])
    b_split = (dg, _eta_tail_diff(g, h, dg, dh))
    b = tensor_diff(FN, b_split[0], b_split[1])
    assert isinstance(check_eta(FN, f, a, g, probes, decomposition=a_split),
                      Consistent)
    assert isinstance(check_eta(FN, g, b, h, probes, decomposition=b_split),
                      Consistent)

    c1, c2 = eta_transitivity_split(FN, a, b, a_split, b_split)
    # c1 is a self-distance for the middle function
    v1 = check_eta(FN, g, c1, g, probes, decomposition=(c1, top_diff(FN)))
    assert isinstance(v1, Consistent) and v1.established
    # c2 crosses from the first function to the last
    v2 = check_eta(FN, f, c2, h, probes)
    assert isinstance(v2, Consistent)
    # and the split dominates the chained difference pointwise
    for probe in probes.triples(REAL):
        y, bb = probe.left, probe.diff
        assert a(y, bb) + b(y, bb) <= c1(y, bb) + c2(y, bb) + 1e-12


# --- differences at product types ------------------------------------------

def test_pointwise_differences_at_products():
    """Componentwise: addition, truncated subtraction (0 under an
    infinite left side) and the zero bound at the reals, and the same
    pointwise in (value, bound) under an arrow."""
    assert tensor_diff(REAL2, (0.5, math.inf), (0.25, 1.0)) == (0.75, math.inf)
    assert residual_diff(REAL2, (0.5, math.inf), (0.75, 2.0)) == (0.25, 0.0)
    assert residual_diff(REAL2, (1.0, 0.5), (0.25, 3.0)) == (0.0, 2.5)
    assert top_diff(REAL2) == (0.0, 0.0)
    a = (lambda y, b: abs(y) + b, 0.5)
    b = (lambda y, b: 2 * b, 1.5)
    fn, real = tensor_diff(FN_REAL, a, b)
    assert real == 2.0
    assert fn(1.0, 0.25) == 1.75 and fn(-2.0, 0.5) == 3.5
    fn, real = residual_diff(FN_REAL, a, b)
    assert real == 1.0
    assert fn(1.0, 0.25) == 0.0 and fn(0.0, 2.0) == 2.0
    fn, real = top_diff(FN_REAL)
    assert real == 0.0 and fn(3.0, 0.5) == 0.0


def test_a_product_valued_member_with_its_own_difference_as_self_part(probes):
    """At Real -> Real * Real the supplied split is compared, and its
    parts checked, componentwise at the probes."""
    t = parse_term(r"\x:Real. (sin(x), x * x)")
    ty = FnType(REAL, REAL2)
    f, df = evaluate(t), diff_evaluate(t)
    assert isinstance(check_eta(ty, f, df, f, probes,
                                decomposition=(df, top_diff(ty))),
                      Consistent)


def test_gamma_composes_with_general_accepted_triples(probes):
    # vertical-family member (id, vertical, sin) tensored with an
    # accepted two-sided triple (sin, a2, cos) stays in the main family
    from lamdist.relations.probes import _cross_diff

    sin_v, dsin = evaluate(parse_term(r"\x:Real. sin(x)")), \
        diff_evaluate(parse_term(r"\x:Real. sin(x)"))
    cos_v, dcos = evaluate(parse_term(r"\x:Real. cos(x)")), \
        diff_evaluate(parse_term(r"\x:Real. cos(x)"))

    def vertical(x, b):
        return abs(x - math.sin(x))

    a2 = _cross_diff(sin_v, cos_v, dsin, dcos)
    assert isinstance(check_rho(FN, sin_v, a2, cos_v, probes), Consistent)
    combined = tensor_diff(FN, vertical, a2)
    assert isinstance(check_rho(FN, lambda x: x, combined, cos_v, probes),
                      Consistent)


# --- right-observational equals decomposition family on finite models ----------------

def test_theta_right_is_obs_right_for_strong_transitivity():
    # on finite models: for every relation that is quasi-reflexive and
    # strongly transitive, the self-distance residual view coincides with
    # the right observational quasi-metric
    q = chain(1)
    n = 2
    found = 0
    for entries in itertools.product(range(len(q)), repeat=n * n):
        s = QRel(q, n, entries)
        c = classify(s)
        if c.partial_quasi_metric:
            found += 1
            assert theta_right(s) == obs_quasi_right(s)
    assert found > 0


# --- composition preserves membership ------------------------------------------------

def test_composition_preserves_membership_at_probes(probes):
    t1 = parse_term(r"\x:Real. sin(x)")
    t2 = parse_term(r"\x:Real. 0.5 * x + 1")
    m1 = DiffTriple(evaluate(t1), diff_evaluate(t1), evaluate(t1))
    m2 = DiffTriple(evaluate(t2), diff_evaluate(t2), evaluate(t2))
    composed = compose_triples(m1, m2)
    # membership contract of the composite, probed as a member triple
    verdict = check_rho(FN, composed.fwd,
                        lambda x, b: composed.diff(x, b), composed.bwd,
                        probes)
    assert isinstance(verdict, Consistent)


# --- conversion coherence --------------------------------------------------------------

def test_conversion_coherence_on_random_derivations():
    rng = random.Random(33)
    for _ in range(20):
        t = random_closed_fn_term(rng, depth=3)
        d = self_distance_derivation(t, DEFAULT_REGISTRY)
        j = d.conclusion
        # replace the left subject with a beta-expanded equal term
        wrapped = App(parse_term(r"\h:Real->Real. h"), j.left)
        conv = Derivation("Conv", DistanceJudgment(
            (), wrapped, j.dist, j.right, j.ty), (d,))
        assert check_derivation(conv, DEFAULT_REGISTRY)


# --- normalization fuel ------------------------------------------------------------------

def test_normalization_terminates_on_random_suite():
    """Exact evaluation of each redex ends in a value, and conversion
    equates the redex with that literal."""
    rng = random.Random(34)
    for _ in range(80):
        t = random_closed_fn_term(rng, depth=4)
        redex = App(t, Lit(rng.randint(-2, 2)))
        value = evaluate(redex, registry=DEFAULT_REGISTRY, exact=True)
        assert term_equal((), redex, Lit(value))
