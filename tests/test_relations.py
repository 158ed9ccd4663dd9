import math
import random

import pytest

from lamdist.relations import (Consistent, Falsified, ProbeConfig, ProbeSet,
                               UnsupportedProbeDepth, check_delta, check_eta,
                               check_fundamental, check_gamma, check_rho,
                               check_theorem_approx, estimate_self_distance,
                               generate_probes, probes_to_json,
                               verdict_to_json, dumps)
from lamdist.semantics import diff_evaluate, evaluate, top_diff
from lamdist.syntax import FnType, PairType, REAL, parse_term, typecheck

FN = FnType(REAL, REAL)


@pytest.fixture(scope="module")
def probes():
    return ProbeSet(ProbeConfig(count=150, seed=11))


def named(src):
    t = parse_term(src)
    return t, evaluate(t), diff_evaluate(t)


# --- probe generation ---------------------------------------------------------

def test_real_probes_satisfy_invariant_exactly(probes):
    for p in probes.triples(REAL):
        assert abs(p.left - p.right) <= p.diff


def test_probe_generation_is_deterministic():
    cfg = ProbeConfig(count=100, seed=42)
    a = [(p.left, p.diff, p.right) for p in ProbeSet(cfg).triples(REAL)]
    b = [(p.left, p.diff, p.right) for p in ProbeSet(cfg).triples(REAL)]
    assert a == b
    assert dumps(probes_to_json(ProbeSet(cfg), REAL)) \
        == dumps(probes_to_json(ProbeSet(cfg), REAL))


def test_function_probe_library_contents(probes):
    labels = " ".join(p.label for p in probes.triples(FN))
    for needle in (r"\x:Real. x", "sin", "x * x", "x + 0.25"):
        assert needle in labels


def test_pair_probes_are_componentwise(probes):
    for p in probes.triples(PairType(REAL, REAL)):
        (x1, x2), (b1, b2), (y1, y2) = p.left, p.diff, p.right
        assert abs(x1 - y1) <= b1 and abs(x2 - y2) <= b2


def test_depth_limit():
    deep = FnType(FnType(FN, FN), REAL)
    with pytest.raises(UnsupportedProbeDepth):
        ProbeSet().triples(deep)


# --- the main family ----------------------------------------------------------

def test_rho_base_case_exact(probes):
    assert isinstance(check_rho(REAL, 3.0, 1.0, 3.5, probes), Consistent)
    bad = check_rho(REAL, 3.0, 0.4, 3.5, probes)
    assert isinstance(bad, Falsified)
    assert bad.reverifies()


def test_rho_id_vs_sin_with_padded_vertical_distance(probes):
    def a(x, b):
        return abs(x - math.sin(x)) + b

    v = check_rho(FN, lambda x: x, a, math.sin, probes)
    assert isinstance(v, Consistent)


def test_rho_id_vs_sin_with_zero_distance_falsified(probes):
    v = check_rho(FN, lambda x: x, top_diff(FN), math.sin, probes)
    assert isinstance(v, Falsified)
    assert v.reverifies()
    # the violation is genuine wherever it is reported; pi/2 is in the
    # anchor set and falsifies by hand: |pi/2 - sin(pi/2)| > 0
    assert abs(math.pi / 2 - math.sin(math.pi / 2)) > 0


def test_rho_down_closure_at_probes(probes):
    _, sin_v, sin_d = named(r"\x:Real. sin(x)")

    def looser(x, b):
        return sin_d(x, b) + 0.125

    assert isinstance(check_rho(FN, sin_v, sin_d, sin_v, probes), Consistent)
    assert isinstance(check_rho(FN, sin_v, looser, sin_v, probes), Consistent)


def test_fundamental_triples_of_library_terms(probes):
    for src in (r"\x:Real. sin(x)", r"\x:Real. x * x",
                r"\x:Real. (x, sin(x))"):
        assert isinstance(check_fundamental(parse_term(src), probes),
                          Consistent), src


def test_fundamental_second_order(probes):
    deps = parse_term(r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1")
    assert isinstance(check_fundamental(deps, probes), Consistent)


def test_the_checkers_run_under_the_probe_sets_registry():
    """A primitive registered only in the probe set's registry types,
    evaluates and differentiates."""
    from lamdist.prims import Primitive, default_registry
    reg = default_registry()
    reg.register(Primitive("half", 1, lambda a: 0.5 * a,
                           modulus=lambda ys, bs: 0.5 * bs[0]))
    term = parse_term(r"\x:Real. half(sin(x))", reg)
    verdict = check_fundamental(term, ProbeSet(ProbeConfig(count=50), reg))
    assert isinstance(verdict, Consistent)


# --- the vertical family --------------------------------------------------------

def test_gamma_base_coincides_with_rho(probes):
    assert isinstance(check_gamma(REAL, 0.0, 0.5, 0.3, probes), Consistent)
    assert isinstance(check_gamma(REAL, 0.0, 0.2, 0.3, probes), Falsified)


def test_gamma_id_vs_sin_vertical_only(probes):
    sin_term = parse_term(r"\x:Real. sin(x)")

    def vertical(x, b):
        return abs(x - math.sin(x))

    v = check_gamma(FN, lambda x: x, vertical, math.sin, probes,
                    right_term=sin_term)
    assert isinstance(v, Consistent)


def test_gamma_id_vs_sin_falsified_by_tight_self_probes(probes):
    # with derivative-grade self-distances of sin the dominance clause
    # genuinely fails near 0 (the drift of the identity exceeds the
    # vertical gap plus sin's modulus)
    sin_term = parse_term(r"\x:Real. sin(x)")

    def vertical(x, b):
        return abs(x - math.sin(x))

    v = check_gamma(FN, lambda x: x, vertical, math.sin, probes,
                    right_term=sin_term, tight_self_probes=True)
    assert isinstance(v, Falsified)
    assert v.reverifies()


def test_gamma_members_compose_into_rho(probes):
    # accepted vertical triple + accepted self-distance of the right
    # function gives an accepted two-sided triple at the same probes
    from lamdist.semantics import tensor_diff
    sin_term, sin_v, _ = named(r"\x:Real. sin(x)")

    def vertical(x, b):
        return abs(x - math.sin(x))

    def self_dist(x, b):  # the slope-style self-distance of sin
        return b

    assert isinstance(
        check_gamma(FN, lambda x: x, vertical, sin_v, probes,
                    right_term=sin_term), Consistent)
    assert isinstance(check_rho(FN, sin_v, self_dist, sin_v, probes),
                      Consistent)
    combined = tensor_diff(FN, vertical, self_dist)
    assert isinstance(check_rho(FN, lambda x: x, combined, sin_v, probes),
                      Consistent)


# --- the decomposition family ----------------------------------------------------

def test_eta_base_case(probes):
    assert isinstance(check_eta(REAL, 0.0, 0.5, 0.3, probes), Consistent)
    assert isinstance(check_eta(REAL, 0.0, 0.1, 0.3, probes), Falsified)


def test_eta_self_triple_with_trivial_decomposition(probes):
    term, v, d = named(r"\x:Real. sin(x)")
    verdict = check_eta(FN, v, d, v, probes, decomposition=(d, top_diff(FN)))
    assert isinstance(verdict, Consistent) and verdict.established


def test_eta_searches_candidate_decompositions(probes):
    term, v, d = named(r"\x:Real. sin(x)")
    verdict = check_eta(FN, v, d, v, probes, left_term=term)
    assert isinstance(verdict, Consistent) and verdict.established


def test_eta_small_distance_refuted_by_impossibility(probes):
    # at Real-result arrows a zero difference between visibly different
    # functions refutes the existential outright: no split can cover the
    # crossing gap
    def tiny(x, b):
        return 0.0

    verdict = check_eta(FN, math.sin, tiny, math.cos, probes)
    assert isinstance(verdict, Falsified)
    assert verdict.clause == "no-split"
    assert verdict.reverifies()


def test_eta_unfound_decomposition_is_not_falsified(probes):
    # at second order the impossibility refutation is unavailable and
    # candidate failure only yields a probe-relative non-answer
    fn_fn = FnType(FN, FN)
    quot, quot_v, _ = named(
        r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1")
    ident, ident_v, _ = named(r"\f:Real->Real. \x:Real. f x")
    verdict = check_eta(fn_fn, quot_v, top_diff(fn_fn), ident_v, probes)
    assert isinstance(verdict, Consistent)
    assert not verdict.established
    assert "no decomposition" in verdict.note


def test_a_product_walks_past_an_undetermined_component(probes):
    # the first component finds no split; the second is a plain miss
    fn_fn = FnType(FN, FN)
    _, quot_v, _ = named(r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1")
    _, ident_v, _ = named(r"\f:Real->Real. \x:Real. f x")
    ty = PairType(fn_fn, REAL)
    verdict = check_eta(ty, (quot_v, 0.0), (top_diff(fn_fn), 0.1),
                        (ident_v, 0.5), probes)
    assert verdict == Falsified("base", ("snd",), 0.5, 0.1)
    # with both components undetermined the first note stands
    verdict = check_eta(PairType(fn_fn, fn_fn), (quot_v, quot_v),
                        (top_diff(fn_fn), top_diff(fn_fn)),
                        (ident_v, ident_v), probes)
    assert isinstance(verdict, Consistent) and not verdict.established
    assert verdict.note.startswith("no decomposition found")


def test_eta_accepted_triples_are_quasi_reflexive(probes):
    # an accepted two-sided triple yields an accepted self triple with
    # the same split (the crossing clause degenerates to zero gaps)
    for p in probes.triples(FN, "eta"):
        self_verdict = check_eta(FN, p.left, p.diff, p.left, probes,
                                 decomposition=p.decomposition)
        assert isinstance(self_verdict, Consistent), p.label
        assert self_verdict.established


def test_eta_probe_triples_carry_valid_decompositions(probes):
    for p in probes.triples(FN, "eta"):
        assert p.decomposition is not None
        verdict = check_eta(FN, p.left, p.diff, p.right, probes,
                            decomposition=p.decomposition)
        assert isinstance(verdict, Consistent) and verdict.established, p.label


# --- the right observational family ----------------------------------------------

def test_delta_base_as_gamma(probes):
    assert isinstance(check_delta(REAL, 0.0, 0.5, 0.3, probes), Consistent)


def test_delta_constant_functions_reduce_to_eta(probes):
    # top is a valid self-probe for constants, so the check degenerates
    # to plain decomposition membership
    c1, c1_v, _ = named(r"\x:Real. 2")
    c2, c2_v, _ = named(r"\x:Real. 0")

    def gap(x, b):
        return 2.0

    verdict = check_delta(FN, c1_v, gap, c2_v, probes, left_term=c1)
    assert isinstance(verdict, Consistent) and verdict.established


def test_delta_falsified_with_wrong_gap(probes):
    c1, c1_v, _ = named(r"\x:Real. 2")
    c2, c2_v, _ = named(r"\x:Real. 0")

    def gap(x, b):
        return 0.5  # true vertical gap is 2

    verdict = check_delta(FN, c1_v, gap, c2_v, probes, left_term=c1)
    assert isinstance(verdict, Falsified)


def zero(x, b):
    return 0.0


def test_delta_at_products_is_componentwise(probes):
    # (sin, 0, sin) is a right-observational member: the zero difference
    # tensored with a self-distance of sin is that self-distance.  It is
    # no decomposition member, so pairs of it must not be judged by the
    # decomposition family as a whole.
    sin_t, sin_v, _ = named(r"\x:Real. sin(x)")
    single = check_delta(FN, sin_v, zero, sin_v, probes, left_term=sin_t)
    assert isinstance(single, Consistent) and single.established
    for ty, x, a in ((PairType(FN, FN), (sin_v, sin_v), (zero, zero)),
                     (PairType(REAL, FN), (0.0, sin_v), (0.0, zero))):
        verdict = check_delta(ty, x, a, x, probes)
        assert isinstance(verdict, Consistent) and verdict.established, ty
    bad = check_delta(PairType(REAL, FN), (0.0, sin_v), (0.0, zero),
                      (0.0, math.cos), probes)
    assert isinstance(bad, Falsified) and bad.path[0] == "snd"


def test_delta_with_no_coarse_self_distance_is_not_established(probes):
    # a narrow spike has no verified slope-style self-distance, so the
    # coarse right-observational check compares nothing
    spike_t, spike_v, _ = named(r"\x:Real. 1 / (x * x + 0.0001)")

    def five(x):
        return 5.0

    coarse = check_delta(FN, spike_v, zero, five, probes, left_term=spike_t)
    assert isinstance(coarse, Consistent)
    assert coarse.probes == 0 and not coarse.established
    assert coarse.note == ("no verified self-distance probes for the left "
                           "element")
    tight = check_delta(FN, spike_v, zero, five, probes, left_term=spike_t,
                        tight_self_probes=True)
    assert isinstance(tight, Falsified) and tight.reverifies()
    assert isinstance(check_eta(FN, spike_v, zero, five, probes), Falsified)


def test_delta_estimates_the_left_self_distance_once(monkeypatch):
    """Each verified self-probe walks the eta clause from the same left
    element; the walk verifies its self-distances once per family, not
    per probe."""
    from lamdist.relations import checkers
    seen = []
    real = checkers._self_diffs

    def counted(walk, ty, x, term, family, tight):
        seen.append((x, family))
        return real(walk, ty, x, term, family, tight)

    monkeypatch.setattr(checkers, "_self_diffs", counted)
    t, v, d = named(r"\x:Real. sin(x) + 0.5 * x")
    verdict = check_delta(FN, v, d, v, ProbeSet(ProbeConfig(count=200)),
                          left_term=t, tight_self_probes=True)
    assert isinstance(verdict, Consistent) and verdict.established
    assert seen == [(v, "eta"), (v, "rho")]


def spy_calls(monkeypatch, *names):
    """Count the calls of the named functions as the checkers see them."""
    from lamdist.relations import checkers
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _real=getattr(checkers, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(checkers, name, spy)
    return calls


def test_delta_makes_each_self_distance_candidate_once(monkeypatch):
    """The delta clause's eta-family candidates and the eta clause's
    rho-family candidates of the left element are the same objects."""
    calls = spy_calls(monkeypatch, "lipschitz_self_diff",
                      "empirical_self_diff")
    t, v, d = named(r"\x:Real. sin(x) + 0.5 * x")
    verdict = check_delta(FN, v, d, v, ProbeSet(ProbeConfig(count=200)),
                          left_term=t, tight_self_probes=True)
    assert calls == {"lipschitz_self_diff": 1, "empirical_self_diff": 1}
    assert repr(verdict) == ("Consistent(probes=1200, depth=1, "
                             "established=True, note='')")


def test_coarse_self_probes_make_no_derivative_grade_candidate(monkeypatch):
    """Coarse gamma makes neither the derivative nor the sampled bound;
    coarse delta makes no derivative (its eta clause still samples)."""
    t, v, d = named(r"\x:Real. sin(x) + 0.5 * x")
    probes = ProbeSet(ProbeConfig(count=60))
    calls = spy_calls(monkeypatch, "diff_evaluate", "empirical_self_diff")
    check_gamma(FN, v, d, v, probes, right_term=t)
    assert calls == {"diff_evaluate": 0, "empirical_self_diff": 0}
    check_delta(FN, v, d, v, probes, left_term=t)
    assert calls["diff_evaluate"] == 0


# --- self-distance estimation ------------------------------------------------------

def test_self_distance_real_is_zero(probes):
    est = estimate_self_distance(REAL, 7.0, probes)
    assert est.candidates == (("exact", 0.0),)


def test_self_distance_constant_has_top(probes):
    term, v, _ = named(r"\x:Real. 2")
    est = estimate_self_distance(FN, v, probes, term=term)
    assert est.by_provenance("top") is not None


def test_self_distance_sin_candidates(probes):
    term, v, _ = named(r"\x:Real. sin(x)")
    est = estimate_self_distance(FN, v, probes, term=term)
    assert est.by_provenance("derivative") is not None
    lip = est.by_provenance("lipschitz")
    assert lip is not None
    # slope-style bound at slope about 1.1
    assert lip(0.0, 1.0) == pytest.approx(1.1, rel=0.2)
    assert est.by_provenance("top") is None  # sin is not constant


def test_self_distance_of_pairs_keeps_the_family(probes, monkeypatch):
    import lamdist.relations.checkers as checkers
    seen = []
    for name in ("check_rho", "check_eta"):
        real = getattr(checkers, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(checkers, name, spy)
    sin_v = evaluate(parse_term(r"\x:Real. sin(x)"))
    pair = estimate_self_distance(PairType(REAL, FN), (0.0, sin_v), probes,
                                  family="eta")
    alone = estimate_self_distance(FN, sin_v, probes, family="eta")
    assert set(seen) == {"check_eta"}
    assert [p for p, _ in pair.candidates] == [
        f"(exact,{p})" for p, _ in alone.candidates]


def test_self_distance_rejects_an_unknown_family(probes):
    term, v, _ = named(r"\x:Real. sin(x)")
    for ty, x in ((FN, v), (REAL, 1.0)):
        with pytest.raises(ValueError, match="unknown probe family 'ETA'"):
            estimate_self_distance(ty, x, probes, term=term, family="ETA")


def test_sin_identity_in_b_is_a_valid_self_distance(probes):
    # the worked example's self-distance: the identity in the error
    verdict = check_rho(FN, math.sin, lambda x, b: b, math.sin, probes)
    assert isinstance(verdict, Consistent)


# --- the over-approximation combination ---------------------------------------------

def test_theorem_approx_id_vs_sin(probes):
    def vertical(x, b):
        return abs(x - math.sin(x))

    report = check_theorem_approx(lambda x: x, math.sin, vertical,
                                  lambda x, b: b, REAL, probes)
    assert report.hypotheses_hold
    assert report.passed


def test_theorem_approx_reports_hypothesis_violations_separately(probes):
    def too_small(x, b):
        return abs(x - math.sin(x)) / 2

    report = check_theorem_approx(lambda x: x, math.sin, too_small,
                                  lambda x, b: b, REAL, probes)
    assert report.hypothesis_failures
    assert all(f.clause == "hypothesis" for f in report.hypothesis_failures)


def test_theorem_approx_fails_a_nan_hypothesis_bound():
    probes = ProbeSet(ProbeConfig(count=20, seed=1))
    report = check_theorem_approx(math.sin, math.sin, lambda x, b: math.nan,
                                  lambda x, b: b, REAL, probes)
    assert len(report.hypothesis_failures) == report.probes == 35
    assert not report.hypotheses_hold and not report.passed
    first = report.hypothesis_failures[0]
    assert (first.clause, first.path) == ("hypothesis", ("at 0",))
    assert math.isnan(first.rhs)


def test_theorem_approx_self_distance_degenerate(probes):
    # f = f2 with zero vertical gap reduces to the self-distance check
    report = check_theorem_approx(math.sin, math.sin, lambda x, b: 0.0,
                                  lambda x, b: b, REAL, probes)
    assert report.passed


def test_theorem_approx_random_polynomials(probes):
    rng = random.Random(17)
    for _ in range(5):
        c1, c2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        f_t, f, df = named(rf"\x:Real. {abs(c1):.3f} * x * x")
        g_t, g, dg = named(rf"\x:Real. {abs(c2):.3f} * x * x")

        def vertical(x, b, f=f, g=g):
            return abs(f(x) - g(x))

        def selfd(x, b, df=df, dg=dg):
            return max(df(x, b), dg(x, b))

        report = check_theorem_approx(f, g, vertical, selfd, REAL, probes)
        assert report.passed


# --- serialization -------------------------------------------------------------------

def test_verdict_json_round_trip(probes):
    bad = check_rho(REAL, 3.0, 0.4, 3.5, probes)
    j = verdict_to_json(bad)
    assert j["verdict"] == "falsified" and j["holds"] is False
    good = check_rho(REAL, 3.0, 1.0, 3.5, probes)
    assert verdict_to_json(good)["verdict"] == "consistent"
