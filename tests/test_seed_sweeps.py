"""Multi-seed robustness: the randomized suites must not depend on a
lucky frozen seed, so smaller replicas run across several fresh ones."""

import random

from lamdist.eqtheory import check_suite
from lamdist.prims import DEFAULT_REGISTRY, default_registry
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import derivative_term, parse_term, render_term
from lamdist.syntax.terms import alpha_equal

from gen import random_closed_fn_term


def test_soundness_across_seeds():
    for seed in range(8):
        rng = random.Random(10_000 + seed)
        for _ in range(40):
            t = random_closed_fn_term(rng)
            f = evaluate(t)
            d = diff_evaluate(t)
            for _ in range(8):
                x = rng.uniform(-3, 3)
                b = rng.uniform(0, 1)
                x2 = x + rng.uniform(-1, 1) * b
                if abs(x - x2) > b:
                    b = abs(x - x2)
                assert abs(f(x) - f(x2)) <= d(x, b)


def test_two_path_coherence_across_seeds():
    for seed in range(6):
        rng = random.Random(20_000 + seed)
        for _ in range(25):
            t = random_closed_fn_term(rng)
            syn = evaluate(derivative_term((), t, DEFAULT_REGISTRY))
            sem = diff_evaluate(t)
            for _ in range(4):
                x = rng.uniform(-3, 3)
                b = rng.uniform(0, 1)
                assert abs(syn(x)(b) - sem(x, b)) <= 1e-9


def test_render_parse_round_trip_on_generated_terms():
    for seed in range(6):
        rng = random.Random(30_000 + seed)
        for _ in range(30):
            t = random_closed_fn_term(rng)
            assert alpha_equal(parse_term(render_term(t)), t)


def test_derivation_suite_across_seeds():
    for seed in range(4):
        report = check_suite(count=25, seed=40_000 + seed,
                             registry=default_registry())
        assert report.passed, report.failures[:3]
