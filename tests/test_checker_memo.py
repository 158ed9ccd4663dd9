"""The relation checkers apply each function once per probe within a check.

The values and differences handed to a checker are taken to be pure, so a
second application at the same arguments could only repeat the first.
These tests wrap functions in call counters, keyed on the identity of the
function and of its arguments, and find no repeated call.
"""

import math

import pytest

from lamdist.relations import (Consistent, ProbeConfig, ProbeSet, check_delta,
                               check_fundamental, checkers)
from lamdist.semantics import diff_evaluate, evaluate
from lamdist.syntax import REAL, FnType, parse_term

FN = FnType(REAL, REAL)
TOWER = r"\x:Real. sin(sin(sin(x) + 0.5 * x) + x + 1) + sin(x + 0.25)"
QUOTIENT = (r"\f:Real->Real. \x:Real. "
            r"(f (x + 0.285) - f (x - 0.285)) / 0.57")


class Calls:
    """Counts the calls of the functions it wraps, and of every function
    they return, per (function, arguments).  Each entry keeps the wrapper
    and the arguments alive, so no id is reused while it counts."""

    def __init__(self):
        self.seen = {}

    def counted(self, fn):
        def call(*args):
            key = (id(call), *map(id, args))
            self.seen.setdefault(key, [call, args, 0])[2] += 1
            out = fn(*args)
            return self.counted(out) if callable(out) else out
        return call

    def repeated(self):
        return [(args, n) for _, args, n in self.seen.values() if n > 1]


def test_delta_evaluates_each_self_distance_candidate_once_per_probe(
        monkeypatch):
    """Verifying a derivative or empirical candidate, tensoring it with
    the claimed difference and splitting the eta residual share one
    evaluation per probe."""
    term = parse_term(TOWER)
    f, df = evaluate(term), diff_evaluate(term)
    calls = Calls()
    for name in ("diff_evaluate", "empirical_self_diff"):
        real = getattr(checkers, name)
        monkeypatch.setattr(checkers, name, lambda *args, _real=real, **kw:
                            calls.counted(_real(*args, **kw)))
    probes = ProbeSet(ProbeConfig(count=60))
    verdict = check_delta(FN, f, df, f, probes, left_term=term,
                          tight_self_probes=True)
    assert isinstance(verdict, Consistent) and verdict.established
    assert len(calls.seen) > len(probes.triples(REAL))
    assert calls.repeated() == []


@pytest.mark.parametrize("seed", [0, 1])
def test_fundamental_applies_the_quotient_once_per_probe(monkeypatch, seed):
    """The value is applied once at each side of a probe and the
    difference once per probe; the cross and self walks share the
    closures these return and every value of them."""
    calls = Calls()
    applied = {"evaluate": 0, "diff_evaluate": 0}

    def top(name, fn):
        def call(*args):
            applied[name] += 1
            return calls.counted(fn(*args))
        return call

    for name in applied:
        real = getattr(checkers, name)
        monkeypatch.setattr(checkers, name, lambda *args, _real=real,
                            _name=name, **kw: top(_name, _real(*args, **kw)))
    probes = ProbeSet(ProbeConfig(count=60, seed=seed))
    verdict = check_fundamental(parse_term(QUOTIENT), probes)
    assert isinstance(verdict, Consistent) and verdict.established
    triples = probes.triples(FN)
    assert applied == {
        "evaluate": sum(1 if p.left is p.right else 2 for p in triples),
        "diff_evaluate": len(triples)}
    assert len(calls.seen) > len(probes.triples(REAL))
    assert calls.repeated() == []


def test_the_memo_returns_what_its_function_returns():
    """Fresh floats dropped at once may take a freed float's id; the memo
    keeps its keys alive, so it never answers for another argument.  No
    float is compared: ``0.0`` and ``-0.0`` stay apart, and NaN hits."""
    memo = checkers._memo(lambda v: 2.0 * v)
    for i in range(20_000):
        v = float(i) + 0.5
        assert memo(v) == 2.0 * v
    signs = checkers._memo(lambda v: math.copysign(1.0, v))
    zero, minus_zero = 0.0, -0.0
    assert (signs(zero), signs(minus_zero)) == (1.0, -1.0)
    assert (signs(zero), signs(minus_zero)) == (1.0, -1.0)
    nan = math.nan
    applied = []
    shown = checkers._memo(lambda v, w: applied.append(v) or repr((v, w)))
    assert shown(nan, minus_zero) == "(nan, -0.0)"
    assert shown(nan, minus_zero) == "(nan, -0.0)"
    assert shown(nan, zero) == "(nan, 0.0)"
    assert len(applied) == 2
    pair = (1.0, -0.0)
    assert checkers._memo(repr)(pair) == "(1.0, -0.0)"
    assert checkers._memo(lambda g: g(3.0))(math.sqrt) == math.sqrt(3.0)
