"""Finite probe families for the relation-family checkers.

Membership at function types quantifies over uncountably many related
input triples; the checkers replace that with a finite, seeded probe set.
Real-type probes are grids plus uniform samples, built so the defining
inequality |x - x2| <= b holds exactly by construction.  Function-type
probes come from a term library (identity, sine, constants, affine maps,
squares, a forward difference quotient at higher order); their
difference components are produced by the difference evaluator, whose
output is a sound bound by construction, so library probes are members
by construction, not by sampling luck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..prims import DEFAULT_REGISTRY, Registry
from ..semantics.diff import Diff, diff_evaluate, top_diff
from ..semantics.eval import Value, evaluate
from ..syntax.parser import parse_term
from ..syntax.printer import render_term, render_type
from ..syntax.terms import (FnType, Lam, Lit, Pair, REAL, RealType, Term,
                            Type, Var, arrow_depth, componentwise,
                            fresh_name)

MAX_PROBE_DEPTH = 2
# every Real probe is built in memory at once, so the count has a bound
MAX_PROBES = 10 ** 6
FN_PROBES = 10      # function probes per arrow type
Z_SAMPLES = 33      # grid points per box in empirical sups
# the grid's offsets in units of the radius, from -1 to 1
_Z_GRID = tuple(-1.0 + 2.0 * i / (Z_SAMPLES - 1) for i in range(Z_SAMPLES))


class UnsupportedProbeDepth(ValueError):
    """Probe libraries stop at second-order arrows; deeper types need
    user-supplied probes."""


# Which probe settings are valid, each test stated once: ``ProbeConfig``
# refuses a setting that fails one, and the command line reads them for its
# flags and for ``$LAMDIST_PROBES``.  A negative radius puts every probe on
# the |x - x2| = b boundary, and a non-finite radius, bound or width reaches
# the primitives as an infinity or a NaN.

def valid_count(count) -> bool:
    return 0 <= count <= MAX_PROBES


def valid_bounds(lo, hi) -> bool:
    return math.isfinite(lo) and math.isfinite(hi) and lo <= hi


def valid_width(lo, hi) -> bool:
    return math.isfinite(hi - lo)


def valid_radius(b_max) -> bool:
    return 0 <= b_max < math.inf


@dataclass(frozen=True)
class ProbeConfig:
    count: int = 1000           # Real-type probes
    lo: float = -10.0
    hi: float = 10.0
    b_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not valid_count(self.count):
            raise ValueError(f"probe count {self.count} is not from 0 to "
                             f"{MAX_PROBES}")
        if not (valid_bounds(self.lo, self.hi)
                and valid_width(self.lo, self.hi)):
            raise ValueError(f"probe range [{self.lo}, {self.hi}] is not "
                             "finite bounds LO <= HI with a finite width")
        if not valid_radius(self.b_max):
            raise ValueError(f"probe radius bound {self.b_max} is not a "
                             "finite number >= 0")


@dataclass(frozen=True)
class ProbeTriple:
    left: Value
    diff: Diff
    right: Value
    label: str = ""
    left_term: Optional[Term] = None
    right_term: Optional[Term] = None
    decomposition: Optional[tuple[Diff, Diff]] = None


_REAL_ANCHORS = (0.0, 1.0, -1.0, math.pi / 2, -math.pi / 2, math.pi, 2.5)


class ProbeSet:
    """Cached, seed-deterministic probe triples per type and family.

    ``family`` is ``"rho"`` (also used by the gamma checker) or ``"eta"``
    (triples carry decompositions).  At ``Real`` the two coincide and
    share one list.
    ``registry`` parses and evaluates the term library, and the checkers
    run under it too.

    The per-type cache fills lazily; prime it (call ``triples`` at each
    type the checkers will reach) before sharing an instance across
    threads, after which reads are pure.
    """

    def __init__(self, config: ProbeConfig = ProbeConfig(),
                 registry: Registry = DEFAULT_REGISTRY):
        self.config = config
        self.registry = registry
        self._cache: dict[tuple, list[ProbeTriple]] = {}

    def triples(self, ty: Type, family: str = "rho") -> list[ProbeTriple]:
        if family not in ("rho", "eta"):
            raise ValueError(f"unknown probe family {family!r}")
        # one list for both families at Real, so the checkers' memos
        # recognise its probes across families
        key = (ty, "rho" if ty is REAL else family)
        if key not in self._cache:
            self._cache[key] = (
                self._real_triples() if ty is REAL
                else self._fn_triples(ty, family) if type(ty) is FnType
                else componentwise(ty, lambda at: self.triples(at, family),
                                   pair=_paired))
        return self._cache[key]

    # -- construction -------------------------------------------------------

    def _real_triples(self) -> list[ProbeTriple]:
        cfg = self.config
        rng = random.Random(cfg.seed)
        triples: list[ProbeTriple] = []

        def add(x: float, b: float, x2: float):
            gap = abs(x - x2)
            bound = b if gap <= b else gap  # keep |x - x2| <= b exact
            triples.append(ProbeTriple(x, bound, x2, label=f"{x:.6g}"))

        # displacements just inside the box boundary exercise near-extreme
        # behaviour while staying off exact-equality corners, where float
        # rounding would flip mathematically tight comparisons
        extreme = 1.0 - 1e-9
        for x in _REAL_ANCHORS:
            add(x, 0.0, x)
            add(x, 0.1, x + 0.05)
            add(x, cfg.b_max, x - 0.5 * cfg.b_max)
            add(x, cfg.b_max, x + extreme * cfg.b_max)
            add(x, cfg.b_max, x - extreme * cfg.b_max)
        target = max(cfg.count, len(triples))
        while len(triples) < target:
            x = rng.uniform(cfg.lo, cfg.hi)
            b = rng.uniform(0.0, cfg.b_max)
            x2 = x + rng.uniform(-1.0, 1.0) * b
            add(x, b, x2)
        return triples

    def _fn_triples(self, ty: FnType, family: str) -> list[ProbeTriple]:
        if arrow_depth(ty) > MAX_PROBE_DEPTH:
            raise UnsupportedProbeDepth(
                f"no probe library for {render_type(ty)}; supply probes")
        cfg = self.config
        rng = random.Random(cfg.seed + 1)
        terms = library_terms(ty, self.registry)
        entries = []
        for term in terms:
            entries.append((term, evaluate(term, registry=self.registry),
                            diff_evaluate(term, registry=self.registry)))

        out: list[ProbeTriple] = []
        top = top_diff(ty)
        for term, value, dvalue in entries:
            out.append(ProbeTriple(
                value, dvalue, value, label=render_term(term),
                left_term=term, right_term=term, decomposition=(dvalue, top)))

        # cross pairs need a pointwise gap, so only Real results qualify
        if isinstance(ty.res, RealType) and isinstance(ty.arg, RealType):
            pairs = [(i, j) for i in range(len(entries))
                     for j in range(len(entries)) if i != j]
            rng.shuffle(pairs)
            for i, j in pairs[:max(0, FN_PROBES - len(out))]:
                ft, f, df = entries[i]
                gt, g, dg = entries[j]
                label = f"{render_term(ft)} vs {render_term(gt)}"
                if family == "eta":
                    # the difference is exactly the tensor of its split
                    tail = _eta_tail_diff(f, g, df, dg)
                    diff = (lambda df=df, tail=tail:
                            lambda x, b: df(x, b) + tail(x, b))()
                    out.append(ProbeTriple(
                        f, diff, g, label=label, left_term=ft, right_term=gt,
                        decomposition=(df, tail)))
                else:
                    out.append(ProbeTriple(
                        f, _cross_diff(f, g, df, dg), g, label=label,
                        left_term=ft, right_term=gt))
        return out[:FN_PROBES]


def _paired(lefts, rights) -> list[ProbeTriple]:
    """A product's probes: the i-th of each component's, paired, with
    their decompositions where both have one."""
    return [ProbeTriple((l.left, r.left), (l.diff, r.diff), (l.right, r.right),
                        label=f"({l.label},{r.label})", decomposition=(
                            l.decomposition and r.decomposition
                            and tuple(zip(l.decomposition, r.decomposition))))
            for l, r in zip(lefts, rights)]


def _cross_diff(f, g, df, dg) -> Diff:
    """Valid difference for (f, ., g): vertical gap plus the larger
    self-drift dominates both membership clauses."""
    def bound(x, b):
        return abs(f(x) - g(x)) + max(df(x, b), dg(x, b))
    return bound


def _eta_tail_diff(f, g, df, dg) -> Diff:
    # |f(x2) - g(x2)| <= drift of f + gap at x + drift of g
    def bound(x, b):
        return df(x, b) + abs(f(x) - g(x)) + dg(x, b)
    return bound


# --- the term library --------------------------------------------------------

_REAL_FN_SOURCES = (
    r"\x:Real. x",
    r"\x:Real. sin(x)",
    r"\x:Real. cos(x)",
    r"\x:Real. 0",
    r"\x:Real. 2",
    r"\x:Real. 0.5 * x + 1",
    r"\x:Real. x * x",
    r"\x:Real. x + 0.25",
)

_FN_FN_SOURCES = (
    r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1",
    r"\f:Real->Real. \x:Real. f x",
    r"\f:Real->Real. \x:Real. 2 * f x",
    r"\f:Real->Real. \x:Real. f (x + 0.5)",
    r"\f:Real->Real. \x:Real. sin(x)",
)

_FN_REAL_SOURCES = (
    r"\f:Real->Real. f 0",
    r"\f:Real->Real. f 1 + f (-1)",
)


def canonical_term(ty: Type, avoid: frozenset[str] = frozenset()) -> Term:
    """A closed inhabitant of any type: zeros, pairs of zeros, constant
    functions."""
    if type(ty) is FnType:
        var = fresh_name("u", avoid)
        return Lam(var, ty.arg, canonical_term(ty.res, avoid | {var}))
    if ty is REAL:
        return Lit(0)
    return componentwise(ty, lambda at: canonical_term(at, avoid), pair=Pair)


def library_terms(ty: FnType, registry: Registry = DEFAULT_REGISTRY) -> list[Term]:
    fn_real = FnType(REAL, REAL)
    if ty == fn_real:
        return [parse_term(src, registry) for src in _REAL_FN_SOURCES]
    if ty == FnType(fn_real, fn_real):
        return [parse_term(src, registry) for src in _FN_FN_SOURCES]
    if ty == FnType(fn_real, REAL):
        return [parse_term(src, registry) for src in _FN_REAL_SOURCES]
    out = [canonical_term(ty)]
    if ty.arg == ty.res:
        var = fresh_name("u", frozenset())
        out.append(Lam(var, ty.arg, Var(var)))
    return out


# --- raw self-difference candidates -----------------------------------------

def empirical_self_diff(f) -> Diff:
    """Sampled supremum of |f(x) - f(z)| over the box; valid at the
    probes it is checked against, an under-claim elsewhere."""
    def bound(x: float, b: float) -> float:
        if b == 0.0:
            return 0.0
        fx = f(x)
        worst = 0.0
        for u in _Z_GRID:
            worst = max(worst, abs(fx - f(x + u * b)))
        return worst
    return bound


def lipschitz_self_diff(f, config: ProbeConfig) -> Diff:
    """A slope-style self-difference: probe the maximal difference
    quotient over the configured range, round it up ten percent, and
    return the linear bound. Valid whenever the rounded slope really
    dominates, which the estimate verifies at the probes."""
    slope = 0.0
    steps = 25
    for i in range(steps + 1):
        x = config.lo + (config.hi - config.lo) * i / steps
        for h in (1e-3, 1e-2, 0.1, config.b_max or 0.1):
            slope = max(slope, abs(f(x + h) - f(x)) / h)
    slope *= 1.1
    return lambda x, b: slope * b
