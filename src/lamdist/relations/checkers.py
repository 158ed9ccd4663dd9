"""Probe-based membership checkers for the distance relation families.

Four families share the base case (|x - x2| <= a at ``Real``, products
componentwise) and differ at arrows:

* the main family: for every related input triple, the output bound must
  cover both the two-sided drift (f x vs f2 x2) and the self drift
  (f x vs f x2);
* the vertical family (the left observational metric): the bound covers
  the gap at the *same* input, plus a dominance condition against
  self-distances of the right-hand function;
* the decomposition family (partial-metric style): the bound must split
  into a self part and a crossing part;
* the right-observational family: tensoring with any self-distance of
  the left function lands back in the decomposition family.

One type-directed walk (``_Walk.member``) serves all four and hands
arrows to the family's clause, which may walk another family in the
same state.  A checker runs under its probe set's registry.  The walk
only subtracts, compares and applies, so the main family's check runs
unchanged on ``Fraction`` values: ``eqtheory.check_dlog`` is
``check_rho`` on exact denotations and exact probes.

The checkers take the values and differences handed to them to be pure,
and apply each one once per probe where an application recurs within a
check.  The main family's cross and self walks share one application
of the value and of the difference per probe, and the functions these
return are memoized, keyed on the identity of their arguments (never on
float values).  Within one check the walk makes each self-distance
candidate once and shares it with every family that verifies it, and a
derivative-grade or sampled candidate keeps its value at each probe.
The memos live as long as the check, so a primitive with side effects
sees fewer calls than the comparisons it takes part in.

On floats, falsification is a failed float comparison at a probe, not
yet replayed exactly: a member can be falsified by a one-ulp rounding
miss (ROADMAP item 2).  Success is always relative to the probes used.
Self-distance probes for the vertical/right families default to the
coarse (slope-style) estimates; passing ``tight_self_probes=True`` adds
derivative-grade self-distances, which genuinely falsify more triples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from ..semantics.diff import (Diff, diff_evaluate, residual_diff, tensor_diff,
                              top_diff)
from ..semantics.eval import Value, evaluate
from ..syntax.terms import (REAL, FnType, PairType, RealType, Term,
                            TermTooDeep, Type, arrow_depth, componentwise,
                            on_overflow)
from ..syntax.typecheck import typecheck
from .probes import (ProbeSet, ProbeTriple, empirical_self_diff,
                     lipschitz_self_diff)


@dataclass(frozen=True)
class Falsified:
    clause: str
    path: tuple[str, ...]
    lhs: float
    rhs: float

    def reverifies(self) -> bool:
        return not (self.lhs <= self.rhs)


@dataclass(frozen=True)
class Consistent:
    probes: int
    depth: int = 0
    established: bool = True
    note: str = ""


Verdict = Union[Falsified, Consistent]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _memo(fn):
    """``fn`` evaluated at most once per arguments, which it must not
    mutate.  Entries are keyed on the identity of the arguments and keep
    them alive, so their ids stay theirs and a hit returns exactly what
    ``fn`` returned: no float is compared, so ``-0.0``, NaN, pairs and
    functions are safe arguments."""
    seen = {}

    def call(*args):
        key = tuple(map(id, args))
        entry = seen.get(key)
        if entry is None:
            entry = seen[key] = (args, fn(*args))
        return entry[1]
    return call


# --- the walk ----------------------------------------------------------------
#
# A path is a chain of cells (parent, template, arg), rendered only for a
# Falsified verdict: a probe ``arg`` fills ``{at}`` and ``{b}``, a
# candidate name fills ``{}``.

def _show(template: str, arg) -> str:
    if isinstance(arg, ProbeTriple):
        b = f" b={_fmt(arg.diff)}" if isinstance(arg.diff, float) else ""
        return template.format(at=arg.label or _fmt(arg.left), b=b)
    return template.format(arg)


@dataclass(slots=True)
class _Walk:
    """One membership check and the comparisons it made.  A walk result
    is None when every comparison holds, else the first ``Falsified`` or
    a note that the decomposition search found no split."""
    probes: ProbeSet
    tight: bool = False
    compared: int = 0
    made: dict = field(default_factory=dict)

    def compare(self, clause: str, lhs, rhs, path) -> Optional[Falsified]:
        self.compared += 1
        if lhs <= rhs:
            return None
        # an exact comparison keeps its values, which floats may round
        # into a tie
        steps = [f"{lhs} > {rhs}"] if isinstance(lhs, Fraction) else []
        while path is not None:
            path, template, arg = path
            steps.append(_show(template, arg))
        return Falsified(clause, tuple(reversed(steps)), float(lhs),
                         float(rhs))

    def member(self, arrow, ty, x, a, x2, path=None, given=(None, None)):
        """Walk ``ty``, handing arrows to the family clause ``arrow``.
        ``given`` is the caller's (decomposition, backing term) of ``x``;
        at a product only the decomposition splits into components.  A
        product's components are walked on a list in the order of
        ``terms.componentwise``, up to the first ``Falsified``; else the
        first note wins."""
        if ty is REAL:
            return self.compare("base", abs(x - x2), a, path)
        note, todo = None, [(ty, x, a, x2, path, given)]
        while todo:
            ty, x, a, x2, path, given = todo.pop()
            if type(ty) is PairType:
                split = given[0]
                for i, at, step in ((1, ty.right, "snd"), (0, ty.left, "fst")):
                    todo.append((at, x[i], a[i], x2[i], (path, step, None), (
                        None if split is None else (split[0][i], split[1][i]),
                        None)))
                continue
            if ty is REAL:
                result = self.compare("base", abs(x - x2), a, path)
            elif type(ty) is FnType:
                result = arrow(self, ty, x, a, x2, path, given)
            else:
                raise TypeError(f"not a type: {ty!r}")
            if isinstance(result, Falsified):
                return result
            note = note or result
        return note

    def once(self, make, *args):
        """``make(self, *args)``, made once per walk: ``made`` keys it on
        ``make`` and the ids of the arguments, which it keeps alive."""
        key = (make, *map(id, args))
        if key not in self.made:
            self.made[key] = (args, make(self, *args))
        return self.made[key][1]

    def verdict(self, arrow, ty, x, a, x2, given=(None, None)) -> Verdict:
        # the arrow clauses still recurse through result types
        with on_overflow(TermTooDeep, "value nested too deeply to check"):
            result = self.member(arrow, ty, x, a, x2, None, given)
        if isinstance(result, Falsified):
            return result
        return Consistent(self.compared, arrow_depth(ty),
                          established=result is None, note=result or "")


# --- the main family ---------------------------------------------------------

def check_rho(ty: Type, x: Value, a: Diff, x2: Value,
              probes: ProbeSet) -> Verdict:
    return _Walk(probes).verdict(_rho_arrow, ty, x, a, x2)


def _rho_arrow(walk, ty, x, a, x2, path, given):
    # each application is made once per probe: the cross and self walks
    # apply function-valued results at the same probes
    keep = _memo if isinstance(ty.res, FnType) else (lambda v: v)
    for probe in walk.probes.triples(ty.arg, "rho"):
        y, b, y2 = probe.left, probe.diff, probe.right
        out, fy = keep(a(y, b)), keep(x(y))
        cross = fy if x2 is x and y2 is y else keep(x2(y2))
        drift = cross if x2 is x else keep(x(y2))
        bad = (walk.member(_rho_arrow, ty.res, fy, out, cross,
                           (path, "at {at}{b} [cross]", probe))
               or walk.member(_rho_arrow, ty.res, fy, out, drift,
                              (path, "at {at}{b} [self]", probe)))
        if bad is not None:
            return bad
    return None


# --- the vertical (left observational) family --------------------------------

def check_gamma(ty: Type, x: Value, a: Diff, x2: Value, probes: ProbeSet, *,
                right_term: Term | None = None,
                tight_self_probes: bool = False) -> Verdict:
    return _Walk(probes, tight_self_probes).verdict(
        _gamma_arrow, ty, x, a, x2, (None, right_term))


def _gamma_arrow(walk, ty, x, a, x2, path, given):
    # vertical clause: both functions probed at the same input
    for probe in walk.probes.triples(ty.arg, "rho"):
        y, b = probe.left, probe.diff
        bad = walk.member(_gamma_arrow, ty.res, x(y), a(y, b), x2(y),
                          (path, "vertical at {at}", probe))
        if bad is not None:
            return bad
    # dominance clause: tensoring with self-distances of the right
    # function keeps the left function close to itself
    selfds, _ = walk.once(_self_diffs, ty, x2, given[1], "rho", walk.tight)
    for provenance, selfd in selfds:
        bad = walk.member(_rho_arrow, ty, x, tensor_diff(ty, a, selfd), x,
                          (path, "dominance via {} self-distance", provenance))
        if bad is not None:
            return bad
    return None


# --- the decomposition (partial-metric) family -------------------------------

def check_eta(ty: Type, x: Value, a: Diff, x2: Value, probes: ProbeSet, *,
              decomposition: tuple[Diff, Diff] | None = None,
              left_term: Term | None = None) -> Verdict:
    return _Walk(probes).verdict(_eta_arrow, ty, x, a, x2,
                                 (decomposition, left_term))


def _eta_arrow(walk, ty, x, a, x2, path, given):
    supplied, term = given
    if supplied is not None:
        candidates = [("supplied", supplied)]
    else:
        top = top_diff(ty)
        candidates = [("left-total", (a, top)), ("right-total", (top, a))]
        selfds, _ = walk.once(_self_diffs, ty, x, term, "rho", True)
        for provenance, selfd in selfds:
            candidates.append((f"self+{provenance}",
                               (selfd, residual_diff(ty, selfd, a))))
    tried = []
    for name, (a1, a2) in candidates:
        result = _eta_split(walk, ty, x, a, x2, a1, a2, path)
        if result is None:
            return None
        if isinstance(result, Falsified) and supplied is not None:
            # a user-supplied decomposition that fails is a real verdict
            return result
        tried.append(name)
    return (_eta_impossible(walk, ty, x, a, x2, path)
            or "no decomposition found among candidates: " + ", ".join(tried))


def _eta_impossible(walk, ty: FnType, x, a, x2, path) -> Optional[Falsified]:
    """Sound refutation of the existential at Real-result arrows.

    Any split must cover, pointwise at a probe (y, b, y2), both the self
    drift |x y - x y2| and the crossing gap |x y2 - x2 y2|, while their
    sum stays under a(y, b).  If one probe already needs more than
    a(y, b), no split exists; probes are genuine members of the family,
    so this refutes membership outright.
    """
    if not isinstance(ty.res, RealType):
        return None
    for probe in walk.probes.triples(ty.arg, "eta"):
        y, b, y2 = probe.left, probe.diff, probe.right
        need = abs(x(y) - x(y2)) + abs(x(y2) - x2(y2))
        bad = walk.compare("no-split", need, a(y, b), (
            path, "at {at}: self drift plus crossing gap exceed the claimed "
            "difference", probe))
        if bad is not None:
            return bad
    return None


def _eta_split(walk, ty: FnType, x, a, x2, a1, a2, path):
    triples = walk.probes.triples(ty.arg, "eta")
    # the split must undershoot the claimed difference at the probes
    for probe in triples:
        y, b = probe.left, probe.diff
        if not _diff_leq_at(ty.res, tensor_diff(ty.res, a1(y, b), a2(y, b)),
                            a(y, b), walk.probes):
            return "split exceeds the difference"
    for probe in triples:
        y, b, y2 = probe.left, probe.diff, probe.right
        bad = (walk.member(_eta_arrow, ty.res, x(y), a1(y, b), x(y2),
                           (path, "at {at} [self part]", probe))
               or walk.member(_eta_arrow, ty.res, x(y2), a2(y, b), x2(y2),
                              (path, "at {at} [crossing part]", probe)))
        if bad is not None:
            return bad
    return None


def _diff_leq_at(ty: Type, d1: Diff, d2: Diff, probes: ProbeSet) -> bool:
    """d1 numerically below d2, compared at probes under arrows."""
    if ty is REAL:
        return d1 <= d2
    if type(ty) is FnType:
        return all(_diff_leq_at(ty.res, d1(p.left, p.diff),
                                d2(p.left, p.diff), probes)
                   for p in probes.triples(ty.arg, "eta"))
    return componentwise(ty, lambda at, *ds: _diff_leq_at(at, *ds, probes),
                         d1, d2, pair=operator.and_)


# --- the right observational family ------------------------------------------

def check_delta(ty: Type, x: Value, a: Diff, x2: Value, probes: ProbeSet, *,
                left_term: Term | None = None,
                tight_self_probes: bool = False) -> Verdict:
    """Tensor with every self-distance probe of the left element and land
    in the decomposition family."""
    return _Walk(probes, tight_self_probes).verdict(
        _delta_arrow, ty, x, a, x2, (None, left_term))


def _delta_arrow(walk, ty, x, a, x2, path, given):
    selfds, _ = walk.once(_self_diffs, ty, x, given[1], "eta", walk.tight)
    if not selfds:
        return "no verified self-distance probes for the left element"
    undetermined = []
    for provenance, selfd in selfds:
        result = walk.member(_eta_arrow, ty, x, tensor_diff(ty, a, selfd), x2,
                             (path, "self-probe {}", provenance))
        if isinstance(result, Falsified):
            return result
        if result is not None:
            undetermined.append(provenance)
    return ("no decomposition found for self-probe(s): "
            + ", ".join(undetermined)) if undetermined else None


# --- the soundness triple of a closed term -----------------------------------

def check_fundamental(t: Term, probes: ProbeSet) -> Verdict:
    """The (value, difference, value) triple of a closed term belongs to
    the main family; exact at first order."""
    registry = probes.registry
    ty = typecheck((), t, registry)
    x = evaluate(t, registry=registry)
    d = diff_evaluate(t, registry=registry)
    return check_rho(ty, x, d, x, probes)


# --- over-approximation combination -------------------------------------------

@dataclass(frozen=True)
class ApproxReport:
    hypothesis_failures: tuple[Falsified, ...]
    self_left: Verdict
    self_right: Verdict
    conclusion: Verdict
    probes: int

    @property
    def hypotheses_hold(self) -> bool:
        return (not self.hypothesis_failures
                and isinstance(self.self_left, Consistent)
                and isinstance(self.self_right, Consistent))

    @property
    def passed(self) -> bool:
        return self.hypotheses_hold and isinstance(self.conclusion, Consistent)


def check_theorem_approx(f: Value, f2: Value, a: Diff, a2: Diff,
                         domain: Type, probes: ProbeSet) -> ApproxReport:
    """Vertical gap plus shared self-distance bounds the two-sided
    distance between functions into the reals.

    Hypotheses: |f y - f2 y| <= a(y, b) at every domain probe, and a2 is
    a self-distance for both functions.  Conclusion: (f, a tensor a2, f2)
    is consistent for the main family.  Hypothesis violations are
    reported apart from conclusion violations.
    """
    ty = FnType(domain, RealType())
    walk = _Walk(probes)
    hyp_failures = []
    for probe in probes.triples(domain, "rho"):
        y = probe.left
        bad = walk.compare("hypothesis", abs(f(y) - f2(y)), a(y, probe.diff),
                           (None, "at {at}", probe))
        if bad is not None:
            hyp_failures.append(bad)
    self_left = check_rho(ty, f, a2, f, probes)
    self_right = check_rho(ty, f2, a2, f2, probes)
    conclusion = check_rho(ty, f, tensor_diff(ty, a, a2), f2, probes)
    return ApproxReport(tuple(hyp_failures), self_left, self_right,
                        conclusion, walk.compared)


# --- constructive transitivity split for the decomposition family ------------

def eta_transitivity_split(ty: Type, a: Diff, b: Diff,
                           a_split: tuple[Diff, Diff] | None = None,
                           b_split: tuple[Diff, Diff] | None = None
                           ) -> tuple[Diff, Diff]:
    """Given chained differences a (x to z) and b (z to y), produce
    (c1, c2) with c1 a self-distance for z, c2 a crossing distance for
    x to y, and c1 tensor c2 dominating a tensor b.

    At the base the split is (0, a + b).  At arrows it needs the splits
    of a and b themselves and recurses on their crossing parts: the self
    output tensors b's self part with the recursive self part, and the
    crossing output tensors a's self part with the recursive crossing
    part.  (Pairing the other way fails: the self part of the middle
    element must come from the difference *leaving* it, as the checker
    demonstrates on concrete function triples.)
    """
    if ty is REAL:
        return (0.0, a + b)
    if type(ty) is FnType:
        if a_split is None or b_split is None:
            raise ValueError("arrow-type transitivity split needs the "
                             "decompositions of both differences")
        a1, a2 = a_split
        b1, b2 = b_split
        res = ty.res

        def k(w, d):
            return eta_transitivity_split(res, a2(w, d), b2(w, d))[0]

        def l(w, d):
            return eta_transitivity_split(res, a2(w, d), b2(w, d))[1]

        c1 = lambda w, d: tensor_diff(res, b1(w, d), k(w, d))  # noqa: E731
        c2 = lambda w, d: tensor_diff(res, a1(w, d), l(w, d))  # noqa: E731
        return (c1, c2)
    # componentwise, each split passed as its two parts
    return componentwise(
        ty, lambda at, a, b, a1, a2, b1, b2: eta_transitivity_split(
            at, a, b, None if a1 is None else (a1, a2),
            None if b1 is None else (b1, b2)),
        a, b, *(a_split or (None, None)), *(b_split or (None, None)),
        pair=lambda l, r: tuple(zip(l, r)))


# --- self-distance estimation -------------------------------------------------

@dataclass(frozen=True)
class SelfDistanceEstimate:
    ty: Type
    candidates: tuple[tuple[str, Diff], ...]  # (provenance, diff), verified
    probes: int

    def by_provenance(self, name: str) -> Optional[Diff]:
        for provenance, d in self.candidates:
            if provenance == name:
                return d
        return None


def estimate_self_distance(ty: Type, x: Value, probes: ProbeSet, *,
                           term: Term | None = None,
                           family: str = "rho") -> SelfDistanceEstimate:
    """Verified self-distance candidates for ``x``, tightest not
    guaranteed.

    At ``Real`` the self-distance is exactly 0.  At arrows the raw
    candidates are: the difference evaluator run on a backing term
    (globally valid), a slope-style linear bound, a sampled empirical
    bound, and the top difference (valid only for constants); each is
    kept only if it passes the self check of ``family`` (``"rho"`` or
    ``"eta"``) over the probes.  The derivative and sampled candidates
    remember their value at each argument while the estimate lives.
    """
    if family not in ("rho", "eta"):
        raise ValueError(f"unknown probe family {family!r}")

    def leaf(at, x):  # the candidates and the comparisons they took
        if at is REAL:
            return (("exact", 0.0),), 0
        return _Walk(probes).once(_self_diffs, at, x,
                                  term if at is ty else None, family, True)
    return SelfDistanceEstimate(ty, *componentwise(
        ty, leaf, x, pair=lambda l, r: (  # each pair of l's and r's
            tuple((f"({pl},{pr})", (dl, dr)) for pl, dl in l[0]
                  for pr, dr in r[0]), l[1] + r[1])))


def _self_diffs(walk, ty: FnType, x, term, family, tight):
    """The raw self-distance candidates of ``x`` that pass the family's
    self check, and the comparisons those checks made.  Without
    ``tight`` the derivative-grade candidates are left out before any
    is made or verified; every family shares the walk's candidates."""
    sources = [("derivative", term)] if term is not None and tight else []
    if isinstance(ty.arg, RealType) and isinstance(ty.res, RealType):
        sources.append(("lipschitz", x))
        if tight:
            sources.append(("empirical", x))
    sources.append(("top", ty))
    verified = []
    total = 0
    for provenance, source in sources:
        cand = walk.once(_self_diff_candidate, provenance, source)
        verdict = (check_rho(ty, x, cand, x, walk.probes) if family == "rho"
                   else check_eta(ty, x, cand, x, walk.probes,
                                  decomposition=(cand, top_diff(ty))))
        if isinstance(verdict, Consistent) and verdict.established:
            verified.append((provenance, cand))
            total += verdict.probes
    return tuple(verified), total


def _self_diff_candidate(walk, provenance, source):
    """A raw candidate from its backing term, element or type; the
    derivative and sampled ones keep their value at each argument."""
    if provenance == "derivative":
        return _memo(diff_evaluate(source, registry=walk.probes.registry))
    if provenance == "lipschitz":
        return lipschitz_self_diff(source, walk.probes.config)
    if provenance == "empirical":
        return _memo(empirical_self_diff(source))
    return top_diff(source)
