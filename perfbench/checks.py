"""Output checks.  Each returns a list of error strings, empty when the
output is right; none of them compares against recorded program output.

``controls.py`` feeds every check a deliberately wrong answer and requires
a non-empty list back.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL_TOL = 1e-9
# slack for float rounding in soundness comparisons; a halved difference
# misses by far more
SOUND_SLACK = 1e-12
# how far a verdict may miss by rounding alone
ROUNDING_TOL = 1e-15


def laws_report(relations_checked: int, passed: bool, elements: int,
                size: int) -> list[str]:
    want = elements ** (size * size)
    errors = []
    if relations_checked != want:
        errors.append(f"relations_checked {relations_checked} != "
                      f"|Q|^(n^2) = {elements}^{size * size} = {want}")
    if not passed:
        errors.append("the propositions failed on a valid quantale")
    return errors


def rejected_quantale(violations: list) -> list[str]:
    return [] if violations else ["a quantale that breaks the laws was accepted"]


def verdict_member(name: str, verdict) -> list[str]:
    if type(verdict).__name__ != "Consistent":
        return [f"{name}: member triple got {verdict!r}"]
    return []


def verdict_non_member(name: str, verdict) -> list[str]:
    if type(verdict).__name__ != "Falsified":
        return [f"{name}: non-member got {verdict!r}"]
    if not verdict.lhs > verdict.rhs:
        return [f"{name}: witness does not re-check: lhs {verdict.lhs} "
                f"<= rhs {verdict.rhs}"]
    return []


def rounding_fault(name: str, verdict) -> list[str]:
    """A member that the checker falsifies only by rounding: ``Consistent``,
    or ``Falsified`` with lhs above rhs by a few ulps.  Anything else is an
    error."""
    kind = type(verdict).__name__
    if kind == "Consistent":
        return []
    if (kind == "Falsified" and verdict.lhs > verdict.rhs
            and math.isclose(verdict.lhs, verdict.rhs, rel_tol=ROUNDING_TOL)):
        return []
    return [f"{name}: member got {verdict!r}, not a rounding-step miss"]


def values_agree(name: str, pairs) -> list[str]:
    """``pairs``: (program value, independent value) at drawn points."""
    for got, want in pairs:
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-15):
            return [f"{name}: value {got!r} != independent {want!r}"]
    return []


def sound(name: str, rows) -> list[str]:
    """``rows``: (|f(x) - f(x2)| computed apart, difference d(x, b))."""
    for drift, bound in rows:
        if not drift <= bound * (1 + SOUND_SLACK) + SOUND_SLACK:
            return [f"{name}: drift {drift!r} exceeds difference {bound!r}"]
    return []


def lit_leaves(data: dict):
    """Every ``Lit`` conclusion of a derivation in JSON form, as exact
    (left, dist, right); the strings are decimals or ``(p/q)``."""
    stack = [data]
    while stack:
        node = stack.pop()
        if node["rule"] == "Lit":
            c = node["conclusion"]
            yield tuple(_fraction(c[k]) for k in ("left", "dist", "right"))
        stack.extend(node["premises"])


def _fraction(text: str) -> Fraction:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    return Fraction(text)


def undercut(text: str) -> bool:
    """Does some literal node claim a distance below |l - r|?"""
    return any(d < abs(l - r) for l, d, r in lit_leaves(json.loads(text)))


def derivation_verdict(name: str, is_undercut: bool, ok: bool,
                       failing_rule: str | None) -> list[str]:
    if is_undercut:
        if ok:
            return [f"{name}: undercut literal accepted"]
        if failing_rule != "Lit":
            return [f"{name}: rejected at a {failing_rule} node, not at the "
                    "undercut literal"]
        return []
    if not ok:
        return [f"{name}: valid derivation rejected"]
    return []
