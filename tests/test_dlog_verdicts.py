"""The verdicts of ``check_dlog``, pinned field by field.

The golden was recorded while ``check_dlog`` still rebuilt and evaluated
terms in a membership walk of its own; the shared walk over exact
denotations must reproduce every field of it except the rendered
``path``.  Inputs: seeded random derivation conclusions, self-distance
conclusions at first, second and fourth order, and undersized distances.
"""

import json
import random
from dataclasses import asdict
from pathlib import Path

from lamdist.eqtheory import (check_dlog, check_dlog_judgment,
                              self_distance_derivation)
from lamdist.eqtheory.corpus import random_derivation
from lamdist.prims import DEFAULT_REGISTRY
from lamdist.syntax import FnType, REAL, parse_term
from lamdist.syntax.terms import PairType

GOLDEN = Path(__file__).parent / "golden" / "dlog_verdicts.json"
FN = FnType(REAL, REAL)
FN_FN = FnType(FN, FN)

SELF_DISTANCE = (
    r"\x:Real. sin(x)",
    r"\f:Real->Real. \x:Real. (f (x + 0.1) - f x) / 0.1",
    r"\g:((Real->Real)->Real)->Real. g (\f:Real->Real. f 0)",
    r"\p:Real*Real. fst(p) * snd(p) + 1",
    r"(\x:Real. x + 1, 2)",
    r"\p:(Real->Real)*Real. fst(p) (snd(p))",
)

# (type, left, distance, right): distances too small somewhere
UNDERSIZED = (
    (REAL, "3", "0.1", "3.2"),
    (REAL, r"(\x:Real. x) 3", "0 + 0.15", "3.2"),
    (FN, r"\x:Real. sin(x)", r"\x:Real. \x':Real. 0", r"\x:Real. sin(x)"),
    (FN, r"\x:Real. x", r"\x:Real. \x':Real. 0.5 * x'", r"\x:Real. x"),
    (FN, r"\x:Real. x", r"\x:Real. \x':Real. x' + 0.1",
     r"\x:Real. x + 0.25"),
    (FN_FN, r"\f:Real->Real. \x:Real. f x",
     r"\f:Real->Real. \f':Real->Real->Real. \x:Real. \x':Real. 0",
     r"\f:Real->Real. \x:Real. f x"),
    (PairType(REAL, FN), r"(1, \x:Real. x)", r"(0, \x:Real. \x':Real. 0)",
     r"(1, \x:Real. x)"),
)


def fields(verdict) -> dict:
    out = {"verdict": type(verdict).__name__, **asdict(verdict)}
    out.pop("path", None)
    return out


def dlog_verdicts() -> dict:
    """Regenerate the golden with ``python -c "import json, sys;
    sys.path[:0] = ['src', 'tests']; import test_dlog_verdicts as t;
    print(json.dumps(t.dlog_verdicts(), indent=1))"`` run from the
    repository root."""
    reg = DEFAULT_REGISTRY
    out = {}
    for seed in range(40):
        rng = random.Random(seed)
        for k in range(3):
            j = random_derivation(rng, depth=2 + k).conclusion
            out[f"random/{seed}/{k}"] = fields(check_dlog_judgment(j, reg))
    for src in SELF_DISTANCE:
        j = self_distance_derivation(parse_term(src, reg), reg).conclusion
        out[f"self/{src}"] = fields(check_dlog_judgment(j, reg))
    for ty, left, dist, right in UNDERSIZED:
        out[f"undersized/{left} ~ {dist} ~ {right}"] = fields(check_dlog(
            ty, parse_term(left, reg), parse_term(dist, reg),
            parse_term(right, reg), reg))
    return out


def test_dlog_verdicts_match_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    live = dlog_verdicts()
    assert live.keys() == golden.keys()
    for key in golden:
        assert live[key] == golden[key], key
