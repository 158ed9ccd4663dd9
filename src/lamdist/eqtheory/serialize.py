"""JSON round-trip for derivations.

Schema::

    {"rule": "App",
     "conclusion": {"ctx": [["x", "Real"], ...],
                    "left": "...", "dist": "...", "right": "...",
                    "type": "..."},
     "premises": [ ... ]}

Terms and types are carried in the concrete syntax.
"""

from __future__ import annotations

import json

from ..prims import DEFAULT_REGISTRY, Registry
from ..syntax.parser import ParseError, parse_shared, parse_shared_type
from ..syntax.printer import render_term, render_type
from ..syntax.terms import Var
from .judgments import Derivation, DistanceJudgment, RULES


class DerivationFormatError(ValueError):
    pass


def derivation_to_dict(d: Derivation) -> dict:
    j = d.conclusion
    return {
        "rule": d.rule,
        "conclusion": {
            "ctx": [[name, render_type(ty)] for name, ty in j.ctx],
            "left": render_term(j.left),
            "dist": render_term(j.dist),
            "right": render_term(j.right),
            "type": render_type(j.ty),
        },
        "premises": [derivation_to_dict(p) for p in d.premises],
    }


def derivation_to_json(d: Derivation) -> str:
    return json.dumps(derivation_to_dict(d), indent=2, sort_keys=True)


def derivation_from_dict(data, registry: Registry = DEFAULT_REGISTRY,
                         path: str = "$") -> Derivation:
    """The derivation ``data`` describes.  One call reads every term text
    through one span table (``parser.parse_shared``): each binder-free
    token span is parsed once, and the subjects that restate it share its
    term, which is safe because terms are immutable.  The table keeps
    each type text's type too, and lives only as long as the call.  Premises
    nested past Python's recursion limit raise
    :class:`DerivationFormatError`."""
    try:
        return _from_dict(data, registry, path, {})
    except RecursionError:
        raise DerivationFormatError(
            f"{path}: derivation nested too deeply to read") from None


def _parsed(src, parse, spans: dict, registry: Registry):
    if not isinstance(src, str):
        raise TypeError(f"expected a string, got {type(src).__name__}")
    return parse(src, spans, registry)


def _binding(entry, spans: dict, registry: Registry):
    """A context entry ``[name, type]`` whose name reads back as the
    variable it names."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise TypeError("expected a context entry [name, type]")
    name, ty_src = entry
    if _parsed(name, parse_shared, spans, registry) != Var(name):
        raise ValueError(f"context name {name!r} is not a variable")
    return name, _parsed(ty_src, parse_shared_type, spans, registry)


def _from_dict(data, registry: Registry, path: str,
               spans: dict) -> Derivation:
    if not isinstance(data, dict):
        raise DerivationFormatError(f"{path}: expected an object")
    for key in ("rule", "conclusion", "premises"):
        if key not in data:
            raise DerivationFormatError(f"{path}: missing {key!r}")
    rule = data["rule"]
    if rule not in RULES:
        raise DerivationFormatError(f"{path}: unknown rule tag {rule!r}")
    c = data["conclusion"]
    if not isinstance(c, dict):
        raise DerivationFormatError(f"{path}.conclusion: expected an object")
    try:
        ctx = tuple(_binding(entry, spans, registry)
                    for entry in c.get("ctx", []))
        judgment = DistanceJudgment(
            ctx,
            _parsed(c["left"], parse_shared, spans, registry),
            _parsed(c["dist"], parse_shared, spans, registry),
            _parsed(c["right"], parse_shared, spans, registry),
            _parsed(c["type"], parse_shared_type, spans, registry))
    except (KeyError, TypeError, ValueError, ParseError) as e:
        raise DerivationFormatError(f"{path}.conclusion: {e}") from e
    premises = data["premises"]
    if not isinstance(premises, list):
        raise DerivationFormatError(f"{path}.premises: expected a list")
    return Derivation(rule, judgment, tuple(
        _from_dict(p, registry, f"{path}.premises[{i}]", spans)
        for i, p in enumerate(premises)))


def derivation_from_json(text: str,
                         registry: Registry = DEFAULT_REGISTRY) -> Derivation:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not valid JSON: {e}") from e
    except RecursionError:
        raise DerivationFormatError(
            "JSON nested too deeply to decode") from None
    return derivation_from_dict(data, registry)
