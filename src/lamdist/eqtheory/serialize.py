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
from itertools import islice

from ..prims import DEFAULT_REGISTRY, Registry
from ..syntax.parser import ParseError, parse_shared, parse_shared_type
from ..syntax.printer import render_term, render_type
from ..syntax.terms import EMPTY_SCOPE, Scope, Var, on_overflow
from .judgments import Derivation, DistanceJudgment, RULES


class DerivationFormatError(ValueError):
    pass


def derivation_to_dict(d: Derivation) -> dict:
    """The schema's object for ``d``, built on an explicit stack, so no
    derivation is too deep for it."""
    return _to_dict(d, render_term, render_type, None)


def _to_dict(d: Derivation, term, ty, entries: int | None) -> dict:
    """``d``'s object, with ``term`` and ``ty`` writing its texts and the
    first ``entries`` entries of each context (all if None) in it."""
    root: dict = {}
    todo = [(d, root)]
    while todo:
        node, out = todo.pop()
        j = node.conclusion
        premises = [{} for _ in node.premises]
        out.update({
            "rule": node.rule,
            "conclusion": {
                "ctx": [[x, ty(a)] for x, a in islice(j.ctx, entries)],
                "left": term(j.left),
                "dist": term(j.dist),
                "right": term(j.right),
                "type": ty(j.ty),
            },
            "premises": premises,
        })
        todo += zip(node.premises, premises)
    return root


def derivation_to_json(d: Derivation) -> str:
    """``d`` as indented JSON.  The ``json`` module writes nested objects
    by recursion, so past about 500 premise levels (at Python's default
    recursion limit) this raises :class:`DerivationFormatError`, before
    rendering a term: it writes first a shape as deep, with no text."""
    with on_overflow(DerivationFormatError,
                     "derivation nested too deeply to write"):
        json.dumps(_to_dict(d, lambda t: "", lambda ty: "", 1), indent=0)
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
    with on_overflow(DerivationFormatError,
                     f"{path}: derivation nested too deeply to read"):
        return _from_dict(data, registry, path, {})


def _parsed(src, parse, spans: dict, registry: Registry):
    if not isinstance(src, str):
        raise TypeError(f"expected a string, got {type(src).__name__}")
    return parse(src, spans, registry)


def _context(entries, spans: dict, registry: Registry) -> Scope:
    """The scope of the context entries ``[name, type]``, each name
    reading back as the variable it names.  Each (scope, entry) pair is
    read once per call and kept in ``spans`` under a key that starts with
    ``Scope``, which no token tuple does."""
    scope = EMPTY_SCOPE
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise TypeError("expected a context entry [name, type]")
        name, ty_src = entry
        key = (Scope, id(scope), name, ty_src)
        if type(name) is not str or type(ty_src) is not str or (
                inner := spans.get(key)) is None:
            if _parsed(name, parse_shared, spans, registry) != Var(name):
                raise ValueError(f"context name {name!r} is not a variable")
            inner = spans[key] = scope.enter(
                name, _parsed(ty_src, parse_shared_type, spans, registry))
        scope = inner
    return scope


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
        ctx = _context(c.get("ctx", []), spans, registry)
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
        with on_overflow(DerivationFormatError,
                         "JSON nested too deeply to decode"):
            data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not valid JSON: {e}") from e
    return derivation_from_dict(data, registry)
