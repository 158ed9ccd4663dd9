"""Per-layer tracing by wrapping lamdist's public functions.

Modules bind these functions with ``from ... import``, so a function is
replaced in every loaded ``lamdist`` module that holds it, not only where
it is defined.  Value and difference functions returned by ``evaluate``
and ``diff_evaluate`` are wrapped too (``semantics.closure``).

Each wrapped call is a span.  A span's self time is its duration minus
the time of the spans it encloses.  Spans are folded into per-name
totals in memory, one table per phase (set-up, warm-up, timed
operations), and written out once the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> (defining module, function name)
TARGETS = (
    ("quantale.parse_quantale", "lamdist.quantale.finite", "parse_quantale"),
    ("quantale.validate", "lamdist.quantale.finite", "validate"),
    ("quantale.check_section3_props", "lamdist.quantale.props",
     "check_section3_props"),
    ("syntax.parse_term", "lamdist.syntax.parser", "parse_term"),
    ("syntax.typecheck", "lamdist.syntax.typecheck", "typecheck"),
    ("syntax.term_equal", "lamdist.syntax.equality", "term_equal"),
    ("semantics.evaluate", "lamdist.semantics.eval", "evaluate"),
    ("semantics.diff_evaluate", "lamdist.semantics.diff", "diff_evaluate"),
    ("prims.prim_modulus", "lamdist.prims", "prim_modulus"),
    ("relations.check_fundamental", "lamdist.relations.checkers",
     "check_fundamental"),
    ("relations.check_gamma", "lamdist.relations.checkers", "check_gamma"),
    ("relations.check_eta", "lamdist.relations.checkers", "check_eta"),
    ("relations.check_delta", "lamdist.relations.checkers", "check_delta"),
    ("relations.estimate_self_distance", "lamdist.relations.checkers",
     "estimate_self_distance"),
    ("eqtheory.derivation_from_json", "lamdist.eqtheory.serialize",
     "derivation_from_json"),
    ("eqtheory.check_derivation", "lamdist.eqtheory.judgments",
     "check_derivation"),
)
CLOSURE = "semantics.closure"
RETURNS_FUNCTIONS = ("semantics.evaluate", "semantics.diff_evaluate")


class Tracer:
    def __init__(self):
        self.phases: dict[str, dict[str, list]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.phase("setup")
        # one child-time accumulator per open span, plus the root
        self._open = [[0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def phase(self, name: str):
        self.table = self.phases.setdefault(name, {})
        self.count = self.counts.setdefault(name, {})

    def add(self, key: str, amount: float):
        self.count[key] = self.count.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        open_spans = self._open
        tracer = self
        hook = _HOOKS.get(name)
        wrap_result = name in RETURNS_FUNCTIONS or name == CLOSURE

        def span(*args, **kwargs):
            open_spans.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                enclosed = open_spans.pop()[0]
                open_spans[-1][0] += took
                row = tracer.table.get(name)
                if row is None:
                    row = tracer.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += took
                row[2] += took - enclosed
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if wrap_result and callable(result):
                result = tracer._wrap(CLOSURE, result)
            return result

        return span

    def install(self):
        """Patch every binding of every target in the loaded lamdist
        modules."""
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "lamdist" or mod_name.startswith("lamdist.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()


def _parse_term_hook(tracer, args, kwargs, result):
    tracer.add("syntax.parse_term.chars", len(args[0]))


def _self_distance_hook(tracer, args, kwargs, result):
    """Raw candidates per the documented rule: the backing term's
    difference, the slope and sampled bounds (Real -> Real only), and the
    top difference; the result lists the ones kept."""
    from lamdist.syntax.terms import FnType, RealType
    ty = args[0]
    if not isinstance(ty, FnType):
        return
    term = kwargs.get("term", args[4] if len(args) > 4 else None)
    raw = 1 + (term is not None)
    if isinstance(ty.arg, RealType) and isinstance(ty.res, RealType):
        raw += 2
    tracer.add("relations.self_distance.raw", raw)
    tracer.add("relations.self_distance.kept", len(result.candidates))


_HOOKS = {
    "syntax.parse_term": _parse_term_hook,
    "relations.estimate_self_distance": _self_distance_hook,
}
