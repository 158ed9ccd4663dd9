"""Probe-based membership checking for the distance relation families."""

import json

from .probes import (MAX_PROBE_DEPTH, MAX_PROBES, ProbeConfig, ProbeSet,
                     ProbeTriple, UnsupportedProbeDepth, canonical_term,
                     empirical_self_diff, library_terms,
                     lipschitz_self_diff)
from .checkers import (ApproxReport, Consistent, Falsified,
                       SelfDistanceEstimate, Verdict, check_delta, check_eta,
                       check_fundamental, check_gamma, check_rho,
                       check_theorem_approx, estimate_self_distance,
                       eta_transitivity_split)
from ..syntax.printer import render_term, render_type
from ..syntax.terms import RealType, Type


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Falsified):
        return {"verdict": "falsified", **v.recheck}
    return {"verdict": "consistent", "probes": v.probes, "depth": v.depth,
            "established": v.established, "note": v.note}


def probes_to_json(ps: ProbeSet, ty: Type) -> dict:
    """Serialize the probe family at one type; function probes are listed
    by their backing terms."""
    rows = []
    for p in ps.triples(ty):
        if isinstance(ty, RealType):
            rows.append({"x": p.left, "b": p.diff, "x2": p.right})
        else:
            rows.append({
                "label": p.label,
                "left": render_term(p.left_term) if p.left_term else None,
                "right": render_term(p.right_term) if p.right_term else None,
            })
    return {"type": render_type(ty), "seed": ps.config.seed, "probes": rows}


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


__all__ = [
    "MAX_PROBE_DEPTH", "MAX_PROBES", "ProbeConfig", "ProbeSet",
    "ProbeTriple", "UnsupportedProbeDepth", "canonical_term",
    "empirical_self_diff", "library_terms", "lipschitz_self_diff",
    "ApproxReport", "Consistent", "Falsified", "SelfDistanceEstimate",
    "Verdict", "check_delta", "check_eta", "check_fundamental",
    "check_gamma", "check_rho", "check_theorem_approx",
    "estimate_self_distance", "eta_transitivity_split",
    "verdict_to_json", "probes_to_json", "dumps",
]
