"""Quantity algebras: the exact [0, +inf] quantale, user-defined finite
quantales, and the calculus of quantale-valued relations."""

from .lawvere import (ExtReal, INFINITY, LAWVERE, ZERO, join, leq, meet,
                      residual, tensor)
from .finite import (BUILTINS, FiniteQuantale, LawViolation,
                     QuantaleStructureError, boolean, builtin, chain,
                     parse_quantale, validate)
from .qrel import (DomainMismatch, QRel, RelationClassification, classify,
                   is_quasi_reflexive, is_reflexive, is_strongly_transitive,
                   is_transitive, obs_quasi_left, obs_quasi_right, qrel_leq,
                   qrel_residual_left, qrel_residual_right, qrel_tensor,
                   theta_left, theta_right)
from .props import (EnumerationTooLarge, PropFailure, Section3Report,
                    check_section3_props, is_q_closed,
                    least_quasi_metric_above, rel_from_ternary,
                    ternary_from_rel)

__all__ = [
    "ExtReal", "INFINITY", "LAWVERE", "ZERO", "join", "leq", "meet",
    "residual", "tensor",
    "BUILTINS", "FiniteQuantale", "LawViolation", "QuantaleStructureError",
    "boolean", "builtin", "chain", "parse_quantale", "validate",
    "DomainMismatch", "QRel", "RelationClassification", "classify",
    "is_quasi_reflexive", "is_reflexive",
    "is_strongly_transitive", "is_transitive", "obs_quasi_left",
    "obs_quasi_right", "qrel_leq", "qrel_residual_left",
    "qrel_residual_right", "qrel_tensor", "theta_left", "theta_right",
    "EnumerationTooLarge", "PropFailure", "Section3Report",
    "check_section3_props", "is_q_closed", "least_quasi_metric_above",
    "rel_from_ternary", "ternary_from_rel",
]
