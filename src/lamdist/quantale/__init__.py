"""Quantity algebras: the exact [0, +inf] quantale, user-defined finite
quantales, and the calculus of quantale-valued relations."""

from .finite import (BUILTINS, QuantaleStructureError, builtin, chain,
                     parse_quantale, validate)
from .qrel import QRel, classify
from .props import (EnumerationTooLarge, check_section3_props,
                    rel_from_ternary, ternary_from_rel)

__all__ = [
    "BUILTINS", "QuantaleStructureError", "builtin", "chain",
    "parse_quantale", "validate",
    "QRel", "classify",
    "EnumerationTooLarge", "check_section3_props", "rel_from_ternary",
    "ternary_from_rel",
]
