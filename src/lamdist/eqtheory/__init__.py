"""The deductive theory of program distances: judgments, derivations,
synthesis, membership, and the randomized cross-check suite."""

from .judgments import check_derivation
from .synthesis import (quasi_reflexive_derivation, self_distance_derivation,
                        synthesize_fundamental, transitivity_derivation)
from .dlog import check_dlog, check_dlog_judgment
from .serialize import (DerivationFormatError, derivation_from_json,
                        derivation_to_json)
from .corpus import check_suite

__all__ = [
    "check_derivation",
    "quasi_reflexive_derivation", "self_distance_derivation",
    "synthesize_fundamental", "transitivity_derivation",
    "check_dlog", "check_dlog_judgment",
    "DerivationFormatError", "derivation_from_json", "derivation_to_json",
    "check_suite",
]
