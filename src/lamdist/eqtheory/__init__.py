"""The deductive theory of program distances: judgments, derivations,
synthesis, membership, and the randomized cross-check suite."""

from .judgments import (CheckResult, Derivation, DistanceJudgment, RULES,
                        check_derivation)
from .addterm import add_term
from .synthesis import (SynthesisError, quasi_reflexive_derivation,
                        self_distance_derivation, synthesize_fundamental,
                        transitivity_derivation, weaken)
from .dlog import SyntacticProbes, check_dlog, check_dlog_judgment
from .serialize import (DerivationFormatError, derivation_from_dict,
                        derivation_from_json, derivation_to_dict,
                        derivation_to_json)
from .corpus import (SuiteReport, chain_partner, check_suite,
                     random_derivation, random_fn_derivation,
                     random_real_derivation)

__all__ = [
    "CheckResult", "Derivation", "DistanceJudgment", "RULES",
    "check_derivation",
    "add_term",
    "SynthesisError", "quasi_reflexive_derivation",
    "self_distance_derivation", "synthesize_fundamental",
    "transitivity_derivation", "weaken",
    "SyntacticProbes", "check_dlog", "check_dlog_judgment",
    "DerivationFormatError", "derivation_from_dict", "derivation_from_json",
    "derivation_to_dict", "derivation_to_json",
    "SuiteReport", "chain_partner", "check_suite", "random_derivation",
    "random_fn_derivation", "random_real_derivation",
]
