"""Probe-based membership checking for the distance relation families."""

from .probes import MAX_PROBES, ProbeConfig, ProbeSet
from .checkers import (Consistent, Falsified, check_delta, check_eta,
                       check_fundamental, check_gamma, check_rho,
                       check_theorem_approx, eta_transitivity_split)

__all__ = [
    "MAX_PROBES", "ProbeConfig", "ProbeSet",
    "Consistent", "Falsified", "check_delta", "check_eta",
    "check_fundamental", "check_gamma", "check_rho", "check_theorem_approx",
    "eta_transitivity_split",
]
