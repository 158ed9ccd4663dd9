"""Evaluation: values, difference functions, and difference triples."""

from .eval import Value, evaluate
from .diff import Diff, diff_evaluate, residual_diff, tensor_diff, top_diff
from .triples import (DiffTriple, apply_member_triple, compose_triples,
                      curry_triple, element_triple, eval_triple,
                      identity_triple, pair_triples, proj1_triple,
                      proj2_triple)

__all__ = [
    "Value", "evaluate",
    "Diff", "diff_evaluate", "residual_diff", "tensor_diff", "top_diff",
    "DiffTriple", "apply_member_triple", "compose_triples", "curry_triple",
    "element_triple", "eval_triple", "identity_triple", "pair_triples",
    "proj1_triple", "proj2_triple",
]
