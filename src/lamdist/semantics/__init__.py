"""Evaluation: values, difference functions, and difference triples."""

from .eval import evaluate
from .diff import diff_evaluate
from .triples import compose_triples, identity_triple

__all__ = [
    "evaluate", "diff_evaluate", "compose_triples", "identity_triple",
]
