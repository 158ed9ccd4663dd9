"""The calculus: ASTs, concrete syntax, typing, derivatives, equality."""

from .terms import FnType, Lit, REAL, TermTooDeep
from .parser import ParseError, parse_file, parse_term
from .printer import render_term, render_type
from .typecheck import TypecheckError, typecheck
from .derivative import DottedVariableClash, derivative_term, partial_type
from .equality import term_equal

__all__ = [
    "FnType", "Lit", "REAL", "TermTooDeep",
    "ParseError", "parse_file", "parse_term",
    "render_term", "render_type",
    "TypecheckError", "typecheck",
    "DottedVariableClash", "derivative_term", "partial_type",
    "term_equal",
]
