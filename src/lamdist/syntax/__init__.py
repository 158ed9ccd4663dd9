"""The calculus: ASTs, concrete syntax, typing, derivatives, equality."""

from .terms import (App, Context, First, FnType, Lam, Lit, Pair, PairType,
                    PrimOp, REAL, RealType, Second, Term, TermTooDeep, Type,
                    Var, alpha_equal, all_var_names, arrow_depth, dotted,
                    free_vars, fresh_name, is_dotted, substitute)
from .parser import ParseError, parse_file, parse_term
from .printer import render_fraction, render_term, render_type
from .typecheck import TypecheckError, typecheck
from .derivative import (DottedVariableClash, derivative_term,
                         partial_context, partial_type)
from .equality import normalize, term_equal

__all__ = [
    "App", "Context", "First", "FnType", "Lam", "Lit", "Pair", "PairType",
    "PrimOp", "REAL", "RealType", "Second", "Term", "TermTooDeep", "Type",
    "Var", "alpha_equal", "all_var_names", "arrow_depth", "dotted",
    "free_vars", "fresh_name", "is_dotted", "substitute",
    "ParseError", "parse_file", "parse_term",
    "render_fraction", "render_term", "render_type",
    "TypecheckError", "typecheck",
    "DottedVariableClash", "derivative_term", "partial_context",
    "partial_type",
    "normalize", "term_equal",
]
