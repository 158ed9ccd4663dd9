"""Abstract syntax: types, terms, contexts, and capture-avoiding substitution.

Variables come in two disjoint families: plain names and their primed
partners (``x`` / ``x'``).  The primed family is reserved for the
difference variables introduced by the derivative transform; the parser
accepts both, and ``dotted``/``is_dotted`` mediate the bijection.
Literals carry exact rationals so side conditions on constants never
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union


class TermTooDeep(ValueError):
    """A term or type nested too deeply for a recursive walk: past the
    interpreter's recursion limit."""


# --- types ----------------------------------------------------------------

class Type:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RealType(Type):
    def __repr__(self):
        return "Real"


@dataclass(frozen=True, slots=True)
class PairType(Type):
    left: Type
    right: Type

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


@dataclass(frozen=True, slots=True)
class FnType(Type):
    arg: Type
    res: Type

    def __repr__(self):
        return f"({self.arg!r} -> {self.res!r})"


REAL = RealType()


def arrow_depth(ty: Type) -> int:
    """Nesting depth of arrows; Real and products of Reals have depth 0."""
    if isinstance(ty, FnType):
        return max(arrow_depth(ty.arg) + 1, arrow_depth(ty.res))
    if isinstance(ty, PairType):
        return max(arrow_depth(ty.left), arrow_depth(ty.right))
    return 0


# --- terms ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Lit:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class PrimOp:
    name: str
    args: tuple["Term", ...]


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    var: str
    var_type: Type
    body: "Term"


@dataclass(frozen=True, slots=True)
class Pair:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class First:
    pair: "Term"


@dataclass(frozen=True, slots=True)
class Second:
    pair: "Term"


Term = Union[Var, Lit, PrimOp, App, Lam, Pair, First, Second]

Context = tuple[tuple[str, Type], ...]


def lit(value) -> Lit:
    return Lit(Fraction(value))


# --- the variable partition ------------------------------------------------

def dotted(name: str) -> str:
    """The difference-variable partner of a plain variable name."""
    if is_dotted(name):
        raise ValueError(f"{name!r} is already a difference variable")
    return name + "'"


def is_dotted(name: str) -> bool:
    return name.endswith("'")


# --- traversals -------------------------------------------------------------

def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, PrimOp):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, Lam):
        yield from subterms(t.body)
    elif isinstance(t, Pair):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, (First, Second)):
        yield from subterms(t.pair)


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Lit):
        return frozenset()
    if isinstance(t, PrimOp):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, Pair):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, (First, Second)):
        return free_vars(t.pair)
    raise TypeError(f"not a term: {t!r}")


def all_var_names(t: Term) -> frozenset[str]:
    out = set()
    for s in subterms(t):
        if isinstance(s, Var):
            out.add(s.name)
        elif isinstance(s, Lam):
            out.add(s.var)
    return frozenset(out)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A plain-family name not in ``avoid`` whose primed partner is free too."""
    stem = base.rstrip("'") or "v"
    if stem not in avoid and stem + "'" not in avoid:
        return stem
    i = 1
    while f"{stem}{i}" in avoid or f"{stem}{i}'" in avoid:
        i += 1
    return f"{stem}{i}"


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution."""
    if not mapping:
        return t
    # names that must not be captured by any binder we pass under
    danger = frozenset().union(*(free_vars(v) for v in mapping.values()))
    return _substitute(t, dict(mapping), danger)


def _substitute(t: Term, mapping: Mapping[str, Term],
                danger: frozenset[str]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Lit):
        return t
    if isinstance(t, PrimOp):
        return PrimOp(t.name, tuple(_substitute(a, mapping, danger)
                                    for a in t.args))
    if isinstance(t, App):
        return App(_substitute(t.fn, mapping, danger),
                   _substitute(t.arg, mapping, danger))
    if isinstance(t, Pair):
        return Pair(_substitute(t.left, mapping, danger),
                    _substitute(t.right, mapping, danger))
    if isinstance(t, First):
        return First(_substitute(t.pair, mapping, danger))
    if isinstance(t, Second):
        return Second(_substitute(t.pair, mapping, danger))
    if isinstance(t, Lam):
        inner = {k: v for k, v in mapping.items() if k != t.var}
        if not inner:
            return t
        var = t.var
        body = t.body
        if var in danger:
            avoid = (danger | free_vars(body)
                     | {n for n in inner} | all_var_names(body))
            var = fresh_name(t.var, avoid)
            body = _substitute(body, {t.var: Var(var)}, danger)
        return Lam(var, t.var_type, _substitute(body, inner, danger))
    raise TypeError(f"not a term: {t!r}")


def alpha_equal(t: Term, s: Term) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha_equal(t, s, {}, {}, 0)


def _alpha_equal(t, s, env_t, env_s, depth) -> bool:
    if type(t) is not type(s):
        return False
    if isinstance(t, Var):
        bt, bs = env_t.get(t.name), env_s.get(s.name)
        if bt is None and bs is None:
            return t.name == s.name
        return bt == bs
    if isinstance(t, Lit):
        return t.value == s.value
    if isinstance(t, PrimOp):
        return (t.name == s.name and len(t.args) == len(s.args)
                and all(_alpha_equal(a, b, env_t, env_s, depth)
                        for a, b in zip(t.args, s.args)))
    if isinstance(t, App):
        return (_alpha_equal(t.fn, s.fn, env_t, env_s, depth)
                and _alpha_equal(t.arg, s.arg, env_t, env_s, depth))
    if isinstance(t, Lam):
        if t.var_type != s.var_type:
            return False
        return _alpha_equal(t.body, s.body,
                            {**env_t, t.var: depth}, {**env_s, s.var: depth},
                            depth + 1)
    if isinstance(t, Pair):
        return (_alpha_equal(t.left, s.left, env_t, env_s, depth)
                and _alpha_equal(t.right, s.right, env_t, env_s, depth))
    if isinstance(t, (First, Second)):
        return _alpha_equal(t.pair, s.pair, env_t, env_s, depth)
    raise TypeError(f"not a term: {t!r}")
