"""Abstract syntax: types, terms, the stack-safe term fold, substitution.

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
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Union


class TermTooDeep(ValueError):
    """A term or type nested too deeply for a recursive walk: past the
    interpreter's recursion limit."""


# --- types ----------------------------------------------------------------

class Type:
    """Types compare structurally on an explicit stack, and hash by the
    classes of their top two levels: a type nests as deep as the binder
    chain it types."""
    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Type):
            return NotImplemented
        todo = [self, other]  # pairs to compare, flattened
        while todo:
            b, a = todo.pop(), todo.pop()
            if a is b:
                continue
            if (cls := type(a)) is not type(b):
                return False
            if (kids := _TYPE_CHILDREN[cls]) is not None:
                (a1, a2), (b1, b2) = kids(a), kids(b)
                todo += (a1, b1, a2, b2)
        return True

    def __hash__(self):
        a, b = _TYPE_CHILDREN[type(self)](self)
        return hash((_TAGS[type(self)], _TAGS[type(a)], _TAGS[type(b)]))


@dataclass(frozen=True, slots=True, eq=False)
class RealType(Type):
    def __hash__(self):
        return 0

    def __repr__(self):
        return "Real"


@dataclass(frozen=True, slots=True, eq=False)
class PairType(Type):
    left: Type
    right: Type

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


@dataclass(frozen=True, slots=True, eq=False)
class FnType(Type):
    arg: Type
    res: Type

    def __repr__(self):
        return f"({self.arg!r} -> {self.res!r})"


REAL = RealType()
# The children of a type of each class, for ``Type``'s comparisons and for
# the folds of the type walkers; and a tag per class that hashes alike in
# every process
_TYPE_CHILDREN = {RealType: None, FnType: attrgetter("arg", "res"),
                  PairType: attrgetter("left", "right")}
_TAGS = {RealType: 0, PairType: 1, FnType: 2}


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


# --- the variable partition ------------------------------------------------

def dotted(name: str) -> str:
    """The difference-variable partner of a plain variable name."""
    if is_dotted(name):
        raise ValueError(f"{name!r} is already a difference variable")
    return name + "'"


def is_dotted(name: str) -> bool:
    return name.endswith("'")


# --- the fold under every walker -------------------------------------------

# The children of a node of each class, in the order every walker visits them
_CHILDREN = {Var: None, Lit: None, PrimOp: attrgetter("args"),
             App: attrgetter("fn", "arg"), Lam: lambda t: (t.body,),
             Pair: attrgetter("left", "right"), First: lambda t: (t.pair,),
             Second: lambda t: (t.pair,)}

REBUILD = {  # hooks that rebuild each node around new children
    **dict.fromkeys((Var, Lit), lambda state, t, kids: t),
    **dict.fromkeys((App, Pair, First, Second),
                    lambda state, t, kids: type(t)(*kids)),
    PrimOp: lambda state, t, kids: PrimOp(t.name, tuple(kids)),
    Lam: lambda state, t, kids: Lam(t.var, t.var_type, *kids)}


class Skip(tuple):
    """``Skip((result,))``, returned by a ``pre`` hook, skips the children."""


def walker(alg: Mapping, pre: Mapping = {}) -> dict:
    """The table :func:`fold` runs, from hooks keyed by term class:
    ``pre[cls](state, node)`` may check a node or enter a binder into a
    scope that ``alg[Lam]`` leaves; it returns the node, maybe rebuilt, to
    descend into, or a ``Skip``.  ``alg[cls](state, node, results)``
    combines the node with its children's results."""
    return {cls: (pre.get(cls), kids, alg[cls])
            for cls, kids in _CHILDREN.items()}


def type_walker(alg: Mapping) -> dict:
    """The :func:`fold` table of a type walker, from ``alg`` hooks keyed
    by type class."""
    return {cls: (None, kids, alg[cls])
            for cls, kids in _TYPE_CHILDREN.items()}


def fold(t: Term | Type, table: dict, state=None):
    """Fold ``t``, a term or a type, bottom-up on an explicit stack, so
    none is too deep.  A node is combined right after its last child, so
    the hooks run in the order a recursive walk would run them."""
    results = []
    put = results.append
    frames = []  # (node, its alg hook, where its results start, children)
    s = t
    while True:
        try:
            enter, kids, combine = table[type(s)]
        except KeyError:
            what = "type" if isinstance(t, Type) else "term"
            raise TypeError(f"not a {what}: {s!r}") from None
        if enter is not None and type(s := enter(state, s)) is Skip:
            put(s[0])
        elif kids is not None and (kids := kids(s)):
            frames.append((s, combine, len(results), iter(kids)))
        else:
            put(combine(state, s, ()))
        while frames:  # the next child, after combining the finished nodes
            if (s := next(frames[-1][3], None)) is not None:
                break
            node, combine, start, _ = frames.pop()
            results[start:] = [combine(state, node, results[start:])]
        else:
            return results[0]


# --- traversals -------------------------------------------------------------

def subterms(t: Term) -> Iterator[Term]:
    todo = [t]
    while todo:
        yield (s := todo.pop())
        if (kids := _CHILDREN.get(type(s))) is not None:
            todo.extend(reversed(kids(s)))


_FREE_VARS = walker({
    **dict.fromkeys(_CHILDREN, lambda state, t, kids: frozenset().union(*kids)),
    Var: lambda state, t, kids: frozenset((t.name,)),
    Lam: lambda state, t, kids: kids[0] - {t.var},
})


def free_vars(t: Term) -> frozenset[str]:
    return fold(t, _FREE_VARS)


def all_var_names(t: Term) -> frozenset[str]:
    return frozenset(s.name if type(s) is Var else s.var
                     for s in subterms(t) if type(s) in (Var, Lam))


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
    # names that must not be captured by any binder we pass under
    danger = frozenset().union(*(free_vars(v) for v in mapping.values()))
    try:  # with the binders entered, innermost last, and each one's count
        return fold(t, _SUBSTITUTE, (dict(mapping), danger, [], {}))
    except RecursionError:  # renamed binders nested in renamed binders
        raise TermTooDeep("binders renamed too deeply to substitute") from None


def _enter_substitution(state, lam: Lam):
    mapping, danger, entered, shadowed = state
    inner = [k for k in mapping if k != lam.var and not shadowed.get(k)]
    if not inner:
        return Skip((lam,))
    entered.append(lam.var)
    shadowed[lam.var] = shadowed.get(lam.var, 0) + 1
    if lam.var not in danger:
        return lam
    body = lam.body  # renamed first, by a nested walk
    var = fresh_name(lam.var, danger | free_vars(body) | set(inner)
                     | all_var_names(body))
    return Lam(var, lam.var_type, fold(body, _SUBSTITUTE, (
        {lam.var: Var(var)}, danger, [], {})))


def _leave_substitution(state, lam: Lam, kids) -> Lam:
    state[3][state[2].pop()] -= 1
    return Lam(lam.var, lam.var_type, *kids)


_SUBSTITUTE = walker({
    **REBUILD, Lam: _leave_substitution,
    Var: lambda state, v, kids: (v if state[3].get(v.name)
                                 else state[0].get(v.name, v)),
}, {Lam: _enter_substitution})


def rename_binders(t: Term, scope: Iterable[str], pick) -> Term:
    """``t`` with each binder renamed to ``pick(var, body, scope)``, where
    ``scope`` holds the given names and the enclosing binders, as renamed.
    ``pick`` returns ``var`` to keep it, and never a name in ``scope``."""
    return fold(t, _RENAME, (set(scope), pick))


def _enter_renaming(state, lam: Lam) -> Lam:
    scope, pick = state
    scope.add(var := pick(lam.var, lam.body, scope))
    if var == lam.var:
        return lam
    return Lam(var, lam.var_type, substitute(lam.body, {lam.var: Var(var)}))


def _leave_renaming(state, lam: Lam, kids) -> Lam:
    state[0].discard(lam.var)
    return Lam(lam.var, lam.var_type, *kids)


_RENAME = walker({**REBUILD, Lam: _leave_renaming}, {Lam: _enter_renaming})


def alpha_equal(t: Term, s: Term) -> bool:
    r"""Structural equality up to renaming of bound variables.  One object
    on both sides is equal to itself while every binder pair open around
    it binds one name twice; under a pair of two names it is walked, as
    in ``\x.\y.x`` against ``\y.\x.x`` with the body ``x`` shared."""
    # binder name -> a level no other binder in scope has; None when free
    level_t: dict[str, int | None] = {}
    level_s: dict[str, int | None] = {}
    renamed = 0  # open binder pairs of two different names
    todo = [(t, s)]
    while todo:
        a, b = todo.pop()
        if a is b and not renamed:
            continue
        if a is None:  # leave two binders, restoring the levels they hid
            level_t[b[0]], level_s[b[1]] = b[2], b[3]
            renamed -= b[0] != b[1]
        elif (cls := type(a)) is not type(b):
            return False
        elif cls is Var:
            bt, bs = level_t.get(a.name), level_s.get(b.name)
            if bt != bs or bt is None and a.name != b.name:
                return False
        elif cls is Lit:
            if a.value != b.value:
                return False
        elif cls is Lam:
            if a.var_type != b.var_type:
                return False
            todo.append((None, (a.var, b.var, level_t.get(a.var),
                                level_s.get(b.var))))
            level_t[a.var] = level_s[b.var] = len(todo)  # the entry's place
            renamed += a.var != b.var
            todo.append((a.body, b.body))
        elif (kids := _CHILDREN.get(cls)) is None:
            raise TypeError(f"not a term: {a!r}")
        elif cls is PrimOp and (a.name != b.name
                                or len(a.args) != len(b.args)):
            return False
        else:
            todo.extend(zip(reversed(kids(a)), reversed(kids(b))))
    return True
