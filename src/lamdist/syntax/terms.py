"""Abstract syntax: types, terms, scopes, the stack-safe term fold,
substitution.

Types and scopes (typing contexts) are interned: construction returns the
one live object of a structure, so they compare by identity, and a scope
is its parent plus one entry, so a context costs the same at any depth.
Variables come in two disjoint families: plain names and their primed
partners (``x`` / ``x'``).  The primed family is reserved for the
difference variables introduced by the derivative transform; the parser
accepts both, and ``dotted``/``is_dotted`` mediate the bijection.
Literals carry exact rationals so side conditions on constants never
round.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Union


class TermTooDeep(ValueError):
    """A term or type nested too deeply for a recursive walk: past the
    interpreter's recursion limit."""


class on_overflow:
    """A context in which passing the interpreter's recursion limit raises
    ``error(message)``, not ``RecursionError``: the one place where an
    overflow becomes a typed error."""
    __slots__ = ("error", "message")

    def __init__(self, error: type[Exception], message: str):
        self.error, self.message = error, message

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, RecursionError):
            raise self.error(self.message) from None
        return False


# --- types ----------------------------------------------------------------
# Hash-consed, as in Filliâtre and Conchon, "Type-safe modular hash-consing"
# (ML Workshop, 2006): one object per structure, so ``==`` is ``is``.

class Type:
    """A type.  Construction returns the one live type of its structure,
    kept in ``INTERNED`` while something else refers to it; its hash is
    computed once, from its children's, and is the same in every process.
    A type nests as deep as the binder chain it types."""
    # ``_partial`` refers to the type's partial type, see
    # ``derivative.partial_type``
    __slots__ = ("_hash", "_partial", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return fold(self, _TYPE_REPR)

    def __reduce__(self):  # copies and unpickles intern again
        kids = _TYPE_CHILDREN[type(self)]
        return type(self), kids(self) if kids else ()


# (class, ids of the children) -> the live object of that structure, for
# types and scopes: an entry goes when its object does
INTERNED = weakref.WeakValueDictionary()


def _interned(cls, tag: int, *kids):
    """The live ``cls`` type with children ``kids``, made if none is."""
    if (ty := INTERNED.get(key := (cls, *map(id, kids)))) is None:
        ty = INTERNED[key] = object.__new__(cls)
        for name, kid in zip(cls.__slots__, kids):
            object.__setattr__(ty, name, kid)
        object.__setattr__(ty, "_hash", hash((tag, *map(hash, kids))))
        object.__setattr__(ty, "_partial", None)
    return ty


class RealType(Type):
    __slots__ = ()

    def __new__(cls):
        return REAL


class PairType(Type):
    __slots__ = ("left", "right")

    def __new__(cls, left: Type, right: Type):
        return _interned(cls, 1, left, right)


class FnType(Type):
    __slots__ = ("arg", "res")

    def __new__(cls, arg: Type, res: Type):
        return _interned(cls, 2, arg, res)


REAL = _interned(RealType, 0)
# The children of a type of each class, for the folds of the type walkers
_TYPE_CHILDREN = {RealType: None, FnType: attrgetter("arg", "res"),
                  PairType: attrgetter("left", "right")}


# --- terms ----------------------------------------------------------------

class _Node:
    """The base of the term classes.  ``repr`` runs on :func:`fold`, so a
    term of any depth prints, in the dataclasses' format."""
    __slots__ = ()

    def __repr__(self):
        return fold(self, _TERM_REPR)


@dataclass(frozen=True, slots=True, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Lit(_Node):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True, repr=False)
class PrimOp(_Node):
    name: str
    args: tuple["Term", ...]


@dataclass(frozen=True, slots=True, repr=False)
class App(_Node):
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True, repr=False)
class Lam(_Node):
    var: str
    var_type: Type
    body: "Term"


@dataclass(frozen=True, slots=True, repr=False)
class Pair(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True, repr=False)
class First(_Node):
    pair: "Term"


@dataclass(frozen=True, slots=True, repr=False)
class Second(_Node):
    pair: "Term"


Term = Union[Var, Lit, PrimOp, App, Lam, Pair, First, Second]

Context = tuple[tuple[str, Type], ...]


class Scope:
    """A typing context as a persistent chain: the entries of ``parent``,
    then ``entry``, a ``(name, type)`` pair.  Scopes are interned like
    types, per (parent, name, type), so entering a binder costs the same
    at any depth and the contexts with the same entries are one object.
    A scope iterates, compares and hashes like the tuple of its entries.
    ``primed`` is the first primed name it binds, or None; ``_doubled``
    keeps its doubled scope (see ``derivative.doubled``)."""
    __slots__ = ("parent", "entry", "depth", "primed", "_doubled",
                 "__weakref__")

    def enter(self, name: str, ty: Type) -> Scope:
        """This scope extended by the binder ``name: ty``."""
        if (scope := INTERNED.get(key := (Scope, id(self), name,
                                          id(ty)))) is None:
            scope = INTERNED[key] = object.__new__(Scope)
            scope.parent, scope.entry = self, (name, ty)
            scope.depth = self.depth + 1
            scope.primed = self.primed or (name if is_dotted(name) else None)
            scope._doubled = None
        return scope

    @staticmethod
    def of(ctx: Context | Scope) -> Scope:
        """``ctx`` if it is a scope, else the scope of its entries."""
        return ctx if type(ctx) is Scope else EMPTY_SCOPE + ctx

    def __add__(self, entries) -> Scope:
        scope = self
        for name, ty in entries:
            scope = scope.enter(name, ty)
        return scope

    def __iter__(self):
        entries, scope = [], self
        while scope.depth:
            entries.append(scope.entry)
            scope = scope.parent
        return reversed(entries)

    def __len__(self):
        return self.depth

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other):
        if isinstance(other, tuple):
            return len(other) == self.depth and tuple(self) == other
        return self is other if isinstance(other, Scope) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Scope({tuple(self)!r})"


EMPTY_SCOPE = object.__new__(Scope)
EMPTY_SCOPE.parent = EMPTY_SCOPE.entry = EMPTY_SCOPE.primed = None
EMPTY_SCOPE.depth, EMPTY_SCOPE._doubled = 0, EMPTY_SCOPE


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


def type_walker(alg: Mapping, pre: Mapping = {}) -> dict:
    """The :func:`fold` table of a type walker, from ``alg`` and ``pre``
    hooks keyed by type class, as for :func:`walker`."""
    return {cls: (pre.get(cls), kids, alg[cls])
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


_TYPE_REPR = type_walker({
    RealType: lambda state, ty, kids: "Real",
    PairType: lambda state, ty, kids: f"({kids[0]} * {kids[1]})",
    FnType: lambda state, ty, kids: f"({kids[0]} -> {kids[1]})",
})
_ARROW_DEPTH = type_walker({
    RealType: lambda state, ty, kids: 0,
    PairType: lambda state, ty, kids: max(kids),
    FnType: lambda state, ty, kids: max(kids[0] + 1, kids[1]),
})


class _ReprTable(dict):
    """A fold table that prints a child of no term class, such as a
    misplaced type or number, by its own ``repr``."""

    def __missing__(self, cls):
        return None, None, lambda state, s, kids: repr(s)


def _repr_args(kids) -> str:  # a tuple's repr, from its items' reprs
    return f"({kids[0]},)" if len(kids) == 1 else f"({', '.join(kids)})"


_TERM_REPR = _ReprTable(walker({
    Var: lambda state, t, kids: f"Var(name={t.name!r})",
    Lit: lambda state, t, kids: f"Lit(value={t.value!r})",
    PrimOp: lambda state, t, kids:
        f"PrimOp(name={t.name!r}, args={_repr_args(kids)})",
    App: lambda state, t, kids: f"App(fn={kids[0]}, arg={kids[1]})",
    Lam: lambda state, t, kids:
        f"Lam(var={t.var!r}, var_type={t.var_type!r}, body={kids[0]})",
    Pair: lambda state, t, kids: f"Pair(left={kids[0]}, right={kids[1]})",
    First: lambda state, t, kids: f"First(pair={kids[0]})",
    Second: lambda state, t, kids: f"Second(pair={kids[0]})",
}))


def arrow_depth(ty: Type) -> int:
    """Nesting depth of arrows; Real and products of Reals have depth 0."""
    return fold(ty, _ARROW_DEPTH)


# --- traversals -------------------------------------------------------------

def subterms(t: Term) -> Iterator[Term]:
    todo = [t]
    while todo:
        yield (s := todo.pop())
        if (kids := _CHILDREN.get(type(s))) is not None:
            todo.extend(reversed(kids(s)))


_FREE_NAMES = {  # a node's free names, from its children's
    **dict.fromkeys(_CHILDREN, lambda state, t, kids: frozenset().union(*kids)),
    Var: lambda state, t, kids: frozenset((t.name,)),
    Lam: lambda state, t, kids: kids[0] - {t.var},
}
_FREE_VARS = walker(_FREE_NAMES)


def _keep_free_vars(memo, t: Term, kids) -> frozenset[str]:
    memo[id(t)] = t, (names := _FREE_NAMES[type(t)](memo, t, kids))
    return names


_FREE_VARS_KEPT = walker(  # reads each subterm not in the memo
    dict.fromkeys(_CHILDREN, _keep_free_vars),
    dict.fromkeys(_CHILDREN, lambda memo, t: Skip((hit[1],)) if (
        hit := memo.get(id(t))) is not None else t))


def free_vars(t: Term, memo: dict | None = None) -> frozenset[str]:
    """The names free in ``t``.  With ``memo``, a dict from a subterm's id
    to the subterm and its free names, kept over calls, each subterm met
    before is not read again."""
    if memo is None:
        return fold(t, _FREE_VARS)
    return fold(t, _FREE_VARS_KEPT, memo)


def var_names(roots: Iterable[Term], seen: set[int]) -> Iterator[str]:
    """The names bound or used in ``roots``, reading each subterm whose id
    is not in ``seen`` once and adding its id there."""
    todo = list(roots)
    while todo:
        if id(s := todo.pop()) not in seen:
            seen.add(id(s))
            if type(s) is Var or type(s) is Lam:
                yield s.name if type(s) is Var else s.var
            if (kids := _CHILDREN.get(type(s))) is not None:
                todo.extend(kids(s))


def all_var_names(t: Term) -> frozenset[str]:
    return frozenset(var_names((t,), set()))


def fresh_names(base: str, avoid: frozenset[str] | set[str]) -> Iterator[str]:
    """The plain-family names ``base``, ``base1``, ... not in ``avoid``
    whose primed partners are free too, each tested when it is drawn."""
    stem = base.rstrip("'") or "v"
    for name in (f"{stem}{i or ''}" for i in count()):
        if name not in avoid and name + "'" not in avoid:
            yield name


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A plain-family name not in ``avoid`` whose primed partner is free too."""
    return next(fresh_names(base, avoid))


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution."""
    # names that must not be captured by any binder we pass under
    danger = frozenset().union(*(free_vars(v) for v in mapping.values()))
    # renamed binders nested in renamed binders recurse
    with on_overflow(TermTooDeep, "binders renamed too deeply to substitute"):
        # with the binders entered, innermost last, and each one's count
        return fold(t, _SUBSTITUTE, (dict(mapping), danger, [], {}))


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
