r"""Concrete syntax.

Terms::

    term        ->  \NAME:type. term            lambda (lowest precedence)
                 |  arith
    arith       ->  summand (("+" | "-") summand)*
    summand     ->  factor (("*" | "/") factor)*
    factor      ->  "-" factor | application
    application ->  atom atom*                   left associative
    atom        ->  NUMBER
                 |  "fst" "(" term ")" | "snd" "(" term ")"
                 |  PRIM "(" [term ("," term)*] ")"   registered primitives
                 |  NAME
                 |  "(" term ")" | "(" term "," term ")"

    type        ->  ptype ["->" type]            right associative
    ptype       ->  atype ("*" atype)*
    atype       ->  "Real" | "(" type ")"

The infix operators ``+ - * /`` are sugar for the ``add``/``sub``/
``mul``/``div`` primitives; ``-`` before a number literal folds into the
literal.  Names may carry trailing primes (``x'``), the reserved family
of difference variables.  ``#`` starts a comment.

Term files hold one ``name = term`` definition per line; later
definitions may mention earlier names, which are inlined textually.

Binders that shadow an enclosing binder or a free name are renamed to
fresh plain-family names by a walk that runs only when some binder does
(the parser tracks both as it descends) and after inlining; both walks
run on the stack-safe term fold.  Every call of ``parse_term`` parses
afresh.  ``parse_shared`` parses the texts of one derivation file
through a span table: each span without a binder is parsed once, and
every text that holds it shares its term.  Only parentheses, argument
lists and arrow types recurse; past the recursion limit they raise
``TermTooDeep``.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from ..prims import DEFAULT_REGISTRY, Registry
from .terms import (App, First, FnType, Lam, Lit, Pair, PairType, PrimOp,
                    REAL, Second, Term, TermTooDeep, Type, Var, all_var_names,
                    free_vars, fresh_name, rename_binders, substitute)


class ParseError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_LEXEME = r"\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*'*|->|[\\.:(),*+\-/=]"
# the longest prefix made of whitespace, comments and lexemes
_SCAN = re.compile(rf"(?:[ \t\r\n]+|\#[^\n]*|{_LEXEME})*")
# one lexeme after whitespace and comments; "" at the end of the text
_TOKEN = re.compile(rf"(?:[ \t\r\n]+|\#[^\n]*)*({_LEXEME}|\Z)")

_RESERVED = {"fst", "snd", "Real"}
# the end and the punctuation other than "(": tokens that cannot start an atom
_NO_ATOM = {"", "->", "\\", ".", ":", ")", ",", "*", "+", "-", "/", "="}
_is_name = re.compile(r"[A-Za-z_]").match
_SUMS = {"+": "add", "-": "sub"}
_PRODUCTS = {"*": "mul", "/": "div"}


def _error_at(message: str, text: str, pos: int, line: int = 1) -> ParseError:
    return ParseError(message, line + text.count("\n", 0, pos),
                      pos - text.rfind("\n", 0, pos))


def _tokenize(text: str, line: int = 1) -> list[str]:
    """The lexemes of ``text``, then ``""`` (once or twice) for its end."""
    end = _SCAN.match(text).end()
    if end < len(text):
        raise _error_at(f"unexpected character {text[end]!r}", text, end, line)
    return _TOKEN.findall(text)


class _Parser:
    """Recursive descent over the lexemes of one text, recording the free
    names, the bound ones, and whether a binder repeats an enclosing one."""

    def __init__(self, text: str, toks: list[str], registry: Registry,
                 line: int | None = None):
        self.text, self.toks, self.registry = text, toks, registry
        self.line = line  # set for one line of a definition file
        self.i = 0
        self.bound: dict[str, int] = {}  # enclosing binders by name
        self.binders: set[str] = set()
        self.free: set[str] = set()
        self.shadows = False

    def renamed(self, t: Term) -> Term:
        """``t`` with its shadowing binders renamed, walked only if any."""
        if self.shadows or not self.binders.isdisjoint(self.free):
            return _freshen_shadowed(t, self.free, self.binders | self.free)
        return t

    def error(self, message: str, index: int) -> ParseError:
        """A ``ParseError`` at token ``index``, located by re-scanning."""
        if self.line is not None and self.toks[index] == "":
            return ParseError(message, self.line, 0)  # end of a definition
        pos = [m.start(1) for m in _TOKEN.finditer(self.text)][index]
        return _error_at(message, self.text, pos, self.line or 1)

    def fail(self, message: str):
        at = repr(self.toks[self.i]) if self.toks[self.i] else "end of input"
        raise self.error(f"{message} (found {at})", self.i)

    def expect(self, text: str):
        if self.toks[self.i] != text:
            self.fail(f"expected {text!r}")
        self.i += 1

    def whole(self, parse, what: str):
        """``parse()``, which must consume every token."""
        result = parse()
        if self.toks[self.i] != "":
            self.fail(f"trailing input after {what}")
        return result

    def type_(self):
        left = self.atype()
        while self.toks[self.i] == "*":
            self.i += 1
            left = PairType(left, self.atype())
        if self.toks[self.i] == "->":
            self.i += 1
            return FnType(left, self.type_())
        return left

    def atype(self):
        tok = self.toks[self.i]
        if tok == "Real":
            self.i += 1
            return REAL
        if tok == "(":
            self.i += 1
            ty = self.type_()
            self.expect(")")
            return ty
        self.fail("expected a type")

    def term(self) -> Term:
        """A binder chain over a sum of products of factors."""
        toks, bound = self.toks, self.bound
        chain = []
        while toks[self.i] == "\\":
            self.i += 1
            name = toks[self.i]
            if not _is_name(name) or name in _RESERVED:
                self.fail("expected a variable to bind")
            self.i += 1
            self.expect(":")
            ty = self.type_()
            self.expect(".")
            self.shadows = self.shadows or bool(bound.get(name))
            self.binders.add(name)
            bound[name] = bound.get(name, 0) + 1
            chain.append((name, ty))
        body = None
        while True:
            start = self.i
            t = self.factor()
            if (op := _PRODUCTS.get(toks[self.i])) is not None:
                while op is not None:
                    self.i += 1
                    t = PrimOp(op, (t, self.factor()))
                    op = _PRODUCTS.get(toks[self.i])
                self.parsed(start, t)
            body = t if body is None else PrimOp(sum_op, (body, t))
            if (sum_op := _SUMS.get(toks[self.i])) is None:
                break
            self.i += 1
        for name, ty in reversed(chain):
            bound[name] -= 1
            body = Lam(name, ty, body)
        return body

    def factor(self) -> Term:
        """``-`` prefixes over an application spine."""
        toks = self.toks
        start = self.i
        while toks[self.i] == "-":
            self.i += 1
        negations = self.i - start
        t = self.atom()
        while toks[self.i] not in _NO_ATOM:
            t = App(t, self.atom())
        for _ in range(negations):
            t = Lit(-t.value) if isinstance(t, Lit) else PrimOp("neg", (t,))
        return t

    def atom(self) -> Term:
        i = self.i
        tok = self.toks[i]
        if tok == "(":
            self.i += 1
            inner = self.component()
            if self.toks[self.i] == ",":
                self.i += 1
                inner = Pair(inner, self.component())
            self.expect(")")
            return inner
        if tok in _NO_ATOM:
            self.fail("expected a term")
        self.i += 1
        if tok[0].isdigit():
            whole, _, frac = tok.partition(".")
            return Lit(Fraction(int(whole + frac), 10 ** len(frac)))
        if tok == "fst" or tok == "snd":
            self.expect("(")
            inner = self.component()
            self.expect(")")
            return First(inner) if tok == "fst" else Second(inner)
        if tok == "Real":
            raise self.error("'Real' is a type, not a term", i)
        if tok in self.registry:
            if self.toks[self.i] != "(":
                raise self.error(f"primitive {tok!r} needs an argument list", i)
            return self.prim_call(i)
        if not self.bound.get(tok):
            self.free.add(tok)
        return Var(tok)

    def prim_call(self, at: int) -> Term:
        name = self.toks[at]
        self.expect("(")
        args: list[Term] = []
        if self.toks[self.i] != ")":
            args.append(self.component())
            while self.toks[self.i] == ",":
                self.i += 1
                args.append(self.component())
        self.expect(")")
        if len(args) != (want := self.registry.arity(name)):
            raise self.error(f"primitive {name!r} takes {want} argument(s), "
                             f"got {len(args)}", at)
        return PrimOp(name, tuple(args))

    # a term between "(" or "," and "," or ")"
    component = term

    def parsed(self, start: int, t: Term):
        """Note that tokens ``start`` to ``self.i`` parsed to ``t``."""


class _SharedParser(_Parser):
    """A parser that reads and fills a span table, ``spans``: the terms of
    binder-free token spans keyed by their token tuples, and the terms of
    whole texts keyed by the text.  A span is parsed the same wherever it
    stands, save for which of its names are free, so a stored span stands
    in for parsing it.  Spans holding a binder are never stored; nor is
    every prefix of a sum, which would take quadratic space."""

    def __init__(self, text: str, toks: tuple[str, ...], registry: Registry,
                 spans: dict):
        super().__init__(text, toks, registry)
        self.spans = spans
        self.binds = "\\" in toks
        if self.binds:  # the variables' names
            self.names = {tok for tok in set(toks) if _is_name(tok)
                          and tok not in registry and tok not in _RESERVED}
        self.made: list[tuple[int, int, Term]] = []
        # where each parenthesised component ends, keyed by where it
        # starts, and where each group ends, past its ")", keyed by its "("
        self.ends: dict[int, int] = {}
        self.group_ends: dict[int, int] = {}
        opened = []  # [index of "(", start of its current component]
        for k, tok in enumerate(toks):
            if tok == "(":
                opened.append([k, k + 1])
            elif opened and tok == ",":
                self.ends[opened[-1][1]] = k
                opened[-1][1] = k + 1
            elif opened and tok == ")":
                at, start = opened.pop()
                self.ends[start] = k
                self.group_ends[at] = k + 1

    def reuse(self, start: int, end: int | None) -> Term | None:
        """The stored term of tokens ``start`` to ``end``, if any, read as
        if parsed: its unbound names become free."""
        if end is None or (t := self.spans.get(self.toks[start:end])) is None:
            return None
        if self.binds:
            bound = self.bound
            self.free.update(name for name in self.names.intersection(
                self.toks[start:end]) if not bound.get(name))
        self.i = end
        return t

    def component(self) -> Term:
        start = self.i
        if (t := self.reuse(start, self.ends.get(start))) is None:
            t = self.term()
            self.parsed(start, t)
        return t

    def prim_call(self, at: int) -> Term:
        if (t := self.reuse(at, self.group_ends.get(at + 1))) is None:
            t = super().prim_call(at)
            self.parsed(at, t)
        return t

    def parsed(self, start: int, t: Term):
        self.made.append((start, self.i, t))

    def store(self):
        """Enter the binder-free spans met, once the text has parsed."""
        spans, toks = self.spans, self.toks
        for start, end, t in self.made:
            key = toks[start:end]
            if not self.binds or "\\" not in key:
                spans.setdefault(key, t)


def _freshen_shadowed(t: Term, free: set[str], names: set[str]) -> Term:
    """Rename binders that shadow a name in scope (``free`` ones of ``t``
    included), avoiding ``names``, so typing contexts hold no duplicates."""
    used = set(names)

    def pick(var: str, body: Term, scope: set[str]) -> str:
        if var in scope:  # every name in scope is in ``used``
            var = fresh_name(var, used)
            used.add(var)
        return var

    return rename_binders(t, free, pick)


def _bounded(parse):
    """``parse``, raising ``TermTooDeep`` instead of ``RecursionError``."""
    @functools.wraps(parse)
    def bounded(*args):
        try:
            return parse(*args)
        except RecursionError:
            raise TermTooDeep("input nested too deeply to parse") from None
    return bounded


@_bounded
def parse_term(text: str, registry: Registry = DEFAULT_REGISTRY) -> Term:
    p = _Parser(text, _tokenize(text), registry)
    return p.renamed(p.whole(p.term, "term"))


@_bounded
def parse_shared(text: str, spans: dict,
                 registry: Registry = DEFAULT_REGISTRY) -> Term:
    """``parse_term(text, registry)``, reusing and adding to ``spans``, a
    span table kept for one registry (see ``_SharedParser``).  The term
    returned may share subterms with the other texts read through it."""
    if (t := spans.get(text)) is None:
        toks = tuple(_tokenize(text))
        whole = toks[:toks.index("")]
        if (t := spans.get(whole)) is None:
            p = _SharedParser(text, toks, registry, spans)
            t = p.renamed(p.whole(p.term, "term"))
            p.parsed(0, t)
            p.store()
        spans[text] = t
    return t


def parse_shared_type(text: str, spans: dict,
                      registry: Registry = DEFAULT_REGISTRY) -> Type:
    """``parse_type(text, registry)``, kept in ``spans`` under the key
    ``(Type, text)``, which no token tuple equals."""
    if (ty := spans.get(key := (Type, text))) is None:
        ty = spans[key] = parse_type(text, registry)
    return ty


@_bounded
def parse_type(text: str, registry: Registry = DEFAULT_REGISTRY):
    p = _Parser(text, _tokenize(text), registry)
    return p.whole(p.type_, "type")


@_bounded
def parse_file(text: str, registry: Registry = DEFAULT_REGISTRY) -> dict[str, Term]:
    """Parse ``name = term`` definitions, inlining earlier names into
    later bodies."""
    defs: dict[str, Term] = {}
    lines = [(no, line, _tokenize(line, no))
             for no, line in enumerate(text.split("\n"), 1)]
    for no, line, toks in lines:
        if toks[0] == "":
            continue
        p = _Parser(line, toks, registry, no)
        name = toks[0]
        if not _is_name(name) or toks[1] != "=":
            raise p.error("expected 'name = term'", 0)
        if name in defs:
            raise p.error(f"{name!r} is defined twice", 0)
        if name in registry:
            raise p.error(f"{name!r} collides with a primitive", 0)
        p.i = 2
        body = p.whole(p.term, "definition")
        inline = {n: defs[n] for n in p.free if n in defs}
        if inline:
            body = substitute(body, inline)
            defs[name] = _freshen_shadowed(body, free_vars(body),
                                           all_var_names(body))
        else:
            defs[name] = p.renamed(body)
    return defs
