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
literal.  A ``NUMBER`` is digits with at most one decimal point; one that
runs into a letter, as ``1e300`` does, is an error: scientific notation
is not supported.  Names may carry trailing primes (``x'``), the
reserved family of difference variables.  ``#`` starts a comment.

Term files hold one ``name = term`` definition per line; later
definitions may mention earlier names, which are inlined textually.

Binders that shadow an enclosing binder or a free name are renamed to
fresh plain-family names by a walk that runs only when some binder does
(the parser tracks both as it descends) and after inlining; both walks
run on the stack-safe term fold.  Every call of ``parse_term`` parses
afresh.  ``parse_shared`` parses the texts of one derivation file
through a span table: each span without a binder, nested in no more
than ``SPAN_DEPTH`` groups, is parsed once, and every text that holds it
shares its term.  Nesting runs on lists, not on the interpreter's stack:
term groups on the ``_run`` trampoline, type groups in ``type_``'s loop.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..prims import DEFAULT_REGISTRY, Registry
from .terms import (App, First, FnType, Lam, Lit, Pair, PairType, PrimOp,
                    REAL, Second, Term, Type, Var, all_var_names,
                    free_vars, fresh_names, rename_binders, substitute)


class ParseError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# a number is read with all the letters, digits and points it runs into,
# and refused unless it is digits with at most one point
_LEXEME = r"\d[\w.]*|[A-Za-z_][A-Za-z0-9_]*'*|->|[\\.:(),*+\-/=]"
_is_lexeme = re.compile(_LEXEME).match
# one lexeme after whitespace and comments; "" at the end of the text; or
# else the rest of the text, from a character that no lexeme starts with
_TOKEN = re.compile(rf"(?:[ \t\r\n]+|\#[^\n]*)*({_LEXEME}|\Z|(?s:.+))")

_RESERVED = {"fst", "snd", "Real"}
# the end and the punctuation other than "(": tokens that cannot start an atom
_NO_ATOM = {"", "->", "\\", ".", ":", ")", ",", "*", "+", "-", "/", "="}
_is_name = re.compile(r"[A-Za-z_]").match
_SUMS = {"+": "add", "-": "sub"}
_PRODUCTS = {"*": "mul", "/": "div"}
# the most terms a group holds, by its head; a primitive's take any number
_GROUP_SIZES = {"(": 2, "fst": 1, "snd": 1}
# past this many groups, spans are neither looked up nor stored: a key
# repeats the spans nested in it, so all of them take quadratic space
SPAN_DEPTH = 256


def _error_at(message: str, text: str, pos: int, line: int = 1) -> ParseError:
    return ParseError(message, line + text.count("\n", 0, pos),
                      pos - text.rfind("\n", 0, pos))


def _tokenize(text: str, line: int = 1) -> list[str]:
    """The lexemes of ``text``, then ``""`` (once or twice) for its end."""
    toks = _TOKEN.findall(text)
    # a rest of the text comes last, before one ""
    if len(toks) > 1 and (rest := toks[-2]) and not _is_lexeme(rest):
        end = len(text) - len(rest)
        raise _error_at(f"unexpected character {text[end]!r}", text, end, line)
    return toks


def _run(gen):
    """The term that ``gen``, a ``_Parser.term`` generator, returns.  Each
    generator it yields runs first, and its term is sent back: the groups
    still open wait on a list, not on the interpreter's stack."""
    stack, value = [gen], None
    while True:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value


class _Parser:
    """A descent over the lexemes of one text, recording the free names,
    the bound ones, and whether a binder repeats an enclosing one.  Given
    a span table, ``spans``, it reads and fills it: the terms of token
    spans keyed by their token tuples, and of whole texts keyed by the
    text.  A span parses the same wherever it stands, save for which of
    its names are free, so a stored span stands in for parsing it.  Spans
    holding a binder are never stored, nor prefixes of sums, which would
    take quadratic space."""

    def __init__(self, text: str, toks: list[str] | tuple[str, ...],
                 registry: Registry, line: int | None = None,
                 spans: dict | None = None):
        self.text, self.toks, self.registry = text, toks, registry
        self.line = line  # set for one line of a definition file
        self.i = 0
        self.bound: dict[str, int] = {}  # enclosing binders by name
        self.binders: set[str] = set()
        self.free: set[str] = set()
        self.shadows = False
        self.spans = spans
        if spans is None:
            return
        self.binds = "\\" in toks
        if self.binds:  # the variables' names
            self.names = {tok for tok in set(toks) if _is_name(tok)
                          and tok not in registry and tok not in _RESERVED}
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

    def whole(self, result, what: str):
        """``result``, which must have been parsed from every token."""
        if self.toks[self.i] != "":
            self.fail(f"trailing input after {what}")
        return result

    def reuse(self, start: int, end: int | None) -> Term | None:
        """The stored term of tokens ``start`` to ``end``, if any, read as
        if parsed: its unbound names become free."""
        if end is None or (t := self.spans.get(self.toks[start:end])) is None:
            return None
        if self.binds:
            self.free.update(name for name in self.names.intersection(
                self.toks[start:end]) if not self.bound.get(name))
        self.i = end
        return t

    def note(self, start: int, t: Term):
        """Store ``t`` as the term of tokens ``start`` to ``self.i``,
        unless they hold a binder."""
        key = self.toks[start:self.i]
        if not self.binds or "\\" not in key:
            self.spans.setdefault(key, t)

    def type_(self) -> Type:
        """A type, on a list of the open ``(`` groups.  Each level holds
        the argument types of its arrow chain so far and the product it is
        reading; a level ends at a token other than ``*`` and ``->``."""
        toks, groups = self.toks, []
        args, left = [], None
        while True:
            if toks[self.i] == "(":
                self.i += 1
                groups.append((args, left))
                args, left = [], None
                continue
            if toks[self.i] != "Real":
                self.fail("expected a type")
            self.i += 1
            ty = REAL
            while True:
                left = ty if left is None else PairType(left, ty)
                if (tok := toks[self.i]) == "*" or tok == "->":
                    break
                for arg in reversed(args):
                    left = FnType(arg, left)
                if not groups:
                    return left
                self.expect(")")
                ty, (args, left) = left, groups.pop()
            self.i += 1
            if tok == "->":
                args.append(left)
                left = None

    def term(self, depth: int = 0):
        """A binder chain over a sum of products of factors, each ``-``
        prefixes over an application spine of atoms: a generator for
        ``_run``, in ``depth`` groups, that yields the generator of each
        term in a group atom and is sent back its term."""
        toks, bound = self.toks, self.bound
        shared = self.spans is not None and depth < SPAN_DEPTH
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
        # the sum, the product it is reading, and where that starts
        body, t, start = None, None, self.i
        while True:
            negations = self.i
            while toks[self.i] == "-":
                self.i += 1
            negations = self.i - negations
            f = None
            while True:
                a = self.atom(shared)
                if a.__class__ is int:  # a group atom, its head at token a
                    head, args = toks[a], []
                    most = _GROUP_SIZES.get(head)  # None for a primitive
                    # only a primitive's argument list may be empty
                    while args or most is not None or toks[self.i] != ")":
                        begin = self.i
                        if not shared or (c := self.reuse(
                                begin, self.ends.get(begin))) is None:
                            c = yield self.term(depth + 1)
                            if shared:
                                self.note(begin, c)
                        args.append(c)
                        if len(args) == most or toks[self.i] != ",":
                            break
                        self.i += 1
                    self.expect(")")
                    at, a = a, self.group(a, head, args)
                    if shared and most is None:
                        self.note(at, a)
                f = a if f is None else App(f, a)
                if toks[self.i] in _NO_ATOM:
                    break
            for _ in range(negations):
                f = Lit(-f.value) if isinstance(f, Lit) else PrimOp("neg", (f,))
            t = f if t is None else PrimOp(op, (t, f))
            if (op := _PRODUCTS.get(toks[self.i])) is None:
                if shared and t is not f:
                    self.note(start, t)
                body = t if body is None else PrimOp(sum_op, (body, t))
                if (sum_op := _SUMS.get(toks[self.i])) is None:
                    break
                t, start = None, self.i + 1
            self.i += 1
        for name, ty in reversed(chain):
            bound[name] -= 1
            body = Lam(name, ty, body)
        return body

    def atom(self, shared: bool) -> Term | int:
        """A leaf atom's term, or a primitive call's stored in the span
        table; or else, for a group atom, the index of its head (``(``,
        ``fst``, ``snd`` or a primitive), with the ``(`` consumed."""
        i = self.i
        tok = self.toks[i]
        if tok == "(":
            self.i += 1
            return i
        if tok in _NO_ATOM:
            self.fail("expected a term")
        self.i += 1
        if tok[0].isdigit():
            whole, point, frac = tok.partition(".")
            if not whole.isdecimal() or point and not frac.isdecimal():
                raise self.error(f"malformed number {tok!r}: a number is "
                                 "digits with at most one point; scientific "
                                 "notation is not supported", i)
            return Lit(Fraction(int(whole + frac), 10 ** len(frac)))
        if tok == "fst" or tok == "snd":
            self.expect("(")
            return i
        if tok == "Real":
            raise self.error("'Real' is a type, not a term", i)
        if tok in self.registry:
            if self.toks[self.i] != "(":
                raise self.error(f"primitive {tok!r} needs an argument list", i)
            if shared and (t := self.reuse(
                    i, self.group_ends.get(i + 1))) is not None:
                return t
            self.i += 1
            return i
        if not self.bound.get(tok):
            self.free.add(tok)
        return Var(tok)

    def group(self, at: int, head: str, args: list[Term]) -> Term:
        """The term of a group atom whose head ``head`` is token ``at``,
        from the terms between its parentheses."""
        if head == "(":
            return args[0] if len(args) == 1 else Pair(*args)
        if head == "fst" or head == "snd":
            return First(args[0]) if head == "fst" else Second(args[0])
        if len(args) != (want := self.registry.arity(head)):
            raise self.error(f"primitive {head!r} takes {want} argument(s), "
                             f"got {len(args)}", at)
        return PrimOp(head, tuple(args))


def _freshen_shadowed(t: Term, free: set[str], names: set[str]) -> Term:
    """Rename binders that shadow a name in scope (``free`` ones of ``t``
    included), avoiding ``names``, so typing contexts hold no duplicates."""
    used, renames = set(names), {}  # each name's sequence of fresh names

    def pick(var: str, body: Term, scope: set[str]) -> str:
        if var in scope:  # every name in scope is in ``used``
            used.add(var := next(renames.setdefault(
                var, fresh_names(var, used))))
        return var

    return rename_binders(t, free, pick)


def parse_term(text: str, registry: Registry = DEFAULT_REGISTRY) -> Term:
    p = _Parser(text, _tokenize(text), registry)
    return p.renamed(p.whole(_run(p.term()), "term"))


def parse_shared(text: str, spans: dict,
                 registry: Registry = DEFAULT_REGISTRY) -> Term:
    """``parse_term(text, registry)``, reusing and adding to ``spans``, a
    span table kept for one registry (see ``_Parser``).  The term returned
    may share subterms with the other texts read through it."""
    if (t := spans.get(text)) is None:
        toks = tuple(_tokenize(text))
        whole = toks[:toks.index("")]
        if (t := spans.get(whole)) is None:
            p = _Parser(text, toks, registry, spans=spans)
            t = p.renamed(p.whole(_run(p.term()), "term"))
            p.note(0, t)
        spans[text] = t
    return t


def parse_shared_type(text: str, spans: dict,
                      registry: Registry = DEFAULT_REGISTRY) -> Type:
    """``parse_type(text, registry)``, kept in ``spans`` under the key
    ``(Type, text)``, which no token tuple equals."""
    if (ty := spans.get(key := (Type, text))) is None:
        ty = spans[key] = parse_type(text, registry)
    return ty


def parse_type(text: str, registry: Registry = DEFAULT_REGISTRY):
    p = _Parser(text, _tokenize(text), registry)
    return p.whole(p.type_(), "type")


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
        body = p.whole(_run(p.term()), "definition")
        inline = {n: defs[n] for n in p.free if n in defs}
        if inline:
            body = substitute(body, inline)
            defs[name] = _freshen_shadowed(body, free_vars(body),
                                           all_var_names(body))
        else:
            defs[name] = p.renamed(body)
    return defs
