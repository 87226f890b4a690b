r"""Concrete grammar for ``.sill`` source files.

Declarations::

    type NAME = SESSION-TYPE
    term NAME : FUNC-TYPE = TERM
    proc NAME : (CHAN : TYPE, ... |- CHAN : TYPE) = PROCESS

Session types::

    1   down A   up A   +{l: A, ...}   &{l: A, ...}
    B * A   B -o A   TAU /\ A   TAU => A   rho a. A

Functional types::

    {c : A <- d : B, ...}   TAU -> SIGMA

Terms::

    x   fix x. M   \x : TAU. M   M N   {c <- P <- d, ...}

Processes::

    fwd b a                    forward
    close a / wait a; P        unit
    send a shift; P            shift message (downshift right, upshift left)
    recv a shift; P            await shift
    send a unfold; P           unfold message
    recv a unfold; P           await unfold
    a.k; P                     send label k
    case a { k => P | ... }    receive a label
    send a b; P                send channel b over a
    b <- recv a; P             receive channel
    send a (M); P              send a functional value
    (x) <- recv a; P           receive a functional value
    a <- {M} <- b, c           spawn a quoted process (tail position)
    a <- {M} <- b, c; Q        spawn and compose (cut)
    a : A <- (P); Q            cut with an inline process

In spawn position a bare name refers to a ``proc`` declaration (inlined with
its channels renamed), a ``term`` declaration, or a functional variable.

The names of the shift and unfold messages are conventions of this grammar;
message sends and receives for them are written with the same keywords as
channel transmission.

Comments run from ``//`` or ``#`` to the end of the line.  The tokenizer
reads the source in one regular-expression scan: whitespace and comments
only advance the line number and the offset where the line starts, and a
token's column is its offset from there, counted from 1 (a tab is one
column).  The parser is recursive descent over the token list with one
token of lookahead, except that a value receive ``(x) <- recv a`` looks
four tokens ahead and a session type that opens with ``{`` or ``(``
backtracks unless it is ``TAU /\ A`` or ``TAU => A``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import ast as A
from .ast import Span

KEYWORDS = {
    "type", "term", "proc", "close", "wait", "send", "recv", "case",
    "shift", "unfold", "fix", "fwd", "rho", "down", "up",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>(?:\s+|//[^\n]*|\#[^\n]*)+)
  | (?P<op>\|-|->|-o|<-|=>|/\\)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[{}(),:;.|*=\\&+])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'ident', 'int', 'kw', 'op', 'punct', 'eof'
    text: str
    line: int
    col: int


class SillSyntaxError(SyntaxError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")
        self.line = line
        self.col = col
        self.expected = expected


def found(tok: Token, *expected: str, after: str = "") -> SillSyntaxError:
    """The error for ``tok`` where one of ``expected`` should be; ``after``
    says where ``tok`` was found."""
    got = "end of input" if tok.kind == "eof" else repr(tok.text)
    return SillSyntaxError(f"found {got}{after}", tok.line, tok.col, expected)


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source`` and a final ``eof``, in one scan.  Whitespace
    and comments only move the line count and the offset where the current
    line starts; a token's column is counted from that offset."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
            continue
        if kind == "bad":
            raise SillSyntaxError(f"unexpected character {text!r}", line,
                                  pos - line_start + 1)
        if kind == "ident" and text in KEYWORDS:
            kind = "kw"
        tokens.append(Token(kind, text, line, pos - line_start + 1))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class TypeDecl:
    name: str
    ty: A.SType
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TermDecl:
    name: str
    ty: A.FType
    term: A.Term
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ProcDecl:
    name: str
    delta: tuple[tuple[str, A.SType], ...]
    channel: str
    ty: A.SType
    proc: A.Process
    span: Optional[Span] = field(default=None, compare=False, repr=False)


Decl = TypeDecl | TermDecl | ProcDecl


@dataclass
class Program:
    decls: list[Decl]

    def types(self) -> dict[str, TypeDecl]:
        return {d.name: d for d in self.decls if isinstance(d, TypeDecl)}

    def terms(self) -> dict[str, TermDecl]:
        return {d.name: d for d in self.decls if isinstance(d, TermDecl)}

    def procs(self) -> dict[str, ProcDecl]:
        return {d.name: d for d in self.decls if isinstance(d, ProcDecl)}


class _Backtrack(Exception):
    pass


# The message of each ``send a m`` and ``recv a m`` that carries no value.
_MESSAGES = {
    ("send", "shift"): A.SendShift, ("recv", "shift"): A.RecvShift,
    ("send", "unfold"): A.SendUnfold, ("recv", "unfold"): A.RecvUnfold,
}


class Parser:
    def __init__(self, tokens: list[Token], *, types=None, terms=None, procs=None):
        self.tokens = tokens
        self.pos = 0
        self.type_table: dict[str, A.SType] = dict(types or {})
        self.term_table: dict[str, A.Term] = dict(terms or {})
        self.proc_table: dict[str, ProcDecl] = dict(procs or {})
        self.bound_terms: set[str] = set()
        self.bound_tvars: set[str] = set()

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:  # looking ahead past the end
            return self.tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # ``text`` is never empty, so the eof token never matches it below.

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> Optional[Token]:
        """The next token, consumed, if its text is ``text``; else None."""
        tok = self.tokens[self.pos]
        if tok.text != text:
            return None
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise found(tok, repr(text))
        self.pos += 1
        return tok

    def ident(self, what: str = "a channel name") -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise found(tok, what)
        self.pos += 1
        return tok.text

    def label(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind not in ("ident", "int"):
            raise found(tok, "a label")
        self.pos += 1
        return tok.text

    def _list(self, item, sep: str = ",") -> tuple:
        """One or more ``item()`` separated by ``sep``."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return tuple(items)

    def _entry(self, key, sep: str, value) -> tuple:
        """``key() sep value()`` as a pair."""
        name = key()
        self.expect(sep)
        return name, value()

    def _typed_channel(self) -> tuple[str, A.SType]:
        return self._entry(self.ident, ":", self.type_)

    def _used(self, item) -> tuple:
        """The items of an optional ``<- item, ...``."""
        return self._list(item) if self.accept("<-") else ()

    def _cont(self) -> A.Process:
        """The continuation after a ``;``."""
        self.expect(";")
        return self.process()

    def _span(self, tok: Token) -> Span:
        return Span(tok.line, tok.col)

    @contextmanager
    def _bind(self, bound: set[str], var: str):
        """Add ``var`` to ``bound`` for the block; then drop it unless it
        was already there (an outer binder it shadows)."""
        shadow = var in bound
        bound.add(var)
        try:
            yield
        finally:
            if not shadow:
                bound.discard(var)

    # -- session types

    def type_(self) -> A.SType:
        tok = self.peek()
        if not self.accept("rho"):
            return self.type_bin()
        var = self.ident("a type variable")
        self.expect(".")
        with self._bind(self.bound_tvars, var):
            rec = A.Rec(var, self.type_(), span=self._span(tok))
        if not A.is_contractive(rec):
            raise SillSyntaxError(f"recursive type is not contractive in {var!r}",
                                  tok.line, tok.col)
        return rec

    def type_bin(self) -> A.SType:
        tok = self.peek()
        if tok.text in ("{", "("):
            saved = self.pos
            try:
                fty = self.ftype()
                if self.accept("/\\"):
                    return A.AndVal(fty, self.type_bin(), span=self._span(tok))
                if self.accept("=>"):
                    return A.ImpVal(fty, self.type_bin(), span=self._span(tok))
                raise _Backtrack
            except (SillSyntaxError, _Backtrack):
                self.pos = saved
        left = self.type_prefix()
        if self.accept("*"):
            return A.Tensor(left, self.type_bin(), span=self._span(tok))
        if self.accept("-o"):
            return A.Lolly(left, self.type_bin(), span=self._span(tok))
        return left

    def type_prefix(self) -> A.SType:
        tok = self.peek()
        if self.accept("down"):
            return A.Down(self.type_prefix(), span=self._span(tok))
        if self.accept("up"):
            return A.Up(self.type_prefix(), span=self._span(tok))
        return self.type_atom()

    def type_atom(self) -> A.SType:
        tok = self.peek()
        if self.accept("1"):
            return A.Unit(span=self._span(tok))
        if tok.text in ("+", "&"):
            self.next()
            self.expect("{")
            items = self._list(lambda: self._entry(self.label, ":", self.type_))
            self.expect("}")
            try:
                bs = A.branches(items)
            except ValueError as exc:
                raise SillSyntaxError(str(exc), tok.line, tok.col) from None
            return (A.Plus if tok.text == "+" else A.With)(bs, span=self._span(tok))
        if self.accept("("):
            inner = self.type_()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.next()
            if tok.text not in self.bound_tvars and tok.text in self.type_table:
                return self.type_table[tok.text]
            return A.TVar(tok.text, span=self._span(tok))
        raise found(tok, "a session type")

    # -- functional types

    def ftype(self) -> A.FType:
        atom = self.ftype_atom()
        if tok := self.accept("->"):
            return A.Arrow(atom, self.ftype(), span=self._span(tok))
        return atom

    def ftype_atom(self) -> A.FType:
        tok = self.peek()
        if self.accept("{"):
            provided, provided_ty = self._typed_channel()
            used = self._used(self._typed_channel)
            self.expect("}")
            return A.ProcType(provided, provided_ty, used, span=self._span(tok))
        if self.accept("("):
            inner = self.ftype()
            self.expect(")")
            return inner
        raise found(tok, "a functional type")

    # -- terms

    def term(self) -> A.Term:
        tok = self.peek()
        if self.accept("fix"):
            var = self.ident("a variable")
            self.expect(".")
            with self._bind(self.bound_terms, var):
                return A.Fix(var, self.term(), span=self._span(tok))
        if self.accept("\\"):
            var, ty = self._entry(lambda: self.ident("a variable"), ":", self.ftype)
            self.expect(".")
            with self._bind(self.bound_terms, var):
                return A.Lam(var, ty, self.term(), span=self._span(tok))
        return self.term_app()

    def term_app(self) -> A.Term:
        head = self.term_atom()
        while self.peek().kind == "ident" or self.peek().text in ("(", "{"):
            tok = self.peek()
            arg = self.term_atom()
            head = A.App(head, arg, span=self._span(tok))
        return head

    def term_atom(self) -> A.Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return self._named_term(tok)
        if self.accept("("):
            inner = self.term()
            if self.accept(":"):
                inner = A.Anno(inner, self.ftype(), span=self._span(tok))
            self.expect(")")
            return inner
        if self.accept("{"):
            provided = self.ident()
            self.expect("<-")
            proc = self.process()
            used = self._used(self.ident)
            self.expect("}")
            return A.Quote(provided, proc, used, span=self._span(tok))
        raise found(tok, "a term")

    def _named_term(self, tok: Token) -> A.Term:
        """The ``term`` declaration named by ``tok``, unless a variable is."""
        if tok.text not in self.bound_terms and tok.text in self.term_table:
            return self.term_table[tok.text]
        return A.Var(tok.text, span=self._span(tok))

    # -- processes

    def process(self) -> A.Process:
        tok = self.peek()
        if self.accept("close"):
            return A.Close(self.ident(), span=self._span(tok))
        if self.accept("wait"):
            return A.Wait(self.ident(), self._cont(), span=self._span(tok))
        if self.accept("fwd"):
            return A.Fwd(self.ident(), self.ident(), span=self._span(tok))
        if tok.text in ("send", "recv"):
            self.next()
            chan = self.ident()
            message = self.peek()
            cls = _MESSAGES.get((tok.text, message.text))
            if cls is not None:
                self.next()
                return cls(chan, self._cont(), span=self._span(tok))
            if tok.text == "send":
                return self._send(tok, chan)
            raise found(message, "'shift'", "'unfold'")
        if self.accept("case"):
            chan = self.ident()
            self.expect("{")
            items = self._list(lambda: self._entry(self.label, "=>", self.process), "|")
            self.expect("}")
            labels = [k for k, _ in items]
            if len(set(labels)) != len(labels):
                raise SillSyntaxError(f"duplicate case labels: {labels}", tok.line, tok.col)
            return A.Case(chan, tuple(sorted(items)), span=self._span(tok))
        if tok.text == "(":
            if (self.peek(1).kind == "ident" and self.peek(2).text == ")"
                    and self.peek(3).text == "<-" and self.peek(4).text == "recv"):
                # (x) <- recv a; P  -- receive a functional value
                var = self.peek(1).text
                self.pos += 5
                chan = self.ident()
                with self._bind(self.bound_terms, var):
                    return A.RecvVal(var, chan, self._cont(), span=self._span(tok))
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            chan = self.next().text
            if self.accept("."):
                return A.SendLabel(chan, self.label(), self._cont(), span=self._span(tok))
            anno = self.type_() if self.accept(":") else None
            if self.accept("<-"):
                return self._spawn_or_recv(chan, anno, tok)
            nxt = self.peek()
            raise found(nxt, "'.'", "':'", "'<-'", after=f" after channel {chan!r}")
        raise found(tok, "a process")

    def _send(self, tok: Token, chan: str) -> A.Process:
        """``send chan b; P`` or ``send chan (M); P``."""
        arg = self.peek()
        if arg.kind == "ident":
            self.next()
            return A.SendChan(chan, arg.text, self._cont(), span=self._span(tok))
        if self.accept("("):
            term = self.term()
            self.expect(")")
            return A.SendVal(chan, term, self._cont(), span=self._span(tok))
        raise found(arg, "'shift'", "'unfold'", "a channel", "'(term)'")

    def _spawn_or_recv(self, chan: str, anno, tok: Token) -> A.Process:
        if self.accept("recv"):
            if anno is not None:
                raise SillSyntaxError("channel receive does not take a type annotation",
                                      tok.line, tok.col)
            return A.RecvChan(chan, self.ident(), self._cont(), span=self._span(tok))

        nxt = self.peek()
        if self.accept("{"):
            term = self.term()
            self.expect("}")
            left = A.Unquote(chan, term, self._used(self.ident), span=self._span(tok))
        elif self.accept("("):
            left = self.process()
            self.expect(")")
            if not self.at(";"):
                raise SillSyntaxError("an inline spawn needs a continuation",
                                      nxt.line, nxt.col, expected=("';'",))
        elif nxt.kind == "ident":
            self.next()
            left, synth = self._resolve_spawn(chan, nxt, self._used(self.ident), self._span(tok))
            anno = synth if anno is None else anno
        else:
            raise found(nxt, "'{term}'", "'(process)'", "a name")

        if self.accept(";"):
            return A.Cut(chan, left, self.process(), anno, span=self._span(tok))
        return left

    def _resolve_spawn(self, chan: str, tok: Token, used, span: A.Span):
        """The process spawned at ``span`` by ``chan <- name <- used``, where
        ``tok`` is the name, and the type of a spawned ``proc``."""
        name = tok.text
        if name not in self.bound_terms and name in self.proc_table:
            decl = self.proc_table[name]
            if len(used) != len(decl.delta):
                raise SillSyntaxError(f"proc {name!r} uses {len(decl.delta)} channel(s), "
                                      f"got {len(used)}", tok.line, tok.col)
            mapping = {decl.channel: chan}
            mapping.update({old: new for (old, _), new in zip(decl.delta, used)})
            return A.rename_channels(decl.proc, mapping), decl.ty
        return A.Unquote(chan, self._named_term(tok), used, span=span), None

    # -- declarations

    def program(self) -> Program:
        decls: list[Decl] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.accept("type"):
                name = self.ident("a type name")
                self.expect("=")
                decl: Decl = TypeDecl(name, self.type_(), span=self._span(tok))
                self.type_table[name] = decl.ty
            elif self.accept("term"):
                name, ty = self._entry(lambda: self.ident("a term name"), ":", self.ftype)
                self.expect("=")
                term = self.term()
                decl = TermDecl(name, ty, term, span=self._span(tok))
                self.term_table[name] = A.Anno(term, ty, span=term.span)
            elif self.accept("proc"):
                name = self.ident("a process name")
                self.expect(":")
                self.expect("(")
                delta = () if self.at("|-") else self._list(self._typed_channel)
                self.expect("|-")
                channel, ty = self._typed_channel()
                self.expect(")")
                self.expect("=")
                decl = ProcDecl(name, delta, channel, ty, self.process(), span=self._span(tok))
                self.proc_table[name] = decl
            else:
                raise found(tok, "'type'", "'term'", "'proc'")
            if decl.name in seen:
                raise SillSyntaxError(f"duplicate declaration of {decl.name!r}",
                                      tok.line, tok.col)
            seen.add(decl.name)
            decls.append(decl)
        return Program(decls)


# ---------------------------------------------------------------------------
# Entry points


def parse_program(source: str) -> Program:
    return Parser(tokenize(source)).program()


def _parse_with(source: str, method: str, **tables):
    parser = Parser(tokenize(source), **tables)
    node = getattr(parser, method)()
    tok = parser.peek()
    if tok.kind != "eof":
        raise SillSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node


def parse_type(source: str, **tables) -> A.SType:
    return _parse_with(source, "type_", **tables)


def parse_ftype(source: str, **tables) -> A.FType:
    return _parse_with(source, "ftype", **tables)


def parse_term(source: str, **tables) -> A.Term:
    return _parse_with(source, "term", **tables)


def parse_process(source: str, **tables) -> A.Process:
    return _parse_with(source, "process", **tables)
