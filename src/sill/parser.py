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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import ast as A
from .ast import Span

KEYWORDS = {
    "type", "term", "proc", "close", "wait", "send", "recv", "case",
    "shift", "unfold", "fix", "fwd", "rho", "down", "up",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<op>\|-|->|-o|<-|=>|/\\)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[{}(),:;.|*=\\&+])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
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


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise SillSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ident":
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "int":
            tokens.append(Token("int", text, line, col))
        elif kind in ("op", "punct"):
            tokens.append(Token(kind, text, line, col))
        # whitespace and comments are skipped
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SillSyntaxError(f"found {got}", tok.line, tok.col, expected=(repr(text),))
        return self.next()

    def expect_ident(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SillSyntaxError(f"found {got}", tok.line, tok.col, expected=(what,))
        return self.next()

    def expect_label(self) -> Token:
        tok = self.peek()
        if tok.kind not in ("ident", "int"):
            raise SillSyntaxError(
                f"found {tok.text!r}", tok.line, tok.col, expected=("a label",)
            )
        return self.next()

    def _span(self, tok: Token) -> Span:
        return Span(tok.line, tok.col)

    # -- session types

    def type_(self) -> A.SType:
        tok = self.peek()
        if self.at("rho"):
            self.next()
            var = self.expect_ident("a type variable").text
            self.expect(".")
            shadow = var in self.bound_tvars
            self.bound_tvars.add(var)
            try:
                body = self.type_()
            finally:
                if not shadow:
                    self.bound_tvars.discard(var)
            rec = A.Rec(var, body, span=self._span(tok))
            if not A.is_contractive(rec):
                raise SillSyntaxError(
                    f"recursive type is not contractive in {var!r}", tok.line, tok.col
                )
            return rec
        return self.type_bin()

    def type_bin(self) -> A.SType:
        tok = self.peek()
        if tok.text in ("{", "("):
            saved = self.pos
            try:
                fty = self.ftype()
                if self.at("/\\"):
                    self.next()
                    return A.AndVal(fty, self.type_bin(), span=self._span(tok))
                if self.at("=>"):
                    self.next()
                    return A.ImpVal(fty, self.type_bin(), span=self._span(tok))
                raise _Backtrack
            except (SillSyntaxError, _Backtrack):
                self.pos = saved
        left = self.type_prefix()
        if self.at("*"):
            self.next()
            return A.Tensor(left, self.type_bin(), span=self._span(tok))
        if self.at("-o"):
            self.next()
            return A.Lolly(left, self.type_bin(), span=self._span(tok))
        return left

    def type_prefix(self) -> A.SType:
        tok = self.peek()
        if self.at("down"):
            self.next()
            return A.Down(self.type_prefix(), span=self._span(tok))
        if self.at("up"):
            self.next()
            return A.Up(self.type_prefix(), span=self._span(tok))
        return self.type_atom()

    def type_atom(self) -> A.SType:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text == "1":
                self.next()
                return A.Unit(span=self._span(tok))
            raise SillSyntaxError(
                f"found {tok.text!r}", tok.line, tok.col, expected=("a session type",)
            )
        if tok.text in ("+", "&"):
            self.next()
            self.expect("{")
            items: list[tuple[str, A.SType]] = []
            while True:
                label = self.expect_label().text
                self.expect(":")
                items.append((label, self.type_()))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect("}")
            try:
                bs = A.branches(items)
            except ValueError as exc:
                raise SillSyntaxError(str(exc), tok.line, tok.col) from None
            cls = A.Plus if tok.text == "+" else A.With
            return cls(bs, span=self._span(tok))
        if tok.text == "(":
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name not in self.bound_tvars and name in self.type_table:
                return self.type_table[name]
            return A.TVar(name, span=self._span(tok))
        raise SillSyntaxError(
            f"found {tok.text!r}", tok.line, tok.col, expected=("a session type",)
        )

    # -- functional types

    def ftype(self) -> A.FType:
        atom = self.ftype_atom()
        if self.at("->"):
            tok = self.next()
            return A.Arrow(atom, self.ftype(), span=self._span(tok))
        return atom

    def ftype_atom(self) -> A.FType:
        tok = self.peek()
        if tok.text == "{":
            self.next()
            provided = self.expect_ident("a channel name").text
            self.expect(":")
            provided_ty = self.type_()
            used: list[tuple[str, A.SType]] = []
            if self.at("<-"):
                self.next()
                while True:
                    chan = self.expect_ident("a channel name").text
                    self.expect(":")
                    used.append((chan, self.type_()))
                    if self.at(","):
                        self.next()
                        continue
                    break
            self.expect("}")
            return A.ProcType(provided, provided_ty, tuple(used), span=self._span(tok))
        if tok.text == "(":
            self.next()
            inner = self.ftype()
            self.expect(")")
            return inner
        raise SillSyntaxError(
            f"found {tok.text!r}", tok.line, tok.col, expected=("a functional type",)
        )

    # -- terms

    def term(self) -> A.Term:
        tok = self.peek()
        if self.at("fix"):
            self.next()
            var = self.expect_ident("a variable").text
            self.expect(".")
            with self._bind_term(var):
                body = self.term()
            return A.Fix(var, body, span=self._span(tok))
        if tok.text == "\\":
            self.next()
            var = self.expect_ident("a variable").text
            self.expect(":")
            ty = self.ftype()
            self.expect(".")
            with self._bind_term(var):
                body = self.term()
            return A.Lam(var, ty, body, span=self._span(tok))
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
            name = tok.text
            if name not in self.bound_terms and name in self.term_table:
                return self.term_table[name]
            return A.Var(name, span=self._span(tok))
        if tok.text == "(":
            self.next()
            inner = self.term()
            if self.at(":"):
                self.next()
                inner = A.Anno(inner, self.ftype(), span=self._span(tok))
            self.expect(")")
            return inner
        if tok.text == "{":
            self.next()
            provided = self.expect_ident("a channel name").text
            self.expect("<-")
            proc = self.process()
            used: tuple[str, ...] = ()
            if self.at("<-"):
                self.next()
                used = self._chan_list()
            self.expect("}")
            return A.Quote(provided, proc, used, span=self._span(tok))
        raise SillSyntaxError(
            f"found {tok.text!r}", tok.line, tok.col, expected=("a term",)
        )

    def _bind_term(self, var: str):
        parser = self

        class _Ctx:
            def __enter__(self):
                self.shadow = var in parser.bound_terms
                parser.bound_terms.add(var)

            def __exit__(self, *exc):
                if not self.shadow:
                    parser.bound_terms.discard(var)

        return _Ctx()

    def _chan_list(self) -> tuple[str, ...]:
        chans = [self.expect_ident("a channel name").text]
        while self.at(","):
            self.next()
            chans.append(self.expect_ident("a channel name").text)
        return tuple(chans)

    # -- processes

    def process(self) -> A.Process:
        tok = self.peek()
        if self.at("close"):
            self.next()
            chan = self.expect_ident("a channel name").text
            return A.Close(chan, span=self._span(tok))
        if self.at("wait"):
            self.next()
            chan = self.expect_ident("a channel name").text
            self.expect(";")
            return A.Wait(chan, self.process(), span=self._span(tok))
        if self.at("fwd"):
            self.next()
            provided = self.expect_ident("a channel name").text
            used = self.expect_ident("a channel name").text
            return A.Fwd(provided, used, span=self._span(tok))
        if self.at("send"):
            return self._send()
        if self.at("recv"):
            self.next()
            chan = self.expect_ident("a channel name").text
            which = self.peek()
            if self.at("shift"):
                self.next()
                self.expect(";")
                return A.RecvShift(chan, self.process(), span=self._span(tok))
            if self.at("unfold"):
                self.next()
                self.expect(";")
                return A.RecvUnfold(chan, self.process(), span=self._span(tok))
            raise SillSyntaxError(
                f"found {which.text!r}", which.line, which.col,
                expected=("'shift'", "'unfold'"),
            )
        if self.at("case"):
            self.next()
            chan = self.expect_ident("a channel name").text
            self.expect("{")
            items: list[tuple[str, A.Process]] = []
            while True:
                label = self.expect_label().text
                self.expect("=>")
                items.append((label, self.process()))
                if self.at("|"):
                    self.next()
                    continue
                break
            self.expect("}")
            labels = [k for k, _ in items]
            if len(set(labels)) != len(labels):
                raise SillSyntaxError(
                    f"duplicate case labels: {labels}", tok.line, tok.col
                )
            return A.Case(
                chan, tuple(sorted(items, key=lambda kv: kv[0])), span=self._span(tok)
            )
        if tok.text == "(":
            if (self.peek(1).kind == "ident" and self.peek(2).text == ")"
                    and self.peek(3).text == "<-" and self.peek(4).text == "recv"):
                # (x) <- recv a; P  -- receive a functional value
                self.next()
                var = self.expect_ident("a variable").text
                self.expect(")")
                self.expect("<-")
                self.expect("recv")
                chan = self.expect_ident("a channel name").text
                self.expect(";")
                with self._bind_term(var):
                    cont = self.process()
                return A.RecvVal(var, chan, cont, span=self._span(tok))
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            chan = self.next().text
            if self.at("."):
                self.next()
                label = self.expect_label().text
                self.expect(";")
                return A.SendLabel(chan, label, self.process(), span=self._span(tok))
            anno: Optional[A.SType] = None
            if self.at(":"):
                self.next()
                anno = self.type_()
            if self.at("<-"):
                self.next()
                return self._spawn_or_recv(chan, anno, tok)
            nxt = self.peek()
            raise SillSyntaxError(
                f"found {nxt.text!r} after channel {chan!r}",
                nxt.line, nxt.col, expected=("'.'", "':'", "'<-'"),
            )
        raise SillSyntaxError(
            f"found {tok.text!r}", tok.line, tok.col, expected=("a process",)
        )

    def _send(self) -> A.Process:
        tok = self.next()  # 'send'
        chan = self.expect_ident("a channel name").text
        arg = self.peek()
        if self.at("shift"):
            self.next()
            self.expect(";")
            return A.SendShift(chan, self.process(), span=self._span(tok))
        if self.at("unfold"):
            self.next()
            self.expect(";")
            return A.SendUnfold(chan, self.process(), span=self._span(tok))
        if arg.kind == "ident":
            sent = self.next().text
            self.expect(";")
            return A.SendChan(chan, sent, self.process(), span=self._span(tok))
        if arg.text == "(":
            self.next()
            term = self.term()
            self.expect(")")
            self.expect(";")
            return A.SendVal(chan, term, self.process(), span=self._span(tok))
        raise SillSyntaxError(
            f"found {arg.text!r}", arg.line, arg.col,
            expected=("'shift'", "'unfold'", "a channel", "'(term)'"),
        )

    def _spawn_or_recv(self, chan: str, anno, tok: Token) -> A.Process:
        if self.at("recv"):
            self.next()
            if anno is not None:
                raise SillSyntaxError(
                    "channel receive does not take a type annotation",
                    tok.line, tok.col,
                )
            src = self.expect_ident("a channel name").text
            self.expect(";")
            return A.RecvChan(chan, src, self.process(), span=self._span(tok))

        nxt = self.peek()
        left: Optional[A.Process] = None
        if nxt.text == "{":
            self.next()
            term = self.term()
            self.expect("}")
            used = ()
            if self.at("<-"):
                self.next()
                used = self._chan_list()
            left = A.Unquote(chan, term, used, span=self._span(tok))
        elif nxt.text == "(":
            self.next()
            inner = self.process()
            self.expect(")")
            left = inner
            if not self.at(";"):
                raise SillSyntaxError(
                    "an inline spawn needs a continuation", nxt.line, nxt.col,
                    expected=("';'",),
                )
        elif nxt.kind == "ident":
            name = self.next().text
            used = ()
            if self.at("<-"):
                self.next()
                used = self._chan_list()
            left, synth = self._resolve_spawn(chan, name, used, nxt, self._span(tok))
            if anno is None:
                anno = synth
        else:
            raise SillSyntaxError(
                f"found {nxt.text!r}", nxt.line, nxt.col,
                expected=("'{term}'", "'(process)'", "a name"),
            )

        if self.at(";"):
            self.next()
            right = self.process()
            return A.Cut(chan, left, right, anno, span=self._span(tok))
        return left

    def _resolve_spawn(self, chan: str, name: str, used, tok: Token, span: A.Span):
        """The process spawned at ``span`` by ``chan <- name <- used``."""
        var = A.Var(name, span=self._span(tok))
        if name in self.bound_terms:
            return A.Unquote(chan, var, used, span=span), None
        if name in self.proc_table:
            decl = self.proc_table[name]
            if len(used) != len(decl.delta):
                raise SillSyntaxError(
                    f"proc {name!r} uses {len(decl.delta)} channel(s), got {len(used)}",
                    tok.line, tok.col,
                )
            mapping = {decl.channel: chan}
            mapping.update({old: new for (old, _), new in zip(decl.delta, used)})
            return A.rename_channels(decl.proc, mapping), decl.ty
        if name in self.term_table:
            return A.Unquote(chan, self.term_table[name], used, span=span), None
        return A.Unquote(chan, var, used, span=span), None

    # -- declarations

    def program(self) -> Program:
        decls: list[Decl] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.at("type"):
                self.next()
                name = self.expect_ident("a type name").text
                self.expect("=")
                ty = self.type_()
                decl: Decl = TypeDecl(name, ty, span=self._span(tok))
                self.type_table[name] = ty
            elif self.at("term"):
                self.next()
                name = self.expect_ident("a term name").text
                self.expect(":")
                ty = self.ftype()
                self.expect("=")
                term = self.term()
                decl = TermDecl(name, ty, term, span=self._span(tok))
                self.term_table[name] = A.Anno(term, ty, span=term.span)
            elif self.at("proc"):
                self.next()
                name = self.expect_ident("a process name").text
                self.expect(":")
                self.expect("(")
                delta: list[tuple[str, A.SType]] = []
                if not self.at("|-"):
                    while True:
                        c = self.expect_ident("a channel name").text
                        self.expect(":")
                        delta.append((c, self.type_()))
                        if self.at(","):
                            self.next()
                            continue
                        break
                self.expect("|-")
                channel = self.expect_ident("a channel name").text
                self.expect(":")
                ty = self.type_()
                self.expect(")")
                self.expect("=")
                proc = self.process()
                decl = ProcDecl(name, tuple(delta), channel, ty, proc, span=self._span(tok))
                self.proc_table[name] = decl
            else:
                raise SillSyntaxError(
                    f"found {tok.text!r}", tok.line, tok.col,
                    expected=("'type'", "'term'", "'proc'"),
                )
            if decl.name in seen:
                raise SillSyntaxError(
                    f"duplicate declaration of {decl.name!r}", tok.line, tok.col
                )
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
        raise SillSyntaxError(
            f"trailing input {tok.text!r}", tok.line, tok.col
        )
    return node


def parse_type(source: str, **tables) -> A.SType:
    return _parse_with(source, "type_", **tables)


def parse_ftype(source: str, **tables) -> A.FType:
    return _parse_with(source, "ftype", **tables)


def parse_term(source: str, **tables) -> A.Term:
    return _parse_with(source, "term", **tables)


def parse_process(source: str, **tables) -> A.Process:
    return _parse_with(source, "process", **tables)
