"""Pretty printers for types, terms, processes, and declarations.

The output is exactly the concrete grammar accepted by the parser, so
``parse(pretty(x))`` reproduces ``x`` up to source spans.
"""

from __future__ import annotations

from . import ast as A
from .parser import _MESSAGES, ProcDecl, TermDecl, TypeDecl

# Binary session-type operators are right associative and share one
# precedence level; prefix shifts bind tighter.
_BIN_LEVEL = 1
_PREFIX_LEVEL = 2
_ATOM_LEVEL = 3

# The two words of each message class, as the parser reads them.
_MESSAGE_WORDS = {cls: words for words, cls in _MESSAGES.items()}


def pp_type(ty: A.SType, level: int = 0) -> str:
    match ty:
        case A.Unit():
            return "1"
        case A.TVar(name=a):
            return a
        case A.Plus(branches=bs):
            inner = ", ".join(f"{k}: {pp_type(t)}" for k, t in bs)
            return "+{" + inner + "}"
        case A.With(branches=bs):
            inner = ", ".join(f"{k}: {pp_type(t)}" for k, t in bs)
            return "&{" + inner + "}"
        case A.Down(body=b):
            s = f"down {pp_type(b, _PREFIX_LEVEL)}"
            return _wrap(s, level > _PREFIX_LEVEL)
        case A.Up(body=b):
            s = f"up {pp_type(b, _PREFIX_LEVEL)}"
            return _wrap(s, level > _PREFIX_LEVEL)
        case A.Tensor(carried=l, cont=r):
            s = f"{pp_type(l, _BIN_LEVEL + 1)} * {pp_type(r, _BIN_LEVEL)}"
            return _wrap(s, level > _BIN_LEVEL)
        case A.Lolly(carried=l, cont=r):
            s = f"{pp_type(l, _BIN_LEVEL + 1)} -o {pp_type(r, _BIN_LEVEL)}"
            return _wrap(s, level > _BIN_LEVEL)
        case A.AndVal(val=v, cont=r):
            s = f"{pp_ftype_atom(v)} /\\ {pp_type(r, _BIN_LEVEL)}"
            return _wrap(s, level > _BIN_LEVEL)
        case A.ImpVal(val=v, cont=r):
            s = f"{pp_ftype_atom(v)} => {pp_type(r, _BIN_LEVEL)}"
            return _wrap(s, level > _BIN_LEVEL)
        case A.Rec(var=a, body=b):
            return _wrap(f"rho {a}. {pp_type(b)}", level > 0)
    raise TypeError(f"not a session type: {ty!r}")


def _wrap(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def pp_ftype(ty: A.FType) -> str:
    match ty:
        case A.Arrow(arg=a, res=r):
            return f"{pp_ftype_atom(a)} -> {pp_ftype(r)}"
        case A.ProcType():
            return pp_ftype_atom(ty)
    raise TypeError(f"not a functional type: {ty!r}")


def pp_ftype_atom(ty: A.FType) -> str:
    match ty:
        case A.ProcType(provided_name=a, provided=t, used=us):
            head = f"{a} : {pp_type(t)}"
            if us:
                tail = ", ".join(f"{c} : {pp_type(u)}" for c, u in us)
                return "{" + head + " <- " + tail + "}"
            return "{" + head + "}"
        case A.Arrow():
            return f"({pp_ftype(ty)})"
    raise TypeError(f"not a functional type: {ty!r}")


def pp_term(term: A.Term, atom: bool = False) -> str:
    match term:
        case A.Var(name=x):
            return x
        case A.Fix(var=x, body=m):
            return _wrap(f"fix {x}. {pp_term(m)}", atom)
        case A.Lam(var=x, ty=t, body=m):
            return _wrap(f"\\{x} : {pp_ftype(t)}. {pp_term(m)}", atom)
        case A.App(fn=f, arg=a):
            s = f"{_pp_app_head(f)} {pp_term(a, atom=True)}"
            return _wrap(s, atom)
        case A.Quote(provided=a, proc=p, used=us):
            inner = pp_process(p)
            if us and _swallows_chan_list(p):
                inner = f"({inner})"
            body = f"{a} <- {inner}"
            if us:
                body += " <- " + ", ".join(us)
            return "{" + body + "}"
        case A.Anno(term=m, ty=t):
            return f"({pp_term(m)} : {pp_ftype(t)})"
    raise TypeError(f"not a term: {term!r}")


def _swallows_chan_list(proc: A.Process) -> bool:
    """Would a following ``<- chans`` attach inside this printed process?"""
    match proc:
        case A.Unquote(used=us):
            return not us
        case A.Cut(right=r):
            return _swallows_chan_list(r)
    cont = getattr(proc, "cont", None)
    return cont is not None and _swallows_chan_list(cont)


def _pp_app_head(term: A.Term) -> str:
    # Application is left associative; heads that are themselves
    # applications need no parentheses.
    if isinstance(term, (A.Var, A.App, A.Quote, A.Anno)):
        return pp_term(term)
    return f"({pp_term(term)})"


def pp_process(proc: A.Process) -> str:
    if type(proc) in _MESSAGE_WORDS:
        verb, message = _MESSAGE_WORDS[type(proc)]
        return f"{verb} {proc.channel} {message}; {pp_process(proc.cont)}"
    match proc:
        case A.Fwd(provided=b, used=a):
            return f"fwd {b} {a}"
        case A.Close(channel=a):
            return f"close {a}"
        case A.Wait(channel=a, cont=p):
            return f"wait {a}; {pp_process(p)}"
        case A.SendLabel(channel=a, label=k, cont=p):
            return f"{a}.{k}; {pp_process(p)}"
        case A.Case(channel=a, branches=bs):
            inner = " | ".join(f"{k} => {pp_process(p)}" for k, p in bs)
            return f"case {a} {{ {inner} }}"
        case A.SendChan(channel=a, sent=b, cont=p):
            return f"send {a} {b}; {pp_process(p)}"
        case A.RecvChan(bound=b, channel=a, cont=p):
            return f"{b} <- recv {a}; {pp_process(p)}"
        case A.SendVal(channel=a, term=m, cont=p):
            return f"send {a} ({pp_term(m)}); {pp_process(p)}"
        case A.RecvVal(bound=x, channel=a, cont=p):
            return f"({x}) <- recv {a}; {pp_process(p)}"
        case A.Unquote():
            return _pp_spawn(proc)
        case A.Cut(channel=x, left=l, right=r, anno=t):
            anno = f" : {pp_type(t)}" if t is not None else ""
            if isinstance(l, A.Unquote) and l.provided == x:
                head = _pp_spawn(l, anno_after=anno)
            else:
                head = f"{x}{anno} <- ({pp_process(l)})"
            return f"{head}; {pp_process(r)}"
    raise TypeError(f"not a process: {proc!r}")


def _pp_spawn(uq: A.Unquote, anno_after: str = "") -> str:
    if isinstance(uq.term, A.Var):
        body = uq.term.name
    else:
        body = "{" + pp_term(uq.term) + "}"
    s = f"{uq.provided}{anno_after} <- {body}"
    if uq.used:
        s += " <- " + ", ".join(uq.used)
    return s


def pp_decl(decl) -> str:
    if isinstance(decl, TypeDecl):
        return f"type {decl.name} = {pp_type(decl.ty)}"
    if isinstance(decl, TermDecl):
        return f"term {decl.name} : {pp_ftype(decl.ty)} = {pp_term(decl.term)}"
    if isinstance(decl, ProcDecl):
        ctx = ", ".join(f"{c} : {pp_type(t)}" for c, t in decl.delta)
        head = f"({ctx} |- {decl.channel} : {pp_type(decl.ty)})"
        return f"proc {decl.name} : {head} = {pp_process(decl.proc)}"
    raise TypeError(f"not a declaration: {decl!r}")


def pp_program(decls) -> str:
    return "\n".join(pp_decl(d) for d in decls) + "\n"
