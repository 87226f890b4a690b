"""Abstract syntax for session types, functional types, terms, and processes.

Session types are polarized: positive types describe provider-to-client
message flow, negative types the reverse.  Recursive types must be
contractive (the bound variable never occurs bare at the top of the body),
which guarantees that unfolding makes progress.

All nodes are immutable and hashable.  Source spans are carried on a
comparison-exempt field so that structural equality ignores positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Union


class Polarity(str, Enum):
    POS = "+"
    NEG = "-"

    def flip(self) -> "Polarity":
        return Polarity.NEG if self is Polarity.POS else Polarity.POS

    def __str__(self) -> str:
        return self.value


POS = Polarity.POS
NEG = Polarity.NEG


@dataclass(frozen=True)
class Span:
    line: int
    col: int


def _span_field():
    return field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Session types


@dataclass(frozen=True)
class SType:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Unit(SType):
    """The terminated protocol; carries only the close message."""


@dataclass(frozen=True)
class Down(SType):
    """Downshift: a synchronizing shift message, then the negative body."""

    body: SType


@dataclass(frozen=True)
class Up(SType):
    """Upshift: the client's shift message, then the positive body."""

    body: SType


@dataclass(frozen=True)
class Plus(SType):
    """Internal choice: the provider sends one of the labels."""

    branches: tuple[tuple[str, SType], ...]


@dataclass(frozen=True)
class With(SType):
    """External choice: the client sends one of the labels."""

    branches: tuple[tuple[str, SType], ...]


@dataclass(frozen=True)
class Tensor(SType):
    """Send a channel of type ``carried``, continue as ``cont``."""

    carried: SType
    cont: SType


@dataclass(frozen=True)
class Lolly(SType):
    """Receive a channel of type ``carried``, continue as ``cont``."""

    carried: SType
    cont: SType


@dataclass(frozen=True)
class AndVal(SType):
    """Send a functional value of type ``val``, continue as ``cont``."""

    val: "FType"
    cont: SType


@dataclass(frozen=True)
class ImpVal(SType):
    """Receive a functional value of type ``val``, continue as ``cont``."""

    val: "FType"
    cont: SType


@dataclass(frozen=True)
class TVar(SType):
    name: str


@dataclass(frozen=True)
class Rec(SType):
    """Recursive protocol; unfolding is mediated by explicit unfold messages."""

    var: str
    body: SType


def branches(pairs: Iterable[tuple[str, SType]]) -> tuple[tuple[str, SType], ...]:
    """Normalize a branch list: sorted by label, duplicates rejected."""
    items = sorted(pairs, key=lambda kv: kv[0])
    labels = [k for k, _ in items]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in branch list: {labels}")
    if not labels:
        raise ValueError("empty branch list")
    return tuple(items)


def plus(mapping: Mapping[str, SType]) -> Plus:
    return Plus(branches(mapping.items()))


def with_(mapping: Mapping[str, SType]) -> With:
    return With(branches(mapping.items()))


# ---------------------------------------------------------------------------
# Functional types


@dataclass(frozen=True)
class FType:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Arrow(FType):
    arg: FType
    res: FType


@dataclass(frozen=True)
class ProcType(FType):
    """Type of a quoted process: provides ``provided``, uses ``used`` in order.

    Channel names are part of the written form but are binders: two quoted
    process types are equal when their session types match positionally.
    """

    provided_name: str
    provided: SType
    used: tuple[tuple[str, SType], ...] = ()

    def used_types(self) -> tuple[SType, ...]:
        return tuple(t for _, t in self.used)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Fix(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ty: FType
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Quote(Term):
    """A quoted process ``{a <- P <- a1, ..., an}``.

    The channel names bind the interface of ``proc``; the quote has no free
    channels of its own.
    """

    provided: str
    proc: "Process"
    used: tuple[str, ...] = ()


@dataclass(frozen=True)
class Anno(Term):
    """A type-annotated term ``(M : tau)``; gives fix and quote a synthesized type."""

    term: Term
    ty: FType


# ---------------------------------------------------------------------------
# Processes


@dataclass(frozen=True)
class Process:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Fwd(Process):
    provided: str
    used: str


@dataclass(frozen=True)
class Cut(Process):
    """Spawn ``left`` providing the private channel, run ``right`` as client.

    ``anno`` is the session type of the private channel.  It may be omitted
    when the left branch is an unquote, whose type determines it.
    """

    channel: str
    left: Process
    right: Process
    anno: Optional[SType] = None


@dataclass(frozen=True)
class Close(Process):
    channel: str


@dataclass(frozen=True)
class Wait(Process):
    channel: str
    cont: Process


@dataclass(frozen=True)
class SendShift(Process):
    channel: str
    cont: Process


@dataclass(frozen=True)
class RecvShift(Process):
    channel: str
    cont: Process


@dataclass(frozen=True)
class SendLabel(Process):
    channel: str
    label: str
    cont: Process


@dataclass(frozen=True)
class Case(Process):
    channel: str
    branches: tuple[tuple[str, Process], ...]


@dataclass(frozen=True)
class SendChan(Process):
    channel: str
    sent: str
    cont: Process


@dataclass(frozen=True)
class RecvChan(Process):
    bound: str
    channel: str
    cont: Process


@dataclass(frozen=True)
class SendVal(Process):
    channel: str
    term: Term
    cont: Process


@dataclass(frozen=True)
class RecvVal(Process):
    bound: str
    channel: str
    cont: Process


@dataclass(frozen=True)
class SendUnfold(Process):
    channel: str
    cont: Process


@dataclass(frozen=True)
class RecvUnfold(Process):
    channel: str
    cont: Process


@dataclass(frozen=True)
class Unquote(Process):
    """Spawn a quoted process ``a <- {M} <- a1, ..., an``."""

    provided: str
    term: Term
    used: tuple[str, ...] = ()


def case(channel: str, mapping: Mapping[str, Process]) -> Case:
    items = sorted(mapping.items(), key=lambda kv: kv[0])
    return Case(channel, tuple(items))


# ---------------------------------------------------------------------------
# Free names


def free_type_vars(ty: SType) -> frozenset[str]:
    match ty:
        case TVar(name=a):
            return frozenset({a})
        case Unit():
            return frozenset()
        case Down(body=b) | Up(body=b):
            return free_type_vars(b)
        case Plus(branches=bs) | With(branches=bs):
            out: frozenset[str] = frozenset()
            for _, t in bs:
                out |= free_type_vars(t)
            return out
        case Tensor(carried=l, cont=r) | Lolly(carried=l, cont=r):
            return free_type_vars(l) | free_type_vars(r)
        case AndVal(cont=r) | ImpVal(cont=r):
            return free_type_vars(r)
        case Rec(var=a, body=b):
            return free_type_vars(b) - {a}
    raise TypeError(f"not a session type: {ty!r}")


def free_term_vars(node: Union[Term, Process]) -> frozenset[str]:
    match node:
        case Var(name=x):
            return frozenset({x})
        case Fix(var=x, body=m) | Lam(var=x, body=m):
            return free_term_vars(m) - {x}
        case App(fn=m, arg=n):
            return free_term_vars(m) | free_term_vars(n)
        case Anno(term=m):
            return free_term_vars(m)
        case Quote(proc=p):
            return free_term_vars(p)
        case Fwd() | Close():
            return frozenset()
        case Cut(left=l, right=r):
            return free_term_vars(l) | free_term_vars(r)
        case Case(branches=bs):
            out: frozenset[str] = frozenset()
            for _, p in bs:
                out |= free_term_vars(p)
            return out
        case SendVal(term=m, cont=p):
            return free_term_vars(m) | free_term_vars(p)
        case RecvVal(bound=x, cont=p):
            return free_term_vars(p) - {x}
        case Unquote(term=m):
            return free_term_vars(m)
        case Wait(cont=p) | SendShift(cont=p) | RecvShift(cont=p) | \
                SendLabel(cont=p) | SendChan(cont=p) | RecvChan(cont=p) | \
                SendUnfold(cont=p) | RecvUnfold(cont=p):
            return free_term_vars(p)
    raise TypeError(f"not a term or process: {node!r}")


def free_channels(proc: Process) -> frozenset[str]:
    """Channels a process refers to, excluding ones it binds internally.

    The provided channel of the ambient judgment is included when used.
    """
    match proc:
        case Fwd(provided=b, used=a):
            return frozenset({b, a})
        case Close(channel=a):
            return frozenset({a})
        case Cut(channel=x, left=l, right=r):
            return (free_channels(l) | free_channels(r)) - {x}
        case Wait(channel=a, cont=p) | SendShift(channel=a, cont=p) | \
                RecvShift(channel=a, cont=p) | SendLabel(channel=a, cont=p) | \
                SendUnfold(channel=a, cont=p) | RecvUnfold(channel=a, cont=p) | \
                SendVal(channel=a, cont=p) | RecvVal(channel=a, cont=p):
            return free_channels(p) | {a}
        case Case(channel=a, branches=bs):
            out = frozenset({a})
            for _, p in bs:
                out |= free_channels(p)
            return out
        case SendChan(channel=a, sent=b, cont=p):
            return free_channels(p) | {a, b}
        case RecvChan(bound=b, channel=a, cont=p):
            return (free_channels(p) - {b}) | {a}
        case Unquote(provided=a, used=us):
            return frozenset({a, *us})
    raise TypeError(f"not a process: {proc!r}")


# ---------------------------------------------------------------------------
# Substitution of session types

_fresh_counter = itertools.count()


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    while True:
        cand = f"{base}_{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def subst_type(mapping: Mapping[str, SType], ty: SType) -> SType:
    """Simultaneous capture-avoiding substitution of type variables."""
    if not mapping:
        return ty
    match ty:
        case TVar(name=a):
            return mapping.get(a, ty)
        case Unit():
            return ty
        case Down(body=b):
            return Down(subst_type(mapping, b))
        case Up(body=b):
            return Up(subst_type(mapping, b))
        case Plus(branches=bs):
            return Plus(tuple((k, subst_type(mapping, t)) for k, t in bs))
        case With(branches=bs):
            return With(tuple((k, subst_type(mapping, t)) for k, t in bs))
        case Tensor(carried=l, cont=r):
            return Tensor(subst_type(mapping, l), subst_type(mapping, r))
        case Lolly(carried=l, cont=r):
            return Lolly(subst_type(mapping, l), subst_type(mapping, r))
        case AndVal(val=v, cont=r):
            return AndVal(v, subst_type(mapping, r))
        case ImpVal(val=v, cont=r):
            return ImpVal(v, subst_type(mapping, r))
        case Rec(var=a, body=b):
            inner = {k: v for k, v in mapping.items() if k != a}
            if not inner:
                return ty
            captured = frozenset().union(
                *(free_type_vars(v) for v in inner.values())
            )
            if a in captured:
                avoid = captured | free_type_vars(b) | frozenset(inner)
                a2 = fresh_name(a, avoid)
                b = subst_type({a: TVar(a2)}, b)
                a = a2
            return Rec(a, subst_type(inner, b))
    raise TypeError(f"not a session type: {ty!r}")


def unfold_rec(ty: Rec) -> SType:
    """One unfolding of a recursive type."""
    return subst_type({ty.var: ty}, ty.body)


def is_contractive(ty: Rec) -> bool:
    """The bound variable must be guarded by a constructor other than Rec."""
    body = ty.body
    shadowed = False
    while isinstance(body, Rec):
        if body.var == ty.var:
            shadowed = True
            break
        body = body.body
    if shadowed:
        return True
    return not isinstance(body, TVar) or body.name != ty.var


# ---------------------------------------------------------------------------
# Substitution of terms into terms and processes


def subst_term(mapping: Mapping[str, Term], node):
    """Simultaneous capture-avoiding substitution of term variables.

    Works uniformly over terms and processes; channel names are untouched.
    """
    if not mapping:
        return node

    def captured_by(ms: Mapping[str, Term]) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for v in ms.values():
            out |= free_term_vars(v)
        return out

    def go(n, ms: Mapping[str, Term]):
        if not ms:
            return n
        match n:
            case Var(name=x):
                return ms.get(x, n)
            case Fix(var=x, body=m):
                x2, m2, ms2 = rebind(x, m, ms)
                return n if ms2 is None else Fix(x2, go(m2, ms2))
            case Lam(var=x, ty=t, body=m):
                x2, m2, ms2 = rebind(x, m, ms)
                return n if ms2 is None else Lam(x2, t, go(m2, ms2))
            case App(fn=m, arg=a):
                return App(go(m, ms), go(a, ms))
            case Anno(term=m, ty=t):
                return Anno(go(m, ms), t)
            case Quote(provided=a, proc=p, used=us):
                return Quote(a, go(p, ms), us)
            case Fwd() | Close():
                return n
            case Cut(channel=x, left=l, right=r, anno=t):
                return Cut(x, go(l, ms), go(r, ms), t)
            case Wait(channel=a, cont=p):
                return Wait(a, go(p, ms))
            case SendShift(channel=a, cont=p):
                return SendShift(a, go(p, ms))
            case RecvShift(channel=a, cont=p):
                return RecvShift(a, go(p, ms))
            case SendLabel(channel=a, label=k, cont=p):
                return SendLabel(a, k, go(p, ms))
            case Case(channel=a, branches=bs):
                return Case(a, tuple((k, go(p, ms)) for k, p in bs))
            case SendChan(channel=a, sent=b, cont=p):
                return SendChan(a, b, go(p, ms))
            case RecvChan(bound=b, channel=a, cont=p):
                return RecvChan(b, a, go(p, ms))
            case SendVal(channel=a, term=m, cont=p):
                return SendVal(a, go(m, ms), go(p, ms))
            case RecvVal(bound=x, channel=a, cont=p):
                x2, p2, ms2 = rebind(x, p, ms)
                return n if ms2 is None else RecvVal(x2, a, go(p2, ms2))
            case SendUnfold(channel=a, cont=p):
                return SendUnfold(a, go(p, ms))
            case RecvUnfold(channel=a, cont=p):
                return RecvUnfold(a, go(p, ms))
            case Unquote(provided=a, term=m, used=us):
                return Unquote(a, go(m, ms), us, span=n.span)
        raise TypeError(f"not a term or process: {n!r}")

    def rebind(x: str, body, ms: Mapping[str, Term]):
        """Drop the shadowed entry; rename the binder if it would capture."""
        inner = {k: v for k, v in ms.items() if k != x}
        if not inner:
            return x, body, None
        cap = captured_by(inner)
        if x in cap:
            x2 = fresh_name(x, cap | free_term_vars(body) | frozenset(inner))
            body = go(body, {x: Var(x2)})
            x = x2
        return x, body, inner

    return go(node, dict(mapping))


def rename_channels(proc: Process, mapping: Mapping[str, str]) -> Process:
    """Rename free channel names in a process, keeping every node's span.

    Binders (cut channels, received channels) are freshened when they would
    capture a target name.  Quoted terms are left untouched: a quote closes
    over functional variables only.
    """
    if not mapping:
        return proc

    def ch(name: str, m: Mapping[str, str]) -> str:
        return m.get(name, name)

    def go(p: Process, m: Mapping[str, str]) -> Process:
        if not m:
            return p
        match p:
            case Fwd(provided=b, used=a):
                return replace(p, provided=ch(b, m), used=ch(a, m))
            case Close(channel=a):
                return replace(p, channel=ch(a, m))
            case Cut(channel=x, left=l, right=r):
                x2, m2 = rebind(x, m)
                if x2 != x:
                    l = go(l, {x: x2})
                    r = go(r, {x: x2})
                return replace(p, channel=x2, left=go(l, m2), right=go(r, m2))
            case Case(channel=a, branches=bs):
                return replace(p, channel=ch(a, m),
                               branches=tuple((k, go(q, m)) for k, q in bs))
            case SendChan(channel=a, sent=b, cont=q):
                return replace(p, channel=ch(a, m), sent=ch(b, m), cont=go(q, m))
            case RecvChan(bound=b, channel=a, cont=q):
                a2 = ch(a, m)
                b2, m2 = rebind(b, m)
                if b2 != b:
                    q = go(q, {b: b2})
                return replace(p, bound=b2, channel=a2, cont=go(q, m2))
            case Unquote(provided=a, used=us):
                return replace(p, provided=ch(a, m), used=tuple(ch(u, m) for u in us))
            case Wait(channel=a, cont=q) | SendShift(channel=a, cont=q) \
                    | RecvShift(channel=a, cont=q) | SendLabel(channel=a, cont=q) \
                    | SendVal(channel=a, cont=q) | RecvVal(channel=a, cont=q) \
                    | SendUnfold(channel=a, cont=q) | RecvUnfold(channel=a, cont=q):
                return replace(p, channel=ch(a, m), cont=go(q, m))
        raise TypeError(f"not a process: {p!r}")

    def rebind(x: str, m: Mapping[str, str]) -> tuple[str, dict[str, str]]:
        m2 = {k: v for k, v in m.items() if k != x}
        if x in m2.values():
            x = fresh_name(x, frozenset(m2.values()) | frozenset(m2))
        return x, m2

    return go(proc, dict(mapping))


# ---------------------------------------------------------------------------
# Alpha-equality


def types_equal(a: SType, b: SType) -> bool:
    """Structural equality of session types up to renaming of Rec binders."""

    def go(x: SType, y: SType, ex: dict[str, int], ey: dict[str, int], depth: int) -> bool:
        match x, y:
            case Unit(), Unit():
                return True
            case TVar(name=m), TVar(name=n):
                if m in ex or n in ey:
                    return ex.get(m) == ey.get(n) and ex.get(m) is not None
                return m == n
            case Down(body=p), Down(body=q):
                return go(p, q, ex, ey, depth)
            case Up(body=p), Up(body=q):
                return go(p, q, ex, ey, depth)
            case Plus(branches=ps), Plus(branches=qs):
                return _branches_eq(ps, qs, ex, ey, depth, go)
            case With(branches=ps), With(branches=qs):
                return _branches_eq(ps, qs, ex, ey, depth, go)
            case Tensor(carried=l1, cont=r1), Tensor(carried=l2, cont=r2):
                return go(l1, l2, ex, ey, depth) and go(r1, r2, ex, ey, depth)
            case Lolly(carried=l1, cont=r1), Lolly(carried=l2, cont=r2):
                return go(l1, l2, ex, ey, depth) and go(r1, r2, ex, ey, depth)
            case AndVal(val=v1, cont=r1), AndVal(val=v2, cont=r2):
                return ftypes_equal(v1, v2) and go(r1, r2, ex, ey, depth)
            case ImpVal(val=v1, cont=r1), ImpVal(val=v2, cont=r2):
                return ftypes_equal(v1, v2) and go(r1, r2, ex, ey, depth)
            case Rec(var=m, body=p), Rec(var=n, body=q):
                ex2 = dict(ex)
                ey2 = dict(ey)
                ex2[m] = depth
                ey2[n] = depth
                return go(p, q, ex2, ey2, depth + 1)
        return False

    return go(a, b, {}, {}, 0)


def _branches_eq(ps, qs, ex, ey, depth, go) -> bool:
    if len(ps) != len(qs):
        return False
    return all(
        k1 == k2 and go(t1, t2, ex, ey, depth)
        for (k1, t1), (k2, t2) in zip(ps, qs)
    )


def ftypes_equal(a: FType, b: FType) -> bool:
    match a, b:
        case Arrow(arg=x1, res=y1), Arrow(arg=x2, res=y2):
            return ftypes_equal(x1, x2) and ftypes_equal(y1, y2)
        case ProcType(provided=p1, used=u1), ProcType(provided=p2, used=u2):
            if len(u1) != len(u2):
                return False
            if not types_equal(p1, p2):
                return False
            return all(types_equal(t1, t2) for (_, t1), (_, t2) in zip(u1, u2))
    return False
