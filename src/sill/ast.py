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
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union, get_type_hints


class Polarity(str, Enum):
    POS = "+"
    NEG = "-"

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
    var: str = field(metadata={"binds": "term"})
    body: Term


@dataclass(frozen=True)
class Lam(Term):
    var: str = field(metadata={"binds": "term"})
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
    proc: Process
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

    channel: str = field(metadata={"binds": "channel"})
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
    bound: str = field(metadata={"binds": "channel"})
    channel: str
    cont: Process


@dataclass(frozen=True)
class SendVal(Process):
    channel: str
    term: Term
    cont: Process


@dataclass(frozen=True)
class RecvVal(Process):
    bound: str = field(metadata={"binds": "term"})
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
# The node table: the fields of each term and process class, by role, as the
# generic traversals below need them.  A field whose metadata has "binds"
# names the term variable or the channel that the node binds in its children.


class _Shape(NamedTuple):
    kids: tuple[str, ...]  # subterms, subprocesses and (label, process) branches
    var: Optional[str]  # the bound term variable
    chan: Optional[str]  # the bound channel
    names: tuple[str, ...]  # free channel names: a name or a tuple of names


def _describe(cls: type) -> _Shape:
    hints, fs = get_type_hints(cls), fields(cls)
    binds = {f.metadata["binds"]: f.name for f in fs if "binds" in f.metadata}
    kid_types = (Term, Process, tuple[tuple[str, Process], ...])
    return _Shape(
        kids=tuple(f.name for f in fs if hints[f.name] in kid_types),
        var=binds.get("term"), chan=binds.get("channel"),
        names=tuple(f.name for f in fs if issubclass(cls, Process) and "binds" not in f.metadata
                    and f.name in ("channel", "provided", "used", "sent")))


_SHAPES = {cls: _describe(cls) for base in (Term, Process) for cls in base.__subclasses__()}


def _shape(node, what: str = "term or process") -> _Shape:
    shape = _SHAPES.get(type(node))
    if shape is None or (what == "process" and not isinstance(node, Process)):
        raise TypeError(f"not a {what}: {node!r}")
    return shape


def _children(node) -> Iterator:
    for name in _SHAPES[type(node)].kids:
        value = getattr(node, name)
        yield from (q for _, q in value) if isinstance(value, tuple) else (value,)


def _map(node, f, **changes):
    """``node`` with ``f`` applied to every child and ``changes`` made to
    its other fields; the span is kept."""
    for name in _SHAPES[type(node)].kids:
        value = getattr(node, name)
        changes[name] = (tuple((k, f(q)) for k, q in value)
                         if isinstance(value, tuple) else f(value))
    return replace(node, **changes)


def _rename(value, m: Mapping[str, str]):
    """A channel-name field (a name or a tuple of names) renamed by ``m``."""
    if isinstance(value, tuple):
        return tuple(m.get(a, a) for a in value)
    return m.get(value, value)


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
    if isinstance(node, Var):
        return frozenset({node.name})
    shape = _shape(node)
    out: frozenset[str] = frozenset()
    for kid in _children(node):
        out |= free_term_vars(kid)
    return out - {getattr(node, shape.var)} if shape.var else out


def free_channels(proc: Process) -> frozenset[str]:
    """Channels a process refers to, excluding ones it binds internally.

    The provided channel of the ambient judgment is included when used.
    Terms are not entered: a quote closes over functional variables only.
    """
    shape = _shape(proc, "process")
    out: frozenset[str] = frozenset()
    for kid in _children(proc):
        if isinstance(kid, Process):
            out |= free_channels(kid)
    if shape.chan:
        out -= {getattr(proc, shape.chan)}
    for name in shape.names:
        value = getattr(proc, name)
        out |= set(value) if isinstance(value, tuple) else {value}
    return out


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
    while isinstance(body, Rec):
        if body.var == ty.var:
            return True
        body = body.body
    return not isinstance(body, TVar) or body.name != ty.var


# ---------------------------------------------------------------------------
# Substitution of terms into terms and processes


def subst_term(mapping: Mapping[str, Term], node):
    """Simultaneous capture-avoiding substitution of term variables.

    Works uniformly over terms and processes, keeping every node's span;
    channel names are untouched.
    """

    def go(n, ms: Mapping[str, Term]):
        if not ms:
            return n
        if isinstance(n, Var):
            return ms.get(n.name, n)
        binder = _shape(n).var
        if binder is None:
            return _map(n, lambda c: go(c, ms))
        x = getattr(n, binder)
        inner = {k: v for k, v in ms.items() if k != x}
        if not inner:
            return n
        cap = frozenset().union(*map(free_term_vars, inner.values()))
        if x in cap:  # freshen x; as cap holds x, this avoids the body's free vars too
            x2 = fresh_name(x, cap | free_term_vars(n) | frozenset(inner))
            n = _map(n, lambda c: go(c, {x: Var(x2)}), **{binder: x2})
        return _map(n, lambda c: go(c, inner))

    return go(node, dict(mapping))


def rename_channels(proc: Process, mapping: Mapping[str, str]) -> Process:
    """Rename free channel names in a process, keeping every node's span.

    Binders (cut channels, received channels) are freshened when they would
    capture a target name.  Quoted terms are left untouched: a quote closes
    over functional variables only.
    """

    def go(p: Process, m: Mapping[str, str]) -> Process:
        if not m:
            return p
        shape = _shape(p, "process")
        changes = {name: _rename(getattr(p, name), m) for name in shape.names}
        if shape.chan:
            x = getattr(p, shape.chan)
            m = {k: v for k, v in m.items() if k != x}
            if x in m.values():
                changes[shape.chan] = x2 = fresh_name(x, frozenset(m.values()) | frozenset(m))
                p = _map(p, lambda q: kid(q, {x: x2}))
        return _map(p, lambda q: kid(q, m), **changes)

    def kid(q, m: Mapping[str, str]):
        return go(q, m) if isinstance(q, Process) else q

    return go(proc, dict(mapping))


# ---------------------------------------------------------------------------
# Alpha-equality


def types_equal(a: SType, b: SType) -> bool:
    """Structural equality of session types up to renaming of Rec binders."""
    if a is b:  # only at the top: below it, the binder maps may differ
        return True

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
