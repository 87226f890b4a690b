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
from dataclasses import dataclass, field, fields
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

    var: str = field(metadata={"binds": "type"})
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
# The node table: the fields of each session type, term and process class,
# by role, as the generic traversals below need them.  A field whose metadata
# has "binds" names the variable or the channel that the node binds in its
# parts.


class _Shape(NamedTuple):
    fields: tuple[str, ...]  # every field but the span, in constructor order
    kids: tuple[str, ...]  # its parts: nodes and (label, node) branch lists
    var: Optional[str]  # the bound type or term variable
    chan: Optional[str]  # the bound channel
    names: tuple[str, ...]  # free channel names: a name or a tuple of names


def _describe(cls: type) -> _Shape:
    hints, fs = get_type_hints(cls), [f for f in fields(cls) if f.name != "span"]
    binds = {f.metadata["binds"]: f.name for f in fs if "binds" in f.metadata}
    kid_types = (SType, Term, Process, tuple[tuple[str, SType], ...],
                 tuple[tuple[str, Process], ...])
    return _Shape(
        fields=tuple(f.name for f in fs),
        kids=tuple(f.name for f in fs if hints[f.name] in kid_types),
        var=binds.get("type", binds.get("term")), chan=binds.get("channel"),
        names=tuple(f.name for f in fs if issubclass(cls, Process) and "binds" not in f.metadata
                    and f.name in ("channel", "provided", "used", "sent")))


_SHAPES = {cls: _describe(cls) for base in (SType, Term, Process) for cls in base.__subclasses__()}
_KINDS = {SType: "session type", (Term, Process): "term or process", Process: "process"}


def _shape(node, kind: type | tuple) -> _Shape:
    """The shape of ``node``, which must be of ``kind``."""
    shape = _SHAPES.get(type(node))
    if shape is None or not isinstance(node, kind):
        raise TypeError(f"not a {_KINDS[kind]}: {node!r}")
    return shape


def children(node) -> Iterator:
    """The parts of a node in field order, a branch list giving the node of
    each branch in turn."""
    for name in _SHAPES[type(node)].kids:
        value = getattr(node, name)
        yield from (q for _, q in value) if isinstance(value, tuple) else (value,)


def _map(node, f, arg, **changes):
    """``node`` rebuilt through its constructor, with every part ``q``
    replaced by ``f(arg, q)`` and ``changes`` made to its other fields, or
    ``node`` itself when it has neither.  A term or process keeps its span;
    a rebuilt session type has none."""
    shape = _SHAPES[type(node)]
    if not shape.kids and not changes:
        return node
    args = []
    for name in shape.fields:
        value = changes[name] if name in changes else getattr(node, name)
        if name in shape.kids:
            value = (tuple([(k, f(arg, q)) for k, q in value])
                     if type(value) is tuple else f(arg, value))
        args.append(value)
    return type(node)(*args) if isinstance(node, SType) else type(node)(*args, span=node.span)


def _rename(value, m: Mapping[str, str]):
    """A channel-name field (a name or a tuple of names) renamed by ``m``."""
    if isinstance(value, tuple):
        return tuple(m.get(a, a) for a in value)
    return m.get(value, value)


# ---------------------------------------------------------------------------
# Free names


def _free(node, leaf: type, kind: type | tuple) -> frozenset[str]:
    """The free variables of ``node``, of ``kind``, whose variables are
    ``leaf`` nodes."""
    if type(node) is leaf:
        return frozenset({node.name})
    shape = _shape(node, kind)
    out = frozenset().union(*[_free(kid, leaf, kind) for kid in children(node)])
    return out - {getattr(node, shape.var)} if shape.var else out


def free_type_vars(ty: SType) -> frozenset[str]:
    return _free(ty, TVar, SType)


def free_term_vars(node: Union[Term, Process]) -> frozenset[str]:
    return _free(node, Var, (Term, Process))


def free_channels(proc: Process) -> frozenset[str]:
    """Channels a process refers to, excluding ones it binds internally.

    The provided channel of the ambient judgment is included when used.
    Terms are not entered: a quote closes over functional variables only.
    """
    shape = _shape(proc, Process)
    out: frozenset[str] = frozenset()
    for kid in children(proc):
        if isinstance(kid, Process):
            out |= free_channels(kid)
    if shape.chan:
        out -= {getattr(proc, shape.chan)}
    for name in shape.names:
        value = getattr(proc, name)
        out |= set(value) if isinstance(value, tuple) else {value}
    return out


# ---------------------------------------------------------------------------
# Substitution

_fresh_counter = itertools.count()


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    while True:
        cand = f"{base}_{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def _substitution(leaf: type, kind: type | tuple):
    """Simultaneous capture-avoiding substitution for the free variables of
    nodes of ``kind``, whose variables are ``leaf`` nodes."""

    def subst(mapping: Mapping, node):
        if not mapping:
            return node
        if type(node) is leaf:
            return mapping.get(node.name, node)
        binder = _shape(node, kind).var
        if binder is None:
            return _map(node, subst, mapping)
        x = getattr(node, binder)
        inner = {k: v for k, v in mapping.items() if k != x}
        if not inner:
            return node
        cap = frozenset().union(*(_free(v, leaf, kind) for v in inner.values()))
        if x in cap:  # freshen x; as cap holds x, this avoids the body's free vars too
            x2 = fresh_name(x, cap | _free(node, leaf, kind) | frozenset(inner))
            node = _map(node, subst, {x: leaf(x2)}, **{binder: x2})
        return _map(node, subst, inner)

    return subst


_subst_type = _substitution(TVar, SType)
_subst_term = _substitution(Var, (Term, Process))


def subst_type(mapping: Mapping[str, SType], ty: SType) -> SType:
    """Simultaneous capture-avoiding substitution of type variables."""
    return _subst_type(mapping, ty)


def unfold_rec(ty: Rec) -> SType:
    """One unfolding of a recursive type."""
    return _subst_type({ty.var: ty}, ty.body)


def is_contractive(ty: Rec) -> bool:
    """The bound variable must be guarded by a constructor other than Rec."""
    body = ty.body
    while isinstance(body, Rec):
        if body.var == ty.var:
            return True
        body = body.body
    return not isinstance(body, TVar) or body.name != ty.var


def subst_term(mapping: Mapping[str, Term], node):
    """Simultaneous capture-avoiding substitution of term variables.

    Works uniformly over terms and processes, keeping every node's span;
    channel names are untouched.
    """
    return _subst_term(mapping, node)


def rename_channels(proc: Process, mapping: Mapping[str, str]) -> Process:
    """Rename free channel names in a process, keeping every node's span.

    Binders (cut channels, received channels) are freshened when they would
    capture a target name.  Quoted terms are left untouched: a quote closes
    over functional variables only.
    """

    def go(p: Process, m: Mapping[str, str]) -> Process:
        if not m:
            return p
        shape = _shape(p, Process)
        changes = {name: _rename(getattr(p, name), m) for name in shape.names}
        if shape.chan:
            x = getattr(p, shape.chan)
            m = {k: v for k, v in m.items() if k != x}
            if x in m.values():
                changes[shape.chan] = x2 = fresh_name(x, frozenset(m.values()) | frozenset(m))
                p = _map(p, kid, {x: x2})
        return _map(p, kid, m, **changes)

    def kid(m: Mapping[str, str], q):
        return go(q, m) if isinstance(q, Process) else q

    return go(proc, dict(mapping))


# ---------------------------------------------------------------------------
# Alpha-equality


def types_equal(a: SType, b: SType) -> bool:
    """Structural equality of session types up to renaming of Rec binders."""
    if a is b:  # only at the top: below it, the binder maps may differ
        return True
    return _types_equal(a, b, {}, {}, 0)


def _types_equal(x: SType, y: SType, ex: dict[str, int], ey: dict[str, int],
                 depth: int) -> bool:
    """:func:`types_equal` below ``depth`` enclosing ``Rec`` binders, where
    ``ex`` and ``ey`` map each bound name to the depth of its binder."""
    if type(x) is not type(y):
        return False
    if type(x) is TVar:
        m, n = x.name, y.name
        if m in ex or n in ey:
            return ex.get(m) == ey.get(n) and ex.get(m) is not None
        return m == n
    if type(x) is Rec:
        return _types_equal(x.body, y.body, {**ex, x.var: depth}, {**ey, y.var: depth}, depth + 1)
    _shape(x, SType)
    if isinstance(x, (AndVal, ImpVal)) and not ftypes_equal(x.val, y.val):
        return False
    if isinstance(x, (Plus, With)) and [k for k, _ in x.branches] != [k for k, _ in y.branches]:
        return False
    return all(_types_equal(p, q, ex, ey, depth) for p, q in zip(children(x), children(y)))


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
