"""Finite approximants of the communication domains that session types denote.

Each closed session type ``A`` and polarity ``p`` determines a pointed
domain of unidirectional communications: the *aspect* of ``A`` at ``p``.
:func:`aspect` compiles a ``(type, polarity)`` pair once into a shape tree
built from the constructors such domains are made of:

* ``UnitShape``: the unit; at ``1+`` it also holds the close message.
* ``LiftShape``: lifting, one message boundary.
* ``SumShape``: the coalesced sum of lifted branches, on the side of a
  choice that sends the label.
* ``RecordShape``, ``PairShape``, ``ValPairShape``: products, for the
  passive side of a choice and for channel and value transmission.
* ``FoldShape``: the recursive solution.  Its body is compiled lazily, so
  a recursive type gives a finite tree.

The neutral connectives (``down`` at -, ``up`` at +, ``/\\`` at -, ``=>`` at
+) take their body's shape, and a sent channel or value is a lifted
product.  Conformance, enumeration, chain heights, and printing and
reading the text notation are traversals of the shape tree.

The finite elements of an aspect are trees of values:

* ``BOT`` is the least element of every aspect: the absence of
  communication.  Product-shaped aspects have their all-bottom tuple
  identified with ``BOT``; the smart constructors normalize on the way in.
* ``STAR`` is the close message.
* ``Lift(v)`` is the image of ``v`` under lifting: one message boundary.
  ``Lift(BOT)`` is *not* ``BOT``; lifting is not strict.
* ``Tag(k, v)`` is an element of a coalesced sum of lifted domains: the
  label ``k`` followed by the communication ``v``, one message boundary.
* ``Pair``/``ValPair``/``Record`` are the elements of the product shapes.

A value carries only what its shape does not record.  The values of a
recursive type are those of its unfolding, so the canonical isomorphism
between the two is the identity, and a branch's lift is implied by the
``Tag`` that names it.

Values are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): a value is built once and shared, so structurally
equal values are the same object, the domain's equality is identity and
hashing is O(1).

Observation depth counts message boundaries: every ``Lift`` and every
``Tag`` is one unit, so one labelled message on a recursive stream costs
exactly one unit; recursive occurrences reachable without crossing a
message boundary contribute only ``BOT``, which matches the least solution
of the corresponding domain equation.  Shapes compare by identity and
:func:`aspect` never evicts, so each aspect is one object and a traversal
finds such an occurrence by the node it revisits.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Mapping, Optional, Sequence

from . import ast as A
from .ast import NEG, POS, Polarity
from .pretty import pp_ftype, pp_type


class DomainError(ValueError):
    """A value was used at an aspect it does not conform to."""


class NotEnumerable(ValueError):
    def __init__(self, ty: A.FType):
        self.ty = ty
        super().__init__(f"functional type is not enumerable: {pp_ftype(ty)}")


class ValueNotationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Values


class CommValue:
    """A finite element of an aspect, hash-consed.

    Constructing a value returns the one live object with that class and
    those arguments, so ``==`` is identity and ``hash`` is O(1).  The intern
    table holds values weakly and knows their arguments only by identity
    (see :func:`_key`), so a value dies with its last outside reference,
    even when it carries a quoted process whose denotation reaches back to
    it.  Values are immutable.
    """

    __slots__ = ("__weakref__", "_cut_at", "_cut")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *map(_key, args))
        v = _INTERNED.get(key)
        if v is None:
            v = object.__new__(cls)
            for name, arg in zip(cls._fields, args):
                object.__setattr__(v, name, arg)
            object.__setattr__(v, "_cut_at", None)
            _INTERNED[key] = v
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


_INTERNED = weakref.WeakValueDictionary()


def _key(arg):
    """How a constructor argument identifies the value built from it:
    communication values by identity, functional values by their own
    equality (through a weak reference), labels and record entries by
    content.  The table thus holds no argument alive."""
    if isinstance(arg, CommValue):
        return id(arg)
    if isinstance(arg, FuncValue):
        return weakref.ref(arg)
    if isinstance(arg, tuple):
        return tuple(map(_key, arg))
    return arg


class BotValue(CommValue):
    __slots__ = ()

    def __repr__(self):
        return "BOT"


class StarValue(CommValue):
    __slots__ = ()

    def __repr__(self):
        return "STAR"


class Lift(CommValue):
    __slots__ = _fields = ("inner",)
    inner: CommValue


class Tag(CommValue):
    __slots__ = _fields = ("label", "inner")
    label: str
    inner: CommValue  # the communication after the label


class Pair(CommValue):
    __slots__ = _fields = ("left", "right")
    left: CommValue
    right: CommValue


class ValPair(CommValue):
    __slots__ = _fields = ("val", "rest")
    val: "FuncValue"
    rest: CommValue


class Record(CommValue):
    __slots__ = _fields = ("entries",)
    entries: tuple[tuple[str, CommValue], ...]

    def to_dict(self) -> dict[str, CommValue]:
        return dict(self.entries)


BOT = BotValue()
STAR = StarValue()


# Functional values


@dataclass(frozen=True)
class FuncValue:
    pass


@dataclass(frozen=True)
class FuncBot(FuncValue):
    def __repr__(self):
        return "FBOT"


@dataclass(frozen=True)
class QProcBot(FuncValue):
    """The lifted bottom of a quoted-process domain: a stuck process.

    Distinct from ``FBOT``, which is the absence of any value.
    """

    def __repr__(self):
        return "QPROC_BOT"


@dataclass(frozen=True, eq=False)
class QProc(FuncValue):
    """A quoted process: the lifted image of its input/output function."""

    den: object  # semantics.Denotation; compared by identity

    def __eq__(self, other):
        return self is other or (isinstance(other, QProc) and self.den is other.den)

    def __hash__(self):
        return hash(("QProc", id(self.den)))


@dataclass(frozen=True, eq=False)
class Closure(FuncValue):
    var: str
    body: A.Term
    ty: A.FType  # the arrow type of the lambda
    env: tuple[tuple[str, FuncValue], ...]
    psi: tuple[tuple[str, A.FType], ...] = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Closure):
            return False
        if self.var != other.var or self.body != other.body:
            return False
        free = A.free_term_vars(self.body) - {self.var}
        mine, theirs = dict(self.env), dict(other.env)
        return all(mine.get(x, FBOT) == theirs.get(x, FBOT) for x in free)

    def __hash__(self):
        return hash(("Closure", self.var, self.body))


FBOT = FuncBot()
QPROC_BOT = QProcBot()


# ---------------------------------------------------------------------------
# Smart constructors: keep values canonical (all-bottom products are BOT)


def record(mapping: Mapping[str, CommValue] | Iterable[tuple[str, CommValue]]) -> CommValue:
    items = tuple(sorted(dict(mapping).items()))
    if all(v == BOT for _, v in items):
        return BOT
    return Record(items)


def pair(left: CommValue, right: CommValue) -> CommValue:
    if left == BOT and right == BOT:
        return BOT
    return Pair(left, right)


def valpair(val: FuncValue, rest: CommValue) -> CommValue:
    if val == FBOT and rest == BOT:
        return BOT
    return ValPair(val, rest)


def fold(v: CommValue) -> CommValue:
    """The canonical isomorphism from the unfolding of a recursive type to
    the type: the identity, since both have the same values."""
    return v


def unfold(v: CommValue) -> CommValue:
    """The inverse of :func:`fold`, and so the identity too."""
    return v


tag = Tag  # the label's lift is implied, so the class is its own constructor


def up(v: CommValue) -> CommValue:
    """The unit of lifting.  Never strict: ``up(BOT) != BOT``."""
    return Lift(v)


def down(v: CommValue) -> CommValue:
    """The counit of lifting; strict, and a retraction of ``up``."""
    if v == BOT:
        return BOT
    if isinstance(v, Lift):
        return v.inner
    raise DomainError(f"cannot lower {v!r}")


# ---------------------------------------------------------------------------
# Splitting values against an expected shape (BOT stands for any product of
# bottoms, so consumers ask for the components they need)


def split_record(v: CommValue, labels: Sequence[str]) -> dict[str, CommValue]:
    if v == BOT:
        return {k: BOT for k in labels}
    if isinstance(v, Record):
        d = v.to_dict()
        if set(d) != set(labels):
            raise DomainError(f"record keys {sorted(d)} != expected {sorted(labels)}")
        return d
    raise DomainError(f"expected a record, got {v!r}")


def split_pair(v: CommValue) -> tuple[CommValue, CommValue]:
    if v == BOT:
        return BOT, BOT
    if isinstance(v, Pair):
        return v.left, v.right
    raise DomainError(f"expected a pair, got {v!r}")


def split_valpair(v: CommValue) -> tuple[FuncValue, CommValue]:
    if v == BOT:
        return FBOT, BOT
    if isinstance(v, ValPair):
        return v.val, v.rest
    raise DomainError(f"expected a value-carrying pair, got {v!r}")


# ---------------------------------------------------------------------------
# Order and meet


def func_leq(f: FuncValue, g: FuncValue) -> bool:
    if f == FBOT:
        return True
    if isinstance(f, QProcBot):
        return isinstance(g, (QProcBot, QProc))
    # Closures and quoted processes compare by identity of their definition:
    # a sound under-approximation of the pointwise order.
    return f == g


def leq(v: CommValue, w: CommValue) -> bool:
    """The structural pointwise order on conforming values."""
    if v == BOT:
        return True
    if w == BOT:
        return False
    match v, w:
        case StarValue(), StarValue():
            return True
        case Lift(inner=a), Lift(inner=b):
            return leq(a, b)
        case Tag(label=k, inner=a), Tag(label=l, inner=b):
            return k == l and leq(a, b)
        case Pair(left=a1, right=a2), Pair(left=b1, right=b2):
            return leq(a1, b1) and leq(a2, b2)
        case ValPair(val=f, rest=a), ValPair(val=g, rest=b):
            return func_leq(f, g) and leq(a, b)
        case Record(entries=es), Record(entries=fs):
            if [k for k, _ in es] != [k for k, _ in fs]:
                raise DomainError("records with different keys are unrelated")
            return all(leq(a, b) for (_, a), (_, b) in zip(es, fs))
        case (Pair(), Record()) | (Record(), Pair()):
            raise DomainError(f"shape mismatch: {v!r} vs {w!r}")
    return False


def _func_meet(f: FuncValue, g: FuncValue) -> FuncValue:
    if f == FBOT or g == FBOT:
        return FBOT
    if f == g:
        return f
    if isinstance(f, (QProcBot, QProc)) and isinstance(g, (QProcBot, QProc)):
        return QPROC_BOT
    return FBOT


def meet2(v: CommValue, w: CommValue) -> CommValue:
    """Greatest lower bound; mismatched constructors meet at BOT."""
    if v == BOT or w == BOT:
        return BOT
    match v, w:
        case StarValue(), StarValue():
            return STAR
        case Lift(inner=a), Lift(inner=b):
            return Lift(meet2(a, b))
        case Tag(label=k, inner=a), Tag(label=l, inner=b):
            if k != l:
                return BOT
            return Tag(k, meet2(a, b))
        case Pair(left=a1, right=a2), Pair(left=b1, right=b2):
            return pair(meet2(a1, b1), meet2(a2, b2))
        case ValPair(val=f, rest=a), ValPair(val=g, rest=b):
            return valpair(_func_meet(f, g), meet2(a, b))
        case Record(entries=es), Record(entries=fs):
            if [k for k, _ in es] != [k for k, _ in fs]:
                raise DomainError("records with different keys have no meet")
            return record({k: meet2(a, b) for (k, a), (_, b) in zip(es, fs)})
    raise DomainError(f"shape mismatch: {v!r} vs {w!r}")


# ---------------------------------------------------------------------------
# Truncation


def truncate(v: CommValue, depth: int) -> CommValue:
    """Replace everything below the ``depth``-th message boundary with BOT.

    The last result is memoized on ``v``.  It is kept only when it differs
    from ``v``: a value never refers to itself, so values are freed as soon
    as they are unreachable.
    """
    if v._cut_at != depth:
        cut = _truncate(v, depth)
        object.__setattr__(v, "_cut", None if cut is v else cut)
        object.__setattr__(v, "_cut_at", depth)
    return v._cut or v


def _truncate(v: CommValue, depth: int) -> CommValue:
    if v is BOT or v is STAR:
        return v
    match v:
        case Lift(inner=a):
            if depth <= 0:
                return BOT
            return Lift(truncate(a, depth - 1))
        case Tag(label=k, inner=a):
            if depth <= 0:
                return BOT
            return Tag(k, truncate(a, depth - 1))
        case Pair(left=l, right=r):
            return pair(truncate(l, depth), truncate(r, depth))
        case ValPair(val=f, rest=r):
            return valpair(f, truncate(r, depth))
        case Record(entries=es):
            return record({k: truncate(a, depth) for k, a in es})
    raise DomainError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Aspects as shape trees


@dataclass(frozen=True, eq=False)
class Shape:
    """A node of a compiled aspect; nodes compare by identity."""


@dataclass(frozen=True, eq=False)
class UnitShape(Shape):
    star: bool  # whether the close message flows this way


@dataclass(frozen=True, eq=False)
class LiftShape(Shape):
    inner: Shape


@dataclass(frozen=True, eq=False)
class SumShape(Shape):
    branches: dict[str, Shape]  # each branch under a lift


@dataclass(frozen=True, eq=False)
class RecordShape(Shape):
    fields: dict[str, Shape]


@dataclass(frozen=True, eq=False)
class PairShape(Shape):
    left: Shape
    right: Shape


@dataclass(frozen=True, eq=False)
class ValPairShape(Shape):
    val: A.FType
    rest: Shape


@dataclass(frozen=True, eq=False)
class FoldShape(Shape):
    rec: A.Rec
    pol: Polarity
    labelled: bool  # the unfolding is a choice, so k·v is written without fold(...)

    @cached_property
    def body(self) -> Shape:
        return aspect(A.unfold_rec(self.rec), self.pol)


@lru_cache(maxsize=None)
def aspect(ty: A.SType, pol: Polarity) -> Shape:
    """The shape of the aspect of ``ty`` at ``pol``.

    Cached and never evicted, so an aspect is always the same object: the
    cycle cut of enumeration and chain heights relies on that.
    """
    match ty, pol:
        case A.Unit(), _:
            return UnitShape(pol == POS)
        case (A.Down(body=b), Polarity.POS) | (A.Up(body=b), Polarity.NEG):
            return LiftShape(aspect(b, pol))
        case (A.Plus(branches=bs), Polarity.POS) | (A.With(branches=bs), Polarity.NEG):
            return SumShape({k: aspect(t, pol) for k, t in bs})
        case (A.Plus(branches=bs), _) | (A.With(branches=bs), _):
            return RecordShape({k: aspect(t, pol) for k, t in bs})
        case (A.Tensor(carried=l, cont=r), Polarity.POS) | (A.Lolly(carried=l, cont=r), Polarity.NEG):
            return LiftShape(PairShape(aspect(l, POS), aspect(r, pol)))
        case (A.Tensor(carried=l, cont=r), _) | (A.Lolly(carried=l, cont=r), _):
            return PairShape(aspect(l, NEG), aspect(r, pol))
        case (A.AndVal(val=tau, cont=r), Polarity.POS) | (A.ImpVal(val=tau, cont=r), Polarity.NEG):
            return LiftShape(ValPairShape(tau, aspect(r, pol)))
        case (A.Down(body=b) | A.Up(body=b) | A.AndVal(cont=b) | A.ImpVal(cont=b)), _:
            return aspect(b, pol)
        case A.Rec(), _:
            choice = A.Plus if pol == POS else A.With
            return FoldShape(ty, pol, isinstance(A.unfold_rec(ty), choice))
    raise DomainError(f"no aspect for {ty!r} at {pol}")


# ---------------------------------------------------------------------------
# Conformance


def conforms(v: CommValue, ty: A.SType, pol: Polarity) -> bool:
    try:
        check_conforms(v, ty, pol)
        return True
    except DomainError:
        return False


def check_conforms(v: CommValue, ty: A.SType, pol: Polarity) -> None:
    _check(v, aspect(ty, pol))


def _check(v: CommValue, s: Shape, folds: frozenset = frozenset()) -> None:
    """``folds`` are the folds met since ``v`` was reached; one met again
    recurs without a message boundary, and only BOT conforms there."""
    if v == BOT:
        return
    match s, v:
        case UnitShape(star=True), StarValue():
            pass
        case LiftShape(inner=i), Lift(inner=x):
            _check(x, i)
        case SumShape(branches=bs), Tag(label=k, inner=x):
            if k not in bs:
                raise DomainError(f"label {k!r} not in {sorted(bs)}")
            _check(x, bs[k])
        case RecordShape(fields=fs), Record():
            d = split_record(v, fs)
            for k, f in fs.items():
                _check(d[k], f)
        case PairShape(left=l, right=r), Pair(left=a, right=b):
            _check(a, l)
            _check(b, r)
        case ValPairShape(rest=r), ValPair(rest=x):
            _check(x, r)
        case FoldShape(), _ if s not in folds:
            _check(v, s.body, folds | {s})
        case _:
            raise DomainError(f"{v!r} does not conform to a {type(s).__name__}")


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_values(ty: A.SType, pol: Polarity, depth: int) -> list[CommValue]:
    """All conforming values whose height is at most ``depth``.

    In ``_enumerate``'s order.  Recursive occurrences reachable without
    crossing a message boundary contribute only BOT (the least solution of
    the enumeration equation), matching the degenerate domains such types
    denote.  A transmitted quoted process takes its two canonical points,
    FBOT and QPROC_BOT; any other functional type raises NotEnumerable.
    """
    return list(_enumerate(aspect(ty, pol), depth))


@lru_cache(maxsize=None)
def _enumerate(shape: Shape, depth: int) -> tuple[CommValue, ...]:
    """The values of ``shape`` up to ``depth``, memoized at each message
    boundary, where the cycle cut starts afresh.

    Generated in order, a linear extension of ``leq``: BOT first, once; a
    unit gives ``_`` then ``*``; a lift or sum gives ``_``, then each branch
    in label order over the values below the boundary; a record, pair or
    value pair gives the product of its components' orders, last component
    fastest; a fold takes its body's order.  Only the all-bottom
    combination collapses (to BOT), so no value occurs twice."""
    return tuple(_enumerate_in(shape, depth, frozenset()))


def _below(s: Shape, depth: int) -> Sequence[CommValue]:
    """The values of ``s`` under a message boundary at ``depth``."""
    return _enumerate(s, depth - 1) if depth > 0 else ()


def _enumerate_in(s: Shape, depth: int, seen: frozenset) -> list[CommValue]:
    """The values of ``s`` within one message boundary; a shape in ``seen``
    recurs without crossing one, and contributes only BOT."""
    if s in seen:
        return [BOT]
    seen = seen | {s}
    match s:
        case UnitShape(star=star):
            return [BOT, STAR] if star else [BOT]
        case LiftShape(inner=i):
            return [BOT, *(Lift(x) for x in _below(i, depth))]
        case SumShape(branches=bs):
            return [BOT, *(Tag(k, x) for k, b in bs.items() for x in _below(b, depth))]
        case RecordShape(fields=fs):
            pools = [_enumerate_in(f, depth, seen) for f in fs.values()]
            return [record(zip(fs, combo)) for combo in itertools.product(*pools)]
        case PairShape(left=l, right=r):
            return [pair(x, y) for x in _enumerate_in(l, depth, seen)
                    for y in _enumerate_in(r, depth, seen)]
        case ValPairShape(val=tau, rest=r):
            if not isinstance(tau, A.ProcType):
                raise NotEnumerable(tau)
            return [valpair(f, y) for f in (FBOT, QPROC_BOT)
                    for y in _enumerate_in(r, depth, seen)]
        case FoldShape():
            return _enumerate_in(s.body, depth, seen)


# ---------------------------------------------------------------------------
# Ascending-chain height of the truncated aspect (a fuel bound for traces)


@lru_cache(maxsize=None)
def recursive(ty: A.SType, pol: Polarity) -> bool:
    """Whether the aspect has a ``rho``: only then can a value be deeper than
    every depth, so that truncation may lose part of it."""
    return _has_fold(aspect(ty, pol))


def _has_fold(s: Shape) -> bool:
    match s:
        case FoldShape():
            return True
        case LiftShape(inner=i) | ValPairShape(rest=i):
            return _has_fold(i)
        case SumShape(branches=fs) | RecordShape(fields=fs):
            return any(_has_fold(f) for f in fs.values())
        case PairShape(left=l, right=r):
            return _has_fold(l) or _has_fold(r)
    return False


def chain_steps(ty: A.SType, pol: Polarity, depth: float) -> int:
    """An upper bound on the number of strict steps any ascending chain can
    take in the depth-truncated aspect; ``math.inf`` gives the full height
    of an aspect that is not recursive."""
    s = aspect(ty, pol)
    # bottom-up, so that no call recurses through every depth level down to 0
    for d in range(int(depth) if depth != math.inf else 0):
        _chain_below(s, d)
    return _chain_below(s, depth)


@lru_cache(maxsize=None)
def _chain_below(s: Shape, d: float) -> int:
    """:func:`_chain_steps` memoized at each message boundary, where the
    cycle cut starts afresh (as :func:`_enumerate` is)."""
    return _chain_steps(s, d, frozenset())


def _chain_steps(s: Shape, d: float, seen: frozenset) -> int:
    if s in seen:
        return 0
    seen = seen | {s}
    match s:
        case UnitShape(star=star):
            return int(star)
        case LiftShape(inner=i):
            return 1 + _chain_below(i, d - 1) if d > 0 else 0
        case SumShape(branches=bs):
            if d <= 0:
                return 0
            return 1 + max(_chain_below(b, d - 1) for b in bs.values())
        case RecordShape(fields=fs):
            return sum(_chain_steps(f, d, seen) for f in fs.values())
        case PairShape(left=l, right=r):
            return _chain_steps(l, d, seen) + _chain_steps(r, d, seen)
        case ValPairShape(rest=r):
            # absent < stuck < a quoted process
            return 2 + _chain_steps(r, d, seen)
        case FoldShape():
            return _chain_steps(s.body, d, seen)


# ---------------------------------------------------------------------------
# Text notation
#
#   _            absence of communication (bottom)
#   *            the close message
#   up(v)        a lifted communication
#   k·v          label k then v (also accepted/printed for fold-of-label
#                at recursive types, so bit streams read 0·1·_)
#   (v, w)       pairs (channel or value transmission)
#   {k: v, ...}  records (the passive side of a choice)
#   fold(v)      recursive wrapper when the unfolding is not a choice
#
# A row is written k = v, ...: one entry per interface key, split at the
# commas outside every bracket; an omitted key reads as _.


def format_value(v: CommValue, ty: A.SType, pol: Polarity) -> str:
    return _format(v, aspect(ty, pol))


def _format(v: CommValue, s: Shape) -> str:
    """Unary wrappers (``up(``, ``fold(`` and the labels ``k·``) are printed
    in a loop, as :func:`parse_value` reads them, so a long stream or deep
    up(up(…)) nests no call per level; pairs and records recurse.  As in
    :func:`_check`, a fold met twice without a message boundary between has
    only BOT."""
    head, close, folds = "", 0, set()
    while True:
        match s:
            case LiftShape(inner=i) if v != BOT:
                head += "up("
                close += 1
                v, s, folds = down(v), i, set()
                continue
            case SumShape(branches=bs) if v != BOT:
                head += f"{v.label}·"
                v, s, folds = v.inner, bs[v.label], set()
                continue
            case FoldShape(labelled=labelled) if v != BOT:
                if s in folds:
                    raise DomainError(f"{v!r} does not conform to a FoldShape")
                folds.add(s)
                s = s.body
                if not (labelled and isinstance(v, Tag)):
                    head += "fold("
                    close += 1
                continue
            case UnitShape():
                text = "*" if v == STAR else "_"
            case RecordShape(fields=fs):
                d = split_record(v, fs)
                text = "{" + ", ".join(f"{k}: {_format(d[k], f)}" for k, f in fs.items()) + "}"
            case PairShape(left=l, right=r):
                a, b = split_pair(v)
                text = f"({_format(a, l)}, {_format(b, r)})"
            case ValPairShape(rest=r):
                f, rest = split_valpair(v)
                text = f"({format_func_value(f)}, {_format(rest, r)})"
            case _:  # the bottom of a lift, sum or fold
                text = "_"
        return head + text + ")" * close


def format_row(row: Mapping[str, CommValue],
               aspects: Mapping[str, tuple[A.SType, Polarity]]) -> dict[str, str]:
    """Each value of ``row`` in the notation, by key in sorted order."""
    return {k: format_value(row[k], *aspects[k]) for k in sorted(row)}


def join_row(fields: Mapping[str, str]) -> str:
    """The text ``k = v, ...`` of a printed row, which :func:`parse_row` reads back."""
    return ", ".join(f"{k} = {v}" for k, v in fields.items())


def format_func_value(f: FuncValue) -> str:
    match f:
        case FuncBot():
            return "_"
        case QProcBot():
            return "<stuck>"
        case QProc():
            return "<proc>"
        case Closure():
            return "<fun>"
    raise DomainError(f"not a functional value: {f!r}")


# Reading the notation is one scan and one walk of the aspect's shape, as
# printing is.  Unary wrappers (up(...), fold(...), k·v, implicit folds and
# grouping parentheses) are read in a loop and their closing brackets checked
# on the way out, so neither a long stream nor deep up(up(…)) nests a call per
# level; pairs and records recurse.  A fault is reported where the reading
# meets it, so a shape fault is reported before a later syntax fault.

_VALUE_TOKEN = re.compile(r"\s*(<[^>]*>|[^\W_]\w*|\S)")

@dataclass(frozen=True, eq=False)
class _FuncSlot(Shape):
    """Where the notation writes a sent functional value: _ or <stuck>."""

_EXPECTED = {
    UnitShape: "the unit type carries only _ or *",
    LiftShape: "expected up(...) or _",
    SumShape: "expected a labelled value k·v",
    RecordShape: "expected a record {label: value, ...}",
    PairShape: "expected a pair (v, w)",
    ValPairShape: "expected a pair (value, w)",
    FoldShape: "expected fold(...) or _",  # a fold that reaches itself with no message
    _FuncSlot: "functional values have no notation beyond _ and <stuck>",
}


def parse_value(text: str, ty: A.SType, pol: Polarity) -> CommValue:
    reader = _Reader(text)
    v = reader.value(aspect(ty, pol))
    if reader.pos != reader.end:
        rest = reader.tokens[reader.pos:reader.end]
        raise ValueNotationError(f"trailing input in value: {rest}")
    return v


def parse_row(text: str, aspects: Mapping[str, tuple[A.SType, Polarity]]
              ) -> dict[str, CommValue]:
    """Read a row ``k = v, ...`` over ``aspects``: each value is read by
    :func:`parse_value` at its key's aspect, and an omitted key reads as _."""
    matches = list(_VALUE_TOKEN.finditer(text))
    cuts = [matches[at].start(1) for at in _bracket_commas([m[1] for m in matches])[-1]]
    entries = {}
    for start, end in zip([-1, *cuts], [*cuts, len(text)]):
        part = text[start + 1:end]
        if not part.strip():
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueNotationError(f"bad input entry {part!r}; write key = value")
        key = key.strip()
        if key in entries:
            raise ValueNotationError(f"input key {key!r} is given twice")
        entries[key] = value
    row = {}
    for key, (ty, pol) in aspects.items():
        try:
            row[key] = parse_value(entries.pop(key), ty, pol) if key in entries else BOT
        except ValueNotationError as exc:
            raise ValueNotationError(f"input {key}: {exc} (expected a value of type "
                                     f"{pp_type(ty)} at polarity {pol})") from None
    if entries:
        raise ValueNotationError(
            f"unknown input keys {sorted(entries)}; interface has {sorted(aspects)}")
    return row


def _bracket_commas(tokens: Sequence[str]) -> dict[int, list[int]]:
    """For each ( or { of ``tokens``, by index, the indexes of its top-level
    commas; under -1 the commas outside every bracket.  A closing bracket
    closes the innermost open one of either kind, and a stray one is left
    for the value reader to report."""
    commas: dict[int, list[int]] = {-1: []}
    open_at = [-1]
    for at, tok in enumerate(tokens):
        if tok in ("(", "{"):
            commas[at] = []
            open_at.append(at)
        elif tok in (")", "}"):
            if len(open_at) > 1:
                open_at.pop()
        elif tok == ",":
            commas[open_at[-1]].append(at)
    return commas


def _is_label(tok: Optional[str]) -> bool:
    return tok is not None and (tok.isalnum() or "_" in tok)


class _Reader:
    """The tokens of one text, read against shapes from ``pos`` on.  Two
    ``None`` after the last token stand for the end of the text."""

    def __init__(self, text: str):
        # The top-level commas of each ( or { tell a tuple from grouping
        # parentheses and give a record's labels before any field is read.
        self.tokens: list[Optional[str]] = _VALUE_TOKEN.findall(text)
        self.commas = _bracket_commas(self.tokens)
        self.pos, self.end = 0, len(self.tokens)
        for at, tok in enumerate(self.tokens):
            if tok in ("·", "."):
                self.tokens[at] = "·"
            elif tok == "<":
                raise ValueNotationError("unclosed <...> in value")
            elif len(tok) == 1 and tok not in "*:_(){}," and not tok.isalnum():
                raise ValueNotationError(f"unexpected character {tok!r} in value")
        self.tokens += (None, None)

    def expect(self, tok: str, message: str) -> None:
        if self.tokens[self.pos] != tok:
            raise ValueNotationError(message)
        self.pos += 1

    def value(self, s: Shape) -> CommValue:
        """Read one value of shape ``s``."""
        wrappers = []  # (closing bracket's name or None, constructor or None)
        implicit = set()  # (fold shape, position) pairs unfolded without a token
        while True:
            tok, after = self.tokens[self.pos], self.tokens[self.pos + 1]
            if tok is None:
                raise ValueNotationError("unexpected end of value")
            if tok in ("<proc>", "<fun>"):
                raise ValueNotationError(
                    f"{tok} displays a functional value with no written form")
            if tok in ("up", "fold"):
                if after != "(":
                    raise ValueNotationError(f"{tok} needs parentheses")
            elif tok.isalnum():
                if after != "·":
                    raise ValueNotationError(f"bare name {tok!r} is not a value")
            elif tok not in ("_", "*", "<stuck>", "(", "{"):
                raise ValueNotationError(f"unexpected token {tok!r} in value")
            pair_open = tok == "(" and len(self.commas[self.pos]) == 1
            if tok == "(" and not self.commas[self.pos]:
                wrappers.append(("(...)", None))
                self.pos += 1
                continue
            if tok == "_":
                v, self.pos = BOT, self.pos + 1
                break
            match s:
                case FoldShape():
                    explicit = tok == "fold"
                    if not explicit and (s, self.pos) in implicit:
                        raise ValueNotationError(_EXPECTED[FoldShape])
                    implicit.add((s, self.pos))
                    if explicit:
                        wrappers.append(("fold(...)", None))
                    s, self.pos = s.body, self.pos + 2 * explicit
                    continue
                case SumShape(branches=bs) if after == "·":
                    if tok not in bs:
                        raise ValueNotationError(f"label {tok!r} not among {sorted(bs)}")
                    wrappers.append((None, partial(Tag, tok)))
                    s, self.pos = bs[tok], self.pos + 2
                    continue
                case LiftShape(inner=i) if tok == "up":
                    wrappers.append(("up(...)", Lift))
                    s, self.pos = i, self.pos + 2
                    continue
                case UnitShape(star=False):
                    raise ValueNotationError("nothing flows this way on a unit channel; use _")
                case UnitShape() if tok == "*":
                    v, self.pos = STAR, self.pos + 1
                case _FuncSlot() if tok == "<stuck>":
                    v, self.pos = QPROC_BOT, self.pos + 1
                case RecordShape(fields=fs) if tok == "{":
                    v = self.record(fs)
                case PairShape(left=l, right=r) if pair_open:
                    v = pair(*self.pair(l, r))
                case ValPairShape(rest=r) if pair_open:
                    f, rest = self.pair(_FuncSlot(), r)
                    v = valpair(FBOT if f is BOT else f, rest)
                case _:
                    raise ValueNotationError(_EXPECTED[type(s)])
            break
        for closer, build in reversed(wrappers):
            if closer:
                self.expect(")", f"unclosed {closer}")
            if build:
                v = build(v)
        return v

    def pair(self, l: Shape, r: Shape) -> tuple:
        self.pos += 1
        a = self.value(l)
        self.expect(",", "unclosed (...)")
        b = self.value(r)
        self.expect(")", "unclosed (...)")
        return a, b

    def record(self, fs: dict[str, Shape]) -> CommValue:
        labels = {self.tokens[at + 1] for at in [self.pos, *self.commas[self.pos]]}
        unknown = sorted({k for k in labels if _is_label(k)} - set(fs))
        if unknown:
            raise ValueNotationError(f"unknown labels {unknown}")
        got = {}
        while True:
            label = self.tokens[self.pos + 1]
            if label is None:
                raise ValueNotationError("unclosed {...}")
            if not _is_label(label):
                raise ValueNotationError(f"bad record label {label!r}")
            self.pos += 2
            self.expect(":", "record entries are written label: value")
            got[label] = self.value(fs[label])
            if self.tokens[self.pos] != ",":
                break
        self.expect("}", "unclosed {...}")
        return record({k: got.get(k, BOT) for k in fs})
