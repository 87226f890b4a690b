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
product.  Conformance, enumeration, chain heights and the text notation
are traversals of the shape tree.

The finite elements of an aspect are trees of values:

* ``BOT`` is the least element of every aspect: the absence of
  communication.  Product-shaped aspects have their all-bottom tuple
  identified with ``BOT``; the smart constructors normalize on the way in,
  so structural equality decides the domain's equality.
* ``STAR`` is the close message.
* ``Lift(v)`` is the image of ``v`` under lifting: one message boundary.
  ``Lift(BOT)`` is *not* ``BOT``; lifting is not strict.
* ``Tag(k, Lift(v))`` is an element of a coalesced sum: the label ``k``
  followed by the communication ``v``.
* ``Pair``/``ValPair``/``Record`` are the elements of the product shapes.
* ``Fold(v)`` marks an element of a recursive type via the canonical
  isomorphism with its unfolding.

Observation depth counts message boundaries: every ``Lift`` is one unit.
``Fold`` is transparent for depth, so one labelled message on a recursive
stream costs exactly one unit; recursive occurrences reachable without
crossing a message boundary contribute only ``BOT`` to enumeration, which
matches the least solution of the corresponding domain equation.  Shapes
compare by identity and :func:`aspect` never evicts, so each aspect is one
object and a traversal finds such an occurrence by the node it revisits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import ast as A
from .ast import NEG, POS, Polarity


class DomainError(ValueError):
    """A value was used at an aspect it does not conform to."""


class JoinError(ValueError):
    """The join of two incomparable values was requested."""


class NotEnumerable(ValueError):
    def __init__(self, ty: A.FType):
        self.ty = ty
        super().__init__(f"functional type is not enumerable: {ty}")


class ValueNotationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class CommValue:
    pass


@dataclass(frozen=True)
class BotValue(CommValue):
    def __repr__(self):
        return "BOT"


@dataclass(frozen=True)
class StarValue(CommValue):
    def __repr__(self):
        return "STAR"


@dataclass(frozen=True)
class Lift(CommValue):
    inner: CommValue


@dataclass(frozen=True)
class Tag(CommValue):
    label: str
    inner: CommValue  # always a Lift


@dataclass(frozen=True)
class Pair(CommValue):
    left: CommValue
    right: CommValue


@dataclass(frozen=True)
class ValPair(CommValue):
    val: "FuncValue"
    rest: CommValue


@dataclass(frozen=True)
class Record(CommValue):
    entries: tuple[tuple[str, CommValue], ...]

    def to_dict(self) -> dict[str, CommValue]:
        return dict(self.entries)


@dataclass(frozen=True)
class Fold(CommValue):
    inner: CommValue


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
    if v == BOT:
        return BOT
    return Fold(v)


def unfold(v: CommValue) -> CommValue:
    if v == BOT:
        return BOT
    if isinstance(v, Fold):
        return v.inner
    raise DomainError(f"cannot unfold {v!r}")


def tag(label: str, under_lift: CommValue) -> CommValue:
    return Tag(label, Lift(under_lift))


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
# Order, join, meet


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
        case Fold(inner=a), Fold(inner=b):
            return leq(a, b)
        case (Pair(), Record()) | (Record(), Pair()):
            raise DomainError(f"shape mismatch: {v!r} vs {w!r}")
    return False


def _func_lub(f: FuncValue, g: FuncValue) -> FuncValue:
    if f == FBOT:
        return g
    if g == FBOT:
        return f
    if isinstance(f, QProcBot) and isinstance(g, (QProcBot, QProc)):
        return g
    if isinstance(g, QProcBot) and isinstance(f, QProc):
        return f
    if f == g:
        return f
    raise JoinError(f"functional values have no join: {f!r} vs {g!r}")


def lub2(v: CommValue, w: CommValue) -> CommValue:
    """Least upper bound of two compatible values (chain elements always are)."""
    if v == BOT:
        return w
    if w == BOT:
        return v
    match v, w:
        case StarValue(), StarValue():
            return STAR
        case Lift(inner=a), Lift(inner=b):
            return Lift(lub2(a, b))
        case Tag(label=k, inner=a), Tag(label=l, inner=b):
            if k != l:
                raise JoinError(f"incomparable labels {k!r} and {l!r} have no join")
            return Tag(k, lub2(a, b))
        case Pair(left=a1, right=a2), Pair(left=b1, right=b2):
            return pair(lub2(a1, b1), lub2(a2, b2))
        case ValPair(val=f, rest=a), ValPair(val=g, rest=b):
            return valpair(_func_lub(f, g), lub2(a, b))
        case Record(entries=es), Record(entries=fs):
            if [k for k, _ in es] != [k for k, _ in fs]:
                raise DomainError("records with different keys have no join")
            return record({k: lub2(a, b) for (k, a), (_, b) in zip(es, fs)})
        case Fold(inner=a), Fold(inner=b):
            return fold(lub2(a, b))
    raise DomainError(f"shape mismatch: {v!r} vs {w!r}")


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
        case Fold(inner=a), Fold(inner=b):
            return fold(meet2(a, b))
    raise DomainError(f"shape mismatch: {v!r} vs {w!r}")


# ---------------------------------------------------------------------------
# Truncation


def truncate(v: CommValue, depth: int) -> CommValue:
    """Replace everything below the ``depth``-th message boundary with BOT."""
    if v == BOT or isinstance(v, StarValue):
        return v
    match v:
        case Lift(inner=a):
            if depth <= 0:
                return BOT
            return Lift(truncate(a, depth - 1))
        case Tag(label=k, inner=Lift(inner=a)):
            if depth <= 0:
                return BOT
            return Tag(k, Lift(truncate(a, depth - 1)))
        case Pair(left=l, right=r):
            return pair(truncate(l, depth), truncate(r, depth))
        case ValPair(val=f, rest=r):
            return valpair(f, truncate(r, depth))
        case Record(entries=es):
            return record({k: truncate(a, depth) for k, a in es})
        case Fold(inner=a):
            return fold(truncate(a, depth))
    raise DomainError(f"not a value: {v!r}")


def height(v: CommValue) -> int:
    """Number of message boundaries on the deepest path."""
    match v:
        case BotValue() | StarValue():
            return 0
        case Lift(inner=a):
            return 1 + height(a)
        case Tag(inner=a):
            return height(a)
        case Pair(left=l, right=r):
            return max(height(l), height(r))
        case ValPair(rest=r):
            return height(r)
        case Record(entries=es):
            return max(height(a) for _, a in es)
        case Fold(inner=a):
            return height(a)
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


FuncEnum = Callable[[A.FType], Sequence[FuncValue]]


def conforms(v: CommValue, ty: A.SType, pol: Polarity) -> bool:
    try:
        check_conforms(v, ty, pol)
        return True
    except DomainError:
        return False


def check_conforms(v: CommValue, ty: A.SType, pol: Polarity) -> None:
    _check(v, aspect(ty, pol))


def _check(v: CommValue, s: Shape) -> None:
    if v == BOT:
        return
    match s, v:
        case UnitShape(star=True), StarValue():
            pass
        case LiftShape(inner=i), Lift(inner=x):
            _check(x, i)
        case SumShape(branches=bs), Tag(label=k, inner=Lift(inner=x)):
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
        case FoldShape(), Fold(inner=x):
            _check(x, s.body)
        case _:
            raise DomainError(f"{v!r} does not conform to a {type(s).__name__}")


# ---------------------------------------------------------------------------
# Enumeration

_DEFAULT_QPROC_POINTS: tuple[FuncValue, ...] = (FBOT, QPROC_BOT)


def default_func_enum(ty: A.FType) -> Sequence[FuncValue]:
    """Quoted-process types enumerate their two canonical points; other
    functional types admit no finite enumeration."""
    if isinstance(ty, A.ProcType):
        return _DEFAULT_QPROC_POINTS
    raise NotEnumerable(ty)


def enumerate_values(ty: A.SType, pol: Polarity, depth: int,
                     func_enum: Optional[FuncEnum] = None) -> list[CommValue]:
    """All conforming values whose height is at most ``depth``.

    Deterministically ordered.  Recursive occurrences reachable without
    crossing a message boundary contribute only BOT (the least solution of
    the enumeration equation), matching the degenerate domains such types
    denote.
    """
    return list(_enumerate(aspect(ty, pol), depth, func_enum or default_func_enum))


@lru_cache(maxsize=None)
def _enumerate(shape: Shape, depth: int, fe: FuncEnum) -> tuple[CommValue, ...]:
    """The sorted values of ``shape`` up to ``depth``, memoized at each
    message boundary, where the cycle cut starts afresh."""

    def below(s: Shape) -> Sequence[CommValue]:
        return _enumerate(s, depth - 1, fe) if depth > 0 else ()

    def go(s: Shape, seen: frozenset) -> list[CommValue]:
        if s in seen:
            return [BOT]
        seen = seen | {s}
        match s:
            case UnitShape(star=star):
                return [BOT, STAR] if star else [BOT]
            case LiftShape(inner=i):
                return [BOT, *(Lift(x) for x in below(i))]
            case SumShape(branches=bs):
                return [BOT, *(tag(k, x) for k, b in bs.items() for x in below(b))]
            case RecordShape(fields=fs):
                pools = [go(f, seen) for f in fs.values()]
                return [record(zip(fs, combo)) for combo in itertools.product(*pools)]
            case PairShape(left=l, right=r):
                return [pair(x, y) for x in go(l, seen) for y in go(r, seen)]
            case ValPairShape(val=tau, rest=r):
                return [valpair(f, y) for f in fe(tau) for y in go(r, seen)]
            case FoldShape():
                return [fold(x) for x in go(s.body, seen)]

    return tuple(sorted(set(go(shape, frozenset())), key=value_key))


def value_key(v: CommValue):
    """A stable total ordering key for deterministic enumeration output."""
    match v:
        case BotValue():
            return (0,)
        case StarValue():
            return (1,)
        case Lift(inner=a):
            return (2, value_key(a))
        case Tag(label=k, inner=a):
            return (3, k, value_key(a))
        case Pair(left=l, right=r):
            return (4, value_key(l), value_key(r))
        case ValPair(val=f, rest=r):
            return (5, _func_key(f), value_key(r))
        case Record(entries=es):
            return (6, tuple((k, value_key(x)) for k, x in es))
        case Fold(inner=a):
            return (7, value_key(a))
    raise DomainError(f"not a value: {v!r}")


def _func_key(f: FuncValue):
    match f:
        case FuncBot():
            return (0,)
        case QProcBot():
            return (1,)
        case QProc():
            return (2, id(f.den))
        case Closure():
            return (3, f.var, id(f.body))
    raise DomainError(f"not a functional value: {f!r}")


# ---------------------------------------------------------------------------
# Ascending-chain height of the truncated aspect (a fuel bound for traces)


def chain_steps(ty: A.SType, pol: Polarity, depth: int) -> int:
    """An upper bound on the number of strict steps any ascending chain can
    take in the depth-truncated aspect."""

    def go(s: Shape, d: int, seen: frozenset) -> int:
        if s in seen:
            return 0
        seen = seen | {s}
        match s:
            case UnitShape(star=star):
                return int(star)
            case LiftShape(inner=i):
                return 1 + go(i, d - 1, frozenset()) if d > 0 else 0
            case SumShape(branches=bs):
                if d <= 0:
                    return 0
                return 1 + max(go(b, d - 1, frozenset()) for b in bs.values())
            case RecordShape(fields=fs):
                return sum(go(f, d, seen) for f in fs.values())
            case PairShape(left=l, right=r):
                return go(l, d, seen) + go(r, d, seen)
            case ValPairShape(rest=r):
                # absent < stuck < a quoted process
                return 2 + go(r, d, seen)
            case FoldShape():
                return go(s.body, d, seen)

    return go(aspect(ty, pol), depth, frozenset())


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


def format_value(v: CommValue, ty: A.SType, pol: Polarity) -> str:
    return _format(v, aspect(ty, pol))


def _format(v: CommValue, s: Shape) -> str:
    match s:
        case UnitShape():
            return "*" if v == STAR else "_"
        case LiftShape(inner=i):
            return "_" if v == BOT else f"up({_format(down(v), i)})"
        case SumShape(branches=bs):
            if v == BOT:
                return "_"
            return f"{v.label}·{_format(v.inner.inner, bs[v.label])}"
        case RecordShape(fields=fs):
            d = split_record(v, fs)
            return "{" + ", ".join(f"{k}: {_format(d[k], f)}" for k, f in fs.items()) + "}"
        case PairShape(left=l, right=r):
            a, b = split_pair(v)
            return f"({_format(a, l)}, {_format(b, r)})"
        case ValPairShape(rest=r):
            f, rest = split_valpair(v)
            return f"({format_func_value(f)}, {_format(rest, r)})"
        case FoldShape(labelled=labelled):
            if v == BOT:
                return "_"
            inner = unfold(v)
            if labelled and isinstance(inner, Tag):
                return _format(inner, s.body)
            return f"fold({_format(inner, s.body)})"


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


# Raw value-notation trees, coerced against an aspect afterwards.


@dataclass(frozen=True)
class _Raw:
    pass


@dataclass(frozen=True)
class _RBot(_Raw):
    pass


@dataclass(frozen=True)
class _RStar(_Raw):
    pass


@dataclass(frozen=True)
class _RStuck(_Raw):
    pass


@dataclass(frozen=True)
class _RUp(_Raw):
    inner: _Raw


@dataclass(frozen=True)
class _RFold(_Raw):
    inner: _Raw


@dataclass(frozen=True)
class _RDot(_Raw):
    label: str
    inner: _Raw


@dataclass(frozen=True)
class _RTuple(_Raw):
    items: tuple[_Raw, ...]


@dataclass(frozen=True)
class _RMap(_Raw):
    items: tuple[tuple[str, _Raw], ...]


def _tokenize_value(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()*{},:_":
            out.append(ch)
            i += 1
            continue
        if ch == "<":
            j = text.find(">", i)
            if j < 0:
                raise ValueNotationError("unclosed <...> in value")
            out.append(text[i:j + 1])
            i = j + 1
            continue
        if ch in "·.":
            out.append("·")
            i += 1
            continue
        if ch.isalnum():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
            continue
        raise ValueNotationError(f"unexpected character {ch!r} in value")
    return out


def _parse_raw(tokens: list[str], pos: int) -> tuple[_Raw, int]:
    if pos >= len(tokens):
        raise ValueNotationError("unexpected end of value")
    tok = tokens[pos]
    if tok == "_":
        return _RBot(), pos + 1
    if tok == "*":
        return _RStar(), pos + 1
    if tok == "<stuck>":
        return _RStuck(), pos + 1
    if tok in ("<proc>", "<fun>"):
        raise ValueNotationError(
            f"{tok} displays a functional value with no written form"
        )
    if tok in ("up", "fold"):
        if pos + 1 >= len(tokens) or tokens[pos + 1] != "(":
            raise ValueNotationError(f"{tok} needs parentheses")
        inner, q = _parse_raw(tokens, pos + 2)
        if q >= len(tokens) or tokens[q] != ")":
            raise ValueNotationError(f"unclosed {tok}(...)")
        node = _RUp(inner) if tok == "up" else _RFold(inner)
        return node, q + 1
    if tok == "(":
        items = []
        q = pos + 1
        while True:
            item, q = _parse_raw(tokens, q)
            items.append(item)
            if q < len(tokens) and tokens[q] == ",":
                q += 1
                continue
            break
        if q >= len(tokens) or tokens[q] != ")":
            raise ValueNotationError("unclosed (...)")
        if len(items) == 1:
            return items[0], q + 1
        return _RTuple(tuple(items)), q + 1
    if tok == "{":
        entries = []
        q = pos + 1
        while True:
            if q >= len(tokens):
                raise ValueNotationError("unclosed {...}")
            label = tokens[q]
            if not label.isalnum() and "_" not in label:
                raise ValueNotationError(f"bad record label {label!r}")
            if q + 1 >= len(tokens) or tokens[q + 1] != ":":
                raise ValueNotationError("record entries are written label: value")
            item, q = _parse_raw(tokens, q + 2)
            entries.append((label, item))
            if q < len(tokens) and tokens[q] == ",":
                q += 1
                continue
            break
        if q >= len(tokens) or tokens[q] != "}":
            raise ValueNotationError("unclosed {...}")
        return _RMap(tuple(entries)), q + 1
    if tok.isalnum():
        if pos + 1 < len(tokens) and tokens[pos + 1] == "·":
            inner, q = _parse_raw(tokens, pos + 2)
            return _RDot(tok, inner), q
        raise ValueNotationError(f"bare name {tok!r} is not a value")
    raise ValueNotationError(f"unexpected token {tok!r} in value")


def parse_value(text: str, ty: A.SType, pol: Polarity) -> CommValue:
    tokens = _tokenize_value(text)
    raw, pos = _parse_raw(tokens, 0)
    if pos != len(tokens):
        raise ValueNotationError(f"trailing input in value: {tokens[pos:]}")
    return _coerce(raw, aspect(ty, pol))


_EXPECTED = {
    UnitShape: "the unit type carries only _ or *",
    LiftShape: "expected up(...) or _",
    SumShape: "expected a labelled value k·v",
    RecordShape: "expected a record {label: value, ...}",
    PairShape: "expected a pair (v, w)",
    ValPairShape: "expected a pair (value, w)",
}


def _coerce(raw: _Raw, s: Shape) -> CommValue:
    if isinstance(raw, _RBot):
        return BOT
    match s, raw:
        case UnitShape(star=False), _:
            raise ValueNotationError("nothing flows this way on a unit channel; use _")
        case UnitShape(), _RStar():
            return STAR
        case LiftShape(inner=i), _RUp(inner=r):
            return Lift(_coerce(r, i))
        case SumShape(branches=bs), _RDot(label=k, inner=r):
            if k not in bs:
                raise ValueNotationError(f"label {k!r} not among {sorted(bs)}")
            return tag(k, _coerce(r, bs[k]))
        case RecordShape(fields=fs), _RMap(items=items):
            got = dict(items)
            if set(got) - set(fs):
                raise ValueNotationError(f"unknown labels {sorted(set(got) - set(fs))}")
            return record({k: _coerce(got[k], f) if k in got else BOT
                           for k, f in fs.items()})
        case PairShape(left=l, right=r), _RTuple(items=(a, b)):
            return pair(_coerce(a, l), _coerce(b, r))
        case ValPairShape(rest=r), _RTuple(items=(f, rest)):
            if not isinstance(f, (_RBot, _RStuck)):
                raise ValueNotationError(
                    "functional values have no notation beyond _ and <stuck>"
                )
            return valpair(FBOT if isinstance(f, _RBot) else QPROC_BOT, _coerce(rest, r))
        case FoldShape(), _RFold(inner=r):
            return fold(_coerce(r, s.body))
        case FoldShape(), _:
            # k·v is accepted directly for fold-of-label values
            return fold(_coerce(raw, s.body))
    raise ValueNotationError(_EXPECTED[type(s)])
