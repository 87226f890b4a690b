"""Built-in law suites: eta laws for each connective, trace axioms, and
Conway identities, plus the generators they run on.

The eta and structural suites delegate to the equivalence checker.  Each
eta instance, and each unit and quote instance over a shipped corpus of
small typed processes, is a principal cut redex checked against its reduct.
The axiom suites generate random monotone maps between enumerated finite
domains (by monotone completion of a table in a linear extension of the
input order) and check each axiom instance by exhaustive evaluation.  A
domain of rows is a product order: it is built from the order on each
aspect's values, compared once per (aspect, depth), never row by row.
Its name-free shape (linear-extension order, covers and up-sets) is built
once per (aspects, depth) and shared by every set of key names; naming a
shape only builds its rows.  A random map is completed along the covers
of each row, the rows just below it, not along all its predecessors.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Collection, Mapping, Optional

from . import ast as A
from . import domain as D
from . import equiv as E
from . import semantics as S
from .ast import NEG, POS
from .parser import parse_process, parse_program, parse_term, parse_type

# ---------------------------------------------------------------------------
# Corpus


CORPUS_SRC = """
type bits = rho b. +{0: b, 1: b}
type nats = rho n. +{z: 1, s: n}

term flip : {f : bits <- b : bits} =
  fix F. {f <- send f unfold; recv b unfold;
          case b { 0 => f.1; f <- F <- b | 1 => f.0; f <- F <- b } <- b}

term zeros : {a : bits} = fix F. {a <- send a unfold; a.0; a <- F}
term ones  : {a : bits} = fix F. {a <- send a unfold; a.1; a <- F}
term alt   : {a : bits} = fix F. {a <- send a unfold; a.0; send a unfold; a.1; a <- F}

term drain : {c : 1 <- a : bits} =
  fix G. {c <- recv a unfold; case a { 0 => c <- G <- a | 1 => c <- G <- a } <- a}

term drainn : {c : 1 <- a : nats} =
  fix G. {c <- recv a unfold; case a { z => wait a; close c | s => c <- G <- a } <- a}

term relay : {c : bits <- a : bits} =
  fix R. {c <- recv a unfold; send c unfold;
          case a { 0 => c.0; c <- R <- a | 1 => c.1; c <- R <- a } <- a}

term quit : {d : 1} = {d <- close d}
"""


@dataclass(frozen=True)
class CorpusProc:
    """A typed process: psi ; delta |- proc :: channel : ty."""

    name: str
    proc: A.Process
    delta: tuple[tuple[str, A.SType], ...]
    channel: str
    ty: A.SType

    def as_args(self):
        return dict(self.delta), self.channel, self.ty


@lru_cache(maxsize=1)
def corpus_program():
    return parse_program(CORPUS_SRC)


def corpus_tables() -> dict:
    prog = corpus_program()
    return {
        "types": {name: d.ty for name, d in prog.types().items()},
        "terms": {name: A.Anno(d.term, d.ty) for name, d in prog.terms().items()},
    }


def _p(src: str) -> A.Process:
    tables = corpus_tables()
    return parse_process(src, types=tables["types"], terms=tables["terms"])


# Each corpus process: its name, its interface and its source.
_CORPUS = (
    ("close", "|- c : 1", "close c"),
    ("wait-close", "b : 1 |- c : 1", "wait b; close c"),
    ("recv-pair", "b : 1 * 1 |- c : 1", "a <- recv b; wait a; wait b; close c"),
    ("upshift", "|- a : up 1", "recv a shift; close a"),
    ("choice", "|- a : &{j: up 1, k: up 1}",
     "case a { j => recv a shift; close a | k => recv a shift; close a }"),
    ("downshift", "|- c : down up 1", "send c shift; recv c shift; close c"),
    ("send-chan", "d : 1 |- a : 1 * 1", "send a d; close a"),
    ("zeros", "|- a : bits", "a <- zeros"),
    ("flip-spawn", "b : bits |- f : bits", "f <- flip <- b"),
    ("drain-spawn", "b : bits |- c : 1", "c <- drain <- b"),
    ("label-j", "|- a : +{j: 1, k: down up 1}", "a.j; close a"),
    ("forward", "b : 1 |- c : 1", "fwd c b"),
)

_EQ = "equivalent"
_WITH = "case a { j => recv a shift; close a | k => recv a shift; close a }"
_DRAIN = "case a { 0 => c <- drain <- a | 1 => c <- drain <- a }"
_NATS = "case a { z => wait a; close c | s => c <- drainn <- a }"

# Each law instance: its law, its name, its interface, the source of its
# right side and its expected verdict.  The right side of an eta instance
# is a principal redex, and its left side the reduct; a cut-assoc right
# side is the cut nested on the left, and its left side the other nesting.
# A row without a source puts both sides of the row before it under a unit
# cut.
_LAW_TABLE = (
    ("shift-eta", "up1", "|- c : 1", "a : down up 1 <- (send a shift; recv a shift; "
     "close a); recv a shift; send a shift; wait a; close c", _EQ),
    ("shift-eta", "up1-b", "d : 1 |- c : 1", "a : down up 1 <- (send a shift; wait d; "
     "recv a shift; close a); recv a shift; send a shift; wait a; close c", _EQ),
    ("shift-eta", "choice-j", "|- c : 1", "a : down &{j: up 1, k: up 1} <- (send a shift; "
     + _WITH + "); recv a shift; a.j; send a shift; wait a; close c", _EQ),
    ("shift-eta", "choice-k", "|- c : 1", "a : down &{j: up 1, k: up 1} <- (send a shift; "
     + _WITH + "); recv a shift; a.k; send a shift; wait a; close c", _EQ),
    ("shift-eta", "lolly", "d : 1 |- c : 1", "a : down (1 -o up 1) <- (send a shift; "
     "b <- recv a; wait b; recv a shift; close a); recv a shift; send a d; send a shift; "
     "wait a; close c", _EQ),
    ("shift-eta", "up-fwd", "d : 1 |- c : 1", "a : down up 1 <- (send a shift; recv a shift; "
     "fwd a d); recv a shift; send a shift; wait a; close c", _EQ),
    ("shift-eta", "up-pair", "d : 1 * 1 |- c : 1", "a : down up 1 <- (send a shift; "
     "recv a shift; a2 <- recv d; wait a2; wait d; close a); recv a shift; send a shift; "
     "wait a; close c", _EQ),
    ("shift-eta", "choice-deep", "d : 1 |- c : 1", "a : down &{j: up 1, k: up 1} <- "
     "(send a shift; case a { j => recv a shift; wait d; close a | k => recv a shift; wait d; "
     "close a }); recv a shift; a.k; send a shift; wait a; close c", _EQ),
    ("shift-eta", "up-upper", "|- c : 1", "a : down up down up 1 <- (send a shift; "
     "recv a shift; send a shift; recv a shift; close a); recv a shift; send a shift; "
     "recv a shift; send a shift; wait a; close c", _EQ),
    ("shift-eta", "choice-upper", "d : 1 |- c : 1", "a : down &{j: up 1, k: up 1} <- "
     "(send a shift; " + _WITH + "); recv a shift; a.j; send a shift; wait a; wait d; close c",
     _EQ),
    ("choice-eta", "two-j", "|- c : 1", "a : +{j: 1, k: 1} <- (a.j; close a); "
     "case a { j => wait a; close c | k => wait a; close c }", _EQ),
    ("choice-eta", "two-k", "|- c : 1", "a : +{j: 1, k: 1} <- (a.k; close a); "
     "case a { j => wait a; close c | k => wait a; close c }", _EQ),
    ("choice-eta", "asym-j", "|- c : 1", "a : +{j: 1, k: down up 1} <- (a.j; close a); "
     "case a { j => wait a; close c | k => recv a shift; send a shift; wait a; close c }", _EQ),
    ("choice-eta", "asym-k", "|- c : 1", "a : +{j: 1, k: down up 1} <- (a.k; send a shift; "
     "recv a shift; close a); case a { j => wait a; close c | k => recv a shift; "
     "send a shift; wait a; close c }", _EQ),
    ("choice-eta", "three", "|- c : 1", "a : +{j: 1, k: 1, m: 1} <- (a.m; close a); "
     "case a { j => wait a; close c | k => wait a; close c | m => wait a; close c }", _EQ),
    ("choice-eta", "ambient", "d : 1 |- c : 1", "a : +{j: 1, k: 1} <- (a.j; close a); "
     "case a { j => wait a; wait d; close c | k => wait d; wait a; close c }", _EQ),
    ("choice-eta", "pair", "d : 1 |- c : 1", "a : +{j: 1 * 1, k: 1} <- (a.j; send a d; "
     "close a); case a { j => a2 <- recv a; wait a2; wait a; close c | k => wait a; close c }",
     _EQ),
    ("choice-eta", "bit0", "|- c : 1",
     "a : +{0: bits, 1: bits} <- (a.0; a <- zeros); " + _DRAIN, _EQ),
    ("choice-eta", "bit1", "|- c : 1",
     "a : +{0: bits, 1: bits} <- (a.1; a <- ones); " + _DRAIN, _EQ),
    ("choice-eta", "shifted", "|- c : 1", "a : +{j: down up 1, k: down up 1} <- (a.k; "
     "send a shift; recv a shift; close a); case a { j => recv a shift; send a shift; wait a; "
     "close c | k => recv a shift; send a shift; wait a; close c }", _EQ),
    ("channel-eta", "unit", "b : 1 |- c : 1",
     "a : 1 * 1 <- (send a b; close a); b <- recv a; wait a; wait b; close c", _EQ),
    ("channel-eta", "unit-rev", "b : 1 |- c : 1",
     "a : 1 * 1 <- (send a b; close a); b <- recv a; wait b; wait a; close c", _EQ),
    ("channel-eta", "shifty", "b : 1 |- c : 1", "a : 1 * down up 1 <- (send a b; send a shift; "
     "recv a shift; close a); b <- recv a; wait b; recv a shift; send a shift; wait a; close c",
     _EQ),
    ("channel-eta", "pairb", "b : 1 * 1 |- c : 1", "a : (1 * 1) * 1 <- (send a b; close a); "
     "b <- recv a; b2 <- recv b; wait b2; wait a; wait b; close c", _EQ),
    ("channel-eta", "ambient", "b : 1, d : 1 |- c : 1",
     "a : 1 * 1 <- (send a b; wait d; close a); b <- recv a; wait a; wait b; close c", _EQ),
    ("channel-eta", "bitsb", "b : bits |- c : 1",
     "a : bits * 1 <- (send a b; close a); b <- recv a; wait a; c <- drain <- b", _EQ),
    ("channel-eta", "bitsa", "b : 1 |- c : 1",
     "a : 1 * bits <- (send a b; a <- zeros); b <- recv a; wait b; c <- drain <- a", _EQ),
    ("channel-eta", "double", "b : 1, d : 1 |- c : 1", "a : 1 * 1 * 1 <- (send a b; send a d; "
     "close a); b <- recv a; a2 <- recv a; wait b; wait a2; wait a; close c", _EQ),
    ("channel-eta", "updown", "b : 1 |- c : 1", "a : 1 * down up 1 <- (send a b; send a shift; "
     "recv a shift; close a); b <- recv a; wait b; recv a shift; send a shift; wait a; close c",
     _EQ),
    ("channel-eta", "deep", "b : down up 1 |- c : 1", "a : down up 1 * 1 <- (send a b; "
     "close a); b <- recv a; recv b shift; send b shift; wait b; wait a; close c", _EQ),
    ("value-eta", "spawned", "|- c : 1", "a : {d : 1} /\\ 1 <- (send a (quit); close a); "
     "(x) <- recv a; dd <- {x}; wait dd; wait a; close c", _EQ),
    ("value-eta", "unused", "|- c : 1",
     "a : {d : 1} /\\ 1 <- (send a (quit); close a); (x) <- recv a; wait a; close c", _EQ),
    ("value-eta", "spawn-first", "|- c : 1", "a : {d : 1} /\\ 1 <- (send a (quit); close a); "
     "(x) <- recv a; dd <- {x}; wait a; wait dd; close c", _EQ),
    ("value-eta", "upshift", "|- c : 1", "a : {d : 1} /\\ down up 1 <- (send a (quit); "
     "send a shift; recv a shift; close a); (x) <- recv a; dd <- {x}; recv a shift; "
     "send a shift; wait dd; wait a; close c", _EQ),
    ("value-eta", "drain-val", "b : bits |- c : 1", "a : {c : 1 <- a : bits} /\\ 1 <- "
     "(send a (drain); close a); (x) <- recv a; cc <- {x} <- b; wait cc; wait a; close c", _EQ),
    ("value-eta", "unused-amb", "d : 1 |- c : 1", "a : {d : 1} /\\ 1 <- (send a (quit); "
     "wait d; close a); (x) <- recv a; wait a; close c", _EQ),
    ("value-eta", "double-spawn", "|- c : 1", "a : {d : 1} /\\ 1 <- (send a (quit); close a); "
     "(x) <- recv a; dd <- {x}; ee <- {x}; wait dd; wait ee; wait a; close c", _EQ),
    ("value-eta", "lambda", "|- c : 1", "a : {d : 1} /\\ 1 <- (send a ((\\y : {d : 1}. y) "
     "quit); close a); (x) <- recv a; dd <- {x}; wait dd; wait a; close c", _EQ),
    ("value-eta", "nested-quote", "|- c : 1", "a : {e : 1} /\\ 1 <- (send a (({e <- "
     "dd <- quit; wait dd; close e} : {e : 1})); close a); (x) <- recv a; dd <- {x}; wait dd; "
     "wait a; close c", _EQ),
    ("value-eta", "choice-after", "|- c : 1", "a : {d : 1} /\\ 1 <- (send a (quit); close a); "
     "(x) <- recv a; dd <- {x}; wait dd; wait a; close c", _EQ),
    # a diverging value blocks the explicit transmission
    ("value-eta-negative", "diverging", "|- c : 1", "a : {d : 1} /\\ 1 <- "
     "(send a ((fix loop. loop : {d : 1})); close a); (x) <- recv a; wait a; close c",
     "distinguished"),
    ("unfold-eta", "bits0", "|- c : 1",
     "a : bits <- (send a unfold; a.0; a <- zeros); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "bits1", "|- c : 1",
     "a : bits <- (send a unfold; a.1; a <- ones); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "bits-alt", "|- c : 1",
     "a : bits <- (send a unfold; a.0; a <- alt); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "bits-flip", "|- c : 1", "a : bits <- (send a unfold; a.1; f2 <- zeros; "
     "a <- flip <- f2); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "nats-z", "|- c : 1",
     "a : nats <- (send a unfold; a.z; close a); recv a unfold; " + _NATS, _EQ),
    ("unfold-eta", "nats-s", "|- c : 1", "a : nats <- (send a unfold; a.s; send a unfold; a.z; "
     "close a); recv a unfold; case a { z => wait a; close c | s => recv a unfold; "
     + _NATS + " }", _EQ),
    # bits0-plain repeats bits0: it is kept so that the reports and the
    # instances checked stay as they were
    ("unfold-eta", "bits0-plain", "|- c : 1",
     "a : bits <- (send a unfold; a.0; a <- zeros); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "bits0-wrapped", None, None, _EQ),
    ("unfold-eta", "bits1-plain", "|- c : 1",
     "a : bits <- (send a unfold; a.1; a <- zeros); recv a unfold; " + _DRAIN, _EQ),
    ("unfold-eta", "bits1-wrapped", None, None, _EQ),
    ("cut-assoc", "units", "|- c3 : 1",
     "c2 : 1 <- (c1 : 1 <- (close c1); wait c1; close c2); wait c2; close c3", _EQ),
    ("cut-assoc", "shift", "|- c3 : 1", "c2 : 1 <- (c1 : up 1 <- (recv c1 shift; close c1); "
     "send c1 shift; wait c1; close c2); wait c2; close c3", _EQ),
    ("cut-assoc", "pair", "d : 1 |- c3 : 1", "c2 : 1 <- (c1 : 1 * 1 <- (send c1 d; close c1); "
     "a2 <- recv c1; wait a2; wait c1; close c2); wait c2; close c3", _EQ),
    ("cut-assoc", "bits-pipeline", "|- c3 : bits",
     "c2 : bits <- (c1 : bits <- zeros; c2 <- flip <- c1); c3 <- flip <- c2", _EQ),
    ("cut-assoc", "bits-drain", "|- c3 : 1",
     "c2 : bits <- (c1 : bits <- alt; c2 <- flip <- c1); c3 <- drain <- c2", _EQ),
    ("cut-assoc", "mixed", "|- c3 : 1",
     "c2 : bits <- (c1 : 1 <- (close c1); wait c1; c2 <- zeros); c3 <- drain <- c2", _EQ),
    ("cut-assoc", "choice", "|- c3 : 1", "c2 : 1 <- (c1 : +{j: 1, k: 1} <- (c1.j; close c1); "
     "case c1 { j => wait c1; close c2 | k => wait c1; close c2 }); wait c2; close c3", _EQ),
    ("cut-assoc", "double-shift", "|- c3 : 1", "c2 : 1 <- (c1 : down up 1 <- (send c1 shift; "
     "recv c1 shift; close c1); recv c1 shift; send c1 shift; wait c1; close c2); wait c2; "
     "close c3", _EQ),
    ("cut-assoc", "fwd-mid", "|- c3 : 1",
     "c2 : 1 <- (c1 : 1 <- (close c1); fwd c2 c1); wait c2; close c3", _EQ),
    ("cut-assoc", "relay", "|- c3 : 1",
     "c2 : bits <- (c1 : bits <- ones; c2 <- relay <- c1); c3 <- drain <- c2", _EQ),
)


@lru_cache(maxsize=1)
def _declared() -> tuple:
    """The corpus processes, then the right side of each law instance with a
    source, parsed once as the ``proc`` declarations of one program after
    :data:`CORPUS_SRC`."""
    rows = [(ctx, src) for _, ctx, src in _CORPUS]
    rows += [(ctx, src) for _, _, ctx, src, _ in _LAW_TABLE if src is not None]
    decls = "".join(f"proc p{i} : ({ctx}) = {src}\n" for i, (ctx, src) in enumerate(rows))
    return tuple(parse_program(CORPUS_SRC + decls).procs().values())


def corpus_processes() -> list[CorpusProc]:
    """Small typed processes reused across the law instantiations."""
    return [CorpusProc(name, d.proc, d.delta, d.channel, d.ty)
            for (name, _, _), d in zip(_CORPUS, _declared())]


# ---------------------------------------------------------------------------
# Law suite


def principal_reduct(redex: A.Process) -> A.Process:
    """What ``redex`` becomes in one communication step of polarized SILL
    (Pfenning and Griffith 2015), read off its own nodes: a spawned quote
    is its body on the spawn's channels; a close is the waiting client's
    continuation; any other message gives the cut of both continuations at
    the type after it (the chosen branch for a label, the receiver renamed
    to the sent channel or with the sent term substituted, ``rho``
    unfolded).  Anything else raises :class:`ValueError`."""
    match redex:
        case A.Unquote(c, A.Quote(b, body, params) | A.Anno(A.Quote(b, body, params)), args):
            return A.rename_channels(body, dict(zip((b, *params), (c, *args))))
        case A.Cut(x, A.Close(a), A.Wait(b, cont)) if x == a == b:
            return cont
        case A.Cut(x, p, q, ty) if getattr(p, "channel", None) == x == getattr(q, "channel", None):
            # the client sends at a negative type
            flipped = isinstance(q, (A.SendShift, A.SendLabel, A.SendChan, A.SendVal,
                                     A.SendUnfold))
            s, r = (q, p) if flipped else (p, q)
            match s, r, ty:
                case A.SendShift(), A.RecvShift(), A.Down() | A.Up():
                    r2, ty = r.cont, ty.body
                case A.SendLabel(), A.Case(), A.Plus() | A.With() if (
                        s.label in dict(r.branches).keys() & dict(ty.branches).keys()):
                    r2, ty = dict(r.branches)[s.label], dict(ty.branches)[s.label]
                case A.SendChan(), A.RecvChan(), A.Tensor() | A.Lolly():
                    r2, ty = A.rename_channels(r.cont, {r.bound: s.sent}), ty.cont
                case A.SendVal(), A.RecvVal(), A.AndVal() | A.ImpVal():
                    r2, ty = A.subst_term({r.bound: s.term}, r.cont), ty.cont
                case A.SendUnfold(), A.RecvUnfold(), A.Rec():
                    r2, ty = r.cont, A.unfold_rec(ty)
                case _:
                    raise ValueError(f"not a principal redex: {redex!r}")
            return A.Cut(x, r2, s.cont, ty) if flipped else A.Cut(x, s.cont, r2, ty)
    raise ValueError(f"not a principal redex: {redex!r}")


def _under_unit(proc: A.Process) -> A.Process:
    """The unit-eta redex of ``proc``: ``zz : 1 <- (close zz); wait zz; proc``."""
    return A.Cut("zz", A.Close("zz"), A.Wait("zz", proc), A.Unit())


def corpus_redexes(cp: CorpusProc) -> dict[str, A.Process]:
    """The unit-eta and quote-eta redexes of a corpus process, whose
    principal reduct is the process."""
    delta, c, cty = cp.as_args()
    used = tuple(sorted(delta))
    quote = A.Anno(A.Quote(c, cp.proc, used),
                   A.ProcType(c, cty, tuple((u, delta[u]) for u in used)))
    return {"unit-eta": _under_unit(cp.proc), "quote-eta": A.Unquote(c, quote, used)}


@dataclass
class LawInstance:
    law: str
    name: str
    expected: str
    verdict: E.Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.kind == self.expected


@dataclass
class LawReport:
    instances: list[LawInstance] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.instances)

    def failures(self) -> list[LawInstance]:
        return [i for i in self.instances if not i.ok]

    def by_law(self) -> dict[str, list[LawInstance]]:
        out: dict[str, list[LawInstance]] = {}
        for i in self.instances:
            out.setdefault(i.law, []).append(i)
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for law, items in sorted(self.by_law().items()):
            good = sum(1 for i in items if i.ok)
            lines.append(f"{law}: {good}/{len(items)} instances pass")
        return lines


def _inst(report: LawReport, law: str, name: str, left: A.Process, right: A.Process,
          delta, c, cty, depth: int, expected: str = "equivalent", psi=None):
    verdict = E.check_equiv(left, right, delta, c, cty, psi=psi, depth=depth)
    report.instances.append(LawInstance(law, name, expected, verdict))


LAW_SUITES = {
    "eta": ("shift-eta", "choice-eta", "channel-eta", "value-eta",
            "value-eta-negative", "unfold-eta"),
    "structural": ("unit-eta", "quote-eta", "cut-assoc", "fix-subst"),
}


def law_suite(depth: int = 4,
              corpus: Optional[list[CorpusProc]] = None,
              laws: Collection[str] = LAW_SUITES["eta"] + LAW_SUITES["structural"],
              ) -> LawReport:
    """Instantiate the eta and structural laws.

    ``corpus`` extends or replaces the shipped processes for the laws that
    quantify over arbitrary typed processes (the unit and quote laws); the
    eta laws and cut-assoc run on the rows of ``_LAW_TABLE``, fix-subst on
    fixed points.  Only the laws named in ``laws`` are instantiated (by
    default, all of them).
    """
    report = LawReport()
    corpus = corpus if corpus is not None else corpus_processes()
    for law in ("unit-eta", "quote-eta"):
        if law in laws:
            for cp in corpus:
                right = corpus_redexes(cp)[law]
                _inst(report, law, cp.name, principal_reduct(right), right, *cp.as_args(), depth)

    decls = iter(_declared()[len(_CORPUS):])
    for law, name, _, src, expected in _LAW_TABLE:
        if src is None:  # the row before, under a unit cut
            left, right = _under_unit(left), _under_unit(right)
        else:
            decl = next(decls)
            right, args = decl.proc, (dict(decl.delta), decl.channel, decl.ty)
            match right:
                case A.Cut(y, A.Cut(x, p1, p2, t1), p3, t2) if law == "cut-assoc":
                    left = A.Cut(x, p1, A.Cut(y, p2, p3, t2), t1)
                case _:
                    left = principal_reduct(right)
        if law in laws:
            _inst(report, law, name, left, right, *args, depth, expected)

    # -- fixed-point substitution: [fix x. M / x] M == fix x. M
    if "fix-subst" in laws:
        tables = corpus_tables()
        bits = tables["types"]["bits"]
        quit_ty = A.ProcType("d", A.Unit(), ())
        fix_cases = []
        for name in ("flip", "zeros", "ones", "alt", "drain", "relay"):
            anno = tables["terms"][name]
            fix_cases.append((name, anno.term, anno.ty))
        fix_cases.append(("const", A.Fix("F", A.Quote("d", A.Close("d"), ())), quit_ty))
        fix_cases.append(("loop", A.Fix("x", A.Var("x")), quit_ty))
        fix_cases.append((
            "const-deep", parse_term("fix F. {d <- send d shift; recv d shift; close d}"),
            A.ProcType("d", A.Down(A.Up(A.Unit())), ()),
        ))
        fix_cases.append((
            "two-step",
            parse_term("fix F. {a <- send a unfold; a.0; send a unfold; a.1; a <- F}",
                       types={"bits": bits}),
            A.ProcType("a", bits, ()),
        ))
        for name, fixterm, tau in fix_cases:
            assert isinstance(fixterm, A.Fix)
            unrolled = A.subst_term({fixterm.var: A.Anno(fixterm, tau)}, fixterm.body)
            verdict = E.term_equiv(unrolled, fixterm, tau, depth=depth)
            report.instances.append(LawInstance("fix-subst", name, "equivalent", verdict))

    return report



# ---------------------------------------------------------------------------
# Finite grids and random monotone maps


@dataclass(frozen=True, slots=True)
class GridShape:
    """The rows over some aspects without their key names, in a linear
    extension of the pointwise order; one shape serves every set of keys.

    ``pools`` holds each aspect's values, in key order.  Row i is the
    ``order[i]``-th tuple of their product (last aspect fastest).  Its
    covers (the rows just below it: one component lowered to a value just
    below it) are ``cover_flat[cover_start[i]:cover_start[i + 1]]``,
    ascending; ``upsets[i]`` is the bitmask of the rows at or above it.
    """

    pools: tuple[list, ...]
    order: array
    cover_flat: array
    cover_start: array
    upsets: list[int]

    @classmethod
    def pack(cls, pools, order: list[int], covers: list[list[int]],
             upsets: list[int]) -> GridShape:
        # arrays built from lists are sized exactly, without growth slack
        code = "H" if len(order) <= 1 << 16 else "I"
        starts = list(itertools.accumulate(map(len, covers), initial=0))
        return cls(tuple(pools), array(code, order),
                   array(code, [p for cover in covers for p in cover]),
                   array("I", starts), upsets)

    def covers(self, i: int) -> array:
        return self.cover_flat[self.cover_start[i]:self.cover_start[i + 1]]


@dataclass(frozen=True, slots=True)
class FinGrid:
    """A grid shape with key names applied: ``rows[i]`` names row i of
    ``shape`` with ``keys``."""

    keys: tuple[str, ...]
    rows: list[S.Row]
    shape: GridShape


@lru_cache(maxsize=None)
def _aspect_order(aspect: S.Aspect, depth: int
                  ) -> tuple[list, list[int], list[list[int]], list[list[int]]]:
    """An aspect's values at ``depth`` and, for each value, the number of
    values at or below it, its covers (the values just below it) and the
    ascending indices of the values at or above it."""
    values = D.enumerate_values(*aspect, depth)
    n = len(values)
    leq = [[D.leq(values[i], values[j]) for j in range(n)] for i in range(n)]
    below = [[j for j in range(n) if j != i and leq[j][i]] for i in range(n)]
    return (values,
            [len(b) + 1 for b in below],
            [[j for j in b if not any(leq[j][k] for k in b if k != j)] for b in below],
            [[j for j in range(n) if leq[i][j]] for i in range(n)])


def _product_cones(cones_per_aspect: list[list[list[int]]]) -> list[list[int]]:
    """For each row of the mixed-radix product (last aspect fastest), the
    ascending row indices of the product of its components' cones."""
    cones = [[0]]
    for per_value in cones_per_aspect:
        radix = len(per_value)
        cones = [[q * radix + j for q in cone for j in mine]
                 for cone in cones for mine in per_value]
    return cones


@lru_cache(maxsize=None)
def _grid_shape(aspects: tuple[S.Aspect, ...], depth: int) -> GridShape:
    """The product order of ``aspects``, its rows sorted by the number of
    rows below each (ties by product index)."""
    orders = [_aspect_order(asp, depth) for asp in aspects]
    combos = list(itertools.product(*(range(len(values)) for values, *_ in orders)))
    strides = [math.prod(len(values) for values, *_ in orders[p + 1:])
               for p in range(len(orders))]
    down_sizes = [math.prod(order[1][c] for order, c in zip(orders, combo))
                  for combo in combos]
    order = sorted(range(len(combos)), key=lambda i: (down_sizes[i], i))
    remap = {old: new for new, old in enumerate(order)}
    ups = _product_cones([up for *_, up in orders])
    covers = [sorted(remap[i - (c - v) * stride]
                     for (_, _, lower, _), c, stride in zip(orders, combos[i], strides)
                     for v in lower[c])
              for i in order]
    return GridShape.pack([values for values, *_ in orders], order, covers,
                          [sum(1 << remap[j] for j in ups[i]) for i in order])


@lru_cache(maxsize=128)
def _grid_cached(aspect_items: tuple, depth: int) -> FinGrid:
    keys = tuple(k for k, _ in aspect_items)
    shape = _grid_shape(tuple(asp for _, asp in aspect_items), depth)
    combos = list(itertools.product(*shape.pools))
    return FinGrid(keys, [S.Row(zip(keys, combos[i])) for i in shape.order], shape)


def grid_for(aspects: Mapping[str, S.Aspect], depth: int) -> FinGrid:
    return _grid_cached(tuple(sorted(aspects.items())), depth)


def random_monotone_den(rng: random.Random, in_aspects: Mapping[str, S.Aspect],
                        out_aspects: Mapping[str, S.Aspect], depth: int,
                        max_tries: int = 200) -> S.Denotation:
    """A uniform-ish random monotone map between enumerated row spaces.

    Built by assigning outputs along a linear extension of the input order,
    restricted at each step to the outputs above those of the row's covers
    (hence above those of all its predecessors); dead ends restart the
    assignment.  The draw runs over the name-free shapes of the sorted keys'
    aspects.  The table is the denotation's memo, keyed as every memo is by
    the input values in sorted key order, so a grid row costs one lookup;
    only the output rows assigned are named.
    """
    in_keys, out_keys = tuple(sorted(in_aspects)), tuple(sorted(out_aspects))
    gin = _grid_shape(tuple(in_aspects[k] for k in in_keys), depth)
    gout = _grid_shape(tuple(out_aspects[k] for k in out_keys), depth)
    covers, ups = gin.covers, gout.upsets
    full = (1 << len(gout.order)) - 1
    assign = [0] * len(gin.order)
    for _ in range(max_tries):
        # rows are in a linear extension: covers precede their row, so a
        # restart reads only entries it has already rewritten
        for i in range(len(assign)):
            mask = full
            for p in covers(i):
                mask &= ups[assign[p]]
            if not mask:
                break
            # the k-th set bit, k drawn as ``rng.choice(range(n))`` draws it
            for _ in range(rng.randrange(mask.bit_count())):
                mask &= mask - 1
            assign[i] = (mask & -mask).bit_length() - 1
        else:
            break
    else:
        assign = [0] * len(assign)  # row 0, the least, is the all-bottom row

    outs = list(itertools.product(*gout.pools))
    named = {j: S.Row(zip(out_keys, outs[gout.order[j]])) for j in set(assign)}
    # a memo key is the tuple of values, or the bare value over one key
    ins = gin.pools[0] if len(gin.pools) == 1 else list(itertools.product(*gin.pools))
    table = dict(zip(map(ins.__getitem__, gin.order), map(named.__getitem__, assign)))
    den = S.Denotation(in_aspects, out_aspects, table.__getitem__, label="table")
    den._memo = table
    return den


@lru_cache(maxsize=1)
def aspect_battery(depth: int = 2) -> list[tuple[S.Aspect, int]]:
    """Small aspects (with their element counts at the battery depth)."""
    bits = parse_type("rho b. +{0: b, 1: b}")
    cands: list[S.Aspect] = [
        (parse_type("1"), POS),
        (parse_type("1"), NEG),
        (parse_type("down up 1"), POS),
        (parse_type("up down 1"), NEG),
        (parse_type("1 * 1"), POS),
        (parse_type("+{j: 1, k: 1}"), POS),
        (bits, POS),
        (bits, NEG),
        (parse_type("&{j: up 1, k: up 1}"), NEG),
        (parse_type("&{j: up 1, k: up 1}"), POS),
    ]
    out = []
    for asp in cands:
        count = len(D.enumerate_values(asp[0], asp[1], depth))
        if count <= 9:
            out.append((asp, count))
    return out


def _pick_aspect(rng: random.Random, depth: int, max_size: int = 9) -> S.Aspect:
    pool = [asp for asp, n in aspect_battery(depth) if n <= max_size]
    return rng.choice(pool)


# ---------------------------------------------------------------------------
# Trace axiom + Conway identity suites


@dataclass
class AxiomFailure:
    axiom: str
    round: int
    detail: str


@dataclass
class AxiomReport:
    rounds: int
    axioms: list[str] = field(default_factory=list)
    failures: list[AxiomFailure] = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No failure, and at least one instance checked."""
        return not self.failures and any(self.checked.values())

    def summary_lines(self) -> list[str]:
        lines = []
        for ax in self.axioms:
            bad = sum(1 for f in self.failures if f.axiom == ax)
            n = self.checked.get(ax, 0)
            lines.append(f"{ax}: {n - bad}/{n} instances pass")
        lines.extend(f.detail for f in self.failures if f.axiom not in self.axioms)
        return lines


def _fail_on_fuel_out(report: AxiomReport, cfg: S.EvalConfig) -> AxiomReport:
    """A fixed point that ran out of fuel fails the suite: its checks then
    compared iterates, not fixed points."""
    if cfg.diag.nonconverged:
        report.failures.append(AxiomFailure(
            "convergence", report.rounds,
            "did not converge: a fixed point ran out of fuel"))
    return report


def _check(report: AxiomReport, depth: int, axiom: str, i: int,
           lhs: S.Denotation, rhs: S.Denotation) -> None:
    """Count an instance of ``axiom``, failing if its sides differ on a grid row."""
    report.checked[axiom] = report.checked.get(axiom, 0) + 1
    diff = S.first_difference(lhs, rhs, grid_for(lhs.inputs, depth).rows, depth)
    if diff is not None:
        at, l, r = (D.join_row(D.format_row(row, aspects)) for row, aspects in
                    zip(diff, (lhs.inputs, lhs.outputs, lhs.outputs)))
        report.failures.append(AxiomFailure(axiom, i, f"differ at {at}: {l} vs {r}"))


def trace_axiom_suite(seed: int = 0, rounds: int = 200, depth: int = 2) -> AxiomReport:
    """Check the six trace axioms on randomly generated monotone maps."""
    rng = random.Random(seed)
    report = AxiomReport(rounds, ["left-tightening", "right-tightening", "sliding",
                                  "vanishing", "superposing", "yanking"])
    cfg = S.EvalConfig(depth=depth)
    check = partial(_check, report, depth)

    for i in range(rounds):
        asp_a, asp_a2, asp_b, asp_u = (_pick_aspect(rng, depth, 5) for _ in range(4))
        f = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                {"b": asp_b, "u": asp_u}, depth)
        g = random_monotone_den(rng, {"a2": asp_a2}, {"a": asp_a}, depth)
        tr_f = S.trace(f, ["u"], cfg)

        # left tightening: Tr(f . (g x id)) == Tr(f) . g
        check("left-tightening", i, S.trace(S.seq(g, f), ["u"], cfg), S.seq(g, tr_f))

        # right tightening: Tr((h x id) . f) == h . Tr(f)
        h = random_monotone_den(rng, {"b": asp_b}, {"b2": asp_a2}, depth)
        check("right-tightening", i, S.trace(S.seq(f, h), ["u"], cfg), S.seq(tr_f, h))

        # sliding: Tr^U((id x g) . f) == Tr^V(f . (id x g))
        asp_v = _pick_aspect(rng, depth, 5)
        f2 = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                 {"b": asp_b, "v": asp_v}, depth)
        g2 = random_monotone_den(rng, {"v": asp_v}, {"u": asp_u}, depth)
        check("sliding", i, S.trace(S.seq(f2, g2), ["u"], cfg),
              S.trace(S.seq(g2, f2), ["v"], cfg))

        # vanishing: empty feedback is the identity; U x V in one step or two
        f0 = random_monotone_den(rng, {"a": asp_a}, {"b": asp_b}, depth)
        check("vanishing", i, S.trace(f0, [], cfg), f0)
        f3 = random_monotone_den(rng, {"a": asp_a, "u": asp_u, "v": asp_v},
                                 {"b": asp_b, "u": asp_u, "v": asp_v}, depth)
        check("vanishing", i, S.trace(f3, ["u", "v"], cfg),
              S.trace(S.trace(f3, ["v"], cfg), ["u"], cfg))

        # superposing: Tr(id_C x f) == id_C x Tr(f)
        id_c = S.wire({"cc": _pick_aspect(rng, depth, 5)}, {"cc": "cc"})
        check("superposing", i, S.trace(S.seq(id_c, f), ["u"], cfg), S.seq(id_c, tr_f))

        # yanking: the trace of the swap is the identity
        asp_x = _pick_aspect(rng, depth, 9)
        swap = S.wire({"a": asp_x, "u": asp_x}, {"b": "u", "u": "a"})
        check("yanking", i, S.trace(swap, ["u"], cfg), S.wire({"a": asp_x}, {"b": "a"}))

    return _fail_on_fuel_out(report, cfg)


def conway_identity_suite(seed: int = 0, rounds: int = 200, depth: int = 2) -> AxiomReport:
    """Check the Conway identities for the parametrized fixed point."""
    rng = random.Random(seed)
    report = AxiomReport(rounds, ["naturality", "fixed-point", "dinaturality", "diagonal"])
    cfg = S.EvalConfig(depth=depth)
    check = partial(_check, report, depth)

    for i in range(rounds):
        asp_x, asp_a, asp_y = (_pick_aspect(rng, depth, 5) for _ in range(3))
        f = random_monotone_den(rng, {"x": asp_x, "a": asp_a}, {"ao": asp_a}, depth)

        # naturality: sfix(f) . g == sfix(f . (g x id))
        g = random_monotone_den(rng, {"y": asp_y}, {"x": asp_x}, depth)
        sf = S.sfix_row(f, {"a": "ao"}, cfg)
        check("naturality", i, S.seq(g, sf), S.sfix_row(S.seq(g, f), {"a": "ao"}, cfg))

        # parametrized fixed-point property: f . <id, sfix f> == sfix f
        check("fixed-point", i, S.seq(sf, {"a": "ao"}, f), sf)

        # dinaturality: f . <id, sfix(g . <id, f>)> == sfix(f . <id, g>)
        asp_b = _pick_aspect(rng, depth, 5)
        fb = random_monotone_den(rng, {"x": asp_x, "b": asp_b}, {"ao": asp_a}, depth)
        gb = random_monotone_den(rng, {"x": asp_x, "a": asp_a}, {"bo": asp_b}, depth)
        s1 = S.sfix_row(S.seq(fb, {"a": "ao"}, gb), {"b": "bo"}, cfg)
        check("dinaturality", i, S.seq(s1, {"b": "bo"}, fb),
              S.sfix_row(S.seq(gb, {"b": "bo"}, fb), {"a": "ao"}, cfg))

        # diagonal: sfix(f . (id x dup)) == sfix(sfix f)
        fd = random_monotone_den(rng, {"x": asp_x, "a1": asp_a, "a2": asp_a}, {"ao": asp_a},
                                 depth)
        check("diagonal", i, S.sfix_row(S.seq({"a1": "a", "a2": "a"}, fd), {"a": "ao"}, cfg),
              S.sfix_row(S.sfix_row(fd, {"a2": "ao"}, cfg), {"a1": "ao"}, cfg))

    return _fail_on_fuel_out(report, cfg)


def trace_oracle_suite(seed: int = 0, rounds: int = 500, depth: int = 2,
                       max_size: int = 5) -> AxiomReport:
    """Kleene trace against the Knaster-Tarski oracle on generated maps."""
    rng = random.Random(seed)
    report = AxiomReport(rounds, ["kleene-vs-knaster-tarski"])
    cfg = S.EvalConfig(depth=depth)
    for i in range(rounds):
        asp_a, asp_b, asp_u = (_pick_aspect(rng, depth, max_size) for _ in range(3))
        f = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                {"b": asp_b, "u": asp_u}, depth)
        _check(report, depth, "kleene-vs-knaster-tarski", i,
               S.trace(f, ["u"], cfg), S.knaster_tarski_trace(f, ["u"], depth))
    return _fail_on_fuel_out(report, cfg)
