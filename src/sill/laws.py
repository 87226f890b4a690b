"""Built-in law suites: eta laws for each connective, trace axioms, and
Conway identities, plus the generators they run on.

The eta suite instantiates each program-equivalence law over a shipped
corpus of small typed processes and delegates to the equivalence checker.
The axiom suites generate random monotone maps between enumerated finite
domains (by monotone completion of a table in a linear extension of the
input order) and check each axiom instance by exhaustive evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

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


def _t(src: str) -> A.SType:
    return parse_type(src, types=corpus_tables()["types"])


def corpus_processes() -> list[CorpusProc]:
    """Small typed processes reused across the law instantiations."""
    bits = _t("bits")
    entries = [
        ("close", "close c", (), "c", "1"),
        ("wait-close", "wait b; close c", (("b", "1"),), "c", "1"),
        ("recv-pair", "a <- recv b; wait a; wait b; close c", (("b", "1 * 1"),), "c", "1"),
        ("upshift", "recv a shift; close a", (), "a", "up 1"),
        ("choice", "case a { j => recv a shift; close a | k => recv a shift; close a }",
         (), "a", "&{j: up 1, k: up 1}"),
        ("downshift", "send c shift; recv c shift; close c", (), "c", "down up 1"),
        ("send-chan", "send a d; close a", (("d", "1"),), "a", "1 * 1"),
        ("zeros", "a <- zeros", (), "a", "bits"),
        ("flip-spawn", "f <- flip <- b", (("b", "bits"),), "f", "bits"),
        ("drain-spawn", "c <- drain <- b", (("b", "bits"),), "c", "1"),
        ("label-j", "a.j; close a", (), "a", "+{j: 1, k: down up 1}"),
        ("forward", "fwd c b", (("b", "1"),), "c", "1"),
    ]
    out = []
    for name, src, delta, chan, ty in entries:
        out.append(CorpusProc(
            name, _p(src),
            tuple((d, _t(t)) for d, t in delta),
            chan, _t(ty),
        ))
    return out


# ---------------------------------------------------------------------------
# Law suite


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


def law_suite(depth: int = 4,
              corpus: Optional[list[CorpusProc]] = None) -> LawReport:
    """Instantiate the eta and structural laws over the corpus.

    ``corpus`` extends or replaces the shipped processes for the laws that
    quantify over arbitrary typed processes (the unit and quote laws); the
    per-connective laws use their own structured instantiations.
    """
    report = LawReport()
    tables = corpus_tables()
    corpus = corpus if corpus is not None else corpus_processes()
    bits = _t("bits")
    nats = _t("nats")
    BITS = A.unfold_rec(bits)
    NATS = A.unfold_rec(nats)

    # -- unit eta: P == cut z. (close z) (wait z; P)
    for cp in corpus:
        delta, c, cty = cp.as_args()
        right = A.Cut("zz", A.Close("zz"), A.Wait("zz", cp.proc), A.Unit())
        _inst(report, "unit-eta", cp.name, cp.proc, right, delta, c, cty, depth)

    # -- quote/unquote eta: P == spawn (quote P)
    for cp in corpus:
        delta, c, cty = cp.as_args()
        used = tuple(sorted(delta))
        quote = A.Quote(c, cp.proc, used)
        ann = A.Anno(quote, A.ProcType(c, cty, tuple((u, delta[u]) for u in used)))
        right = A.Unquote(c, ann, used)
        _inst(report, "quote-eta", cp.name, cp.proc, right, delta, c, cty, depth)

    # -- shift eta (negative cut type): cut a. P Q == cut a. (send a shift; P) (recv a shift; Q)
    shift_pairs = [
        ("up1", "recv a shift; close a", "up 1", "send a shift; wait a; close c", {}, "c", "1"),
        ("up1-b", "wait d; recv a shift; close a", "up 1",
         "send a shift; wait a; close c", {"d": "1"}, "c", "1"),
        ("choice-j", "case a { j => recv a shift; close a | k => recv a shift; close a }",
         "&{j: up 1, k: up 1}", "a.j; send a shift; wait a; close c", {}, "c", "1"),
        ("choice-k", "case a { j => recv a shift; close a | k => recv a shift; close a }",
         "&{j: up 1, k: up 1}", "a.k; send a shift; wait a; close c", {}, "c", "1"),
        ("lolly", "b <- recv a; wait b; recv a shift; close a", "1 -o up 1",
         "send a d; send a shift; wait a; close c", {"d": "1"}, "c", "1"),
    ]
    for name, psrc, aty, qsrc, ddelta, c, ctysrc in shift_pairs:
        P = _p(psrc)
        Q = _p(qsrc)
        at = _t(aty)
        delta = {d: _t(t) for d, t in ddelta.items()}
        cty = _t(ctysrc)
        left = A.Cut("a", P, Q, at)
        right = A.Cut("a", A.SendShift("a", P), A.RecvShift("a", Q), A.Down(at))
        _inst(report, "shift-eta", name, left, right, delta, c, cty, depth)
    # a couple of providers with used channels
    for name, psrc, aty, qsrc, ddelta in [
        ("up-fwd", "recv a shift; fwd a d", "up 1",
         "send a shift; wait a; close c", {"d": "1"}),
        ("up-pair", "recv a shift; a2 <- recv d; wait a2; wait d; close a", "up 1",
         "send a shift; wait a; close c", {"d": "1 * 1"}),
        ("choice-deep", "case a { j => recv a shift; wait d; close a | k => recv a shift; wait d; close a }",
         "&{j: up 1, k: up 1}", "a.k; send a shift; wait a; close c", {"d": "1"}),
        ("up-upper", "recv a shift; send a shift; recv a shift; close a", "up down up 1",
         "send a shift; recv a shift; send a shift; wait a; close c", {}),
        ("choice-upper", "case a { j => recv a shift; close a | k => recv a shift; close a }",
         "&{j: up 1, k: up 1}", "a.j; send a shift; wait a; wait d; close c", {"d": "1"}),
    ]:
        P, Q, at = _p(psrc), _p(qsrc), _t(aty)
        delta = {d: _t(t) for d, t in ddelta.items()}
        left = A.Cut("a", P, Q, at)
        right = A.Cut("a", A.SendShift("a", P), A.RecvShift("a", Q), A.Down(at))
        _inst(report, "shift-eta", name, left, right, delta, "c", _t("1"), depth)

    # -- internal choice eta: cut a. P Q_k == cut a. (a.k; P) (case a {l => Q_l})
    plus_cases = [
        ("two-j", "j", {"j": "1", "k": "1"}, "close a",
         {"j": "wait a; close c", "k": "wait a; close c"}, {}),
        ("two-k", "k", {"j": "1", "k": "1"}, "close a",
         {"j": "wait a; close c", "k": "wait a; close c"}, {}),
        ("asym-j", "j", {"j": "1", "k": "down up 1"}, "close a",
         {"j": "wait a; close c", "k": "recv a shift; send a shift; wait a; close c"}, {}),
        ("asym-k", "k", {"j": "1", "k": "down up 1"},
         "send a shift; recv a shift; close a",
         {"j": "wait a; close c", "k": "recv a shift; send a shift; wait a; close c"}, {}),
        ("three", "m", {"j": "1", "k": "1", "m": "1"}, "close a",
         {"j": "wait a; close c", "k": "wait a; close c", "m": "wait a; close c"}, {}),
        ("ambient", "j", {"j": "1", "k": "1"}, "close a",
         {"j": "wait a; wait d; close c", "k": "wait d; wait a; close c"}, {"d": "1"}),
        ("pair", "j", {"j": "1 * 1", "k": "1"}, "send a d; close a",
         {"j": "a2 <- recv a; wait a2; wait a; close c", "k": "wait a; close c"}, {"d": "1"}),
        ("bit0", "0", {"0": "bits", "1": "bits"}, "a <- zeros",
         {"0": "c <- drain <- a", "1": "c <- drain <- a"}, {}),
        ("bit1", "1", {"0": "bits", "1": "bits"}, "a <- ones",
         {"0": "c <- drain <- a", "1": "c <- drain <- a"}, {}),
        ("shifted", "k", {"j": "down up 1", "k": "down up 1"},
         "send a shift; recv a shift; close a",
         {"j": "recv a shift; send a shift; wait a; close c",
          "k": "recv a shift; send a shift; wait a; close c"}, {}),
    ]
    for name, k, branch_tys, psrc, qsrcs, ddelta in plus_cases:
        branch_types = {l: _t(t) for l, t in branch_tys.items()}
        aty = A.plus(branch_types)
        P = _p(psrc)
        Qs = {l: _p(src) for l, src in qsrcs.items()}
        delta = {d: _t(t) for d, t in ddelta.items()}
        left = A.Cut("a", P, Qs[k], branch_types[k])
        right = A.Cut("a", A.SendLabel("a", k, P), A.case("a", Qs), aty)
        _inst(report, "choice-eta", name, left, right, delta, "c", _t("1"), depth)

    # -- channel transmission eta:
    #    cut a. P Q == cut a. (send a b; P) (b <- recv a; Q)  at B * A
    tensor_cases = [
        ("unit", "close a", "1", "b", "1", "wait a; wait b; close c", {}),
        ("unit-rev", "close a", "1", "b", "1", "wait b; wait a; close c", {}),
        ("shifty", "send a shift; recv a shift; close a", "down up 1", "b", "1",
         "wait b; recv a shift; send a shift; wait a; close c", {}),
        ("pairb", "close a", "1", "b", "1 * 1",
         "b2 <- recv b; wait b2; wait a; wait b; close c", {}),
        ("ambient", "wait d; close a", "1", "b", "1",
         "wait a; wait b; close c", {"d": "1"}),
        ("bitsb", "close a", "1", "b", "bits",
         "wait a; c <- drain <- b", {}),
        ("bitsa", "a <- zeros", "bits", "b", "1",
         "wait b; c <- drain <- a", {}),
        ("double", "send a d; close a", "1 * 1", "b", "1",
         "a2 <- recv a; wait b; wait a2; wait a; close c", {"d": "1"}),
        ("updown", "send a shift; recv a shift; close a", "down up 1", "b", "1",
         "wait b; recv a shift; send a shift; wait a; close c", {}),
        ("deep", "close a", "1", "b", "down up 1",
         "recv b shift; send b shift; wait b; wait a; close c", {}),
    ]
    for name, psrc, aty, b, bty, qsrc, ddelta in tensor_cases:
        P = _p(psrc)
        Q = _p(qsrc)
        at, bt = _t(aty), _t(bty)
        delta = {b: bt, **{d: _t(t) for d, t in ddelta.items()}}
        left = A.Cut("a", P, Q, at)
        right = A.Cut(
            "a", A.SendChan("a", b, P), A.RecvChan(b, "a", Q), A.Tensor(bt, at)
        )
        _inst(report, "channel-eta", name, left, right, delta, "c", _t("1"), depth)

    # -- value transmission eta, with converging M:
    #    cut a. P [M/x]Q == cut a. (send a (M); P) ((x) <- recv a; Q)
    quit = tables["terms"]["quit"]
    quit_ty = A.ProcType("d", A.Unit(), ())
    drain_term = tables["terms"]["drain"]
    drain_ty = A.ProcType("c", A.Unit(), (("a", bits),))
    val_cases = [
        ("spawned", "close a", "1", quit, quit_ty,
         "dd <- {x}; wait dd; wait a; close c", {}),
        ("unused", "close a", "1", quit, quit_ty, "wait a; close c", {}),
        ("spawn-first", "close a", "1", quit, quit_ty,
         "dd <- {x}; wait a; wait dd; close c", {}),
        ("upshift", "send a shift; recv a shift; close a", "down up 1", quit, quit_ty,
         "dd <- {x}; recv a shift; send a shift; wait dd; wait a; close c", {}),
        ("drain-val", "close a", "1", drain_term, drain_ty,
         "cc <- {x} <- b; wait cc; wait a; close c", {"b": "bits"}),
        ("unused-amb", "wait d; close a", "1", quit, quit_ty,
         "wait a; close c", {"d": "1"}),
        ("double-spawn", "close a", "1", quit, quit_ty,
         "dd <- {x}; ee <- {x}; wait dd; wait ee; wait a; close c", {}),
        ("lambda", "close a", "1",
         A.App(parse_term(r"\y : {d : 1}. y"), quit), quit_ty,
         "dd <- {x}; wait dd; wait a; close c", {}),
        ("nested-quote", "close a", "1",
         A.Anno(parse_term("{e <- dd <- quit; wait dd; close e}",
                           terms=corpus_tables()["terms"]),
                A.ProcType("e", A.Unit(), ())),
         A.ProcType("e", A.Unit(), ()),
         "dd <- {x}; wait dd; wait a; close c", {}),
        ("choice-after", "close a", "1", quit, quit_ty,
         "dd <- {x}; wait dd; wait a; close c", {}),
    ]
    for name, psrc, aty, m, tau, qsrc, ddelta in val_cases:
        P = _p(psrc)
        at = _t(aty)
        psi = {"x": tau}
        tbl = corpus_tables()
        Q = parse_process(qsrc, types=tbl["types"], terms={})
        delta = {d: _t(t) for d, t in ddelta.items()}
        left = A.Cut("a", P, A.subst_term({"x": m}, Q), at)
        right = A.Cut(
            "a", A.SendVal("a", m, P), A.RecvVal("x", "a", Q), A.AndVal(tau, at)
        )
        _inst(report, "value-eta", name, left, right, delta, "c", _t("1"), depth)

    # negative direction: a diverging value blocks the explicit transmission
    diverge = A.Anno(A.Fix("loop", A.Var("loop")), quit_ty)
    Qx = parse_process("wait a; close c", types={})
    neg_left = A.Cut("a", A.Close("a"), Qx, A.Unit())
    neg_right = A.Cut(
        "a", A.SendVal("a", diverge, A.Close("a")), A.RecvVal("x", "a", Qx),
        A.AndVal(quit_ty, A.Unit()),
    )
    _inst(report, "value-eta-negative", "diverging", neg_left, neg_right,
          {}, "c", _t("1"), depth, expected="distinguished")

    # -- unfold eta: cut a. P Q == cut a. (send a unfold; P) (recv a unfold; Q)
    rho_cases = [
        ("bits0", "a.0; a <- zeros", bits, "case a { 0 => c <- drain <- a | 1 => c <- drain <- a }", {}),
        ("bits1", "a.1; a <- ones", bits, "case a { 0 => c <- drain <- a | 1 => c <- drain <- a }", {}),
        ("bits-alt", "a.0; a <- alt", bits, "case a { 0 => c <- drain <- a | 1 => c <- drain <- a }", {}),
        ("bits-flip", "a.1; f2 <- zeros; a <- flip <- f2", bits,
         "case a { 0 => c <- drain <- a | 1 => c <- drain <- a }", {}),
        ("nats-z", "a.z; close a", nats,
         "case a { z => wait a; close c | s => c <- drainn <- a }", {}),
        ("nats-s", "a.s; send a unfold; a.z; close a", nats,
         "case a { z => wait a; close c | s => recv a unfold; case a { z => wait a; close c | s => c <- drainn <- a } }", {}),
    ]
    drainn_src = ("fix G. {c <- recv a unfold; "
                  "case a { z => wait a; close c | s => c <- G <- a } <- a}")
    drainn = A.Anno(
        parse_term(drainn_src, types={"nats": nats}),
        A.ProcType("c", A.Unit(), (("a", nats),)),
    )
    for name, psrc, rty, qsrc, ddelta in rho_cases:
        tbl = corpus_tables()
        terms = {**tbl["terms"], "drainn": drainn}
        P = parse_process(psrc, types=tbl["types"], terms=terms)
        Q = parse_process(qsrc, types=tbl["types"], terms=terms)
        unfolded = A.unfold_rec(rty)
        delta = {d: _t(t) for d, t in ddelta.items()}
        left = A.Cut("a", P, Q, unfolded)
        right = A.Cut("a", A.SendUnfold("a", P), A.RecvUnfold("a", Q), rty)
        _inst(report, "unfold-eta", name, left, right, delta, "c", _t("1"), depth)
    # a few more unfold instances at smaller depth-insensitive types
    for k in ("0", "1"):
        P = _p(f"a.{k}; a <- zeros")
        Q = _p("case a { 0 => c <- drain <- a | 1 => c <- drain <- a }")
        left = A.Cut("a", P, Q, BITS)
        right = A.Cut("a", A.SendUnfold("a", P), A.RecvUnfold("a", Q), bits)
        for variant in ("plain", "wrapped"):
            if variant == "wrapped":
                left = A.Cut("zz", A.Close("zz"), A.Wait("zz", left), A.Unit())
                right = A.Cut("zz", A.Close("zz"), A.Wait("zz", right), A.Unit())
            _inst(report, "unfold-eta", f"bits{k}-{variant}", left, right,
                  {}, "c", _t("1"), depth)

    # -- cut associativity
    assoc_cases = [
        ("units", "close c1", "1", "wait c1; close c2", "1", "wait c2; close c3", "1", {}),
        ("shift", "recv c1 shift; close c1", "up 1",
         "send c1 shift; wait c1; close c2", "1", "wait c2; close c3", "1", {}),
        ("pair", "send c1 d; close c1", "1 * 1",
         "a2 <- recv c1; wait a2; wait c1; close c2", "1",
         "wait c2; close c3", "1", {"d": "1"}),
        ("bits-pipeline", "c1 <- zeros", "bits", "c2 <- flip <- c1", "bits",
         "c3 <- flip <- c2", "bits", {}),
        ("bits-drain", "c1 <- alt", "bits", "c2 <- flip <- c1", "bits",
         "c3 <- drain <- c2", "1", {}),
        ("mixed", "close c1", "1", "wait c1; c2 <- zeros", "bits",
         "c3 <- drain <- c2", "1", {}),
        ("choice", "c1.j; close c1", "+{j: 1, k: 1}",
         "case c1 { j => wait c1; close c2 | k => wait c1; close c2 }", "1",
         "wait c2; close c3", "1", {}),
        ("double-shift", "send c1 shift; recv c1 shift; close c1", "down up 1",
         "recv c1 shift; send c1 shift; wait c1; close c2", "1",
         "wait c2; close c3", "1", {}),
        ("fwd-mid", "close c1", "1", "fwd c2 c1", "1", "wait c2; close c3", "1", {}),
        ("relay", "c1 <- ones", "bits", "c2 <- relay <- c1", "bits",
         "c3 <- drain <- c2", "1", {}),
    ]
    for name, s1, t1, s2, t2, s3, t3, ddelta in assoc_cases:
        P1, P2, P3 = _p(s1), _p(s2), _p(s3)
        ty1, ty2, ty3 = _t(t1), _t(t2), _t(t3)
        delta = {d: _t(t) for d, t in ddelta.items()}
        left = A.Cut("c1", P1, A.Cut("c2", P2, P3, ty2), ty1)
        right = A.Cut("c2", A.Cut("c1", P1, P2, ty1), P3, ty2)
        _inst(report, "cut-assoc", name, left, right, delta, "c3", ty3, depth)

    # -- fixed-point substitution: [fix x. M / x] M == fix x. M
    fix_cases = []
    for name in ("flip", "zeros", "ones", "alt", "drain", "relay"):
        anno = tables["terms"][name]
        fix_cases.append((name, anno.term, anno.ty))
    fix_cases.append(("const", A.Fix("F", A.Quote("d", A.Close("d"), ())), quit_ty))
    fix_cases.append(("loop", A.Fix("x", A.Var("x")), quit_ty))
    fix_cases.append((
        "const-deep",
        A.Fix("F", A.Quote("d", A.SendShift("d", A.RecvShift("d", A.Close("d"))), ())),
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


@dataclass
class FinGrid:
    keys: tuple[str, ...]
    rows: list[S.Row]
    index: dict[S.Row, int]
    preds: list[list[int]]   # strictly-below indices
    upsets: list[int]        # bitmask of rows >= each row


@lru_cache(maxsize=128)
def _grid_cached(aspect_items: tuple, depth: int) -> FinGrid:
    aspects = dict(aspect_items)
    keys = tuple(sorted(aspects))
    rows = list(S.row_grid(aspects, depth))
    n = len(rows)
    leq = [[S.row_leq(rows[i], rows[j]) for j in range(n)] for i in range(n)]
    preds = [[j for j in range(n) if j != i and leq[j][i]] for i in range(n)]
    upsets = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(preds[i]), i))
    rows = [rows[i] for i in order]
    remap = {old: new for new, old in enumerate(order)}
    preds = [[remap[j] for j in preds[i]] for i in order]
    upsets_new = []
    for i in order:
        mask = 0
        for j in range(n):
            if leq[i][j]:
                mask |= 1 << remap[j]
        upsets_new.append(mask)
    return FinGrid(keys, rows, {r: i for i, r in enumerate(rows)}, preds, upsets_new)


def grid_for(aspects: Mapping[str, S.Aspect], depth: int) -> FinGrid:
    return _grid_cached(tuple(sorted(aspects.items())), depth)


def random_monotone_den(rng: random.Random, in_aspects: Mapping[str, S.Aspect],
                        out_aspects: Mapping[str, S.Aspect], depth: int,
                        max_tries: int = 200) -> S.Denotation:
    """A uniform-ish random monotone map between enumerated row spaces.

    Built by assigning outputs along a linear extension of the input order,
    restricted at each step to outputs above all already-assigned
    predecessors; dead ends restart the assignment.
    """
    gin = grid_for(in_aspects, depth)
    gout = grid_for(out_aspects, depth)
    n = len(gin.rows)
    full = (1 << len(gout.rows)) - 1
    table: dict[S.Row, S.Row] = {}
    for _ in range(max_tries):
        assign: list[Optional[int]] = [None] * n
        ok = True
        for i in range(n):  # rows are already in a linear extension
            mask = full
            for p in gin.preds[i]:
                mask &= gout.upsets[assign[p]]
                if not mask:
                    break
            if not mask:
                ok = False
                break
            choices = [b for b in range(len(gout.rows)) if mask >> b & 1]
            assign[i] = rng.choice(choices)
        if ok:
            table = {gin.rows[i]: gout.rows[assign[i]] for i in range(n)}
            break
    else:
        table = {r: S.bot_row(gout.keys) for r in gin.rows}

    def fn(row: S.Row) -> S.Row:
        return table[row]

    return S.Denotation(dict(in_aspects), dict(out_aspects), fn, label="table")


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
        return not self.failures

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


def _den_equal_on_grid(d1: S.Denotation, d2: S.Denotation, depth: int) -> Optional[str]:
    grid = grid_for(d1.inputs, depth)
    for row in grid.rows:
        o1 = S.row_truncate(d1(row), depth)
        o2 = S.row_truncate(d2(row), depth)
        if o1 != o2:
            return f"differ at {dict(row)}: {dict(o1)} vs {dict(o2)}"
    return None


def trace_axiom_suite(seed: int = 0, rounds: int = 200, depth: int = 2) -> AxiomReport:
    """Check the six trace axioms on randomly generated monotone maps."""
    rng = random.Random(seed)
    report = AxiomReport(rounds=rounds)
    report.axioms = [
        "left-tightening", "right-tightening", "sliding",
        "vanishing", "superposing", "yanking",
    ]
    cfg = S.EvalConfig(depth=depth)

    def check(axiom: str, i: int, lhs: S.Denotation, rhs: S.Denotation):
        report.checked[axiom] = report.checked.get(axiom, 0) + 1
        detail = _den_equal_on_grid(lhs, rhs, depth)
        if detail is not None:
            report.failures.append(AxiomFailure(axiom, i, detail))

    for i in range(rounds):
        asp_a = _pick_aspect(rng, depth, 5)
        asp_a2 = _pick_aspect(rng, depth, 5)
        asp_b = _pick_aspect(rng, depth, 5)
        asp_u = _pick_aspect(rng, depth, 5)

        f = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                {"b": asp_b, "u": asp_u}, depth)
        g = random_monotone_den(rng, {"a2": asp_a2}, {"a": asp_a}, depth)

        # left tightening: Tr(f . (g x id)) == Tr(f) . g
        fg = S.Denotation(
            {"a2": asp_a2, "u": asp_u}, {"b": asp_b, "u": asp_u},
            lambda row, f=f, g=g: f(S.Row({"a": g(row.project(["a2"]))["a"],
                                           "u": row["u"]})),
        )
        lhs = S.trace(fg, ["u"], cfg)
        tr_f = S.trace(f, ["u"], cfg)
        rhs = S.Denotation(
            {"a2": asp_a2}, {"b": asp_b},
            lambda row, tr_f=tr_f, g=g: tr_f(S.Row({"a": g(row)["a"]})),
        )
        check("left-tightening", i, lhs, rhs)

        # right tightening: Tr((h x id) . f) == h . Tr(f)
        h = random_monotone_den(rng, {"b": asp_b}, {"b2": asp_a2}, depth)
        hf = S.Denotation(
            {"a": asp_a, "u": asp_u}, {"b2": asp_a2, "u": asp_u},
            lambda row, f=f, h=h: (lambda out: S.Row(
                {"b2": h(out.project(["b"]))["b2"], "u": out["u"]}
            ))(f(row)),
        )
        lhs = S.trace(hf, ["u"], cfg)
        rhs = S.Denotation(
            {"a": asp_a}, {"b2": asp_a2},
            lambda row, tr_f=tr_f, h=h: h(tr_f(row)),
        )
        check("right-tightening", i, lhs, rhs)

        # sliding: Tr^U((id x g) . f) == Tr^V(f . (id x g))
        asp_v = _pick_aspect(rng, depth, 5)
        f2 = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                 {"b": asp_b, "v": asp_v}, depth)
        g2 = random_monotone_den(rng, {"v": asp_v}, {"u": asp_u}, depth)
        lhs_inner = S.Denotation(
            {"a": asp_a, "u": asp_u}, {"b": asp_b, "u": asp_u},
            lambda row, f2=f2, g2=g2: (lambda out: S.Row(
                {"b": out["b"], "u": g2(out.project(["v"]))["u"]}
            ))(f2(row)),
        )
        rhs_inner = S.Denotation(
            {"a": asp_a, "v": asp_v}, {"b": asp_b, "v": asp_v},
            lambda row, f2=f2, g2=g2: f2(S.Row(
                {"a": row["a"], "u": g2(row.project(["v"]))["u"]}
            )),
        )
        check("sliding", i, S.trace(lhs_inner, ["u"], cfg),
              S.trace(rhs_inner, ["v"], cfg))

        # vanishing: empty feedback is the identity; U x V in one step or two
        f0 = random_monotone_den(rng, {"a": asp_a}, {"b": asp_b}, depth)
        check("vanishing", i, S.trace(f0, [], cfg), f0)
        f3 = random_monotone_den(
            rng, {"a": asp_a, "u": asp_u, "v": asp_v},
            {"b": asp_b, "u": asp_u, "v": asp_v}, depth,
        )
        joint = S.trace(f3, ["u", "v"], cfg)
        nested = S.trace(S.trace(f3, ["v"], cfg), ["u"], cfg)
        check("vanishing", i, joint, nested)

        # superposing: Tr(id_C x f) == id_C x Tr(f)
        asp_c = _pick_aspect(rng, depth, 5)
        big = S.Denotation(
            {"cc": asp_c, "a": asp_a, "u": asp_u},
            {"cc": asp_c, "b": asp_b, "u": asp_u},
            lambda row, f=f: S.Row({**dict(f(row.project(["a", "u"]))),
                                    "cc": row["cc"]}),
        )
        lhs = S.trace(big, ["u"], cfg)
        rhs = S.Denotation(
            {"cc": asp_c, "a": asp_a}, {"cc": asp_c, "b": asp_b},
            lambda row, tr_f=tr_f: S.Row({**dict(tr_f(row.project(["a"]))),
                                          "cc": row["cc"]}),
        )
        check("superposing", i, lhs, rhs)

        # yanking: the trace of the swap is the identity
        asp_x = _pick_aspect(rng, depth, 9)
        swap = S.Denotation(
            {"a": asp_x, "u": asp_x}, {"b": asp_x, "u": asp_x},
            lambda row: S.Row({"b": row["u"], "u": row["a"]}),
        )
        ident = S.Denotation({"a": asp_x}, {"b": asp_x},
                             lambda row: S.Row({"b": row["a"]}))
        check("yanking", i, S.trace(swap, ["u"], cfg), ident)

    return _fail_on_fuel_out(report, cfg)


def conway_identity_suite(seed: int = 0, rounds: int = 200, depth: int = 2) -> AxiomReport:
    """Check the Conway identities for the parametrized fixed point."""
    rng = random.Random(seed)
    report = AxiomReport(rounds=rounds)
    report.axioms = ["naturality", "fixed-point", "dinaturality", "diagonal"]
    cfg = S.EvalConfig(depth=depth)

    def check(axiom: str, i: int, lhs: S.Denotation, rhs: S.Denotation):
        report.checked[axiom] = report.checked.get(axiom, 0) + 1
        detail = _den_equal_on_grid(lhs, rhs, depth)
        if detail is not None:
            report.failures.append(AxiomFailure(axiom, i, detail))

    for i in range(rounds):
        asp_x = _pick_aspect(rng, depth, 5)
        asp_a = _pick_aspect(rng, depth, 5)
        asp_y = _pick_aspect(rng, depth, 5)

        f = random_monotone_den(rng, {"x": asp_x, "a": asp_a}, {"ao": asp_a}, depth)

        # naturality: sfix(f) . g == sfix(f . (g x id))
        g = random_monotone_den(rng, {"y": asp_y}, {"x": asp_x}, depth)
        sf = S.sfix_row(f, {"a": "ao"}, cfg)
        lhs = S.Denotation({"y": asp_y}, {"ao": asp_a},
                           lambda row, sf=sf, g=g: sf(S.Row({"x": g(row)["x"]})))
        fg = S.Denotation(
            {"y": asp_y, "a": asp_a}, {"ao": asp_a},
            lambda row, f=f, g=g: f(S.Row({"x": g(row.project(["y"]))["x"],
                                           "a": row["a"]})),
        )
        rhs = S.sfix_row(fg, {"a": "ao"}, cfg)
        check("naturality", i, lhs, rhs)

        # parametrized fixed-point property: f . <id, sfix f> == sfix f
        lhs = S.Denotation(
            {"x": asp_x}, {"ao": asp_a},
            lambda row, f=f, sf=sf: f(S.Row({"x": row["x"],
                                             "a": sf(row)["ao"]})),
        )
        check("fixed-point", i, lhs, sf)

        # dinaturality
        asp_b = _pick_aspect(rng, depth, 5)
        fb = random_monotone_den(rng, {"x": asp_x, "b": asp_b}, {"ao": asp_a}, depth)
        gb = random_monotone_den(rng, {"x": asp_x, "a": asp_a}, {"bo": asp_b}, depth)
        gf = S.Denotation(
            {"x": asp_x, "b": asp_b}, {"bo": asp_b},
            lambda row, fb=fb, gb=gb: gb(S.Row({"x": row["x"],
                                                "a": fb(row)["ao"]})),
        )
        s1 = S.sfix_row(gf, {"b": "bo"}, cfg)
        lhs = S.Denotation(
            {"x": asp_x}, {"ao": asp_a},
            lambda row, fb=fb, s1=s1: fb(S.Row({"x": row["x"],
                                                "b": s1(row)["bo"]})),
        )
        fg2 = S.Denotation(
            {"x": asp_x, "a": asp_a}, {"ao": asp_a},
            lambda row, fb=fb, gb=gb: fb(S.Row({"x": row["x"],
                                                "b": gb(row)["bo"]})),
        )
        rhs = S.sfix_row(fg2, {"a": "ao"}, cfg)
        check("dinaturality", i, lhs, rhs)

        # diagonal: sfix(f . (id x dup)) == sfix(sfix f)
        fd = random_monotone_den(
            rng, {"x": asp_x, "a1": asp_a, "a2": asp_a}, {"ao": asp_a}, depth
        )
        dup = S.Denotation(
            {"x": asp_x, "a": asp_a}, {"ao": asp_a},
            lambda row, fd=fd: fd(S.Row({"x": row["x"], "a1": row["a"],
                                         "a2": row["a"]})),
        )
        lhs = S.sfix_row(dup, {"a": "ao"}, cfg)
        inner = S.sfix_row(fd, {"a2": "ao"}, cfg)
        rhs = S.sfix_row(inner, {"a1": "ao"}, cfg)
        check("diagonal", i, lhs, rhs)

    return _fail_on_fuel_out(report, cfg)


def trace_oracle_suite(seed: int = 0, rounds: int = 500, depth: int = 2,
                       max_size: int = 5) -> AxiomReport:
    """Kleene trace against the Knaster-Tarski oracle on generated maps."""
    rng = random.Random(seed)
    report = AxiomReport(rounds=rounds)
    report.axioms = ["kleene-vs-knaster-tarski"]
    cfg = S.EvalConfig(depth=depth)
    for i in range(rounds):
        asp_a = _pick_aspect(rng, depth, max_size)
        asp_b = _pick_aspect(rng, depth, max_size)
        asp_u = _pick_aspect(rng, depth, max_size)
        f = random_monotone_den(rng, {"a": asp_a, "u": asp_u},
                                {"b": asp_b, "u": asp_u}, depth)
        kleene = S.trace(f, ["u"], cfg)
        oracle = S.knaster_tarski_trace(f, ["u"], depth)
        report.checked["kleene-vs-knaster-tarski"] = i + 1
        detail = _den_equal_on_grid(kleene, oracle, depth)
        if detail is not None:
            report.failures.append(
                AxiomFailure("kleene-vs-knaster-tarski", i, detail)
            )
    return _fail_on_fuel_out(report, cfg)
