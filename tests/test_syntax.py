"""Parser/printer round trips and substitution."""

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sill import ast as A
from sill import equiv as E
from sill import laws as L
from sill.parser import (SillSyntaxError, parse_process, parse_program,
                         parse_term, parse_type, tokenize)
from sill.pretty import pp_process, pp_term, pp_type

CHANS = ["a", "b", "c", "d", "e"]
VARS = ["x", "y", "z", "w", "F", "G"]
LABELS = ["0", "1", "j", "k", "tt"]
TVARS = ["s", "t", "u"]


# ---------------------------------------------------------------------------
# Generators (syntactically well-formed, not necessarily well-typed)


def _branch_map(values):
    return st.dictionaries(st.sampled_from(LABELS), values, min_size=1, max_size=3)


def stypes():
    leaves = st.one_of(
        st.just(A.Unit()),
        st.sampled_from([A.TVar(v) for v in TVARS]),
    )

    def extend(children):
        return st.one_of(
            st.builds(A.Down, children),
            st.builds(A.Up, children),
            _branch_map(children).map(A.plus),
            _branch_map(children).map(A.with_),
            st.builds(A.Tensor, children, children),
            st.builds(A.Lolly, children, children),
            st.builds(A.AndVal, ftypes(children), children),
            st.builds(A.ImpVal, ftypes(children), children),
            st.tuples(st.sampled_from(TVARS), children).map(_contractive_rec),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _contractive_rec(pair):
    """``rho a. body``, or ``body`` itself where that binder would not be
    contractive.  (A filter would have Hypothesis render the whole strategy
    each time it rejects a draw.)"""
    rec = A.Rec(*pair)
    return rec if A.is_contractive(rec) else pair[1]


def ftypes(types=None):
    types = stypes() if types is None else types
    proc = st.builds(
        lambda c, t, used: A.ProcType(c, t, tuple(used)),
        st.sampled_from(CHANS),
        types,
        st.lists(st.tuples(st.sampled_from(CHANS), types), max_size=2),
    )
    # The arrows of at most three leaves, spelled out: inside the recursion of
    # ``stypes`` a nested ``st.recursive`` would render ``types`` whole each
    # time Hypothesis validates it.
    arrow = st.builds(A.Arrow, proc, proc)
    return st.one_of(proc, arrow, st.builds(A.Arrow, arrow, proc),
                     st.builds(A.Arrow, proc, arrow))


def terms():
    leaves = st.sampled_from([A.Var(v) for v in VARS])

    def extend(children):
        return st.one_of(
            st.builds(A.Fix, st.sampled_from(VARS), children),
            st.builds(A.Lam, st.sampled_from(VARS), ftypes(), children),
            st.builds(A.App, children, children),
            st.builds(A.Anno, children, ftypes()),
            st.builds(
                lambda c, p, used: A.Quote(c, p, tuple(used)),
                st.sampled_from(CHANS), processes(),
                st.lists(st.sampled_from(CHANS), max_size=2, unique=True),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def processes():
    leaves = st.one_of(
        st.builds(A.Close, st.sampled_from(CHANS)),
        st.builds(A.Fwd, st.sampled_from(CHANS), st.sampled_from(CHANS)),
    )

    def extend(children):
        chan = st.sampled_from(CHANS)
        return st.one_of(
            st.builds(A.Wait, chan, children),
            st.builds(A.SendShift, chan, children),
            st.builds(A.RecvShift, chan, children),
            st.builds(A.SendUnfold, chan, children),
            st.builds(A.RecvUnfold, chan, children),
            st.builds(A.SendLabel, chan, st.sampled_from(LABELS), children),
            st.builds(lambda c, m: A.case(c, m), chan, _branch_map(children)),
            st.builds(A.SendChan, chan, chan, children),
            st.builds(A.RecvChan, chan, chan, children),
            st.builds(A.RecvVal, st.sampled_from(VARS), chan, children),
            st.builds(
                lambda c, used: A.Unquote(c, A.Var("F"), tuple(used)),
                chan, st.lists(chan, max_size=2),
            ),
            st.builds(
                lambda c, l, r: A.Cut(c, l, r, A.Unit()),
                chan, children, children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


# ---------------------------------------------------------------------------
# Round trips


@settings(max_examples=150, deadline=None)
@given(stypes())
def test_type_roundtrip(ty):
    assert parse_type(pp_type(ty)) == ty


@settings(max_examples=150, deadline=None)
@given(terms())
def test_term_roundtrip(term):
    assert parse_term(pp_term(term)) == term


@settings(max_examples=150, deadline=None)
@given(processes())
def test_process_roundtrip(proc):
    assert parse_process(pp_process(proc)) == proc


def test_close_parses_to_single_constructor():
    assert parse_process("close a") == A.Close("a")


def test_flip_source_desugars_to_expected_ast():
    bits = parse_type("rho b. +{0: b, 1: b}")
    term = parse_term(
        "fix F. {f <- send f unfold; recv b unfold;"
        " case b { 0 => f.1; f <- F <- b | 1 => f.0; f <- F <- b } <- b}"
    )
    tail0 = A.Unquote("f", A.Var("F"), ("b",))
    expected = A.Fix("F", A.Quote(
        "f",
        A.SendUnfold("f", A.RecvUnfold("b", A.case("b", {
            "0": A.SendLabel("f", "1", tail0),
            "1": A.SendLabel("f", "0", A.Unquote("f", A.Var("F"), ("b",))),
        }))),
        ("b",),
    ))
    assert term == expected
    assert parse_type("bits", types={"bits": bits}) == bits


def test_syntax_error_has_position_and_expectation():
    with pytest.raises(SillSyntaxError) as err:
        parse_process("wait a; close")
    assert err.value.line == 1
    assert err.value.expected


def test_missing_channel_is_an_error():
    with pytest.raises(SillSyntaxError):
        parse_program("proc p : ( |- a : 1) = wait ; close a")


def test_duplicate_declarations_rejected():
    with pytest.raises(SillSyntaxError):
        parse_program("type t = 1\ntype t = 1")


def test_comments_and_whitespace():
    prog = parse_program("""
    // a comment
    # another comment
    type t = 1
    """)
    assert [d.name for d in prog.decls] == ["t"]


# ---------------------------------------------------------------------------
# Type substitution


def test_subst_bits_unfolding():
    bits = parse_type("rho b. +{0: b, 1: b}")
    body = A.plus({"0": A.TVar("b"), "1": A.TVar("b")})
    unfolded = A.subst_type({"b": bits}, body)
    assert unfolded == A.plus({"0": bits, "1": bits})
    assert A.unfold_rec(bits) == unfolded


def test_subst_identity():
    ty = parse_type("rho t. +{j: t, k: 1} * down up 1")
    assert A.subst_type({}, ty) == ty
    assert A.subst_type({"zz": A.Unit()}, ty) == ty


def test_subst_shadowed_binder_unchanged():
    ty = A.Rec("t", A.plus({"j": A.TVar("t")}))
    assert A.subst_type({"t": A.Unit()}, ty) == ty


def test_subst_capture_avoidance():
    # substituting a type mentioning t under a binder named t must rename
    target = A.Rec("t", A.Tensor(A.TVar("s"), A.TVar("t")))
    sub = A.subst_type({"s": A.TVar("t")}, target)
    assert isinstance(sub, A.Rec)
    assert sub.var != "t"
    assert sub.body == A.Tensor(A.TVar("t"), A.TVar(sub.var))


@settings(max_examples=60, deadline=None)
@given(stypes(), stypes(), stypes())
def test_subst_composition(b, s1_img, s2_img):
    # sigma2 . sigma1 applied pointwise agrees with sequential application
    s1 = {"s": s1_img}
    s2 = {"t": s2_img, "u": s2_img}
    seq = A.subst_type(s2, A.subst_type(s1, b))
    composed = {"s": A.subst_type(s2, s1_img), **s2}
    assert A.types_equal(seq, A.subst_type(composed, b))


# ---------------------------------------------------------------------------
# Term substitution


def test_subst_term_variable_hit():
    m = parse_term("{d <- close d}")
    assert A.subst_term({"x": m}, A.Var("x")) == m


def test_subst_term_fix_shadowing():
    fix = A.Fix("x", A.App(A.Var("x"), A.Var("y")))
    assert A.subst_term({"x": A.Var("z")}, fix) == fix


def test_subst_term_capture_avoiding():
    lam = A.Lam("y", A.ProcType("d", A.Unit(), ()), A.Var("x"))
    out = A.subst_term({"x": A.Var("y")}, lam)
    assert isinstance(out, A.Lam)
    assert out.var != "y"
    assert out.body == A.Var("y")


def test_subst_term_freshens_past_the_body_free_vars(monkeypatch):
    # the first fresh name for y is y_0, which the body already uses
    monkeypatch.setattr(A, "_fresh_counter", itertools.count())
    lam = A.Lam("y", A.ProcType("d", A.Unit(), ()), A.App(A.Var("x"), A.Var("y_0")))
    out = A.subst_term({"x": A.Var("y")}, lam)
    assert out.var not in {"y", "y_0"}
    assert out.body == A.App(A.Var("y"), A.Var("y_0"))


def test_subst_into_process():
    proc = A.SendVal("a", A.Var("x"), A.Close("a"))
    m = parse_term("{d <- close d}")
    assert A.subst_term({"x": m}, proc) == A.SendVal("a", m, A.Close("a"))


def test_subst_term_keeps_spans():
    proc = parse_process("wait d; send a (x); close c")
    out = A.subst_term({"x": A.Var("z")}, proc)
    assert out.span == A.Span(1, 1)
    assert out.cont.span == A.Span(1, 9)
    assert out.cont.term == A.Var("z")
    assert out.cont.cont.span == proc.cont.cont.span


# ---------------------------------------------------------------------------
# Contractivity


def test_noncontractive_rejected():
    with pytest.raises(SillSyntaxError):
        parse_type("rho a. a")
    assert not A.is_contractive(A.Rec("a", A.TVar("a")))
    assert not A.is_contractive(A.Rec("a", A.Rec("b", A.TVar("a"))))


def test_contractive_accepted():
    for src in ["rho b. +{0: b, 1: b}", "rho t. 1 * t", "rho t. down up 1",
                "rho t. rho u. +{j: u, k: t}"]:
        ty = parse_type(src)
        assert A.is_contractive(ty)


def test_alpha_equality_of_types():
    t1 = parse_type("rho b. +{0: b, 1: b}")
    t2 = parse_type("rho z. +{0: z, 1: z}")
    assert A.types_equal(t1, t2)
    assert not A.types_equal(t1, parse_type("rho z. +{0: z, 1: 1}"))


def test_channel_renaming_avoids_capture():
    # renaming b -> t across a cut that binds t must freshen the binder
    proc = parse_process("t : 1 <- (close t); wait t; wait b; close c")
    renamed = A.rename_channels(proc, {"b": "t"})
    assert isinstance(renamed, A.Cut)
    assert renamed.channel != "t"
    assert "t" in A.free_channels(renamed)


# ---------------------------------------------------------------------------
# Golden traversal battery: free names, term substitution and channel
# renaming of every fixture declaration and every law-suite side, each with
# a mapping that forces every binder to be freshened.
# Regenerate with ``PYTHONPATH=src python tests/test_syntax.py``.

AST_GOLDEN = Path(__file__).resolve().parent / "ast_golden.json"
FIXTURES = Path(A.__file__).resolve().parent / "fixtures"


def _nodes(node):
    """``node`` and every dataclass node below it, in preorder."""
    yield node
    for f in dataclasses.fields(node):
        if f.name == "span":
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, tuple):  # a (label, node) branch
                item = item[1]
            if dataclasses.is_dataclass(item):
                yield from _nodes(item)


def traversal_cases() -> dict:
    """Every fixture term, quoted process and proc, then both sides of each
    law-suite instance, keyed by where they come from."""
    cases = {}
    for path in sorted(FIXTURES.glob("*.sill")):
        prog = parse_program(path.read_text(encoding="utf-8"))
        for name, decl in prog.terms().items():
            cases[f"{path.name}/term {name}"] = decl.term
            quotes = [n for n in _nodes(decl.term) if isinstance(n, A.Quote)]
            for i, q in enumerate(quotes):
                cases[f"{path.name}/term {name}/quote {i}"] = q.proc
        for name, decl in prog.procs().items():
            cases[f"{path.name}/proc {name}"] = decl.proc

    sides, fix_subst = [], itertools.count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "_inst", lambda report, law, name, left, right, *_, **__:
                   sides.append((f"{law}/{name}", left, right)))
        mp.setattr(E, "term_equiv", lambda left, right, *_, **__:
                   sides.append((f"fix-subst/{next(fix_subst)}", left, right)))
        L.law_suite()
    for name, left, right in sides:
        assert f"law {name}/left" not in cases, name
        cases[f"law {name}/left"] = left
        cases[f"law {name}/right"] = right
    return cases


def _counted_from_zero(fn, *args):
    """``fn(*args)`` with fresh names numbered from 0, so that a case does
    not depend on the ones before it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_fresh_counter", itertools.count())
        return fn(*args)


def traversal_record(node) -> dict:
    # Each substituted term mentions every term binder of ``node`` and each
    # renaming targets every channel binder, so every binder is freshened;
    # the unused "zz" entries keep a closed node's mapping non-empty.
    nodes = list(_nodes(node))
    binders = sorted({n.var for n in nodes if isinstance(n, (A.Fix, A.Lam))}
                     | {n.bound for n in nodes if isinstance(n, A.RecvVal)})
    capture = functools.reduce(A.App, map(A.Var, binders), A.Var("w"))
    ftv = sorted(A.free_term_vars(node))
    subst = _counted_from_zero(A.subst_term, {x: capture for x in [*ftv, "zz"]}, node)
    out = {"free_term_vars": ftv, "subst_term": repr(subst),
           "free_channels": None, "rename_channels": None}
    if isinstance(node, A.Process):
        fc = sorted(A.free_channels(node))
        cbs = sorted({n.channel for n in nodes if isinstance(n, A.Cut)}
                     | {n.bound for n in nodes if isinstance(n, A.RecvChan)})
        targets = cbs or ["zz"]
        mapping = {a: targets[i % len(targets)] for i, a in enumerate(fc)}
        mapping.update({f"zz{i}": b for i, b in enumerate(cbs)})
        out["free_channels"] = fc
        out["rename_channels"] = repr(_counted_from_zero(A.rename_channels, node, mapping))
    return out


def test_traversals_match_golden():
    golden = json.loads(AST_GOLDEN.read_text(encoding="utf-8"))
    cases = traversal_cases()
    assert list(golden) == list(cases)
    for key, node in cases.items():
        assert traversal_record(node) == golden[key], key


# ---------------------------------------------------------------------------
# Golden token battery: the kind, text, line and column of every token of
# every fixture, the law corpus and a few hand-written sources that stress
# line and column bookkeeping, or the message and position of the lexical
# error.  Regenerate with ``PYTHONPATH=src python tests/test_syntax.py``.

TOKEN_GOLDEN = Path(__file__).resolve().parent / "token_golden.json"

LEXING_CASES = {
    "crlf and tabs": "type u = 1\r\n\tproc p : (|- c : u) =\r\n\t\tclose c\r\n",
    "trailing comments": ("type bits = rho b. +{0: b, 1: b} // a stream\n"
                          "term t : {c : 1} = {c <- close c}  # hash comment\n"
                          "proc p : (a : bits |- b : bits) = fwd b a // no newline"),
    "operators": "|- -> -o <- => /\\ {}(),:;.|*=\\&+ 0 12 x_1 _y fix rho",
    "adjacent tokens": "a<-{x}<-b,c;wait a;close b",
    "empty": "",
    "only whitespace": "  \r\n\t \n   ",
    "stray after comments": "// one\n# two\n\t  // three\n   @ close c",
    "stray after crlf": "proc p : (|- c : 1) =\r\n  close c $",
    "stray at start": "!",
}


def token_cases() -> dict[str, str]:
    cases = {}
    for path in sorted(FIXTURES.glob("**/*.sill")):
        cases[path.relative_to(FIXTURES).as_posix()] = path.read_text(encoding="utf-8")
    cases["laws.CORPUS_SRC"] = L.CORPUS_SRC
    cases.update(LEXING_CASES)
    return cases


def token_record(source: str):
    try:
        return [[t.kind, t.text, t.line, t.col] for t in tokenize(source)]
    except SillSyntaxError as exc:
        return {"error": str(exc), "line": exc.line, "col": exc.col}


def test_tokens_match_golden():
    golden = json.loads(TOKEN_GOLDEN.read_text(encoding="utf-8"))
    cases = token_cases()
    assert list(golden) == list(cases)
    for name, source in cases.items():
        assert token_record(source) == golden[name], name


if __name__ == "__main__":
    AST_GOLDEN.write_text(json.dumps(
        {key: traversal_record(node) for key, node in traversal_cases().items()},
        indent=1) + "\n", encoding="utf-8")
    TOKEN_GOLDEN.write_text(json.dumps(
        {name: token_record(src) for name, src in token_cases().items()},
        indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
