"""The acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Tolerances are exact-value comparisons throughout; the
runtime bounds are the stated ones.
"""

import json
import time
from pathlib import Path

from sill import ast as A
from sill import domain as D
from sill import semantics as S
from sill.ast import NEG, POS
from sill.laws import (conway_identity_suite, corpus_tables, law_suite,
                       trace_axiom_suite, trace_oracle_suite)
from sill.parser import parse_process, parse_program, parse_type
from sill.typecheck import TypeCheckError, check_program, check_process

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sill" / "fixtures"
BITS = parse_type("rho b. +{0: b, 1: b}")


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_acceptance_1_reference_io_tables():
    t0 = time.monotonic()

    def den(src, delta, c, cty):
        return S.denote_process(
            parse_process(src), {k: parse_type(v) for k, v in delta.items()},
            c, parse_type(cty), cfg=S.EvalConfig(depth=4),
        )

    failures = []

    # channel receive at b : 1 * 1, all five listed inputs
    d51 = den("a <- recv b; wait a; wait b; close c", {"b": "1 * 1"}, "c", "1")
    t11 = parse_type("1 * 1")
    table51 = [
        ("up((*, *))", "(_, _)", "*"),
        ("up((*, _))", "(_, _)", "_"),
        ("up((_, *))", "(_, _)", "_"),
        ("up((_, _))", "(_, _)", "_"),
        ("_", "(_, _)", "_"),
    ]
    for text, want_b, want_c in table51:
        out = d51(S.Row({"b+": D.parse_value(text, t11, POS), "c-": D.BOT}))
        got_b = D.format_value(out["b-"], t11, NEG)
        got_c = D.format_value(out["c+"], parse_type("1"), POS)
        if (got_b, got_c) != (want_b, want_c):
            failures.append(f"1*1 case {text}: got ({got_b}, {got_c})")

    # upshift synchronization, both inputs
    d52 = den("recv a shift; close a", {}, "a", "up 1")
    up1 = parse_type("up 1")
    for text, want in [("_", "_"), ("up(_)", "*")]:
        out = d52(S.Row({"a-": D.parse_value(text, up1, NEG)}))
        got = D.format_value(out["a+"], up1, POS)
        if got != want:
            failures.append(f"up-1 case {text}: got {got}")

    # external choice, all four listed input shapes
    amp = parse_type("&{j: up 1, k: up 1}")
    dch = den("case a { j => recv a shift; close a | k => recv a shift; close a }",
              {}, "a", "&{j: up 1, k: up 1}")
    table_amp = [
        ("j·up(_)", "{j: *, k: _}"),
        ("k·up(_)", "{j: _, k: *}"),
        ("j·_", "{j: _, k: _}"),
        ("k·_", "{j: _, k: _}"),
        ("_", "{j: _, k: _}"),
    ]
    for text, want in table_amp:
        out = dch(S.Row({"a-": D.parse_value(text, amp, NEG)}))
        got = D.format_value(out["a+"], amp, POS)
        if got != want:
            failures.append(f"choice case {text}: got {got}")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    report(1, ok, f"reference I/O tables bit-exact in {elapsed:.2f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_acceptance_2_flip_case_study():
    t0 = time.monotonic()
    tables = corpus_tables()
    flip2 = parse_process("t <- flip <- a; b <- flip <- t",
                          types=tables["types"], terms=tables["terms"])
    cfg = S.EvalConfig(depth=8)
    den = S.denote_process(flip2, {"a": BITS}, "b", BITS, cfg=cfg)
    inputs = D.enumerate_values(BITS, POS, 8)
    assert len(inputs) == 511
    stabilization = []
    mismatch = None
    for v in inputs:
        cfg.diag.trace_iters.clear()
        out = den(S.Row({"a+": v, "b-": D.BOT}))
        stabilization.append(max(cfg.diag.trace_iters, default=0))
        if S.row_truncate(out, 8) != S.Row({"a-": D.BOT, "b+": D.truncate(v, 8)}):
            mismatch = v
            break
    chain_ok = all(n <= 2 for n in stabilization) and max(stabilization) == 2

    # per-constructor laws of the composed map at depth <= 7
    def fd(v):
        return den(S.Row({"a+": v, "b-": D.BOT}))["b+"]

    laws_ok = fd(D.BOT) == D.BOT
    for alpha in D.enumerate_values(BITS, POS, 7):
        for bit in ("0", "1"):
            got = fd(D.fold(D.tag(bit, alpha)))
            want = D.fold(D.tag(bit, fd(alpha)))
            if D.truncate(got, 8) != D.truncate(want, 8):
                laws_ok = False
    elapsed = time.monotonic() - t0
    ok = mismatch is None and chain_ok and laws_ok and elapsed < 5.0
    report(2, ok,
           f"flip∘flip ≡ fwd on 511 approximants, chains stabilize at n = 2, "
           f"constructor laws hold to depth 7, in {elapsed:.2f}s")


def test_acceptance_3_eta_law_suite():
    t0 = time.monotonic()
    rep = law_suite(depth=4)
    elapsed = time.monotonic() - t0
    counts = {law: len(items) for law, items in rep.by_law().items()}
    enough = all(
        n >= 10 for law, n in counts.items() if law != "value-eta-negative"
    )
    negative = [i for i in rep.instances if i.law == "value-eta-negative"]
    neg_ok = negative and all(
        i.verdict.kind == "distinguished" for i in negative
    )
    ok = rep.ok and enough and bool(neg_ok) and elapsed < 30.0
    report(3, ok,
           f"eta laws: {len(rep.instances)} instances over {len(counts)} laws "
           f"(all >= 10 per law, diverging-value case distinguished) "
           f"in {elapsed:.2f}s")


def test_acceptance_4_trace_and_conway_axioms():
    t0 = time.monotonic()
    t_rep = trace_axiom_suite(seed=0, rounds=200)
    c_rep = conway_identity_suite(seed=0, rounds=200)
    elapsed = time.monotonic() - t0
    six = len(t_rep.axioms) == 6 and all(
        t_rep.checked[a] >= 200 for a in t_rep.axioms
    )
    four = len(c_rep.axioms) == 4 and all(
        c_rep.checked[a] >= 200 for a in c_rep.axioms
    )
    ok = t_rep.ok and c_rep.ok and six and four and elapsed < 30.0
    report(4, ok,
           f"6 trace axioms + 4 Conway identities, >=200 generated maps each, "
           f"zero failures, in {elapsed:.2f}s")


def test_acceptance_5_trace_oracle_agreement():
    t0 = time.monotonic()
    rep = trace_oracle_suite(seed=0, rounds=500, depth=2, max_size=5)
    elapsed = time.monotonic() - t0
    ok = rep.ok and rep.checked["kleene-vs-knaster-tarski"] >= 500 and elapsed < 30.0
    report(5, ok,
           f"Kleene trace == Knaster-Tarski oracle on "
           f"{rep.checked['kleene-vs-knaster-tarski']} generated maps, "
           f"exact equality, in {elapsed:.2f}s")


def test_acceptance_6_structural_semantics():
    t0 = time.monotonic()
    failures = []
    depth = 3
    tables = corpus_tables()
    quit_ty = A.ProcType("d", A.Unit(), ())
    quit = tables["terms"]["quit"]
    cfg = S.EvalConfig(depth=depth)

    # coherence: widening the functional context does not change denotations
    proc = parse_process("dd <- {x}; wait dd; close c")
    qv = S.denote_term(quit, quit_ty, {}, S.EMPTY_ENV, cfg)
    den_narrow = S.denote_process(proc, {}, "c", A.Unit(),
                                      psi={"x": quit_ty},
                                      env=S.Env({"x": qv}), cfg=cfg)
    den_wide = S.denote_process(
        proc, {}, "c", A.Unit(),
        psi={"x": quit_ty, "y": quit_ty}, env=S.Env({"x": qv, "y": D.QPROC_BOT}),
        cfg=cfg)
    if den_narrow(S.Row({"c-": D.BOT})) != den_wide(S.Row({"c-": D.BOT})):
        failures.append("coherence")

    # term substitution: [[ [M/x]P ]] == [[P]] o (x |-> [[M]])
    den_sub = S.denote_process(A.subst_term({"x": quit}, proc), {}, "c",
                                   A.Unit(), cfg=cfg)
    if den_sub(S.Row({"c-": D.BOT})) != den_narrow(S.Row({"c-": D.BOT})):
        failures.append("term substitution")

    # type substitution: unfolding identities and composition at depth 3
    body = A.plus({"0": A.TVar("b"), "1": A.TVar("b")})
    if A.subst_type({"b": BITS}, body) != A.unfold_rec(BITS):
        failures.append("type substitution (unfolding)")
    inner = A.plus({"j": A.TVar("s"), "k": A.Unit()})
    s1 = {"s": A.Tensor(A.TVar("t"), A.Unit())}
    s2 = {"t": parse_type("down up 1")}
    seq = A.subst_type(s2, A.subst_type(s1, inner))
    composed = {"s": A.subst_type(s2, s1["s"]), **s2}
    if not A.types_equal(seq, A.subst_type(composed, inner)):
        failures.append("type substitution (composition)")

    # fold/unfold isomorphism over the corpus types at depth 3
    for ty in (BITS, parse_type("rho n. +{z: 1, s: n}")):
        for v in D.enumerate_values(ty, POS, depth):
            if D.fold(D.unfold(v)) != v:
                failures.append(f"fold/unfold at {ty}")
                break
        unfolded = A.unfold_rec(ty)
        for v in D.enumerate_values(unfolded, POS, depth):
            if D.unfold(D.fold(v)) != v:
                failures.append(f"unfold/fold at {ty}")
                break

    elapsed = time.monotonic() - t0
    ok = not failures
    report(6, ok, "coherence, term/type substitution, fold/unfold "
           f"properties at depth 3 in {elapsed:.2f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_acceptance_7_typechecker_conformance():
    t0 = time.monotonic()
    failures = []

    # every shipped example checks at its stated interface
    for name in ("flip.sill", "example51.sill", "upshift.sill", "choice.sill"):
        try:
            check_program(parse_program((FIXTURES / name).read_text()))
        except TypeCheckError as exc:
            failures.append(f"{name}: {exc}")

    # the introduction's flip typing judgment, stated directly
    tables = corpus_tables()
    flip_body = parse_process(
        "case b { 0 => f.1; f <- F <- b | 1 => f.0; f <- F <- b }",
        types=tables["types"])
    try:
        check_process(
            {"F": A.ProcType("f", BITS, (("b", BITS),))},
            {"b": A.unfold_rec(BITS)}, flip_body, "f", A.unfold_rec(BITS),
        )
    except TypeCheckError as exc:
        failures.append(f"flip body: {exc}")

    # ten deliberately ill-typed programs, each rejected with the right rule
    manifest = json.loads((FIXTURES / "ill" / "manifest.json").read_text())
    if len(manifest) < 10:
        failures.append("battery smaller than 10")
    for fname, rule in manifest.items():
        src = (FIXTURES / "ill" / fname).read_text()
        try:
            check_program(parse_program(src))
            failures.append(f"{fname}: accepted")
        except TypeCheckError as exc:
            if exc.rule != rule:
                failures.append(f"{fname}: rule {exc.rule} != {rule}")

    elapsed = time.monotonic() - t0
    ok = not failures
    report(7, ok, f"worked examples accepted, {len(manifest)} ill-typed "
           f"programs rejected with named rules, in {elapsed:.2f}s"
           + (f"; failures: {failures}" if failures else ""))
