"""The equivalence harness: verdicts, counterexamples, and the law suites."""

import pytest

from sill import ast as A
from sill import domain as D
from sill import semantics as S
from sill.equiv import check_equiv, term_equiv
from sill.laws import (conway_identity_suite, corpus_processes, corpus_tables,
                       law_suite, trace_axiom_suite, trace_oracle_suite)
from sill.parser import parse_process, parse_program, parse_term, parse_type

BITS = parse_type("rho b. +{0: b, 1: b}")


def tbl():
    return corpus_tables()


def proc(src):
    return parse_process(src, types=tbl()["types"], terms=tbl()["terms"])


def test_reflexivity_on_corpus():
    for cp in corpus_processes():
        delta, c, cty = cp.as_args()
        verdict = check_equiv(cp.proc, cp.proc, delta, c, cty, depth=3)
        assert verdict.equivalent, cp.name


def test_outputs_differing_only_in_functional_values_are_approximate():
    # quoted processes compare by identity, and each side quotes its own
    prog = parse_program("""
        term quit : {d : 1} = {d <- close d}
        proc p : (|- c : {d : 1} /\\ 1) = send c (quit); close c
    """)
    p = prog.procs()["p"]
    verdict = check_equiv(p.proc, p.proc, {}, "c", p.ty)
    assert verdict.kind == "approximate"
    assert verdict.reason == "the outputs differ only in functional values"
    assert verdict.describe() == (
        "approximate: the outputs differ only in functional values, on c- = _: "
        "left gives c+ = up((<proc>, *)); right gives c+ = up((<proc>, *))")


def test_flip_twice_is_forwarding():
    left = proc("t <- flip <- a; b <- flip <- t")
    right = proc("fwd b a")
    verdict = check_equiv(left, right, {"a": BITS}, "b", BITS, depth=5)
    assert verdict.equivalent
    assert verdict.inputs_checked == 2 ** 6 - 1


def test_flip_differs_from_forwarding_at_depth_one():
    left = proc("f <- flip <- b")
    right = proc("fwd f b")
    verdict = check_equiv(left, right, {"b": BITS}, "f", BITS, depth=1)
    assert verdict.kind == "distinguished"
    assert verdict.witness == {"b+": "0·_", "f-": "_"}
    assert verdict.left_out["f+"] == "1·_"
    assert verdict.right_out["f+"] == "0·_"


def test_distinguished_witness_replays():
    left = proc("f <- flip <- b")
    right = proc("fwd f b")
    verdict = check_equiv(left, right, {"b": BITS}, "f", BITS, depth=2)
    assert verdict.kind == "distinguished"
    cfg = S.EvalConfig(depth=2)
    dl = S.denote_process(left, {"b": BITS}, "f", BITS, cfg=cfg)
    dr = S.denote_process(right, {"b": BITS}, "f", BITS, cfg=cfg)
    row = S.Row(D.parse_row(D.join_row(verdict.witness), dl.inputs))
    assert S.row_truncate(dl(row), 2) != S.row_truncate(dr(row), 2)


def test_harness_is_symmetric():
    pairs = [
        ("f <- flip <- b", "fwd f b", {"b": BITS}, "f", BITS),
        ("close c", "zz : 1 <- (close zz); wait zz; close c", {}, "c", A.Unit()),
    ]
    for lsrc, rsrc, delta, c, cty in pairs:
        v1 = check_equiv(proc(lsrc), proc(rsrc), delta, c, cty, depth=2)
        v2 = check_equiv(proc(rsrc), proc(lsrc), delta, c, cty, depth=2)
        assert v1.kind == v2.kind


def test_depth_monotonicity_on_equivalent_pairs():
    left = proc("t <- flip <- a; b <- flip <- t")
    right = proc("fwd b a")
    for d in (1, 2, 3, 4):
        assert check_equiv(left, right, {"a": BITS}, "b", BITS, depth=d).equivalent


def test_ill_typed_inputs_are_rejected_before_comparison():
    from sill.typecheck import TypeCheckError

    with pytest.raises(TypeCheckError):
        check_equiv(proc("close c"), proc("wait a; close c"), {}, "c", A.Unit())


def test_value_transmission_negative_direction():
    quit_ty = A.ProcType("d", A.Unit(), ())
    diverge = A.Anno(A.Fix("x", A.Var("x")), quit_ty)
    q = parse_process("wait a; close c")
    left = A.Cut("a", A.Close("a"), q, A.Unit())
    right = A.Cut("a", A.SendVal("a", diverge, A.Close("a")),
                  A.RecvVal("x", "a", q), A.AndVal(quit_ty, A.Unit()))
    verdict = check_equiv(left, right, {}, "c", A.Unit(), depth=3)
    assert verdict.kind == "distinguished"
    assert verdict.left_out["c+"] == "*"
    assert verdict.right_out["c+"] == "_"


def test_term_equiv_on_quoted_processes():
    flip = tbl()["terms"]["flip"]
    assert isinstance(flip, A.Anno)
    verdict = term_equiv(flip, flip.term, flip.ty, depth=3)
    assert verdict.equivalent
    zeros = tbl()["terms"]["zeros"]
    ones = tbl()["terms"]["ones"]
    verdict = term_equiv(zeros, ones, zeros.ty, depth=2)
    assert verdict.kind == "distinguished"


def test_term_equiv_of_two_fixes_at_an_arrow_type_is_approximate():
    # functions compare by identity only, so two of them are never told apart
    ty = A.Arrow(A.ProcType("d", A.Unit(), ()), A.ProcType("a", BITS, ()))
    left, right = (parse_term(
        rf"fix f. \x : {{d : 1}}. {{a <- send a unfold; a.{b}; a <- {{f x}}}}",
        types=tbl()["types"]) for b in "01")
    verdict = term_equiv(left, right, ty, depth=2)
    assert verdict.kind == "approximate"
    assert verdict.reason == "functional values are not comparable at this type"


def test_law_suite_passes_and_counts():
    report = law_suite(depth=3)
    assert report.ok, [str(f.verdict.describe()) for f in report.failures()]
    by_law = report.by_law()
    for law, items in by_law.items():
        if law == "value-eta-negative":
            continue
        assert len(items) >= 10, law
    assert any(i.verdict.kind == "distinguished"
               for i in by_law["value-eta-negative"])


def test_trace_axiom_suite_small():
    report = trace_axiom_suite(seed=1, rounds=25)
    assert report.ok, report.failures[:3]


def test_conway_suite_small():
    report = conway_identity_suite(seed=1, rounds=25)
    assert report.ok, report.failures[:3]


def test_trace_oracle_suite_small():
    report = trace_oracle_suite(seed=1, rounds=60)
    assert report.ok, report.failures[:3]


def test_not_enumerable_interface_raises():
    # the used channel transmits arrow-typed values, which cannot be
    # enumerated
    arrow = A.Arrow(A.ProcType("d", A.Unit(), ()), A.ProcType("d", A.Unit(), ()))
    aty = A.AndVal(arrow, A.Unit())
    left = A.RecvVal("x", "a", A.Wait("a", A.Close("c")))
    right = A.RecvVal("y", "a", A.Wait("a", A.Close("c")))
    with pytest.raises(D.NotEnumerable):
        check_equiv(left, right, {"a": aty}, "c", A.Unit(), depth=2)


def test_law_suite_accepts_a_custom_corpus():
    from sill.laws import CorpusProc

    custom = [CorpusProc("only", parse_process("close c"), (), "c", A.Unit())]
    report = law_suite(depth=2, corpus=custom)
    by_law = report.by_law()
    assert len(by_law["unit-eta"]) == 1
    assert len(by_law["quote-eta"]) == 1
    assert report.ok


def test_depth_monotonicity_over_law_instances():
    # pairs equivalent at depth 3 stay equivalent at depth 2; both depths
    # cover every private protocol in the law corpus
    report = law_suite(depth=3)
    assert report.ok
    shallow = law_suite(depth=2)
    for inst in shallow.instances:
        if inst.expected == "equivalent":
            assert inst.verdict.equivalent, (inst.law, inst.name)


def test_depth_below_the_private_protocol_keeps_the_feedback_whole():
    # the private channel carries height-2 messages, deeper than an
    # observation depth of 1; its type has no rho, so the feedback chain is
    # not truncated and the choice-eta law holds at depth 1 too
    at = parse_type("down up 1")
    branch_types = {"j": parse_type("1"), "k": at}
    P = proc("send a shift; recv a shift; close a")
    Qj = proc("wait a; close c")
    Qk = proc("recv a shift; send a shift; wait a; close c")
    left = A.Cut("a", P, Qk, at)
    right = A.Cut("a", A.SendLabel("a", "k", P),
                  A.case("a", {"j": Qj, "k": Qk}), A.plus(branch_types))
    assert check_equiv(left, right, {}, "c", A.Unit(), depth=2).equivalent
    assert check_equiv(left, right, {}, "c", A.Unit(), depth=1).equivalent


def test_private_protocol_deeper_than_the_depth_still_tells_labels_apart():
    # the private channel carries four messages; at depth 1 the label sent
    # on c after it is closed must still be observed
    prog = parse_program("""
        type t = +{x: +{y: +{z: 1}}}
        type o = +{a: 1, b: 1}
        proc pa : (|- c : o) = w : t <- (w.x; w.y; w.z; close w);
          case w { x => case w { y => case w { z => wait w; c.a; close c } } }
        proc pb : (|- c : o) = w : t <- (w.x; w.y; w.z; close w);
          case w { x => case w { y => case w { z => wait w; c.b; close c } } }
    """)
    pa, pb = prog.procs()["pa"], prog.procs()["pb"]
    for depth in (1, 2):
        verdict = check_equiv(pa.proc, pb.proc, {}, "c", pa.ty, depth=depth)
        assert verdict.kind == "distinguished", depth


def test_free_variables_tried_only_at_bottom_are_approximate():
    # both sides wait on a spawn of x, so at x = bottom neither outputs; at
    # x = a quit process they send different labels
    psi = {"x": A.ProcType("d", A.Unit(), ())}
    choice = parse_type("+{j: 1, k: 1}")
    left = proc("dd <- {x}; wait dd; c.j; close c")
    right = proc("dd <- {x}; wait dd; c.k; close c")
    verdict = check_equiv(left, right, {}, "c", choice, psi=psi, depth=2)
    assert verdict.kind == "approximate"
    assert "['x']" in verdict.reason
    ty = A.ProcType("c", choice, ())
    verdict = term_equiv(A.Quote("c", left, ()), A.Quote("c", right, ()), ty,
                         psi=psi, depth=2)
    assert verdict.kind == "approximate"
    # a variable the phrases do not mention leaves the verdict exact
    closed = proc("c.j; close c")
    assert check_equiv(closed, closed, {}, "c", choice, psi=psi, depth=2).equivalent
