"""Judgment-level typechecking tests, including the shipped ill-typed battery."""

import json
from pathlib import Path

import pytest

from sill import ast as A
from sill import typecheck as T
from sill.ast import NEG, POS
from sill.parser import (SillSyntaxError, parse_ftype, parse_process,
                         parse_program, parse_term, parse_type)
from sill.typecheck import (TypeCheckError, check_process, check_program,
                            check_term, infer_term, polarity_of,
                            subst_type_checked)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sill" / "fixtures"

BITS = parse_type("rho b. +{0: b, 1: b}")


def tparse(src):
    return parse_type(src, types={"bits": BITS})


# ---------------------------------------------------------------------------
# Session type formation


def test_unit_is_positive():
    assert polarity_of(A.Unit()) == POS


def test_bits_is_positive():
    assert polarity_of(BITS) == POS


def test_shift_polarity():
    assert polarity_of(tparse("down up 1")) == POS
    assert polarity_of(tparse("up 1")) == NEG


def test_choice_polarities():
    assert polarity_of(tparse("+{j: 1, k: bits}")) == POS
    assert polarity_of(tparse("&{j: up 1, k: up 1}")) == NEG


def test_value_type_polarities():
    assert polarity_of(tparse(r"{d : 1} /\ 1")) == POS
    assert polarity_of(tparse("{d : 1} => up 1")) == NEG


def test_down_of_positive_rejected():
    with pytest.raises(TypeCheckError) as err:
        polarity_of(tparse("down 1"))
    assert err.value.rule == "Cdown"


def test_unbound_type_variable_rejected():
    with pytest.raises(TypeCheckError) as err:
        polarity_of(A.TVar("zz"))
    assert err.value.kind == "unbound"


def test_rec_polarity_mismatch_rejected():
    # an upshift under an internal choice cannot be polarized either way
    with pytest.raises(TypeCheckError) as err:
        polarity_of(A.Rec("t", A.plus({"j": A.Up(A.TVar("t"))})))
    assert err.value.rule == "Crho"
    # a recursive type need not mention its variable
    assert polarity_of(A.Rec("t", A.Up(A.Unit()))) == NEG


# ---------------------------------------------------------------------------
# Terms


def test_var_rule():
    tau = A.ProcType("d", A.Unit(), ())
    assert infer_term({"x": tau}, A.Var("x")) == tau


def test_flip_has_its_stated_type():
    prog = parse_program((FIXTURES / "flip.sill").read_text())
    decl = prog.terms()["flip"]
    check_term({}, decl.term, decl.ty)


def test_application_mismatch_rejected():
    quit_ty = A.ProcType("d", A.Unit(), ())
    lam = parse_term(r"\x : {d : 1}. x")
    arg = parse_term(r"\y : {d : 1}. y")
    with pytest.raises(TypeCheckError) as err:
        infer_term({}, A.App(lam, arg))
    assert err.value.rule in ("F-Fun", "F-App")
    # and a well-typed application synthesizes
    quit = A.Anno(parse_term("{d <- close d}"), quit_ty)
    assert A.ftypes_equal(infer_term({}, A.App(lam, quit)), quit_ty)


# ---------------------------------------------------------------------------
# Processes


def test_close_at_unit():
    check_process({}, {}, parse_process("close a"), "a", A.Unit())


def test_example_51_process_types():
    proc = parse_process("a <- recv b; wait a; wait b; close c")
    check_process({}, {"b": tparse("1 * 1")}, proc, "c", A.Unit())


def test_linearity_violation_reported_with_channel():
    proc = parse_process("wait a; wait a; close c")
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {"a": A.Unit()}, proc, "c", A.Unit())
    assert "'a'" in str(err.value)
    assert err.value.kind in ("unbound", "linear")


def test_all_fixture_programs_typecheck():
    for name in ("flip.sill", "example51.sill", "upshift.sill", "choice.sill"):
        prog = parse_program((FIXTURES / name).read_text())
        check_program(prog)


def test_a_spawned_term_is_checked_once_per_spawn(monkeypatch):
    # an unannotated cut infers its spawn's term for the cut type; the
    # spawn's own rule takes that type instead of inferring the term again
    prog = parse_program((FIXTURES / "flip.sill").read_text())
    flip2 = prog.procs()["flip2"]
    body = prog.terms()["flip"].term.body.proc
    judged = []
    check = T._check

    def counted(psi, delta, proc, c, ty):
        judged.append(proc)
        return check(psi, delta, proc, c, ty)

    monkeypatch.setattr(T, "_check", counted)
    table = T.derive(check_process, {}, dict(flip2.delta), flip2.proc, flip2.channel,
                     flip2.ty)
    assert sum(proc is body for proc in judged) == 2  # flip2 spawns flip twice
    assert table[id(body)][0] is body


def test_ill_typed_battery_rejected_with_named_rule():
    manifest = json.loads((FIXTURES / "ill" / "manifest.json").read_text())
    assert len(manifest) >= 10
    for fname, rule in manifest.items():
        src = (FIXTURES / "ill" / fname).read_text()
        with pytest.raises(TypeCheckError) as err:
            check_program(parse_program(src))
        assert err.value.rule == rule, f"{fname}: {err.value}"


def test_noncontractive_type_rejected_at_parse():
    with pytest.raises(SillSyntaxError) as err:
        parse_program("type t = rho a. a")
    assert "contractive" in str(err.value)


def test_weakening_of_functional_context():
    # adding unused functional hypotheses preserves typing
    quit_ty = A.ProcType("d", A.Unit(), ())
    proc = parse_process("dd <- {x}; wait dd; close c")
    psi = {"x": quit_ty}
    check_process(psi, {}, proc, "c", A.Unit())
    check_process({**psi, "y": A.Arrow(quit_ty, quit_ty)}, {}, proc, "c", A.Unit())


def test_substitution_preserves_typing():
    # sigma : . -> {x : tau} well-typed, so [sigma]P checks in the empty context
    quit_ty = A.ProcType("d", A.Unit(), ())
    quit = A.Anno(parse_term("{d <- close d}"), quit_ty)
    proc = parse_process("dd <- {x}; wait dd; close c")
    check_process({"x": quit_ty}, {}, proc, "c", A.Unit())
    substituted = A.subst_term({"x": quit}, proc)
    check_process({}, {}, substituted, "c", A.Unit())


def test_case_label_coverage_is_exact():
    plus = tparse("+{j: 1, k: 1}")
    missing = parse_process("case a { j => wait a; close c }")
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {"a": plus}, missing, "c", A.Unit())
    assert err.value.kind == "label"
    extra = parse_process(
        "case a { j => wait a; close c | k => wait a; close c | m => wait a; close c }"
    )
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {"a": plus}, extra, "c", A.Unit())
    assert err.value.kind == "label"


def test_cut_requires_annotation_or_synthesis():
    proc = A.Cut("z", A.Close("z"), A.Wait("z", A.Close("c")))
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {}, proc, "c", A.Unit())
    assert err.value.rule == "Cut"
    ok = A.Cut("z", A.Close("z"), A.Wait("z", A.Close("c")), A.Unit())
    check_process({}, {}, ok, "c", A.Unit())


def test_fwd_requires_equal_types():
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {"a": A.Unit()}, A.Fwd("b", "a"), "b", tparse("down up 1"))
    assert err.value.rule == "Fwd"
    check_process({}, {"a": BITS}, A.Fwd("b", "a"), "b",
                  parse_type("rho z. +{0: z, 1: z}"))


def test_checked_substitution_respects_polarity():
    body = A.plus({"0": A.TVar("b"), "1": A.TVar("b")})
    assert subst_type_checked({"b": BITS}, body, {"b": POS}) == A.unfold_rec(BITS)
    with pytest.raises(TypeCheckError) as err:
        subst_type_checked({"b": tparse("up 1")}, body, {"b": POS})
    assert err.value.kind == "polarity" and err.value.rule == "S-S-T"


def test_upshift_provider_rule():
    # awaiting a shift at the provided channel needs an upshift type
    proc = parse_process("recv a shift; close a")
    check_process({}, {}, proc, "a", tparse("up 1"))
    with pytest.raises(TypeCheckError) as err:
        check_process({}, {}, proc, "a", A.Unit())
    assert err.value.rule == "upR"


# ---------------------------------------------------------------------------
# Golden diagnostics: one ill-typed process per rejection in process typing,
# each pinned to the exact ``to_json`` of its error.  Every case is
# ``(used channels, process, provided channel, provided type, psi)``.

TYPING_GOLDEN = Path(__file__).resolve().parent / "typecheck_golden.json"

LOLLY = "1 -o up 1"
NEG_REC = "rho t. &{j: t}"
POS_REC = "rho b. +{0: b, 1: b}"
QUIT = "{d : 1}"
ENDO = "{d : 1} -> {d : 1}"

TYPING_CASES = {
    "check_process/provided-in-context": ({"c": "1"}, "close c", "c", "1", {}),
    "check_process/unconsumed": ({"a": "1"}, "close c", "c", "1", {}),
    "Fwd/not-ambient": ({"a": "1"}, "fwd b a", "c", "1", {}),
    "Fwd/unknown": ({}, "fwd c a", "c", "1", {}),
    "Fwd/types-differ": ({"a": "1"}, "fwd c a", "c", "down up 1", {}),
    "1R/not-provided": ({"a": "1"}, "wait a; close a", "c", "1", {}),
    "1R/non-unit": ({}, "close c", "c", "down up 1", {}),
    "1L/provided": ({}, "wait c; close c", "c", "1", {}),
    "1L/unknown": ({}, "wait a; close c", "c", "1", {}),
    "1L/non-unit": ({"a": "down up 1"}, "wait a; close c", "c", "1", {}),
    "downR/type": ({}, "send c shift; close c", "c", "1", {}),
    "upL/unknown": ({}, "send a shift; close c", "c", "1", {}),
    "upL/type": ({"a": "1"}, "send a shift; close c", "c", "1", {}),
    "upR/type": ({}, "recv c shift; close c", "c", "1", {}),
    "downL/unknown": ({}, "recv a shift; close c", "c", "1", {}),
    "downL/type": ({"a": "1"}, "recv a shift; close c", "c", "1", {}),
    "plusR/type": ({}, "c.j; close c", "c", "1", {}),
    "plusR/label": ({}, "c.m; close c", "c", "+{j: 1, k: 1}", {}),
    "withL/unknown": ({}, "a.j; close c", "c", "1", {}),
    "withL/type": ({"a": "1"}, "a.j; close c", "c", "1", {}),
    "withL/label": ({"a": "&{j: up 1}"}, "a.m; close c", "c", "1", {}),
    "withR/type": ({}, "case c { j => close c }", "c", "1", {}),
    "withR/labels": ({}, "case c { j => recv c shift; close c }", "c",
                     "&{j: up 1, k: up 1}", {}),
    "withR/join": ({"a": "1"},
                   "case c { j => recv c shift; wait a; close c"
                   " | k => recv c shift; close c }",
                   "c", "&{j: up 1, k: up 1}", {}),
    "plusL/unknown": ({}, "case a { j => close c }", "c", "1", {}),
    "plusL/type": ({"a": "1"}, "case a { j => close c }", "c", "1", {}),
    "plusL/labels": ({"a": "+{j: 1, k: 1}"},
                     "case a { j => wait a; close c | m => wait a; close c }",
                     "c", "1", {}),
    "plusL/join": ({"a": "+{j: 1, k: 1}", "b": "1"},
                   "case a { j => wait a; wait b; close c | k => wait a; close c }",
                   "c", "1", {}),
    "tensorR/unbound-sent": ({}, "send c b; close c", "c", "1 * 1", {}),
    "tensorR/type": ({"b": "1"}, "send c b; close c", "c", "1", {}),
    "tensorR/sent-type": ({"b": "down up 1"}, "send c b; close c", "c", "1 * 1", {}),
    "lollyL/unbound-sent": ({"a": LOLLY}, "send a b; close c", "c", "1", {}),
    "lollyL/unknown": ({"b": "1"}, "send a b; close c", "c", "1", {}),
    "lollyL/type": ({"a": "1", "b": "1"}, "send a b; close c", "c", "1", {}),
    "lollyL/sent-type": ({"a": LOLLY, "b": "down up 1"}, "send a b; close c",
                         "c", "1", {}),
    "tensorL/shadows-context": ({"a": "1 * 1", "b": "1"},
                                "b <- recv a; close c", "c", "1", {}),
    "tensorL/shadows-provided": ({"a": "1 * 1"}, "c <- recv a; close c",
                                 "c", "1", {}),
    "lollyR/type": ({}, "b <- recv c; wait b; close c", "c", "1", {}),
    "lollyR/unconsumed": ({}, "b <- recv c; recv c shift; close c", "c", LOLLY, {}),
    "lollyR/shadows-context": ({"b": "1"}, "b <- recv c; wait b; close c",
                               "c", LOLLY, {}),
    "tensorL/unknown": ({}, "b <- recv a; close c", "c", "1", {}),
    "tensorL/type": ({"a": "1"}, "b <- recv a; close c", "c", "1", {}),
    "tensorL/unconsumed": ({"a": "1 * 1"}, "b <- recv a; wait a; close c",
                           "c", "1", {}),
    "andR/type": ({}, "send c (x); close c", "c", "1", {"x": QUIT}),
    "andR/term": ({}, "send c (x); close c", "c", QUIT + r" /\ 1", {"x": ENDO}),
    "impL/unknown": ({}, "send a (x); close c", "c", "1", {"x": QUIT}),
    "impL/type": ({"a": "1"}, "send a (x); close c", "c", "1", {"x": QUIT}),
    "impL/term": ({"a": QUIT + " => up 1"}, "send a (x); close c", "c", "1",
                  {"x": ENDO}),
    "impR/type": ({}, "(x) <- recv c; close c", "c", "1", {}),
    "andL/unknown": ({}, "(x) <- recv a; close c", "c", "1", {}),
    "andL/type": ({"a": "1"}, "(x) <- recv a; close c", "c", "1", {}),
    "rho+R/type": ({}, "send c unfold; close c", "c", "1", {}),
    "rho+R/polarity": ({}, "send c unfold; close c", "c", NEG_REC, {}),
    "rho-L/unknown": ({}, "send a unfold; close c", "c", "1", {}),
    "rho-L/type": ({"a": "1"}, "send a unfold; close c", "c", "1", {}),
    "rho-L/polarity": ({"a": POS_REC}, "send a unfold; close c", "c", "1", {}),
    "rho-R/type": ({}, "recv c unfold; close c", "c", "1", {}),
    "rho-R/polarity": ({}, "recv c unfold; close c", "c", POS_REC, {}),
    "rho+L/unknown": ({}, "recv a unfold; close c", "c", "1", {}),
    "rho+L/type": ({"a": "1"}, "recv a unfold; close c", "c", "1", {}),
    "rho+L/polarity": ({"a": NEG_REC}, "recv a unfold; close c", "c", "1", {}),
    "E-{}/not-ambient": ({}, "d <- x", "c", "1", {"x": QUIT}),
    "E-{}/not-a-process": ({}, "c <- x", "c", "1", {"x": ENDO}),
    "E-{}/arity": ({"a": "1"}, "c <- x <- a", "c", "1", {"x": QUIT}),
    "E-{}/provided-type": ({}, "c <- x", "c", "1", {"x": "{d : down up 1}"}),
    "E-{}/unbound": ({}, "c <- x <- a", "c", "1", {"x": "{d : 1 <- e : 1}"}),
    "E-{}/linear": ({"a": "1"}, "c <- x <- a, a", "c", "1",
                    {"x": "{d : 1 <- e : 1, f : 1}"}),
    "E-{}/channel-type": ({"a": "down up 1"}, "c <- x <- a", "c", "1",
                          {"x": "{d : 1 <- e : 1}"}),
    "Cut/shadows-context": ({"a": "1"}, "a : 1 <- (close a); wait a; close c",
                            "c", "1", {}),
    "Cut/shadows-provided": ({}, "c : 1 <- (close c); wait c; close c", "c", "1", {}),
    "Cut/annotation": ({}, "a <- x; wait a; close c", "c", "1", {"x": ENDO}),
    "Cut/unconsumed": ({}, "a : 1 <- (close a); close c", "c", "1", {}),
    # the left operand retypes a and leaves it: the right may not use it too
    "Cut/shared": ({"a": "up 1"},
                   "x : 1 <- (send a shift; close x); wait x; wait a; close c",
                   "c", "1", {}),
    "check_process/not-a-process": ({}, None, "c", "1", {}),
    # a spawned declared proc is inlined; its error keeps the callee's span
    "1L/spawned-proc": ({"b": POS_REC}, "x <- p <- b; wait x; close c", "c", "1", {}),
}

# the declared procs the cases may spawn
SPAWNABLE = parse_program("proc p : (e : 1 |- d : 1) = wait e; close d").procs()


def typing_diagnostic(case):
    delta, src, chan, ty, psi = case
    # no process parses to a term, so the last rejection needs an AST
    proc = A.Var("x") if src is None else parse_process(src, procs=SPAWNABLE)
    with pytest.raises(TypeCheckError) as err:
        check_process({x: parse_ftype(t) for x, t in psi.items()},
                      {a: tparse(t) for a, t in delta.items()},
                      proc, chan, tparse(ty))
    return err.value.to_json()


def test_typing_diagnostics_match_golden():
    golden = json.loads(TYPING_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(TYPING_CASES)
    for name, case in TYPING_CASES.items():
        assert typing_diagnostic(case) == golden[name], name


@pytest.mark.parametrize("check", [
    lambda: T.polarity_of(5),
    lambda: T.check_ftype(5),
    lambda: T.infer_term({}, 5),
    lambda: T.check_term({}, 5, A.ProcType("d", A.Unit(), ())),
    lambda: T.check_process({}, {}, 5, "c", A.Unit()),
    lambda: T.check_process({}, {"c": A.Unit()}, 5, "c", A.Unit()),
], ids=["polarity_of", "check_ftype", "infer_term", "check_term", "check_process",
        "check_process_provided_in_context"])
def test_a_non_node_is_a_type_error_without_rule_or_span(check):
    with pytest.raises(TypeCheckError, match="^not a .*: 5$") as err:
        check()
    assert err.value.rule == "" and err.value.span is None
