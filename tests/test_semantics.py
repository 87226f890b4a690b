"""Denotation clauses, strictness, monotonicity, and trace properties."""

import collections
import functools
import gc
import itertools
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from sill import ast as A
from sill import domain as D
from sill import semantics as S
from sill import typecheck as T
from sill.ast import NEG, POS
from sill.cli import main
from sill.equiv import check_equiv, input_grid
from sill.laws import (conway_identity_suite, corpus_processes, corpus_tables,
                       law_suite, random_monotone_den, trace_axiom_suite)
from sill.parser import parse_process, parse_program, parse_term, parse_type

BITS = parse_type("rho b. +{0: b, 1: b}")
FLIP_SILL = Path(__file__).resolve().parent.parent / "src" / "sill" / "fixtures" / "flip.sill"


def tbl():
    return corpus_tables()


def den_of(src, delta, c, cty, depth=4, psi=None, env=None, cfg=None):
    proc = parse_process(src, types=tbl()["types"], terms=tbl()["terms"])
    delta = {d: parse_type(t, types=tbl()["types"]) if isinstance(t, str) else t
             for d, t in delta.items()}
    cty = parse_type(cty, types=tbl()["types"]) if isinstance(cty, str) else cty
    cfg = cfg or S.EvalConfig(depth=depth)
    return S.denote_process(proc, delta, c, cty, psi=psi, env=env, cfg=cfg), cfg


def val(text, ty, pol):
    ty = parse_type(ty, types=tbl()["types"]) if isinstance(ty, str) else ty
    return D.parse_value(text, ty, pol)


# ---------------------------------------------------------------------------
# Clause behaviour on the worked examples


def test_forward_copies_both_ways():
    den, _ = den_of("fwd b a", {"a": "bits"}, "b", "bits", depth=4)
    x = val("0·1·_", "bits", POS)
    out = den(S.Row({"a+": x, "b-": D.BOT}))
    assert out["b+"] == x and out["a-"] == D.BOT


def test_close_sends_star_unconditionally():
    den, _ = den_of("close a", {}, "a", "1")
    assert den(S.Row({"a-": D.BOT}))["a+"] == D.STAR


def test_channel_receive_example_five_cases():
    den, _ = den_of("a <- recv b; wait a; wait b; close c",
                    {"b": "1 * 1"}, "c", "1")
    cases = {
        "up((*, *))": D.STAR,
        "up((*, _))": D.BOT,
        "up((_, *))": D.BOT,
        "up((_, _))": D.BOT,
        "_": D.BOT,
    }
    for text, expected in cases.items():
        out = den(S.Row({"b+": val(text, "1 * 1", POS), "c-": D.BOT}))
        assert out["c+"] == expected
        assert out["b-"] == D.BOT  # prints as the pair of bottoms


def test_upshift_example_two_cases():
    den, _ = den_of("recv a shift; close a", {}, "a", "up 1")
    assert den(S.Row({"a-": D.BOT}))["a+"] == D.BOT
    assert den(S.Row({"a-": D.Lift(D.BOT)}))["a+"] == D.STAR


def test_external_choice_example_four_cases():
    amp = "&{j: up 1, k: up 1}"
    den, _ = den_of(
        "case a { j => recv a shift; close a | k => recv a shift; close a }",
        {}, "a", amp)
    table = {
        "j·up(_)": D.record({"j": D.STAR, "k": D.BOT}),
        "k·up(_)": D.record({"j": D.BOT, "k": D.STAR}),
        "j·_": D.BOT,
        "k·_": D.BOT,
        "_": D.BOT,
    }
    for text, expected in table.items():
        out = den(S.Row({"a-": val(text, amp, NEG)}))
        assert out["a+"] == expected


def test_label_send_is_asynchronous():
    # the label goes out even when the client is silent
    den, _ = den_of("a.j; close a", {}, "a", "+{j: 1, k: 1}")
    out = den(S.Row({"a-": D.BOT}))
    assert out["a+"] == D.tag("j", D.STAR)


def test_value_send_with_diverging_term_is_bottom():
    quit_ty = A.ProcType("d", A.Unit(), ())
    diverge = A.Anno(A.Fix("x", A.Var("x")), quit_ty)
    proc = A.SendVal("a", diverge, A.Close("a"))
    cty = A.AndVal(quit_ty, A.Unit())
    den = S.denote_process(proc, {}, "a", cty)
    assert den(S.Row({"a-": D.BOT}))["a+"] == D.BOT


def test_value_send_pairs_value_with_continuation():
    quit_ty = A.ProcType("d", A.Unit(), ())
    quit = tbl()["terms"]["quit"]
    proc = A.SendVal("a", quit, A.Close("a"))
    cty = A.AndVal(quit_ty, A.Unit())
    den = S.denote_process(proc, {}, "a", cty)
    out = den(S.Row({"a-": D.BOT}))["a+"]
    assert isinstance(out, D.Lift) and isinstance(out.inner, D.ValPair)
    assert isinstance(out.inner.val, D.QProc)
    assert out.inner.rest == D.STAR


# ---------------------------------------------------------------------------
# The strictness contract for receiving clauses


RECEIVING = [
    ("wait a; close c", {"a": "1"}, "c", "1", "a+"),
    ("recv a shift; send a shift; wait a; close c", {"a": "down up 1"}, "c", "1", "a+"),
    ("recv a shift; close a", {}, "a", "up 1", "a-"),
    ("case a { j => wait a; close c | k => wait a; close c }",
     {"a": "+{j: 1, k: 1}"}, "c", "1", "a+"),
    ("case a { j => close a | k => close a }", {}, "a", "&{j: 1, k: 1}", "a-"),
    ("b <- recv a; wait b; wait a; close c", {"a": "1 * 1"}, "c", "1", "a+"),
    ("b <- recv a; wait b; close a", {}, "a", "1 -o 1", "a-"),
    ("(x) <- recv a; wait a; close c",
     {"a": A.AndVal(A.ProcType("d", A.Unit(), ()), A.Unit())}, "c", "1", "a+"),
    ("(x) <- recv a; close a",
     {}, "a", A.ImpVal(A.ProcType("d", A.Unit(), ()), A.Unit()), "a-"),
]


def test_receiving_clauses_are_strict():
    for src, delta, c, cty, key in RECEIVING:
        den, _ = den_of(src, delta, c, cty)
        keys = set(den.inputs)
        others = sorted(keys - {key})
        pools = [
            D.enumerate_values(den.inputs[k][0], den.inputs[k][1], 2)
            for k in others
        ]
        for combo in itertools.product(*pools):
            row = dict(zip(others, combo))
            row[key] = D.BOT
            out = den(S.Row(row))
            assert all(v == D.BOT for v in out.values()), (src, row, dict(out))


def test_case_with_external_choice_is_case_on_amp():
    # the &R clause above actually has branch type 1, check the full one too
    den, _ = den_of(
        "case a { j => recv a shift; close a | k => recv a shift; close a }",
        {}, "a", "&{j: up 1, k: up 1}")
    out = den(S.Row({"a-": D.BOT}))
    assert out["a+"] == D.BOT


# ---------------------------------------------------------------------------
# Monotonicity


def test_corpus_denotations_are_monotone():
    for cp in corpus_processes():
        delta, c, cty = cp.as_args()
        den = S.denote_process(cp.proc, delta, c, cty,
                                   cfg=S.EvalConfig(depth=3))
        grid = sorted_rows(den.inputs, 3)
        if len(grid) > 40:
            grid = grid[:40]
        for r1, r2 in itertools.product(grid, repeat=2):
            if S.row_leq(r1, r2):
                assert S.row_leq(den(r1), den(r2)), (cp.name, dict(r1), dict(r2))


def sorted_rows(aspects, depth):
    keys = sorted(aspects)
    pools = [D.enumerate_values(aspects[k][0], aspects[k][1], depth) for k in keys]
    return [S.Row(dict(zip(keys, combo))) for combo in itertools.product(*pools)]


# ---------------------------------------------------------------------------
# The recursive flip process


def flip_den(depth):
    anno = tbl()["terms"]["flip"]
    cfg = S.EvalConfig(depth=depth)
    value = S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)
    assert isinstance(value, D.QProc)
    return spawn(value, anno.ty, "f", "b", cfg), cfg


def spawn(value, ty, provided, used, cfg):
    """The denotation of ``provided <- value <- used`` at bits."""
    proc = A.Unquote(provided, A.Var("v"), (used,))
    return S.denote_process(proc, {used: BITS}, provided, BITS, {"v": ty},
                            S.Env({"v": value}), cfg)


def test_flip_satisfies_its_recurrence():
    den, _ = flip_den(6)

    def f(v):
        return den(S.Row({"b+": v, "f-": D.BOT}))["f+"]

    assert f(D.BOT) == D.BOT
    for text in ["_", "0·_", "1·_", "0·1·_", "1·1·0·_"]:
        v = val(text, "bits", POS)
        flipped = {"0": "1", "1": "0"}
        for bit in ("0", "1"):
            arg = D.fold(D.tag(bit, v))
            expect = D.fold(D.tag(flipped[bit], f(v)))
            assert D.truncate(f(arg), 6) == D.truncate(expect, 6)


def test_fix_iteration_diagnostics_and_quote_distinction():
    quit_ty = A.ProcType("d", A.Unit(), ())
    loop = A.Anno(A.Fix("x", A.Var("x")), quit_ty)
    cfg = S.EvalConfig(depth=2)
    v = S.denote_term(loop, quit_ty, {}, S.EMPTY_ENV, cfg)
    assert v == D.FBOT
    assert cfg.diag.fix_rounds and cfg.diag.fix_rounds[0] == 1


def whole_grid_fix(anno: A.Anno, depth: int) -> D.FuncValue:
    """The reference for the demand-driven ``fix``: Kleene iteration from
    bottom that stops when two iterates agree on every row of the interface
    grid, truncated at ``depth``."""
    fix, ty = anno.term, anno.ty
    cfg = S.EvalConfig(depth=depth)
    if not isinstance(fix, A.Fix):
        return S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)
    v = D.FBOT
    for _ in range(max(2 * depth + 8, 32)):
        w = S.denote_term(fix.body, ty, {fix.var: ty},
                          S.EMPTY_ENV.updated(fix.var, v), cfg)
        if v == w or (isinstance(v, D.QProc) and all(
                S.row_truncate(v.den(r), depth) == S.row_truncate(w.den(r), depth)
                for r in S.row_grid(w.den.inputs, depth))):
            return w
        v = w
    raise AssertionError(f"{anno} did not converge at depth {depth}")


def fix_rows_agree(name: str, depth: int) -> int:
    """Check every grid row of the demand-driven ``fix`` against the
    whole-grid iteration, untruncated; return the number of rows."""
    anno = tbl()["terms"][name]
    ref = whole_grid_fix(anno, depth)
    cfg = S.EvalConfig(depth=depth)
    got = S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)
    rows = list(S.row_grid(ref.den.inputs, depth))
    for row in rows:
        assert got.den(row) == ref.den(row), (name, depth, row)
    assert not cfg.diag.nonconverged
    return len(rows)


def test_demand_driven_fix_agrees_with_whole_grid_iteration():
    names = ("flip", "zeros", "ones", "alt", "drain", "relay", "quit")
    assert sum(fix_rows_agree(n, d) for n in names for d in range(1, 7)) == 762
    assert fix_rows_agree("flip", 8) == 511


def test_fix_over_a_function_carrying_interface_converges():
    # the interface carries functions, so it has no grid to iterate on
    prog = parse_program("""
        type fsink = rho t. ({d : 1} -> {d : 1}) => t
        term eat : {a : fsink} = fix F. {a <- recv a unfold; (x) <- recv a; a <- F}
    """)
    eat = prog.terms()["eat"]
    cfg = S.EvalConfig(depth=3)
    value = S.denote_term(eat.term, eat.ty, cfg=cfg)
    assert value.den(S.Row({"$p": D.BOT}))["$p"] == D.BOT
    assert cfg.diag.fix_rounds == [2, 1]
    assert not cfg.diag.nonconverged


def flip_procs():
    return parse_program(FLIP_SILL.read_text(encoding="utf-8")).procs()


def config_outlives(query, depth: int) -> bool:
    """Whether the config ``query`` fills is still alive once the query's
    results are dropped, with the cyclic collector off."""
    gc.disable()
    try:
        cfg = S.EvalConfig(depth=depth)
        held = query(cfg)
        config = weakref.ref(cfg)
        del cfg, held
        return config() is not None
    finally:
        gc.enable()


def test_fix_site_does_not_outlive_its_query():
    # A fix site holds its config.  Nothing a query leaves behind may hold the
    # site in a reference cycle, or the config, its compiled code and its
    # memo tables would wait for the cyclic collector.  The table of shared
    # sites holds them weakly, under keys that hold no node or value.
    procs = flip_procs()

    def flip1(cfg):
        p = procs["flip1"]
        den = S.denote_process(p.proc, dict(p.delta), p.channel, p.ty, {}, S.EMPTY_ENV, cfg)
        out = den(S.Row({"b+": val("0·1·1·_", BITS, POS), "f-": D.BOT}))
        assert cfg.diag.fix_rounds == [2, 2]
        assert out["f+"] == val("1·0·0·_", BITS, POS)
        return den

    def flip2_fwdp(cfg):
        dens = [S.denote_process(p.proc, dict(p.delta), p.channel, p.ty, {},
                                 S.EMPTY_ENV, cfg) for p in (procs["flip2"], procs["fwdp"])]
        grid = input_grid(dict(procs["fwdp"].delta), "b", BITS, cfg.depth)
        assert S.first_difference(*dens, grid, cfg.depth) is None
        assert len(cfg.fixes) == 1  # both flips are one site
        return dens

    nested = parse_term("fix F. {a <- send a unfold; a.0; a <- {(fix G. F : {a : bits})}}",
                        types=tbl()["types"])

    def nested_fix(cfg):
        value = S.denote_term(nested, A.ProcType("a", BITS, ()), cfg=cfg)
        assert value.den(S.Row({"$p": D.BOT}))["$p"] == val("0·0·0·0·0·0·0·_", BITS, POS)
        return value

    assert not config_outlives(flip1, 8)
    assert not config_outlives(flip2_fwdp, 6)
    assert not config_outlives(nested_fix, 6)


def test_both_flips_of_flip2_share_their_row_solves(capsys):
    # both spawns of `flip` name the one fixed point, so a row the first
    # solved is not solved again for the second
    assert main(["eval", str(FLIP_SILL), "--proc", "flip2",
                 "--in", "a+ = 0·1·1·_", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["output"] == {"a-": "_", "b+": "0·1·1·_"}
    assert out["diagnostics"] == {"fix_rounds": [2, 2], "nonconverged": False,
                                  "trace_iterations": [2]}


def test_a_chain_of_rows_takes_two_sweeps(capsys):
    # flip1 demands one row per suffix of its input, and each reads the next.
    # Swept dependencies first, the chain is exact after one sweep, and a
    # second, which reads no row before it is swept, confirms it
    for bits in ("0110101", "010011010111000101101001110100"):
        assert main(["eval", str(FLIP_SILL), "--proc", "flip1", "--depth", "8",
                     "--in", f"b+ = {'·'.join(bits)}·_", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["output"]["f+"] == "·".join("10"[int(b)] for b in bits) + "·_"
        assert out["diagnostics"]["fix_rounds"] == [2]


def test_a_row_that_reads_only_solved_rows_takes_one_sweep():
    p = flip_procs()["flip1"]
    cfg = S.EvalConfig(depth=8)
    den = S.denote_process(p.proc, dict(p.delta), p.channel, p.ty, {}, S.EMPTY_ENV, cfg)
    rounds = []
    for bits, flipped in (("1·_", "0·_"), ("0·1·_", "1·0·_")):
        cfg.diag.reset()
        out = den(S.Row({"b+": val(bits, BITS, POS), "f-": D.BOT}))
        assert out["f+"] == val(flipped, BITS, POS)
        rounds.append(cfg.diag.fix_rounds[-1])
    # 1·_ reads no row; 0·1·_ reads only the row of 1·_, solved before
    assert rounds == [1, 1]


def test_a_row_on_a_cycle_sweeps_until_the_iterates_agree():
    for depth, rounds in ((4, [2, 5]), (8, [2, 9])):
        out, got = zeros_query(depth)
        assert got == rounds
        assert out == val("0·" * (depth + 1) + "_", BITS, POS)


def test_no_fixed_point_row_is_solved_twice_in_one_query(monkeypatch):
    procs = flip_procs()
    flip2, fwdp = procs["flip2"], procs["fwdp"]
    solves = []
    orig = S._denote_fix

    def denote_fix(site, row=None):
        # the site is kept, so that the ids of its node and values stay valid
        solves.append((site, row))
        return orig(site, row)

    monkeypatch.setattr(S, "_denote_fix", denote_fix)
    verdict = check_equiv(flip2.proc, fwdp.proc, dict(flip2.delta), flip2.channel,
                          flip2.ty, depth=6)
    assert verdict.kind == "equivalent"
    # a fixed point is its node with the values of its free variables
    solved = [(id(site.ctx[0]), tuple(id(v) for _, v in site.env.as_tuple()), row)
              for site, row in solves]
    assert len(solved) == len(set(solved)) == 1 + 75  # the value, then each row


FIX_OF_ARG = r"\g : {a : bits}. (fix F. {a <- send a unfold; a.0; a <- g} : {a : bits})"


def test_a_fix_is_not_shared_across_different_free_values():
    lam = parse_term(FIX_OF_ARG, types=tbl()["types"], terms=tbl()["terms"])
    row = S.Row({"$p": D.BOT})

    def applied(arg, cfg):
        term = A.App(lam, tbl()["terms"][arg])
        return S.denote_term(term, lam.ty, cfg=cfg)

    cfg = S.EvalConfig(depth=4)
    zeros, ones = applied("zeros", cfg), applied("ones", cfg)
    assert applied("zeros", cfg) is zeros  # the same argument: the same site
    assert cfg.diag.fix_rounds == [2, 2, 2, 2]  # zeros, F over zeros, ones, F over ones
    outs = [v.den(row)["$p"] for v in (zeros, ones)]
    assert outs == [val("0·0·0·0·0·0·_", BITS, POS), val("0·1·1·1·1·1·_", BITS, POS)]
    for arg, out in zip(("zeros", "ones"), outs):
        assert applied(arg, S.EvalConfig(depth=4)).den(row)["$p"] == out


def test_a_shared_inner_fix_lets_the_outer_solve_converge():
    # each unfolding sends the value of a closed inner fix.  Unshared, every
    # sweep built a new quoted process, so the sent values never agreed
    # and the solve ran out of fuel; shared, the sweeps send the same one
    prog = parse_program(r"""
        type vs = rho t. {d : 1} /\ t
        term src : {a : vs} =
          fix F. {a <- send a unfold; send a ((fix G. {d <- close d} : {d : 1})); a <- F}
    """)
    src = prog.terms()["src"]
    cfg = S.EvalConfig(depth=3)
    value = S.denote_term(src.term, src.ty, cfg=cfg)
    out = value.den(S.Row({"$p": D.BOT}))["$p"]
    assert cfg.diag.fix_rounds == [2, 2, 2, 4]  # G, F, G again in the row solve, F's row
    assert not cfg.diag.nonconverged
    sent = []
    while out != D.BOT:
        sent.append(out.inner.val)
        out = out.inner.rest
    assert len(sent) == 4 and len(set(map(id, sent))) == 1


def test_quoted_stuck_process_is_not_bottom():
    # {d <- spawn of a diverging value} denotes up(constant bottom)
    quit_ty = A.ProcType("d", A.Unit(), ())
    loop = A.Anno(A.Fix("x", A.Var("x")), quit_ty)
    stuck_proc = A.Unquote("d", loop, ())
    quote = A.Quote("d", stuck_proc, ())
    cfg = S.EvalConfig(depth=2)
    v = S.denote_term(quote, quit_ty, {}, S.EMPTY_ENV, cfg)
    assert isinstance(v, D.QProc)
    assert v != D.FBOT
    assert v.den(S.Row({"$p": D.BOT}))["$p"] == D.BOT


def test_lambda_application_is_strict():
    quit_ty = A.ProcType("d", A.Unit(), ())
    ident = parse_term(r"\x : {d : 1}. x")
    diverge = A.Anno(A.Fix("x", A.Var("x")), quit_ty)
    applied = A.App(ident, diverge)
    cfg = S.EvalConfig(depth=2)
    assert S.denote_term(applied, quit_ty, {}, S.EMPTY_ENV, cfg) == D.FBOT
    quit = tbl()["terms"]["quit"]
    out = S.denote_term(A.App(ident, quit), quit_ty, {}, S.EMPTY_ENV, cfg)
    assert isinstance(out, D.QProc)


def test_variable_denotes_projection():
    quit_ty = A.ProcType("d", A.Unit(), ())
    v = D.QPROC_BOT
    env = S.Env({"x": v})
    assert S.denote_term(A.Var("x"), quit_ty, {"x": quit_ty}, env,
                         S.EvalConfig()) == v


# ---------------------------------------------------------------------------
# Staging: the static pass runs once per node, never per unrolling


def count_static_passes(monkeypatch) -> dict:
    calls = {"n": 0}
    for name in ("_compile_process", "_compile_term"):
        orig = getattr(S, name)

        def counted(*args, orig=orig):
            calls["n"] += 1
            return orig(*args)

        monkeypatch.setattr(S, name, counted)
    return calls


def zeros_query(depth: int) -> tuple[D.CommValue, list[int]]:
    """The stream ``zeros`` sends at ``depth``, and the sweeps its value and
    its one row took: the row reads itself, so it sweeps until the iterates
    agree at the working depth."""
    cfg = S.EvalConfig(depth=depth)
    value = S.denote_term(tbl()["terms"]["zeros"], None, {}, S.EMPTY_ENV, cfg)
    return value.den(S.Row({"$p": D.BOT}))["$p"], cfg.diag.fix_rounds


def test_static_pass_does_not_grow_with_the_fix_rounds(monkeypatch):
    calls = count_static_passes(monkeypatch)
    seen = []
    for depth in (4, 8):
        calls["n"] = 0
        _, rounds = zeros_query(depth)
        seen.append((calls["n"], rounds))
    (short, short_rounds), (long, long_rounds) = seen
    assert short_rounds == [2, 5] and long_rounds == [2, 9]
    assert short == long > 0


def test_configs_do_not_share_compiled_code(monkeypatch):
    calls = count_static_passes(monkeypatch)
    anno = tbl()["terms"]["flip"]
    cfgs = [S.EvalConfig(depth=3), S.EvalConfig(depth=3)]
    per_cfg = []
    for cfg in cfgs:
        calls["n"] = 0
        S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)
        S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)  # a hit: no new pass
        per_cfg.append(calls["n"])
    assert per_cfg[0] == per_cfg[1] > 0
    (a,), (b,) = (cfg.compiled.values() for cfg in cfgs)
    assert a[0] is b[0] is anno and a[1] is not b[1]


# ---------------------------------------------------------------------------
# The static pass reads the typing derivation


def flip_procs():
    return parse_program(FLIP_SILL.read_text(encoding="utf-8")).procs()


def test_denoting_an_ill_typed_process_raises_the_type_error():
    with pytest.raises(T.TypeCheckError, match=r"\[1R\] close at a non-unit type"):
        S.denote_process(parse_process("close c"), {}, "c", BITS)


class _Without:
    """A module with some of its functions replaced by ones that fail."""

    def __init__(self, module, *names):
        self._module, self._names = module, names

    def __getattr__(self, name):
        if name in self._names:
            raise AssertionError(f"the static pass called {name}")
        return getattr(self._module, name)


def test_static_pass_neither_infers_nor_splits_contexts(monkeypatch):
    monkeypatch.setattr(S, "T", _Without(T, "infer_term"))
    monkeypatch.setattr(S, "A", _Without(A, "free_channels"))
    procs = flip_procs()
    flip2, fwdp = procs["flip2"], procs["fwdp"]
    verdict = check_equiv(flip2.proc, fwdp.proc, dict(flip2.delta), flip2.channel,
                          flip2.ty, depth=4)
    assert verdict.kind == "equivalent"


def test_a_shared_node_has_one_judgment(monkeypatch):
    seen = []
    check = T._check

    def recorded(psi, delta, proc, c, ty):
        rest = check(psi, delta, proc, c, ty)
        seen.append((proc, dict(psi), {d: t for d, t in delta.items() if d not in rest},
                     c, ty))
        return rest

    monkeypatch.setattr(T, "_check", recorded)
    flip2 = flip_procs()["flip2"]
    table = T.derive(T.check_process, {}, dict(flip2.delta), flip2.proc, flip2.channel,
                     flip2.ty)
    # flip2 spawns the one ``flip`` node twice, so each node of its body
    # occurs more than once in the derivation, and the occurrences agree
    occurrences = collections.Counter(id(proc) for proc, *_ in seen)
    assert max(occurrences.values()) > 1
    assert all(table[id(judgment[0])] == judgment for judgment in seen)
    # unit-eta's right side holds its left side whole, under a cut and a wait
    for cp in corpus_processes():
        delta, c, cty = cp.as_args()
        right = A.Cut("zz", A.Close("zz"), A.Wait("zz", cp.proc), A.Unit())
        left_table = T.derive(T.check_process, {}, delta, cp.proc, c, cty)
        right_table = T.derive(T.check_process, {}, delta, right, c, cty)
        assert right_table[id(cp.proc)] == left_table[id(cp.proc)], cp.name


def test_a_closed_term_keeps_its_meaning_under_two_contexts():
    # ``quit`` is spawned outside and inside the scope of ``x``; its body is
    # recorded with the later context, which only adds a variable the body
    # does not read
    prog = parse_program("""
        term quit : {d : 1} = {d <- close d}
        proc twice : (|- c : {d : 1} => 1) =
          d1 <- quit; wait d1; (x) <- recv c; d2 <- quit; wait d2; close c
        proc once : (|- c : {d : 1} => 1) = (x) <- recv c; d2 <- quit; wait d2; close c
    """)
    twice, once = prog.procs()["twice"], prog.procs()["once"]
    body = prog.terms()["quit"].term.proc
    table = T.derive(T.check_process, {}, {}, twice.proc, "c", twice.ty)
    assert set(table[id(body)][1]) == {"x"} and not A.free_term_vars(body)
    verdict = check_equiv(twice.proc, once.proc, {}, "c", twice.ty, depth=3)
    assert verdict.kind == "equivalent"


def count_typecheck_calls(monkeypatch) -> collections.Counter:
    """Count every call of ``check_process`` and ``check_term``, also those
    the typechecker makes of itself."""
    calls = collections.Counter()
    modules = [m for n, m in sys.modules.items() if n == "sill" or n.startswith("sill.")]
    for name in ("check_process", "check_term"):
        orig = getattr(T, name)

        def counted(*args, orig=orig, name=name):
            calls[name] += 1
            return orig(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_law_suite_typechecks_no_more_than_the_re_deriving_pass(monkeypatch):
    calls = count_typecheck_calls(monkeypatch)
    report = law_suite(depth=4)
    assert len(report.instances) == 95 and all(i.ok for i in report.instances)
    # a static pass that re-derived each spawned or applied term's type
    # made 507 and 609 calls here
    assert calls["check_process"] <= 507 and calls["check_term"] <= 609


# ---------------------------------------------------------------------------
# Trace against the brute-force oracle on process denotations


def test_trace_matches_oracle_on_unit_cut():
    # the 1R/1L composition, traced both ways
    left = parse_process("close z")
    right = parse_process("wait z; close c")
    cfg = S.EvalConfig(depth=2)
    dl = S.denote_process(left, {}, "z", A.Unit(), cfg=cfg)
    dr = S.denote_process(right, {"z": A.Unit()}, "c", A.Unit(), cfg=cfg)
    joint = S.tensor(dl, dr)
    kleene = S.trace(joint, ["z-", "z+"], cfg)
    oracle = S.knaster_tarski_trace(joint, ["z-", "z+"], 2)
    assert kleene(S.Row({"c-": D.BOT})) == oracle(S.Row({"c-": D.BOT}))


def test_trace_matches_oracle_on_channel_cut():
    src_left = "send z d; close z"
    src_right = "a <- recv z; wait a; wait z; close c"
    cfg = S.EvalConfig(depth=2)
    dl = S.denote_process(parse_process(src_left), {"d": A.Unit()}, "z",
                              parse_type("1 * 1"), cfg=cfg)
    dr = S.denote_process(parse_process(src_right),
                              {"z": parse_type("1 * 1")}, "c", A.Unit(), cfg=cfg)
    joint = S.tensor(dl, dr)
    kleene = S.trace(joint, ["z-", "z+"], cfg)
    oracle = S.knaster_tarski_trace(joint, ["z-", "z+"], 2)
    for dv in D.enumerate_values(A.Unit(), POS, 2):
        row = S.Row({"d+": dv, "c-": D.BOT})
        assert kleene(row) == oracle(row)


def test_yanking_on_truncated_bits():
    cfg = S.EvalConfig(depth=1)
    asp = (BITS, POS)
    swap = S.Denotation({"a": asp, "u": asp}, {"b": asp, "u": asp},
                        lambda row: S.Row({"b": row["u"], "u": row["a"]}))
    traced = S.trace(swap, ["u"], cfg)
    for v in D.enumerate_values(BITS, POS, 1):
        assert traced(S.Row({"a": v}))["b"] == v


# ---------------------------------------------------------------------------
# Fuel accounting: a unit of fuel is one evaluation after the first for a
# feedback loop, one round for a fix


def zero_then(v):
    return D.fold(D.tag("0", v))


FUELS = (0, 1, 2, 3, 4, 5, None)


def zeros_loop(cap=None):
    """u |-> 0·u, b = u; with a cap, u |-> 0·u cut after ``cap`` zeros."""
    asp = (BITS, POS)
    step = zero_then if cap is None else (lambda v: D.truncate(zero_then(v), cap))
    return S.Denotation({"u": asp}, {"b": asp, "u": asp},
                        lambda row: S.Row({"b": row["u"], "u": step(row["u"])}))


@pytest.mark.parametrize("fuel, iters", zip(FUELS, (0, 1, 2, 3, 4, 4, 4)))
def test_trace_fuel_counts(fuel, iters):
    # the chain 0·_, 0·0·_, 0·0·0·_ reaches the least fixed point 0·0·0·_
    cfg = S.EvalConfig(depth=3, fuel=fuel)
    out = S.trace(zeros_loop(cap=3), ["u"], cfg)(S.Row({}))
    assert cfg.diag.trace_iters == [iters]
    assert cfg.diag.nonconverged == (fuel is not None and fuel < 4)
    assert out["b"] == val("0·" * min(iters, 3) + "_", BITS, POS)


@pytest.mark.parametrize("fuel", FUELS)
def test_trace_of_an_infinite_feedback_never_converges(fuel):
    # the least fixed point 0·0·0·... is infinite: the chain grows by one
    # zero a step, past the working depth, until the fuel or bound runs out
    cfg = S.EvalConfig(depth=3, fuel=fuel)
    out = S.trace(zeros_loop(), ["u"], cfg)(S.Row({}))
    steps = D.chain_steps(BITS, POS, 3) + 2 if fuel is None else fuel
    assert cfg.diag.trace_iters == [steps]
    assert cfg.diag.nonconverged
    assert out["b"] == val("0·" * steps + "_", BITS, POS)


@pytest.mark.parametrize("fuel, calls", zip(FUELS, (1, 2, 3, 4, 4, 4, 4)))
def test_sfix_fuel_counts(fuel, calls):
    cfg = S.EvalConfig(depth=3, fuel=fuel)
    asp = (BITS, POS)
    seen = []

    def fn(row):
        seen.append(row)
        return S.Row({"ao": zero_then(row["a"])})

    den = S.Denotation({"a": asp}, {"ao": asp}, fn)
    S.sfix_row(den, {"a": "ao"}, cfg)(S.Row({}))
    assert len(seen) == calls
    assert cfg.diag.nonconverged == (fuel is not None and fuel < 3)
    assert cfg.diag.trace_iters == [] and cfg.diag.fix_rounds == []


@pytest.mark.parametrize("fuel, rounds", [(0, 0), (1, 1), (None, 1)])
def test_fix_fuel_rounds(fuel, rounds):
    quit_ty = A.ProcType("d", A.Unit(), ())
    cfg = S.EvalConfig(depth=2, fuel=fuel)
    v = S.denote_term(A.Anno(A.Fix("x", A.Var("x")), quit_ty), quit_ty, {},
                      S.EMPTY_ENV, cfg)
    assert v == D.FBOT
    assert cfg.diag.fix_rounds == [rounds]
    assert cfg.diag.nonconverged == (fuel == 0)


# ---------------------------------------------------------------------------
# Trace calculus properties beyond the axiom suite


def test_section_retraction_elimination():
    rng = random.Random(7)
    depth = 2
    cfg = S.EvalConfig(depth=depth)
    inner_asp = (parse_type("1"), POS)
    lifted_asp = (parse_type("down 1"), POS)
    for _ in range(25):
        f = random_monotone_den(rng, {"a": inner_asp, "y": inner_asp},
                                {"b": inner_asp, "y": inner_asp}, depth)
        wrapped = S.Denotation(
            {"a": inner_asp, "y": lifted_asp}, {"b": inner_asp, "y": lifted_asp},
            lambda row, f=f: (lambda out: S.Row(
                {"b": out["b"], "y": D.up(out["y"])}
            ))(f(S.Row({"a": row["a"], "y": D.down(row["y"])}))),
        )
        lhs = S.trace(wrapped, ["y"], cfg)
        rhs = S.trace(f, ["y"], cfg)
        for v in D.enumerate_values(*inner_asp, depth):
            assert lhs(S.Row({"a": v})) == rhs(S.Row({"a": v}))


def test_three_stage_trace_associativity():
    rng = random.Random(11)
    depth = 2
    cfg = S.EvalConfig(depth=depth)
    asp = (parse_type("down 1"), POS)
    for _ in range(15):
        f1 = random_monotone_den(rng, {"a1": asp, "x1": asp}, {"b1": asp, "y1": asp}, depth)
        f2 = random_monotone_den(rng, {"a2": asp, "y1": asp, "x2": asp},
                                 {"b2": asp, "x1": asp, "y2": asp}, depth)
        f3 = random_monotone_den(rng, {"a3": asp, "y2": asp}, {"b3": asp, "x2": asp}, depth)
        joint = S.tensor(S.tensor(f1, f2), f3)
        all_at_once = S.trace(joint, ["x1", "y1", "x2", "y2"], cfg)
        inner23 = S.trace(S.tensor(f2, f3), ["x2", "y2"], cfg)
        outer = S.trace(S.tensor(f1, inner23), ["x1", "y1"], cfg)
        inner12 = S.trace(S.tensor(f1, f2), ["x1", "y1"], cfg)
        outer2 = S.trace(S.tensor(inner12, f3), ["x2", "y2"], cfg)
        grid = sorted_rows(all_at_once.inputs, depth)
        for row in grid:
            expected = all_at_once(row)
            assert outer(row) == expected
            assert outer2(row) == expected


def test_currying_compatibility():
    # tracing after fixing a parameter equals fixing after tracing
    rng = random.Random(13)
    depth = 2
    cfg = S.EvalConfig(depth=depth)
    asp_a = (parse_type("1"), POS)
    asp_b = (parse_type("down 1"), POS)
    for _ in range(20):
        f = random_monotone_den(
            rng, {"a": asp_a, "b": asp_b, "x": asp_b},
            {"c": asp_b, "x": asp_b}, depth,
        )
        whole = S.trace(f, ["x"], cfg)
        for av in D.enumerate_values(*asp_a, depth):
            fixed = S.Denotation({k: t for k, t in f.inputs.items() if k != "a"},
                                 f.outputs, lambda row, av=av: f(row.updated({"a": av})))
            partial = S.trace(fixed, ["x"], cfg)
            for bv in D.enumerate_values(*asp_b, depth):
                assert whole(S.Row({"a": av, "b": bv})) == partial(S.Row({"b": bv}))


def test_two_cell_pipeline_collapse():
    # for one-directional stream maps, tracing the middle channel is
    # ordinary function composition with relabelling
    depth = 5
    cfg = S.EvalConfig(depth=depth)
    anno = tbl()["terms"]["flip"]
    value = S.denote_term(anno, None, {}, S.EMPTY_ENV, cfg)
    f = spawn(value, anno.ty, "c2", "c1", cfg)
    g = spawn(value, anno.ty, "c3", "c2", cfg)
    joint = S.tensor(f, g)
    traced = S.trace(joint, ["c2-", "c2+"], cfg)
    for v in D.enumerate_values(BITS, POS, depth):
        row = S.Row({"c1+": v, "c3-": D.BOT})
        out = traced(row)
        mid = f(S.Row({"c1+": v, "c2-": D.BOT}))
        end = g(S.Row({"c2+": mid["c2+"], "c3-": D.BOT}))
        assert out["c3+"] == end["c3+"]
        assert out["c1-"] == D.BOT


def test_strictness_operator_laws():
    one = (parse_type("1"), POS)
    onem = (parse_type("1"), NEG)
    den = S.Denotation({"d+": one, "a-": onem}, {"a+": one, "d-": onem},
                       lambda row: S.Row({"a+": D.STAR, "d-": D.BOT}))

    # constant functions become bottom on bottom input
    strict = S.strictify(den, "d+")
    out = strict(S.Row({"d+": D.BOT, "a-": D.BOT}))
    assert all(v == D.BOT for v in out.values())
    live = strict(S.Row({"d+": D.STAR, "a-": D.BOT}))
    assert live["a+"] == D.STAR

    # idempotence and pointwise domination
    twice = S.strictify(strict, "d+")
    for row in sorted_rows(den.inputs, 1):
        assert twice(row) == strict(row)
        assert S.row_leq(strict(row), den(row))


def test_strictify_can_be_dropped_when_partner_feeds_the_loop():
    # a downshift sender always emits, so strictifying the receiver side of
    # the feedback is invisible to the trace
    rng = random.Random(17)
    depth = 2
    cfg = S.EvalConfig(depth=depth)
    asp_x = (parse_type("down 1"), POS)
    asp_a = (parse_type("1"), POS)
    checked = 0
    for _ in range(60):
        f = random_monotone_den(rng, {"a": asp_a, "x": asp_x},
                                {"c": asp_a, "y": asp_x}, depth)
        g = random_monotone_den(rng, {"b": asp_a, "y": asp_x},
                                {"d": asp_a, "x": asp_x}, depth)
        bot_out = g(S.bot_row(g.inputs))["x"]
        if bot_out == D.BOT:
            continue  # only the non-strict partners witness the law
        checked += 1
        joint = S.tensor(S.strictify(f, "x"), g)
        plain = S.tensor(f, g)
        lhs = S.trace(joint, ["x", "y"], cfg)
        rhs = S.trace(plain, ["x", "y"], cfg)
        for row in sorted_rows(lhs.inputs, depth):
            assert lhs(row) == rhs(row)
    assert checked >= 10


# ---------------------------------------------------------------------------
# Coherence and semantic substitution


def test_coherence_unused_environment_is_projected_away():
    quit_ty = A.ProcType("d", A.Unit(), ())
    proc = parse_process("dd <- {x}; wait dd; close c")
    psi = {"x": quit_ty}
    quit_val = S.denote_term(tbl()["terms"]["quit"], quit_ty, {}, S.EMPTY_ENV,
                             S.EvalConfig())
    base_env = S.Env({"x": quit_val})
    wide_env = S.Env({"x": quit_val, "y": D.QPROC_BOT, "z": D.FBOT})
    den1 = S.denote_process(proc, {}, "c", A.Unit(), psi=psi, env=base_env)
    den2 = S.denote_process(
        proc, {}, "c", A.Unit(),
        psi={**psi, "y": quit_ty, "z": quit_ty}, env=wide_env,
    )
    row = S.Row({"c-": D.BOT})
    assert den1(row) == den2(row)


def test_coherence_over_the_corpus():
    # widening the functional context never changes a denotation
    quit_ty = A.ProcType("d", A.Unit(), ())
    junk_psi = {"junk1": quit_ty, "junk2": A.Arrow(quit_ty, quit_ty)}
    junk_env = S.Env({"junk1": D.QPROC_BOT})
    for cp in corpus_processes():
        delta, c, cty = cp.as_args()
        cfg = S.EvalConfig(depth=3)
        plain = S.denote_process(cp.proc, delta, c, cty, cfg=cfg)
        wide = S.denote_process(cp.proc, delta, c, cty, psi=junk_psi,
                                    env=junk_env, cfg=cfg)
        for row in sorted_rows(plain.inputs, 2)[:25]:
            assert plain(row) == wide(row), cp.name


def test_semantic_substitution_of_terms():
    # [M/x]P denotes the same function as P under x |-> [[M]]
    quit_ty = A.ProcType("d", A.Unit(), ())
    quit = tbl()["terms"]["quit"]
    proc = parse_process("dd <- {x}; wait dd; close c")
    cfg = S.EvalConfig(depth=3)
    quit_val = S.denote_term(quit, quit_ty, {}, S.EMPTY_ENV, cfg)
    den_sub = S.denote_process(A.subst_term({"x": quit}, proc), {}, "c",
                                   A.Unit(), cfg=cfg)
    den_env = S.denote_process(proc, {}, "c", A.Unit(),
                                   psi={"x": quit_ty},
                                   env=S.Env({"x": quit_val}), cfg=cfg)
    row = S.Row({"c-": D.BOT})
    assert den_sub(row) == den_env(row)


def test_trace_computes_the_least_fixed_point():
    # identity feedback has many fixed points; both constructions must pick
    # the bottom one
    cfg = S.EvalConfig(depth=2)
    asp = (parse_type("down 1"), POS)
    ident = S.Denotation({"a": asp, "u": asp}, {"b": asp, "u": asp},
                         lambda row: S.Row({"b": row["u"], "u": row["u"]}))
    traced = S.trace(ident, ["u"], cfg)
    oracle = S.knaster_tarski_trace(ident, ["u"], 2)
    for v in D.enumerate_values(*asp, 2):
        assert traced(S.Row({"a": v}))["b"] == D.BOT
        assert oracle(S.Row({"a": v}))["b"] == D.BOT


def test_truncated_fixed_points_are_consistent_across_depths():
    # evaluating deeper and then truncating agrees with evaluating shallow:
    # the computed fixed point is the truncation of the true one
    tables = corpus_tables()
    flip2 = parse_process("t <- flip <- a; b <- flip <- t",
                          types=tables["types"], terms=tables["terms"])
    shallow_cfg = S.EvalConfig(depth=3)
    deep_cfg = S.EvalConfig(depth=6)
    shallow = S.denote_process(flip2, {"a": BITS}, "b", BITS, cfg=shallow_cfg)
    deep = S.denote_process(flip2, {"a": BITS}, "b", BITS, cfg=deep_cfg)
    for v in D.enumerate_values(BITS, POS, 3):
        row = S.Row({"a+": v, "b-": D.BOT})
        assert S.row_truncate(shallow(row), 3) == S.row_truncate(deep(row), 3)


def test_sfix_row_on_constant_and_identity():
    cfg = S.EvalConfig(depth=2)
    asp = (parse_type("down 1"), POS)
    c = D.up(D.BOT)
    const = S.Denotation({"x": asp, "a": asp}, {"ao": asp},
                         lambda row: S.Row({"ao": c}))
    fixed = S.sfix_row(const, {"a": "ao"}, cfg)
    assert fixed(S.Row({"x": D.BOT}))["ao"] == c
    ident = S.Denotation({"x": asp, "a": asp}, {"ao": asp},
                         lambda row: S.Row({"ao": row["a"]}))
    fixed = S.sfix_row(ident, {"a": "ao"}, cfg)
    assert fixed(S.Row({"x": c}))["ao"] == D.BOT


def test_rows_do_not_depend_on_insertion_order():
    one = (parse_type("1"), POS)
    first = S.Row({"a": D.STAR, "b": D.up(D.BOT)})
    second = S.Row({"b": D.up(D.BOT), "a": D.STAR})
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == "Row(a=STAR, b=Lift(inner=BOT))"
    seen = []
    f = S.Denotation({"a": one, "b": one}, {}, lambda row: seen.append(row) or S.Row({}))
    assert f(first) is f(second)
    assert seen == [first]


def test_oracle_with_no_feedback_is_the_map_itself():
    # tracing over the empty collection of feedback keys changes nothing
    one = (parse_type("1"), POS)
    f = S.Denotation({"a": one}, {"b": one}, lambda row: S.Row({"b": row["a"]}))
    oracle = S.knaster_tarski_trace(f, [], 2)
    kleene = S.trace(f, [], S.EvalConfig(depth=2))
    for v in D.enumerate_values(*one, 2):
        row = S.Row({"a": v})
        assert oracle(row) == f(row) == kleene(row)


def test_axiom_suites_fail_when_a_fixed_point_runs_out_of_fuel(monkeypatch):
    monkeypatch.setattr(S, "EvalConfig", functools.partial(S.EvalConfig, fuel=0))
    for suite in (trace_axiom_suite, conway_identity_suite):
        report = suite(seed=0, rounds=5)
        assert not report.ok
        assert any("did not converge" in f.detail for f in report.failures)
        assert any("did not converge" in line for line in report.summary_lines())


# ---------------------------------------------------------------------------
# Combinators: sequential composition by key name, and wirings

ONE = (parse_type("1"), POS)


def recording(inputs, outputs, fn, seen):
    """A denotation that appends each row it is called with to ``seen``."""
    return S.Denotation({k: ONE for k in inputs}, {k: ONE for k in outputs},
                        lambda row: seen.append(row) or fn(row))


def test_seq_reads_the_latest_producer_else_the_outer_row():
    seen = []
    p = recording(["a"], ["a"], lambda row: S.Row({"a": D.up(row["a"])}), [])
    q = recording(["a", "b"], ["c"], lambda row: S.Row({"c": row["a"]}), seen)
    both = S.seq(p, q)
    assert sorted(both.inputs) == ["a", "b"] and sorted(both.outputs) == ["c"]
    out = both(S.Row({"a": D.STAR, "b": D.BOT}))
    # q reads a from p, which produced it last, and b from the outer row
    assert seen == [S.Row({"a": D.up(D.STAR), "b": D.BOT})]
    assert out == S.Row({"c": D.up(D.STAR)})


def test_seq_outputs_the_produced_keys_no_later_stage_reads():
    seen = []
    f = recording(["a", "u"], ["b", "u"], lambda row: S.Row({"b": row["a"], "u": row["u"]}), [])
    g = recording(["b"], ["c"], lambda row: S.Row({"c": row["b"]}), [])
    h = recording(["c"], ["d"], lambda row: S.Row({"d": row["c"]}), seen)
    assert sorted(S.seq(f, g).outputs) == ["c", "u"]
    # h reads all of g's row, under the same names, and is the whole output:
    # both rows pass as they are
    gh = S.seq(g, h)
    row = S.Row({"b": D.STAR})
    out = gh(row)
    assert seen[0] is g(row) and out is h(g(row))
    assert out == S.Row({"d": D.STAR})


def test_seq_mapping_copies_one_key_to_two():
    seen = []
    fd = recording(["x", "a1", "a2"], ["ao"], lambda row: S.Row({"ao": row["a1"]}), seen)
    dup = S.seq({"a1": "a", "a2": "a"}, fd)
    # the outer key a, which only the mapping reads, takes fd's aspect of a1
    assert dup.inputs == {"x": ONE, "a": ONE} and dup.outputs == {"ao": ONE}
    dup(S.Row({"x": D.BOT, "a": D.STAR}))
    assert seen == [S.Row({"x": D.BOT, "a1": D.STAR, "a2": D.STAR})]
    with pytest.raises(ValueError):
        S.seq({"c": "a"})


def test_wire_swaps_and_renames():
    down = (parse_type("down 1"), POS)
    swap = S.wire({"a": ONE, "u": down}, {"b": "u", "u": "a"})
    assert swap.outputs == {"b": down, "u": ONE}
    assert swap(S.Row({"a": D.STAR, "u": D.BOT})) == S.Row({"b": D.BOT, "u": D.STAR})
    ident = S.wire({"a": ONE}, {"b": "a"})
    for v in D.enumerate_values(*ONE, 2):
        assert ident(S.Row({"a": v})) == S.Row({"b": v})


def test_trace_axioms_run_the_same_kleene_loops(monkeypatch):
    """The suites' composites query each trace at the same rows as the
    hand-wired ones did: the same loops and iterations, seeds 0 and 7."""
    configs, real = [], S.EvalConfig

    def config(*args, **kwargs):
        configs.append(real(*args, **kwargs))
        return configs[-1]

    monkeypatch.setattr(S, "EvalConfig", config)
    for seed in (0, 7):
        assert trace_axiom_suite(seed=seed, rounds=200).ok
    loops = [n for cfg in configs for n in cfg.diag.trace_iters]
    assert (len(loops), sum(loops)) == (16960, 21135)
