"""Order, enumeration, truncation, and notation for communication values."""

import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sill import ast as A
from sill import domain as D
from sill import semantics as S
from sill.ast import NEG, POS
from sill.laws import aspect_battery
from sill.parser import parse_program, parse_type
from sill.pretty import pp_type

BITS = parse_type("rho b. +{0: b, 1: b}")
AMP = parse_type("&{j: up 1, k: up 1}")
PLUSJK = parse_type("+{j: up 1, k: up 1}")

QUIT_TY = A.ProcType("d", A.Unit(), ())
REC_LOLLY = parse_type("rho t. (down up 1) -o t")

# The battery of aspects the order laws are checked on: every connective at
# both polarities, plus a recursive occurrence reached without crossing a
# message boundary.
BATTERY = [
    (parse_type("1"), POS),
    (parse_type("down up 1"), POS),
    (BITS, POS),
    (parse_type("1 * 1"), POS),
    (PLUSJK, NEG),
    (AMP, NEG),
    (AMP, POS),
    (parse_type("1 -o up 1"), NEG),
    (parse_type("1 -o up 1"), POS),
    (A.AndVal(QUIT_TY, A.Unit()), POS),
    (A.ImpVal(QUIT_TY, A.Up(A.Unit())), NEG),
    (parse_type("1"), NEG),
    (parse_type("down up 1"), NEG),
    (parse_type("up down 1"), POS),
    (parse_type("up down 1"), NEG),
    (PLUSJK, POS),
    (BITS, NEG),
    (parse_type("1 * 1"), NEG),
    (A.AndVal(QUIT_TY, A.Unit()), NEG),
    (A.ImpVal(QUIT_TY, A.Up(A.Unit())), POS),
    (REC_LOLLY, POS),
    (REC_LOLLY, NEG),
    (A.Lolly(parse_type("down up 1"), REC_LOLLY), POS),
]

GOLDEN = Path(__file__).resolve().parent / "domain_golden.json"


def enum(ty, pol, d):
    return D.enumerate_values(ty, pol, d)


# ---------------------------------------------------------------------------
# An independent order oracle for bit streams: a finite approximant is the
# list of its labels; v <= w iff v's labels are a prefix of w's.


def bits_to_list(v):
    out = []
    while v != D.BOT:
        assert isinstance(v, D.Tag)
        out.append(v.label)
        v = v.inner
    return out


def oracle_leq(v, w):
    lv, lw = bits_to_list(v), bits_to_list(w)
    return lv == lw[: len(lv)]


def test_bits_order_matches_prefix_oracle():
    values = enum(BITS, POS, 3)
    for v, w in itertools.product(values, repeat=2):
        assert D.leq(v, w) == oracle_leq(v, w), (v, w)


def test_leq_examples():
    z = D.parse_value("0·_", BITS, POS)
    zo = D.parse_value("0·1·_", BITS, POS)
    o = D.parse_value("1·_", BITS, POS)
    assert D.leq(D.BOT, D.STAR)
    assert D.leq(z, zo) and not D.leq(z, o) and not D.leq(zo, z)
    t11 = parse_type("1 * 1")
    lo = D.parse_value("up((*, _))", t11, POS)
    hi = D.parse_value("up((*, *))", t11, POS)
    assert D.leq(lo, hi)


# ---------------------------------------------------------------------------
# Partial order laws on the battery


def test_order_laws_on_battery():
    for ty, pol in BATTERY:
        values = enum(ty, pol, 3)
        for v in values:
            assert D.leq(v, v)
        for v, w in itertools.product(values, repeat=2):
            if D.leq(v, w) and D.leq(w, v):
                assert v == w
        for v, w, u in itertools.product(values, repeat=3):
            if D.leq(v, w) and D.leq(w, u):
                assert D.leq(v, u)


def test_bottom_is_least_everywhere():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 3):
            assert D.leq(D.BOT, v)


def test_bottom_of_product_is_the_record_of_bottoms():
    assert D.record({"j": D.BOT, "k": D.BOT}) == D.BOT
    assert D.pair(D.BOT, D.BOT) == D.BOT


# ---------------------------------------------------------------------------
# Enumeration


def test_unit_enumeration():
    for d in range(3):
        assert enum(parse_type("1"), POS, d) == [D.BOT, D.STAR]


def test_bits_enumeration_counts():
    # count(d) = 1 + 2 * count(d-1), checked against explicit enumeration
    explicit = {0: 1}
    for d in range(1, 5):
        explicit[d] = 1 + 2 * explicit[d - 1]
    for d in range(5):
        values = enum(BITS, POS, d)
        assert len(values) == explicit[d] == 2 ** (d + 1) - 1
        assert len(set(values)) == len(values)
        # every value is a labelled stream of height <= d
        for v in values:
            assert len(bits_to_list(v)) <= d


def test_tensor_enumeration_matches_worked_example():
    t11 = parse_type("1 * 1")
    values = enum(t11, POS, 1)
    assert len(values) == 5
    formatted = {D.format_value(v, t11, POS) for v in values}
    assert formatted == {"_", "up((_, _))", "up((_, *))", "up((*, _))", "up((*, *))"}


def test_enumeration_monotone_in_depth():
    for ty, pol in BATTERY:
        prev = set()
        for d in range(4):
            now = set(enum(ty, pol, d))
            assert prev <= now
            prev = now


def test_enumeration_downward_closed():
    for ty, pol in BATTERY:
        values = enum(ty, pol, 2)
        vset = set(values)
        for v, w in itertools.product(values, repeat=2):
            if D.leq(v, w):
                assert v in vset


def test_enumeration_conforms_and_heights():
    for ty, pol in BATTERY:
        for d in range(3):
            for v in enum(ty, pol, d):
                assert D.conforms(v, ty, pol)
                assert D.truncate(v, d) is v


def battery_key(ty, pol):
    return f"{pp_type(ty)} @ {pol}"


def test_enumeration_and_chain_steps_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(battery_key(ty, pol) for ty, pol in BATTERY)
    for ty, pol in BATTERY:
        want = golden[battery_key(ty, pol)]
        for d in range(4):
            got = [D.format_value(v, ty, pol) for v in enum(ty, pol, d)]
            assert got == want["values"][d], (battery_key(ty, pol), d)
            assert D.chain_steps(ty, pol, d) == want["chain_steps"][d]


# Aspects with three or more labels, written out of order, and recursive
# ones under records, sums and pairs.
ORDER_EXTRA = [(parse_type(text), pol) for text in (
    "+{z: 1, a: down up 1, m: 1 * 1}",
    "&{z: up 1, a: up 1, m: up 1}",
    "rho t. &{q: up t, b: up 1}",
    "rho s. +{c: s, a: s, b: s}",
    "&{y: up (rho b. +{0: b, 1: b}), x: up 1}",
    "(rho b. +{0: b, 1: b}) * up 1",
) for pol in (POS, NEG)]


def order_key(v):
    """A total order key defined on value structure alone, the order
    enumeration is checked to produce."""
    match v:
        case D.BotValue():
            return (0,)
        case D.StarValue():
            return (1,)
        case D.Lift(inner=a):
            return (2, order_key(a))
        case D.Tag(label=k, inner=a):
            return (3, k, order_key(a))
        case D.Pair(left=l, right=r):
            return (4, order_key(l), order_key(r))
        case D.ValPair(val=f, rest=r):
            return (5, [D.FBOT, D.QPROC_BOT].index(f), order_key(r))
        case D.Record(entries=es):
            return (6, tuple((k, order_key(x)) for k, x in es))
    raise AssertionError(f"not a value: {v!r}")


def test_enumeration_is_in_order():
    for ty, pol in BATTERY + ORDER_EXTRA:
        for d in range(6):
            values = enum(ty, pol, d)
            where = (battery_key(ty, pol), d)
            assert len(set(values)) == len(values), where
            assert values[0] == D.BOT, where
            assert values == sorted(values, key=order_key), where
            head = values[:80]
            for i, j in itertools.combinations(range(len(head)), 2):
                assert not D.leq(head[j], head[i]), (where, head[i], head[j])


def longest_strict_chain(values):
    """Strict steps on the longest ascending chain among ``values``."""
    below = {v: [w for w in values if w != v and D.leq(w, v)] for v in values}
    steps = {}
    for v in sorted(values, key=lambda v: len(below[v])):
        steps[v] = max((steps[w] + 1 for w in below[v]), default=0)
    return max(steps.values())


def test_chain_steps_bounds_the_longest_chain():
    for ty, pol in BATTERY:
        for d in range(4):
            assert longest_strict_chain(enum(ty, pol, d)) <= D.chain_steps(ty, pol, d), (
                battery_key(ty, pol), d)


def test_degenerate_negative_aspect_of_bits():
    assert enum(BITS, NEG, 8) == [D.BOT]


def test_arrow_values_are_not_enumerable():
    arrow = A.Arrow(A.ProcType("d", A.Unit(), ()), A.ProcType("d", A.Unit(), ()))
    ty = A.AndVal(arrow, A.Unit())
    with pytest.raises(D.NotEnumerable):
        enum(ty, POS, 2)


def test_quoted_process_values_enumerate_two_points():
    ty = A.AndVal(A.ProcType("d", A.Unit(), ()), A.Unit())
    values = enum(ty, POS, 1)
    # bottom, plus lifted pairs over {absent, stuck} x {bot, star}
    assert len(values) == 5


# ---------------------------------------------------------------------------
# Hash-consing


def test_equal_values_are_one_object():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 3):
            assert D.parse_value(D.format_value(v, ty, pol), ty, pol) is v
    assert D.Lift(D.BOT) is D.up(D.BOT)


def test_native_function_values_compare_by_identity():
    # two fixes at an arrow type are two functions, however alike
    f, g = D.Native(lambda a: a), D.Native(lambda a: a)
    assert f == f and f != g and hash(f) != hash(g)
    assert D.format_func_value(f) == "<fun>"


def test_intern_table_lets_a_quoted_process_die():
    # the value is held by the memo of the denotation it carries: a table
    # that kept the value or its arguments alive would keep this cycle too
    asp = (A.AndVal(QUIT_TY, A.Unit()), POS)
    den = S.Denotation({"x": asp}, {"y": asp}, lambda row: S.Row({"y": row["x"]}))
    v = D.valpair(D.QProc(den), D.BOT)
    den(S.Row({"x": v}))
    gone = weakref.ref(v)
    interned = len(D._INTERNED)
    del den, v
    gc.collect()
    assert gone() is None
    assert len(D._INTERNED) < interned


def test_type_traversals_leave_no_cyclic_garbage():
    # a self-recursive helper nested in a function is a function <-> cell
    # cycle on every call, which only the cyclic collector frees
    ty = parse_type("rho q. +{x: q, y: (rho r. &{u: up r}) * q}")
    same = parse_type("rho p. +{x: p, y: (rho s. &{u: up s}) * p}")
    other = parse_type("rho p. +{x: p, y: (rho s. &{u: up p}) * p}")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        steps = [D.chain_steps(ty, pol, 3) for pol in (POS, NEG)]
        recursive = D.recursive(ty, POS)
        values = D.enumerate_values(ty, POS, 2)
        equal = A.types_equal(ty, same), A.types_equal(ty, other)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert (steps, recursive, len(values), equal) == ([3, 3], True, 6, (True, False))
    assert garbage == []


# ---------------------------------------------------------------------------
# Truncation


def test_truncate_examples():
    v = D.parse_value("0·1·0·_", BITS, POS)
    assert D.truncate(v, 2) == D.parse_value("0·1·_", BITS, POS)
    assert D.truncate(v, 0) == D.BOT
    assert D.truncate(D.STAR, 0) == D.STAR


def test_truncate_is_a_deflation():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 3):
            for d in range(4):
                t = D.truncate(v, d)
                assert D.leq(t, v)
                assert D.truncate(t, d) == t
                if d < 3:
                    assert D.leq(t, D.truncate(v, d + 1))


def test_truncate_identity_at_height():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 2):
            assert D.truncate(v, 2) == v


# ---------------------------------------------------------------------------
# Lifting and folding


def test_up_down_section_retraction():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 2):
            assert D.down(D.up(v)) == v
    assert D.down(D.BOT) == D.BOT  # the retraction is strict
    assert D.up(D.BOT) != D.BOT    # the section is not


def test_fold_unfold_isomorphism():
    unfolding = A.unfold_rec(BITS)
    for w in enum(BITS, POS, 3):
        assert D.fold(D.unfold(w)) == w
    for v in enum(unfolding, POS, 3):
        assert D.unfold(D.fold(v)) == v


def test_fold_unfold_order_isomorphism():
    values = enum(A.unfold_rec(BITS), POS, 2)
    for v, w in itertools.product(values, repeat=2):
        assert D.leq(v, w) == D.leq(D.fold(v), D.fold(w))


def test_unfold_of_tagged_stream():
    v = D.parse_value("0·_", BITS, POS)
    assert D.unfold(v) == D.tag("0", D.BOT)
    # the negative unfolding maps bottom to the record of bottoms
    assert D.unfold(D.BOT) == D.BOT == D.record({"0": D.BOT, "1": D.BOT})


# ---------------------------------------------------------------------------
# Meets (used by the trace oracle)


def test_meet_is_glb_on_battery():
    for ty, pol in BATTERY[:5]:
        values = enum(ty, pol, 2)
        for v, w in itertools.product(values, repeat=2):
            m = D.meet2(v, w)
            assert D.leq(m, v) and D.leq(m, w)
            for u in values:
                if D.leq(u, v) and D.leq(u, w):
                    assert D.leq(u, m)


# ---------------------------------------------------------------------------
# Text notation


def test_notation_roundtrip_on_battery():
    for ty, pol in BATTERY:
        for v in enum(ty, pol, 3):
            text = D.format_value(v, ty, pol)
            assert D.parse_value(text, ty, pol) == v


# The value-notation golden: (type, polarity, text) cases, each mapped to the
# printed value read from it or to the error text.  The texts are every
# formatted value of depth at most 3 read at every aspect, each token prefix
# and some seeded one-token mutations of those values at their own aspect,
# and a few hand-written texts.  Regenerate with
# ``PYTHONPATH=src python tests/test_domain.py``.

VALUE_GOLDEN = Path(__file__).resolve().parent / "value_golden.json"

# Besides the battery: a record whose fields have different shapes, a
# recursive pair, and a recursive type read through nested up(...).
NOTATION_BATTERY = BATTERY + [
    (parse_type("+{j: down up 1, k: 1}"), NEG),
    (parse_type("rho t. 1 * t"), POS),
    (parse_type("rho t. down up t"), POS),
]

NOTATION_TOKEN = re.compile(r"<[^>]*>|[^\W_]\w*|\S")
MUTANTS = ["_", "*", "(", ")", "{", "}", ",", ":", "·", "up", "fold", "<stuck>",
           "<proc>", "0", "1", "j", "k", "zz", "a_b", "$", "<"]
HANDWRITTEN = [
    "", " ", "_", "*", "()", "{}", "(_)", "((_))", "(_, _, _)", "_ _", "up", "fold",
    "up(", "up(_", "up(_))", "up(*, *))", "up((*, *))", "up(_ _)", "fold(_)",
    "fold(fold(_))", "fold(0·_)", "(fold(_))", "0·", "0.1._", " 0 · 1 · _ ", "2·_",
    "·_", "0··_", "x", "a_b·_", "0·a_b·_", "0·up·_", "<proc>", "<fun>", "<stuck>",
    "<oops", "<a_b>", "$", "{zz: _}", "{j _}", "{j: _", "{j: _,}", "{zz: _, yy: *}",
    "{j: _, j: up(_)}", "{k: up(_), j: *}", "{<a_b>: _}", "(<stuck>, _)",
    "(<proc>, _)", "(*, _)", "up((_, up(*)))", "{j: up(*), k: up(_)}", "(_, {j: _)",
]


def notation_texts(values, mutants=MUTANTS):
    """Each text of ``values`` at its own aspect, its token prefixes and
    three seeded one-token mutations (a replacement, a deletion or an
    insertion of a token from ``mutants``)."""
    texts = []
    for text in values:
        spans = [m.span() for m in NOTATION_TOKEN.finditer(text)]
        texts += [text[:end] for _, end in spans[:-1]]
        rng = random.Random(text)
        for _ in range(3):
            start, end = rng.choice(spans)
            op, new = rng.choice(["replace", "delete", "insert"]), rng.choice(mutants)
            if op == "replace":
                texts.append(text[:start] + new + text[end:])
            elif op == "delete":
                texts.append(text[:start] + text[end:])
            else:
                texts.append(text[:start] + new + " " + text[start:])
    return texts


def notation_reading(text, ty, pol):
    try:
        return {"value": D.format_value(D.parse_value(text, ty, pol), ty, pol)}
    except D.ValueNotationError as exc:
        return {"error": str(exc)}


def notation_golden_cases() -> dict[str, list[str]]:
    own = {battery_key(ty, pol): [D.format_value(v, ty, pol) for v in enum(ty, pol, 3)]
           for ty, pol in NOTATION_BATTERY}
    every = sorted({t for texts in own.values() for t in texts})
    return {key: list(dict.fromkeys(every + HANDWRITTEN + notation_texts(own[key])))
            for key in own}


def notation_golden() -> dict[str, dict[str, dict]]:
    cases = notation_golden_cases()
    return {battery_key(ty, pol): {t: notation_reading(t, ty, pol)
                                   for t in cases[battery_key(ty, pol)]}
            for ty, pol in NOTATION_BATTERY}


def test_notation_matches_golden():
    golden = json.loads(VALUE_GOLDEN.read_text(encoding="utf-8"))
    cases = notation_golden_cases()
    assert list(golden) == list(cases)
    for ty, pol in NOTATION_BATTERY:
        key = battery_key(ty, pol)
        assert list(golden[key]) == cases[key], key
        for text, want in golden[key].items():
            assert notation_reading(text, ty, pol) == want, (key, text)


# The row golden: for the input interface of each fixture process, each
# ``--in`` text mapped to the row read from it, printed per key, or to the
# ``error:`` line that ``sill eval`` prints for it.  Regenerated with the
# value golden.

ROW_GOLDEN = Path(__file__).resolve().parent / "row_golden.json"
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sill" / "fixtures"
ROW_FIXTURES = {"ex51": "example51.sill", "ex52": "upshift.sill",
                "choice": "choice.sill", "flip1": "flip.sill"}
ROW_MUTANTS = MUTANTS + ["=", "b+", "zz-"]


def fixture_interface(name, side=S.proc_inputs):
    source = (FIXTURES / ROW_FIXTURES[name]).read_text(encoding="utf-8")
    decl = parse_program(source).procs()[name]
    return side(dict(decl.delta), decl.channel, decl.ty)


def row_golden_cases(aspects) -> list[str]:
    """Every depth-2 value of each key, each pair of keys in both orders,
    the same without spaces, hand-written texts around the entry and bracket
    rules, and the token prefixes and seeded mutations of the entries."""
    texts = {k: [D.format_value(v, *a) for v in enum(*a, 2)] for k, a in aspects.items()}
    entries = [f"{k} = {t}" for k in texts for t in texts[k]]
    entries += [f"{k1} = {t1}, {k2} = {t2}" for k1, k2 in itertools.permutations(texts, 2)
                for t1 in texts[k1] for t2 in texts[k2]]
    k, t = next(iter(texts)), texts[next(iter(texts))][-1]
    k2 = list(texts)[-1] if len(texts) > 1 else "zz-"
    handwritten = [
        "", " ", ",", ", ,", f"{k} = {t},", f", {k} = {t}", f"{k} = {t}, , ",
        f" {k}  =  {t} ", f"{k} = {t}, {k} = {t}", f"{k} = _, {k} = _",
        "zz+ = _", f"{k} = {t}, zz- = _", f"zz- = _, {k} = *", f"{k[:-1]} = _",
        f"{k} {t}", "_", "= _", f"{k} = {t}, {k2}", f"{k} = {t} = _",
        f"{k} = {t})", f"{k} = {t}}}, {k2} = _", f") {k} = {t}", f"}}, {k} = {t}",
        f"{k} = up({t}}}, {k2} = _", f"{k} = ({t})), {k2} = _",
        f"{k} = {{j: {t})}}, {k2} = _", f"{k} = ({t}, {t}), {k2} = _",
        f"{k} = {{j: {t}, k: {t}}}, {k2} = _", f"{k} = <a, b>, {k2} = _",
        f"{k} = (<stuck, x>, _)", f"{k} = <(>, {k2} = _", f"{k} = (_, <)>), {k2} = _",
    ]
    return list(dict.fromkeys(entries + [e.replace(" ", "") for e in entries]
                              + handwritten + notation_texts(entries, ROW_MUTANTS)))


def row_reading(text, aspects):
    try:
        return {"row": D.format_row(D.parse_row(text, aspects), aspects)}
    except D.ValueNotationError as exc:
        return {"error": f"error: {exc}"}


def row_golden() -> dict[str, dict[str, dict]]:
    out = {}
    for name in ROW_FIXTURES:
        aspects = fixture_interface(name)
        out[name] = {text: row_reading(text, aspects) for text in row_golden_cases(aspects)}
    return out


def test_rows_match_golden():
    golden = json.loads(ROW_GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(ROW_FIXTURES)
    for name in ROW_FIXTURES:
        aspects = fixture_interface(name)
        assert list(golden[name]) == row_golden_cases(aspects), name
        for text, want in golden[name].items():
            assert row_reading(text, aspects) == want, (name, text)


FIXTURE_GRIDS = [(aspects, list(S.row_grid(aspects, 3)))
                 for aspects in (fixture_interface(name, side) for name in ROW_FIXTURES
                                 for side in (S.proc_inputs, S.proc_outputs))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_printed_rows_read_back(data):
    aspects, grid = data.draw(st.sampled_from(FIXTURE_GRIDS))
    row = data.draw(st.sampled_from(grid))
    assert D.parse_row(D.join_row(D.format_row(row, aspects)), aspects) == row


def test_notation_reads_deep_unary_nesting():
    # up(...) and implicit folds are read and printed in a loop, not a call
    # per level
    ty = parse_type("rho t. down up t")
    deep = D.parse_value("up(" * 5000 + "_" + ")" * 5000, ty, POS)
    assert D.truncate(deep, 3) == D.parse_value("up(up(up(_)))", ty, POS)
    text = D.format_value(deep, ty, POS)
    assert text == "fold(up(" * 5000 + "_" + ")" * 10000
    assert D.parse_value(text, ty, POS) is deep


def test_notation_at_a_fold_that_reaches_itself_does_not_hang():
    # the body of rho a. down a at - is the fold itself: reading anything but
    # _ or fold(...) there must stop rather than unfold forever, and checking
    # or printing a value other than _ there must fail rather than recurse;
    # rho a. up a at + is the same
    code = ("from sill import domain as D\n"
            "from sill.ast import NEG, POS\n"
            "from sill.parser import parse_type\n"
            "ty = parse_type('rho a. down a')\n"
            "assert D.parse_value('fold(fold(_))', ty, NEG) == D.BOT\n"
            "for text in ('*', 'up(_)', 'fold(*)', '0·_', '(_, _)', '{j: _}'):\n"
            "    try:\n"
            "        D.parse_value(text, ty, NEG)\n"
            "    except (D.ValueNotationError, RecursionError):\n"
            "        continue\n"
            "    raise AssertionError(text)\n"
            "for ty, pol in ((ty, NEG), (parse_type('rho a. up a'), POS)):\n"
            "    assert D.conforms(D.BOT, ty, pol)\n"
            "    assert D.format_value(D.BOT, ty, pol) == '_'\n"
            "    assert D.conforms(D.STAR, ty, pol) is False\n"
            "    try:\n"
            "        D.format_value(D.STAR, ty, pol)\n"
            "    except D.DomainError:\n"
            "        continue\n"
            "    raise AssertionError(pol)\n")
    src = str(Path(D.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_notation_reads_each_record_entry_at_its_label():
    # an entry named twice is read at its label's type both times; the last wins
    ty = parse_type("+{j: down up 1, k: 1}")
    v = D.parse_value("{j: up(_), j: _}", ty, NEG)
    assert D.format_value(v, ty, NEG) == "{j: _, k: _}"
    with pytest.raises(D.ValueNotationError, match="nothing flows"):
        D.parse_value("{k: up(_), k: _}", ty, NEG)


def test_notation_accepts_ascii_dot():
    assert D.parse_value("0.1._", BITS, POS) == D.parse_value("0·1·_", BITS, POS)


def test_notation_errors():
    with pytest.raises(D.ValueNotationError):
        D.parse_value("*", BITS, POS)
    with pytest.raises(D.ValueNotationError):
        D.parse_value("2·_", BITS, POS)
    with pytest.raises(D.ValueNotationError):
        D.parse_value("up(", parse_type("down up 1"), POS)


def test_conformance_checker():
    assert D.conforms(D.STAR, parse_type("1"), POS)
    assert not D.conforms(D.STAR, parse_type("1"), NEG)
    assert not D.conforms(D.tag("9", D.BOT), BITS, POS)
    assert D.conforms(D.BOT, AMP, NEG)


if __name__ == "__main__":
    for path, golden in ((VALUE_GOLDEN, notation_golden()), (ROW_GOLDEN, row_golden())):
        path.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")


def chain_steps_reference(s, d, seen=frozenset()):
    """The ascending-chain bound by plain recursion, without memoization."""
    if s in seen:
        return 0
    seen = seen | {s}
    match s:
        case D.UnitShape(star=star):
            return int(star)
        case D.LiftShape(inner=i):
            return 1 + chain_steps_reference(i, d - 1) if d > 0 else 0
        case D.SumShape(branches=bs):
            return 1 + max(chain_steps_reference(b, d - 1) for b in bs.values()) if d > 0 else 0
        case D.RecordShape(fields=fs):
            return sum(chain_steps_reference(f, d, seen) for f in fs.values())
        case D.PairShape(left=l, right=r):
            return chain_steps_reference(l, d, seen) + chain_steps_reference(r, d, seen)
        case D.ValPairShape(rest=r):
            return 2 + chain_steps_reference(r, d, seen)
        case D.FoldShape():
            return chain_steps_reference(s.body, d, seen)


def test_chain_steps_matches_the_plain_recursion():
    stream3 = (parse_type("rho s. +{c: s, a: s, b: s}"), POS)
    for ty, pol in [asp for asp, _ in aspect_battery()] + BATTERY + ORDER_EXTRA + [stream3]:
        for d in range(11):
            assert D.chain_steps(ty, pol, d) == chain_steps_reference(D.aspect(ty, pol), d), (
                battery_key(ty, pol), d)


def test_chain_steps_is_linear_in_the_depth():
    # each message boundary is solved once per depth, not once per path
    start = time.perf_counter()
    assert D.chain_steps(BITS, POS, 100) == 100
    assert time.perf_counter() - start < 0.5


def test_chain_steps_recursion_is_bounded_by_the_type():
    # one level at a time from depth 0: no call recurses through every level
    assert D.chain_steps(BITS, POS, 5000) == 5000
