"""Order, enumeration, truncation, and notation for communication values."""

import itertools
import json
from pathlib import Path

import pytest

from sill import ast as A
from sill import domain as D
from sill.ast import NEG, POS
from sill.parser import parse_type
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
        assert isinstance(v, D.Fold)
        tag = v.inner
        assert isinstance(tag, D.Tag)
        out.append(tag.label)
        v = tag.inner.inner
    return out


def list_to_bits(labels):
    v = D.BOT
    for label in reversed(labels):
        v = D.fold(D.tag(label, v))
    return v


def oracle_leq(v, w):
    lv, lw = bits_to_list(v), bits_to_list(w)
    return lv == lw[: len(lv)]


def test_bits_order_matches_prefix_oracle():
    values = enum(BITS, POS, 3)
    for v, w in itertools.product(values, repeat=2):
        assert D.leq(v, w) == oracle_leq(v, w), (v, w)


def test_bits_lub_matches_prefix_oracle():
    values = enum(BITS, POS, 2)
    for v, w in itertools.product(values, repeat=2):
        lv, lw = bits_to_list(v), bits_to_list(w)
        comparable = lv == lw[: len(lv)] or lw == lv[: len(lw)]
        if comparable:
            expected = list_to_bits(max((lv, lw), key=len))
            assert D.lub2(v, w) == expected
        else:
            with pytest.raises(D.JoinError):
                D.lub2(v, w)


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


def test_lub_unit_and_equality():
    x = D.parse_value("0·1·_", BITS, POS)
    assert D.lub2(D.BOT, x) == x
    assert D.STAR == D.STAR
    assert D.lub2(D.parse_value("0·_", BITS, POS), x) == x


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
                assert D.height(v) <= d


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
