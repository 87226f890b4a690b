"""The law-suite generators (finite grids of rows and their orders), the
axiom suites' composites and the principal cut reduction."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from sill import ast as A
from sill import domain as D
from sill import equiv as E
from sill import laws as L
from sill import semantics as S
from sill.ast import NEG, Unit, Up
from sill.parser import parse_program


def pairwise_grid(aspects, depth: int) -> L.FinGrid:
    """The reference grid: compare every pair of rows with ``row_leq``,
    sort the rows into the linear extension by (#preds, index), and take
    each row's covers by transitive reduction of the order."""
    keys = tuple(sorted(aspects))
    rows = list(S.row_grid(aspects, depth))
    n = len(rows)
    leq = [[S.row_leq(rows[i], rows[j]) for j in range(n)] for i in range(n)]
    preds = [[j for j in range(n) if j != i and leq[j][i]] for i in range(n)]
    covers = [[j for j in below if not any(leq[j][k] for k in below if k != j)]
              for below in preds]
    order = sorted(range(n), key=lambda i: (len(preds[i]), i))
    remap = {old: new for new, old in enumerate(order)}
    shape = L.GridShape.pack(
        [D.enumerate_values(*aspects[k], depth) for k in keys], order,
        [sorted(remap[j] for j in covers[i]) for i in order],
        [sum(1 << remap[j] for j in range(n) if leq[i][j]) for i in order])
    return L.FinGrid(keys, [rows[i] for i in order], shape)


def test_grid_for_equals_the_pairwise_grid():
    battery = L.aspect_battery(2)
    small = [asp for asp, n in battery if n <= 3]
    cases = [asp_list for k in (1, 2)
             for asp_list in itertools.product([asp for asp, _ in battery], repeat=k)]
    cases += list(itertools.product(small, repeat=3))
    for asp_list in cases:
        aspects = dict(zip("abc", asp_list))
        got, want = L.grid_for(aspects, 2), pairwise_grid(aspects, 2)
        n = len(want.rows)
        assert got.keys == want.keys
        assert got.rows == want.rows, asp_list
        assert got.shape.order == want.shape.order, asp_list
        assert ([got.shape.covers(i) for i in range(n)]
                == [want.shape.covers(i) for i in range(n)]), asp_list
        assert got.shape.upsets == want.shape.upsets, asp_list


def test_grid_compares_values_not_rows(monkeypatch):
    """Building a grid costs D.leq calls on each aspect's values, not on
    every pair of rows."""
    five = [asp for asp, n in L.aspect_battery(2) if n == 5][:3]
    assert len(five) == 3
    L._grid_cached.cache_clear()
    L._grid_shape.cache_clear()
    L._aspect_order.cache_clear()
    calls = 0
    real_leq = D.leq

    def counting_leq(v, w):
        nonlocal calls
        calls += 1
        return real_leq(v, w)

    monkeypatch.setattr(D, "leq", counting_leq)
    grid = L.grid_for(dict(zip("abc", five)), 2)
    assert len(grid.rows) == 125
    assert calls <= 2 * 3 * 5 ** 2  # pairwise rows would take 125 ** 2


def test_renaming_a_grid_reuses_its_shape(monkeypatch):
    """The same aspects under other key names cost no D.leq and no product
    of cones: only the rows are built, on the cached shape."""
    five = [asp for asp, n in L.aspect_battery(2) if n == 5][:2]
    grid = L.grid_for({"a": five[0], "b": five[1]}, 2)
    L._grid_cached.cache_clear()
    calls = {"leq": 0, "cones": 0}
    real_leq, real_cones = D.leq, L._product_cones

    def counting_leq(v, w):
        calls["leq"] += 1
        return real_leq(v, w)

    def counting_cones(cones_per_aspect):
        calls["cones"] += 1
        return real_cones(cones_per_aspect)

    monkeypatch.setattr(D, "leq", counting_leq)
    monkeypatch.setattr(L, "_product_cones", counting_cones)
    renamed = L.grid_for({"p": five[0], "q": five[1]}, 2)
    assert calls == {"leq": 0, "cones": 0}
    assert L._grid_cached.cache_info().misses == 1
    assert renamed.shape is grid.shape
    assert renamed.rows == [S.Row({"p": r["a"], "q": r["b"]}) for r in grid.rows]


def reference_monotone_table(rng, in_aspects, out_aspects, depth, max_tries=200):
    """The all-predecessor completion: each row's output is drawn, as
    ``rng.choice`` over a list, from the outputs above those of every row
    below it; dead ends restart the assignment."""
    gin = L.grid_for(in_aspects, depth)
    gout = L.grid_for(out_aspects, depth)
    n = len(gin.rows)
    preds = [[p for p in range(i) if gin.shape.upsets[p] >> i & 1] for i in range(n)]
    ups = gout.shape.upsets
    full = (1 << len(gout.rows)) - 1
    for _ in range(max_tries):
        assign = [None] * n
        ok = True
        for i in range(n):
            mask = full
            for p in preds[i]:
                mask &= ups[assign[p]]
                if not mask:
                    break
            if not mask:
                ok = False
                break
            choices = [b for b in range(len(gout.rows)) if mask >> b & 1]
            assign[i] = rng.choice(choices)
        if ok:
            return {gin.rows[i]: gout.rows[assign[i]] for i in range(n)}
    return {r: S.bot_row(gout.keys) for r in gin.rows}


def test_random_monotone_den_draws_the_reference_tables():
    """Completing along covers and drawing the k-th set bit gives the same
    tables, and leaves the generator in the same state, as the reference."""
    battery = L.aspect_battery(2)
    draws = random.Random(2024)
    for seed in range(200):
        sides = []
        for names in ("abc", "xyz"):
            k = draws.randint(1, 3)
            pool = [asp for asp, n in battery if n <= (9 if k < 3 else 5)]
            sides.append({name: draws.choice(pool) for name in names[:k]})
        ins, outs = sides
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = reference_monotone_table(want_rng, ins, outs, 2)
        den = L.random_monotone_den(got_rng, ins, outs, 2)
        assert {row: den(row) for row in want} == want, (seed, ins, outs)
        assert got_rng.getstate() == want_rng.getstate(), seed


def test_a_suite_that_checked_nothing_does_not_pass():
    for suite in (L.trace_axiom_suite, L.conway_identity_suite, L.trace_oracle_suite):
        report = suite(seed=0, rounds=0)
        assert not report.failures and not report.ok, suite.__name__
    assert L.trace_axiom_suite(seed=0, rounds=1).ok


# ---------------------------------------------------------------------------
# Golden axiom battery: every pair the axiom suites compare, pinned by a
# digest of each side's truncated outputs over the compared rows, so that a
# mis-wired composite fails even where both sides of its axiom still agree.
# Regenerate with ``PYTHONPATH=src python tests/test_laws.py``.

AXIOM_GOLDEN = Path(__file__).resolve().parent / "axiom_golden.json"
AXIOM_SUITES = {"trace": L.trace_axiom_suite, "conway": L.conway_identity_suite,
                "oracle": L.trace_oracle_suite}


def axiom_digests(monkeypatch) -> dict[str, list[list[str]]]:
    """Each suite's compared pairs at seeds 0 and 7, 25 rounds, in order:
    the axiom and a sha256 of each side's outputs in the notation, which
    reads back as the same rows, so the digest does not depend on how
    values are represented."""
    real = L._check
    out = {}

    def digest(den, rows, depth):
        outs = [D.format_row(S.row_truncate(den(row), depth), den.outputs) for row in rows]
        return hashlib.sha256(repr(outs).encode()).hexdigest()

    for name, suite in AXIOM_SUITES.items():
        for seed in (0, 7):
            pairs = out[f"{name} seed {seed}"] = []

            def record(report, depth, axiom, i, lhs, rhs):
                rows = L.grid_for(lhs.inputs, depth).rows
                pairs.append([axiom, digest(lhs, rows, depth), digest(rhs, rows, depth)])
                real(report, depth, axiom, i, lhs, rhs)

            monkeypatch.setattr(L, "_check", record)
            assert suite(seed=seed, rounds=25).ok
    return out


def test_axiom_composites_match_golden(monkeypatch):
    golden = json.loads(AXIOM_GOLDEN.read_text(encoding="utf-8"))
    got = axiom_digests(monkeypatch)
    assert sorted(got) == sorted(golden)
    for name, pairs in got.items():
        assert len(pairs) == len(golden[name]), name
        for k, (pair, want) in enumerate(zip(pairs, golden[name])):
            assert pair == want, (name, k)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        digests = axiom_digests(mp)
    AXIOM_GOLDEN.write_text(
        "{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(p)}" for p in pairs)
            + "\n ]" for name, pairs in digests.items()) + "\n}\n",
        encoding="utf-8")


def test_an_axiom_failure_prints_its_rows_in_the_notation():
    aspects = {"a": (Up(Unit()), NEG)}, {"b": (Up(Unit()), NEG)}
    lhs = S.constant_bot(*aspects)
    rhs = S.Denotation(*aspects, lambda row: S.Row({"b": D.up(D.BOT)}))
    report = L.AxiomReport(1, ["yanking"])
    L._check(report, 2, "yanking", 0, lhs, rhs)
    assert [f.detail for f in report.failures] == ["differ at a = _: b = _ vs b = up(_)"]


# ---------------------------------------------------------------------------
# Principal cut reduction


def test_corpus_redexes_reduce_to_their_process():
    for cp in L.corpus_processes():
        for law, redex in L.corpus_redexes(cp).items():
            assert L.principal_reduct(redex) == cp.proc, (law, cp.name)


def test_a_non_redex_is_rejected():
    assoc_left = L._p("c1 : 1 <- (close c1); c2 : 1 <- (wait c1; close c2); wait c2; close c3")
    for proc in (assoc_left, L._p("fwd c b")):
        with pytest.raises(ValueError, match="not a principal redex"):
            L.principal_reduct(proc)


def test_identity_cut_is_the_process():
    # x : T <- (P[x/c]); fwd c x  ==  P, for each corpus process P of c : T
    for cp in L.corpus_processes():
        delta, c, cty = cp.as_args()
        x = A.fresh_name("x", A.free_channels(cp.proc) | {c})
        cut = A.Cut(x, A.rename_channels(cp.proc, {c: x}), A.Fwd(c, x), cty)
        verdict = E.check_equiv(cut, cp.proc, delta, c, cty, depth=3)
        assert verdict.kind == "equivalent", (cp.name, verdict.describe())


@pytest.mark.parametrize("used, redex, reduct", [
    ((), "a : up 1 <- (recv a shift; close a); send a shift; wait a; close c",
     "a : 1 <- (close a); wait a; close c"),
    ((), "a : &{j: up 1, k: 1 -o up 1} <- (case a { j => recv a shift; close a "
     "| k => b <- recv a; wait b; recv a shift; close a }); a.j; send a shift; wait a; close c",
     "a : up 1 <- (recv a shift; close a); send a shift; wait a; close c"),
    (("d",), "a : 1 -o up 1 <- (b <- recv a; wait b; recv a shift; close a); send a d; "
     "send a shift; wait a; close c",
     "a : up 1 <- (wait d; recv a shift; close a); send a shift; wait a; close c"),
    ((), "a : {d : 1} => up 1 <- ((x) <- recv a; dd <- {x}; wait dd; recv a shift; close a); "
     "send a (quit); send a shift; wait a; close c",
     "a : up 1 <- (dd <- quit; wait dd; recv a shift; close a); send a shift; wait a; close c"),
], ids=["up", "with", "lolly", "imp"])
def test_a_client_message_at_a_negative_type_reduces(used, redex, reduct):
    redex, reduct = L._p(redex), L._p(reduct)
    assert L.principal_reduct(redex) == reduct
    verdict = E.check_equiv(reduct, redex, {d: A.Unit() for d in used}, "c", A.Unit(), depth=3)
    assert verdict.kind == "equivalent"


# ---------------------------------------------------------------------------
# Commuting conversions: a message on c moves past a cut whose left side does
# not use c.  Receives are strict, so a receive on c does not move past a left
# side that sends on another channel before it: that send then waits for c.

@pytest.mark.parametrize("ctx, cut_first, message_first, kind", [
    ("|- c : down up 1", "x : 1 <- (close x); send c shift; recv c shift; wait x; close c",
     "send c shift; x : 1 <- (close x); recv c shift; wait x; close c", "equivalent"),
    ("|- c : up 1", "x : 1 <- (close x); recv c shift; wait x; close c",
     "recv c shift; x : 1 <- (close x); wait x; close c", "equivalent"),
    ("d : 1 |- c : +{j: 1, k: 1}", "x : 1 <- (wait d; close x); c.j; wait x; close c",
     "c.j; x : 1 <- (wait d; close x); wait x; close c", "equivalent"),
    ("b : 1, d : 1 |- c : 1 * 1", "x : 1 <- (wait d; close x); send c b; wait x; close c",
     "send c b; x : 1 <- (wait d; close x); wait x; close c", "equivalent"),
    ("d : up 1 |- c : up 1",
     "x : 1 <- (send d shift; wait d; close x); recv c shift; wait x; close c",
     "recv c shift; x : 1 <- (send d shift; wait d; close x); wait x; close c", "distinguished"),
], ids=["send-shift", "recv-shift", "label", "send-channel", "strict-recv"])
def test_a_message_commutes_past_a_cut(ctx, cut_first, message_first, kind):
    left, right = parse_program(
        f"proc l : ({ctx}) = {cut_first}\nproc r : ({ctx}) = {message_first}\n").procs().values()
    verdict = E.check_equiv(left.proc, right.proc, dict(left.delta), left.channel, left.ty,
                            depth=3)
    assert verdict.kind == kind, verdict.describe()
    if kind == "distinguished":
        assert verdict.witness == {"c-": "_", "d+": "_"}
