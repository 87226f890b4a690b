"""Command-line behaviour: fixtures, exit codes, and JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sill import domain as D
from sill import laws as L
from sill.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sill" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_fixtures_ok(capsys):
    files = [str(FIXTURES / n) for n in
             ("flip.sill", "example51.sill", "upshift.sill", "choice.sill")]
    code, out = run(capsys, "check", *files)
    assert code == 0
    assert out.count(": ok") == 4


def test_check_empty_file_ok(tmp_path, capsys):
    f = tmp_path / "empty.sill"
    f.write_text("")
    code, out = run(capsys, "check", str(f))
    assert code == 0
    assert "empty" in out


def test_check_ill_typed_battery(capsys):
    manifest = json.loads((FIXTURES / "ill" / "manifest.json").read_text())
    for fname, rule in manifest.items():
        code, out = run(capsys, "check", str(FIXTURES / "ill" / fname))
        assert code == 1, fname
        assert rule in out, (fname, out)


def test_check_json_diagnostics(capsys):
    code, out = run(capsys, "check", "--json",
                    str(FIXTURES / "ill" / "ill_down_positive.sill"))
    assert code == 1
    payload = json.loads(out)
    assert payload["results"][0]["diagnostic"]["rule"] == "Cdown"


def test_a_cut_whose_operands_share_a_channel_is_rejected(tmp_path, capsys):
    # the left operand retypes a without consuming it, so the right may not
    # wait on it too: a one-line type error, not a traceback
    f = tmp_path / "shared.sill"
    f.write_text("proc q : (a : up 1 |- c : 1) = "
                 "x : 1 <- (send a shift; close x); wait x; wait a; close c\n")
    for argv in (["check", str(f)], ["eval", str(f), "--proc", "q", "--in", "a+ = _"]):
        code = main(argv)
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert code == 1, argv
        assert text.count("\n") == 1 and "[Cut] channel 'a' is used but not" in text, text


def test_eval_fixture_cases(capsys):
    expected = json.loads((FIXTURES / "expected.json").read_text())
    for fname, entry in expected.items():
        for case in entry["cases"]:
            code, out = run(
                capsys, "eval", str(FIXTURES / fname),
                "--proc", entry["proc"], "--in", case["in"],
                "--depth", str(entry["depth"]), "--json",
            )
            assert code == 0, (fname, case)
            payload = json.loads(out)
            assert payload["output"] == case["out"], (fname, case["in"])


def test_eval_example51_plain_output(capsys):
    code, out = run(capsys, "eval", str(FIXTURES / "example51.sill"),
                    "--proc", "ex51", "--in", "b+ = up((*, *)), c- = _")
    assert code == 0
    assert out.splitlines()[0] == "b- = (_, _), c+ = *"


def usage_error(capsys, *argv):
    """Run a command that must fail as a usage error; return its message."""
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def test_eval_rejects_nonconforming_input(capsys):
    err = usage_error(capsys, "eval", str(FIXTURES / "example51.sill"),
                      "--proc", "ex51", "--in", "b+ = 0·1·_")
    assert "expected" in err


def test_eval_unknown_key_reports_interface(capsys):
    err = usage_error(capsys, "eval", str(FIXTURES / "example51.sill"),
                      "--proc", "ex51", "--in", "zz+ = _")
    assert "interface" in err


def test_eval_unknown_proc_is_a_usage_error(capsys):
    err = usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "nope")
    assert "available" in err


def long_stream(bits):
    return "·".join("01"[i % 2] for i in range(bits)) + "·_"


def flipped_stream(bits):
    return "·".join("10"[i % 2] for i in range(bits)) + "·_"


def test_eval_flips_a_long_input_whole_at_a_shallow_depth(capsys):
    # values are hash-consed, so nothing hashes or compares them recursively;
    # the rows of a chain are solved exactly, however deep the working depth
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                    "--depth", "2", "--in", f"b+ = {long_stream(300)}")
    assert code == 0
    assert out.splitlines()[0] == f"b- = _, f+ = {flipped_stream(300)}"


@pytest.mark.parametrize("bits", [600, 3000])
def test_eval_reads_a_long_stream(capsys, bits):
    # a stream is read, solved and printed in loops, not a call per message
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                    "--depth", "8", "--in", f"b+ = {long_stream(bits)}")
    assert code == 0
    assert out.splitlines()[0] == f"b- = _, f+ = {flipped_stream(bits)}"


def test_eval_a_short_input_at_a_large_depth(capsys):
    # the fuel bound of each trace is computed without a call per depth level
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip2",
                    "--depth", "400", "--in", "a+ = 0·1·_")
    assert code == 0
    assert out.splitlines()[0] == "a- = _, b+ = 0·1·_"


def test_eval_feeds_back_a_cut_stream_whole(capsys):
    # the stream between flip2's two flips is longer than the working depth;
    # it is fed back whole, so all 12 bits come through exactly
    bits = "0·1·1·0·1·0·0·1·1·1·0·1·_"
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip2",
                    "--depth", "4", "--in", f"a+ = {bits}")
    assert code == 0
    assert out.splitlines()[0] == f"a- = _, b+ = {bits}"


@pytest.mark.parametrize("levels", [1200])
def test_eval_deeply_nested_input_is_a_usage_error(capsys, levels):
    # up(...) is read in a loop; it is not a bits value, whatever its depth
    err = usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                      "--depth", "2", "--in", f"b+ = {'up(' * levels}_{')' * levels}")
    assert "expected a labelled value" in err


def test_eval_deeply_nested_pairs_are_a_usage_error(tmp_path, capsys):
    # each pair nests a call, so enough of them reach the recursion limit
    f = tmp_path / "pairs.sill"
    f.write_text("type pairs = rho t. 1 * t\n"
                 "proc fw : (a : pairs |- b : pairs) = fwd b a\n")
    levels = 1200
    err = usage_error(capsys, "eval", str(f), "--proc", "fw", "--depth", "2",
                      "--in", f"a+ = {'up((_, ' * levels}_{'))' * levels}")
    assert err == "error: input too deeply nested to evaluate\n"


def test_eval_duplicate_input_key_is_a_usage_error(capsys):
    err = usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                      "--in", "b+ = 0·_, b+ = 1·_")
    assert err == "error: input key 'b+' is given twice\n"


def test_eval_stray_bracket_is_reported_as_itself(capsys):
    err = usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                      "--in", "b+ = 0·_), c- = _")
    assert err.startswith("error: input b+: ") and "')'" in err, err


@pytest.mark.parametrize("argv, code", [
    (["eval", str(FIXTURES / "flip.sill"), "--proc", "flip1", "--in", "b+ = 0·_",
      "--json"], 0),
    (["check", str(FIXTURES / "ill" / "ill_close_nonunit.sill")], 1),
])
def test_closed_stdout_ends_the_run_quietly(argv, code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "sill.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()  # before the command writes anything
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")


def test_eval_ill_typed_file_reports_one_error_line(capsys):
    code = main(["eval", str(FIXTURES / "ill" / "ill_down_positive.sill"),
                 "--proc", "p"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_equiv_of_different_interfaces_is_a_usage_error(capsys):
    err = usage_error(capsys, "equiv", str(FIXTURES / "flip.sill"),
                      "--left", "flip1", "--right", "flip2")
    assert err == "error: the two processes have different interfaces\n"


def test_equiv_of_a_non_enumerable_interface_is_a_usage_error(tmp_path, capsys):
    # the used channel carries an arrow, which has no finite value grid
    ty = "(a : ({d : 1} -> {d : 1}) /\\ 1 |- c : 1)"
    body = "(f) <- recv a; wait a; close c"
    src = tmp_path / "arrow.sill"
    src.write_text("term quit : {d : 1} = {d <- close d}\n"
                   f"proc p : {ty} = {body}\nproc q : {ty} = {body}\n", encoding="utf-8")
    err = usage_error(capsys, "equiv", str(src), "--left", "p", "--right", "q")
    assert err == ("error: cannot enumerate the interface: functional type is not "
                   "enumerable: {d : 1} -> {d : 1}\n")


@pytest.mark.parametrize("command", [["check"], ["eval", "--proc", "p"],
                                     ["equiv", "--left", "p", "--right", "q"]])
def test_unreadable_source_is_a_usage_error(tmp_path, capsys, command):
    binary = tmp_path / "latin1.sill"
    binary.write_bytes("type caf\u00e9 = 1\n".encode("latin-1"))
    for path, reason in ((tmp_path, "Is a directory"),
                         (binary, "not UTF-8 text (invalid continuation byte at byte 8)")):
        err = usage_error(capsys, command[0], str(path), *command[1:])
        assert err == f"error: cannot read {path}: {reason}\n"


def test_equiv_exit_codes(capsys):
    flip = str(FIXTURES / "flip.sill")
    code, out = run(capsys, "equiv", flip, "--left", "flip2",
                    "--right", "fwdp", "--depth", "4")
    assert code == 0 and "equivalent" in out
    code, out = run(capsys, "equiv", flip, "--left", "flip1",
                    "--right", "fwdf", "--depth", "1")
    assert code == 1
    assert "distinguished" in out and "0·_" in out


def test_equiv_json_is_stable(capsys):
    flip = str(FIXTURES / "flip.sill")
    args = ("equiv", flip, "--left", "flip1", "--right", "fwdf",
            "--depth", "2", "--json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "distinguished"
    assert payload["witness"]


def test_laws_trace_suite(capsys):
    code, out = run(capsys, "laws", "--suite", "trace", "--seed", "0",
                    "--rounds", "20")
    assert code == 0
    assert "yanking: 20/20" in out


def test_laws_structural_suite(capsys):
    code, out = run(capsys, "laws", "--suite", "structural", "--depth", "3")
    assert code == 0
    assert "cut-assoc" in out


def test_laws_json_stable(capsys):
    args = ("laws", "--suite", "trace", "--seed", "3", "--rounds", "10", "--json")
    code, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


def test_demo_flip(capsys):
    code, out = run(capsys, "demo-flip", "--depth", "5")
    assert code == 0
    assert "equivalent; chain stabilized at n = 2 on every input" in out
    assert "63 stream approximants" in out


def test_demo_flip_prints_a_mismatch_in_the_notation(capsys, monkeypatch):
    parse = L._p
    monkeypatch.setattr(L, "_p", lambda src: parse(
        "b <- flip <- a" if src == "fwd b a" else src))
    code, out = run(capsys, "demo-flip", "--depth", "2")
    assert code == 1
    assert out.splitlines()[0] == ("NOT equivalent: input 0·_ gives a- = _, b+ = 0·_ "
                                   "but forwarding gives a- = _, b+ = 1·_")


def test_fuel_exhaustion_reports_approximate(capsys):
    flip = str(FIXTURES / "flip.sill")
    code, out = run(capsys, "equiv", flip, "--left", "flip2",
                    "--right", "fwdp", "--depth", "4", "--fuel", "0")
    assert code == 2
    assert "approximate" in out


def test_demo_flip_fuel_out_is_approximate(capsys):
    code, out = run(capsys, "demo-flip", "--depth", "4", "--fuel", "0")
    assert code == 2
    assert out.splitlines()[0] == (
        "approximate: a fixed point did not converge within fuel")
    code, out = run(capsys, "demo-flip", "--depth", "4", "--fuel", "0", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["nonconverged"] is True
    assert payload["stabilized_by_2"] is False


def test_demo_flip_counts_the_inputs_it_checked(capsys):
    # out of fuel, the composition differs from forwarding on the 2nd input
    # (fuel 0) or the 6th (fuel 1); the inputs after it are not checked
    for fuel, checked in (("0", 2), ("1", 6)):
        code, out = run(capsys, "demo-flip", "--depth", "4", "--fuel", fuel, "--json")
        assert code == 2
        payload = json.loads(out)
        assert (payload["inputs"], payload["equivalent"]) == (checked, False)
        _, out = run(capsys, "demo-flip", "--depth", "4", "--fuel", fuel)
        assert out.splitlines()[-1] == f"checked {checked} stream approximants at depth 4"


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 3
    assert main(["no-such-command"]) == 3


def test_missing_file_is_a_usage_error(capsys):
    assert main(["check", "/nonexistent/path.sill"]) == 3


def test_eval_json_is_stable(capsys):
    args = ("eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
            "--in", "b+ = 0·1·_", "--depth", "6", "--json")
    code, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert code == 0
    assert out1 == out2


BITS30 = "b+ = " + "·".join("010011010111000101101001110100") + "·_"


def test_eval_solves_only_the_rows_it_asks_for(capsys):
    # the whole interface grid at depth 40 has about 2**41 rows
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc",
                    "flip1", "--depth", "40", "--in", BITS30, "--json")
    assert code == 0
    flipped = "·".join("101100101000111010010110001011") + "·_"
    assert json.loads(out)["output"] == {"b-": "_", "f+": flipped}


def test_eval_solves_a_deep_input_in_two_sweeps(capsys):
    # the rows the query demands form a chain, one per suffix of the input;
    # solved dependencies first, the chain takes two sweeps however long it
    # is, and its output is exact below the working depth too
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc",
                    "flip1", "--depth", "8", "--in", BITS30, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["f+"] == "·".join("101100101000111010010110001011") + "·_"
    assert payload["diagnostics"]["fix_rounds"] == [2]


def test_eval_out_of_fuel_is_approximate(capsys):
    code, _ = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc",
                  "flip1", "--fuel", "1", "--in", "b+ = 0·1·1·_")
    assert code == 2


@pytest.mark.parametrize("proc, given, fuel, want", [
    ("flip2", "a+ = 0·1·_", 0, ([0], [], True, "b+", "_")),
    ("flip2", "a+ = 0·1·_", 1, ([1], [1], True, "b+", "0·_")),
    ("flip2", "a+ = 0·1·_", 2, ([2], [2, 2], False, "b+", "0·1·_")),
    ("flip1", "b+ = 0·1·_", 0, ([], [], True, "f+", "_")),
    ("flip1", "b+ = 0·1·_", 1, ([], [1], True, "f+", "1·_")),
    ("flip1", "b+ = 0·1·_", 2, ([], [2], False, "f+", "1·0·_")),
])
def test_eval_fuel_counts(capsys, proc, given, fuel, want):
    code, out = run(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", proc,
                    "--in", given, "--depth", "4", "--fuel", str(fuel), "--json")
    payload = json.loads(out)
    iters, rounds, nonconverged, key, value = want
    assert payload["diagnostics"] == {"trace_iterations": iters, "fix_rounds": rounds,
                                      "nonconverged": nonconverged}
    assert payload["output"][key] == value
    assert code == (2 if nonconverged else 0)


def test_eval_keeps_a_denote_time_fuel_out(tmp_path, capsys):
    f = tmp_path / "loop.sill"
    f.write_text("term quit : {d : 1} = {d <- close d}\n"
                 "term loopf : {d : 1} -> {d : 1} = fix f. \\x : {d : 1}. f x\n"
                 "proc p : (|- d : 1) = d <- {loopf quit}\n")
    code, out = run(capsys, "eval", str(f), "--proc", "p", "--json")
    assert code == 2
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["nonconverged"] is True
    assert diagnostics["fix_rounds"] == []


# Negative counts are usage errors: a run at depth -1 or with -2 fuel
# checks nothing, so it must not claim a verdict.

def test_eval_rejects_negative_numbers(capsys):
    for opt in ("--depth", "--fuel"):
        err = usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc",
                          "flip1", "--in", "b+ = 0·_", opt, "-2")
        assert err.startswith(f"error: {opt} must be at least 0"), err


def test_equiv_rejects_negative_numbers(capsys):
    for opt in ("--depth", "--fuel"):
        err = usage_error(capsys, "equiv", str(FIXTURES / "flip.sill"), "--left",
                          "flip2", "--right", "fwdp", opt, "-1")
        assert err.startswith(f"error: {opt} must be at least 0"), err


def test_laws_rejects_negative_numbers(capsys):
    for argv in (("--suite", "eta", "--depth", "-2"),
                 ("--suite", "trace", "--rounds", "-1")):
        err = usage_error(capsys, "laws", *argv)
        assert err.startswith(f"error: {argv[2]} must be at least 0"), err


def test_laws_trace_with_no_rounds_is_a_usage_error(capsys):
    # zero rounds check no trace axiom instance, so they cannot pass
    for argv in (("--suite", "trace"), (), ("--suite", "trace", "--json")):
        err = usage_error(capsys, "laws", *argv, "--rounds", "0")
        assert err.startswith("error: --rounds 0 checks no trace axiom"), err


def test_demo_flip_rejects_negative_numbers(capsys):
    for opt in ("--depth", "--fuel"):
        err = usage_error(capsys, "demo-flip", opt, "-3")
        assert err.startswith(f"error: {opt} must be at least 0"), err


def test_repeated_main_calls_match_lone_calls(capsys, monkeypatch, tmp_path):
    # One process may call ``main`` many times: no option value, default or
    # help layout may leak from one call into the next.
    flip = str(FIXTURES / "flip.sill")
    zeros = tmp_path / "zeros.sill"
    zeros.write_text(FIXTURES.joinpath("flip.sill").read_text(encoding="utf-8")
                     + "proc zs : (|- a : bits) = a <- zeros\n", encoding="utf-8")
    # the stream of zeros is as long as the working depth
    query = ["eval", str(zeros), "--proc", "zs"]
    calls = [
        ([*query, "--depth", "3", "--json"], "80"),
        ([*query, "--json"], "80"),  # the default depth 8, not 3
        (["eval", flip, "--depth", "three"], "80"),
        (["check", flip], "80"),
        (["--help"], "60"),
        (["eval", "--help"], "100"),
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    got, lone = [], []
    for argv, columns in calls:
        monkeypatch.setenv("COLUMNS", columns)
        code = main(argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
        run = subprocess.run(
            [sys.executable, "-m", "sill.cli", *argv], capture_output=True,
            encoding="utf-8", env={**os.environ, "PYTHONPATH": src})
        lone.append((run.returncode, run.stdout, run.stderr))
    assert got == lone
    assert [code for code, _, _ in got] == [0, 0, 3, 0, 0, 0]
    assert got[0][1] != got[1][1]
    assert build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# Golden CLI battery: the full ``--json`` stdout and exit code of the
# evaluation commands, pinned so that a change to the evaluator cannot move
# any reported figure.  ``FIXTURES/`` in an argv stands for the fixture
# directory.  Regenerate with ``PYTHONPATH=src python tests/test_cli.py``.

CLI_GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def cli_golden_cases() -> dict[str, list[str]]:
    cases = {}
    expected = json.loads((FIXTURES / "expected.json").read_text())
    for fname, entry in expected.items():
        for case in entry["cases"]:
            cases[f"eval {fname} {case['in']}"] = [
                "eval", f"FIXTURES/{fname}", "--proc", entry["proc"],
                "--in", case["in"], "--depth", str(entry["depth"]), "--json"]
    flip = "FIXTURES/flip.sill"
    cases["eval flip1 depth 11"] = ["eval", flip, "--proc", "flip1", "--depth",
                                    "11", "--in", "b+ = 0·1·1·0·1·_", "--json"]
    cases["equiv flip2 fwdp depth 6"] = ["equiv", flip, "--left", "flip2",
                                         "--right", "fwdp", "--depth", "6", "--json"]
    cases["equiv flip1 fwdf depth 2"] = ["equiv", flip, "--left", "flip1",
                                         "--right", "fwdf", "--depth", "2", "--json"]
    cases["demo-flip depth 8"] = ["demo-flip", "--depth", "8", "--json"]
    for suite in ("eta", "structural"):
        cases[f"laws {suite}"] = ["laws", "--suite", suite, "--json"]
    for seed in ("0", "7"):
        cases[f"laws trace seed {seed}"] = ["laws", "--suite", "trace",
                                            "--seed", seed, "--json"]
    return cases


def run_golden_case(argv, capture) -> dict:
    code = main([a.replace("FIXTURES/", f"{FIXTURES}/") for a in argv])
    return {"exit": code, "stdout": capture()}


def test_distinguished_witnesses_replay(capsys):
    # the witness of each distinguished equiv, passed to eval --in, gives
    # the outputs that equiv printed for each side
    replayed = 0
    for argv in cli_golden_cases().values():
        if argv[0] != "equiv":
            continue
        argv = [a.replace("FIXTURES/", f"{FIXTURES}/") for a in argv]
        _, out = run(capsys, *argv)
        verdict = json.loads(out)
        if verdict["kind"] != "distinguished":
            continue
        opts = dict(zip(argv[2::2], argv[3::2]))
        for side in ("left", "right"):
            code, out = run(capsys, "eval", argv[1], "--proc", opts[f"--{side}"],
                            "--depth", opts["--depth"], "--json",
                            "--in", D.join_row(verdict["witness"]))
            assert code == 0 and json.loads(out)["output"] == verdict[side], side
        replayed += 1
    assert replayed


def test_cli_json_matches_golden(capsys):
    golden = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    cases = cli_golden_cases()
    assert sorted(golden) == sorted(cases)
    for name, argv in cases.items():
        got = run_golden_case(argv, lambda: capsys.readouterr().out)
        assert got == golden[name], name


if __name__ == "__main__":
    import contextlib
    import io

    out = {}
    for name, argv in cli_golden_cases().items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out[name] = run_golden_case(argv, lambda: None)
        out[name]["stdout"] = buf.getvalue()
    CLI_GOLDEN.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
