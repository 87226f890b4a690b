"""Command-line behaviour: fixtures, exit codes, and JSON stability."""

import json
from pathlib import Path

import pytest

from sill.cli import main

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


@pytest.mark.parametrize("bits", [300, 1200])
def test_eval_long_input_is_a_usage_error(capsys, bits):
    stream = "·".join("01"[i % 2] for i in range(bits)) + "·_"
    usage_error(capsys, "eval", str(FIXTURES / "flip.sill"), "--proc", "flip1",
                "--depth", "2", "--in", f"b+ = {stream}")


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


def test_fuel_exhaustion_reports_approximate(capsys):
    flip = str(FIXTURES / "flip.sill")
    code, out = run(capsys, "equiv", flip, "--left", "flip2",
                    "--right", "fwdp", "--depth", "4", "--fuel", "0")
    assert code == 2
    assert "approximate" in out


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
