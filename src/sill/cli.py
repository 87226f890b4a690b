"""Command-line front end.

Subcommands:

* ``sill check FILE...`` — typecheck declarations; exit 0 iff all pass.
* ``sill eval FILE --proc NAME --in "b+ = 0·1·_" [--depth D]`` — run one
  process denotation on an input row written in the value notation.
* ``sill equiv FILE --left P --right Q [--depth D]`` — compare two
  declared processes at their common interface.
* ``sill laws [--suite eta|structural|trace] [--seed N]`` — run the
  built-in law suites.
* ``sill demo-flip [--depth D]`` — the bit-flipping case study: checks
  that flipping twice equals forwarding on every stream approximant and
  reports how fast the composition's feedback chain stabilizes.

Exit codes: 0 success/equivalent, 1 check failure/distinguished,
2 approximate verdict, 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import ast as A
from . import domain as D
from . import equiv as E
from . import laws as L
from . import semantics as S
from . import typecheck as T
from .parser import ProcDecl, SillSyntaxError, parse_program
from .pretty import pp_type

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_APPROX = 2
EXIT_USAGE = 3


class UsageError(Exception):
    """Bad command-line input; reported in one line with exit code 3."""


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_program(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


def cmd_check(args) -> int:
    report = []
    status = EXIT_OK
    for path in args.files:
        try:
            program = _load_program(path)
            results = T.check_program(program)
            report.append({
                "file": path, "ok": True,
                "declarations": [{"name": n, "kind": k} for n, k in results],
            })
        except (SillSyntaxError, T.TypeCheckError) as exc:
            status = EXIT_FAIL
            entry = {"file": path, "ok": False, "error": str(exc)}
            if isinstance(exc, T.TypeCheckError):
                entry["diagnostic"] = exc.to_json()
            report.append(entry)
    if args.json:
        _emit_json({"results": report})
    else:
        for entry in report:
            if entry["ok"]:
                names = ", ".join(d["name"] for d in entry["declarations"]) or "empty"
                print(f"{entry['file']}: ok ({names})")
            else:
                print(f"{entry['file']}: error: {entry['error']}")
    return status


def _find_proc(program, name: str) -> ProcDecl:
    procs = program.procs()
    if name not in procs:
        raise UsageError(f"no proc named {name!r}; available: {sorted(procs)}")
    return procs[name]


def _parse_input_row(text: str, aspects) -> dict:
    entries: dict[str, str] = {}
    depth = 0
    current = []
    parts = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    for part in parts:
        if not part.strip():
            continue
        if "=" not in part:
            raise UsageError(f"bad input entry {part!r}; write key = value")
        key, _, val = part.partition("=")
        entries[key.strip()] = val.strip()
    row = {}
    for key, aspect in aspects.items():
        if key in entries:
            try:
                row[key] = D.parse_value(entries.pop(key), aspect[0], aspect[1])
            except D.ValueNotationError as exc:
                raise UsageError(
                    f"input {key}: {exc} (expected a value of type "
                    f"{pp_type(aspect[0])} at polarity {aspect[1]})"
                )
        else:
            row[key] = D.BOT
    if entries:
        raise UsageError(
            f"unknown input keys {sorted(entries)}; interface has {sorted(aspects)}"
        )
    return row


def cmd_eval(args) -> int:
    program = _load_program(args.file)
    try:
        T.check_program(program)
    except T.TypeCheckError as exc:
        print(f"typecheck failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    decl = _find_proc(program, args.proc)
    delta = dict(decl.delta)
    cfg = S.EvalConfig(depth=args.depth, fuel=args.fuel)
    den = S.denote_process(decl.proc, delta, decl.channel, decl.ty, {},
                           S.EMPTY_ENV, cfg)
    row = _parse_input_row(args.inputs or "", den.inputs)
    # Report only query-time solves, but keep a fuel-out from denoting.
    denote_nonconverged = cfg.diag.nonconverged
    cfg.diag.reset()
    cfg.diag.nonconverged = denote_nonconverged
    out = den(S.Row(row))
    formatted = {
        k: D.format_value(out[k], den.outputs[k][0], den.outputs[k][1])
        for k in sorted(out)
    }
    diagnostics = {
        "trace_iterations": list(cfg.diag.trace_iters),
        "fix_rounds": list(cfg.diag.fix_rounds),
        "nonconverged": cfg.diag.nonconverged,
    }
    if args.json:
        _emit_json({"output": formatted, "diagnostics": diagnostics})
    else:
        print(", ".join(f"{k} = {v}" for k, v in formatted.items()))
        if cfg.diag.trace_iters:
            print(f"trace iterations: {cfg.diag.trace_iters}")
        if cfg.diag.nonconverged:
            print("warning: a fixed point did not converge within fuel")
    return EXIT_APPROX if cfg.diag.nonconverged else EXIT_OK


def cmd_equiv(args) -> int:
    program = _load_program(args.file)
    T.check_program(program)
    left = _find_proc(program, args.left)
    right = _find_proc(program, args.right)
    if (dict(left.delta) != dict(right.delta) or left.channel != right.channel
            or not A.types_equal(left.ty, right.ty)):
        print("the two processes have different interfaces", file=sys.stderr)
        return EXIT_USAGE
    verdict = E.check_equiv(
        left.proc, right.proc, dict(left.delta), left.channel, left.ty,
        depth=args.depth, fuel=args.fuel,
    )
    if args.json:
        _emit_json({
            "kind": verdict.kind,
            "depth": verdict.depth,
            "inputs_checked": verdict.inputs_checked,
            "witness": verdict.witness,
            "left": verdict.left_out,
            "right": verdict.right_out,
            "reason": verdict.reason,
        })
    else:
        print(verdict.describe())
    return {"equivalent": EXIT_OK, "distinguished": EXIT_FAIL}.get(
        verdict.kind, EXIT_APPROX
    )


def cmd_laws(args) -> int:
    suites = [args.suite] if args.suite else ["eta", "structural", "trace"]
    if "trace" in suites and args.rounds == 0:
        raise UsageError("--rounds 0 checks no trace axiom instance")
    payload = {}
    ok = True
    approx = False
    wanted = {law for s in suites for law in L.LAW_SUITES.get(s, ())}
    if wanted:
        report = L.law_suite(depth=args.depth, laws=wanted)
        picked = report.instances
        ok = ok and all(i.ok for i in picked)
        approx = approx or any(i.verdict.kind == "approximate" for i in picked)
        payload["laws"] = [
            {"law": i.law, "instance": i.name, "expected": i.expected,
             "verdict": i.verdict.kind, "ok": i.ok}
            for i in picked
        ]
        if not args.json:
            for line in report.summary_lines():
                print(line)
    if "trace" in suites:
        t_rep = L.trace_axiom_suite(seed=args.seed, rounds=args.rounds)
        c_rep = L.conway_identity_suite(seed=args.seed, rounds=args.rounds)
        ok = ok and t_rep.ok and c_rep.ok
        payload["trace_axioms"] = {
            "rounds": t_rep.rounds,
            "failures": [f.detail for f in t_rep.failures],
        }
        payload["conway_identities"] = {
            "rounds": c_rep.rounds,
            "failures": [f.detail for f in c_rep.failures],
        }
        if not args.json:
            for line in t_rep.summary_lines() + c_rep.summary_lines():
                print(line)
    if args.json:
        payload["ok"] = ok
        _emit_json(payload)
    if not ok:
        return EXIT_FAIL
    return EXIT_APPROX if approx else EXIT_OK


def cmd_demo_flip(args) -> int:
    tables = L.corpus_tables()
    bits = tables["types"]["bits"]
    flip2 = L._p("t <- flip <- a; b <- flip <- t")
    fwd = L._p("fwd b a")
    delta = {"a": bits}
    depth = args.depth
    cfg = S.EvalConfig(depth=depth, fuel=args.fuel)
    den = S.process_denotation(flip2, delta, "b", bits, cfg=cfg)
    den_fwd = S.process_denotation(fwd, delta, "b", bits, cfg=cfg)
    inputs = D.enumerate_values(bits, A.POS, depth)
    stabilization = []
    mismatches = []
    for v in inputs:
        cfg.diag.trace_iters.clear()
        row = S.Row({"a+": v, "b-": D.BOT})
        out = S.row_truncate(den(row), depth)
        ref = S.row_truncate(den_fwd(row), depth)
        stabilization.append(max(cfg.diag.trace_iters, default=0))
        if out != ref:
            mismatches.append((v, out, ref))
    max_n = max(stabilization)
    approx = cfg.diag.nonconverged
    payload = {
        "inputs": len(inputs),
        "depth": depth,
        "equivalent": not mismatches,
        "max_stabilization": max_n,
        "nonconverged": approx,
        "stabilized_by_2": all(n <= 2 for n in stabilization),
    }
    if args.json:
        _emit_json(payload)
    else:
        if approx:
            print("approximate: a fixed point did not converge within fuel")
        elif not mismatches and all(n <= 2 for n in stabilization) and max_n == 2:
            print("equivalent; chain stabilized at n = 2 on every input")
        elif not mismatches:
            print(f"equivalent; chains stabilized by n = {max_n}")
        else:
            v, out, ref = mismatches[0]
            print(f"NOT equivalent: input {D.format_value(v, bits, A.POS)} "
                  f"gives {dict(out)} but forwarding gives {dict(ref)}")
        print(f"checked {len(inputs)} stream approximants at depth {depth}")
    if approx:
        return EXIT_APPROX
    return EXIT_OK if not mismatches else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` makes a
    fresh namespace each call, and help is laid out when it is printed."""
    parser = argparse.ArgumentParser(
        prog="sill",
        description="Typecheck, evaluate, and compare session-typed processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck .sill files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate a process on an input row")
    p_eval.add_argument("file")
    p_eval.add_argument("--proc", required=True)
    p_eval.add_argument("--in", dest="inputs", default="",
                        help='e.g. "b+ = 0·1·_, c- = _"; omitted keys are _')
    p_eval.add_argument("--depth", type=int, default=8)
    p_eval.add_argument("--fuel", type=int, default=None)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_equiv = sub.add_parser("equiv", help="compare two declared processes")
    p_equiv.add_argument("file")
    p_equiv.add_argument("--left", required=True)
    p_equiv.add_argument("--right", required=True)
    p_equiv.add_argument("--depth", type=int, default=4)
    p_equiv.add_argument("--fuel", type=int, default=None)
    p_equiv.add_argument("--json", action="store_true")
    p_equiv.set_defaults(func=cmd_equiv)

    p_laws = sub.add_parser("laws", help="run the built-in law suites")
    p_laws.add_argument("--suite", choices=["eta", "structural", "trace"])
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--depth", type=int, default=4)
    p_laws.add_argument("--rounds", type=int, default=200)
    p_laws.add_argument("--json", action="store_true")
    p_laws.set_defaults(func=cmd_laws)

    p_demo = sub.add_parser("demo-flip", help="the bit-flipping case study")
    p_demo.add_argument("--depth", type=int, default=8)
    p_demo.add_argument("--fuel", type=int, default=None)
    p_demo.add_argument("--json", action="store_true")
    p_demo.set_defaults(func=cmd_demo_flip)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        for name in ("depth", "fuel", "rounds"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise UsageError(f"--{name} must be at least 0, got {value}")
        return args.func(args)
    except (SillSyntaxError, T.TypeCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # streams are read in a loop, but brackets such as up(up(…)) recurse:
        # about a thousand of them exceed the interpreter's recursion limit
        print("error: input too deeply nested to evaluate", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
