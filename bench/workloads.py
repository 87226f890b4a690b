"""The benchmark's workloads: fixed inputs, seeded operations, references.

Each workload has a ``setup`` that loads, parses and typechecks its fixed
inputs (timed as part of ``setup_s``) and an ``ops`` generator that turns
the workload seed into an endless sequence of rounds.  A round is a list
of :class:`Op`; the measurement loop stops only between rounds.  Every op
carries its own reference, which never comes from sill: the bitwise
complement for ``flip-eval``, the size of the stream grid for
``flip-grid``, the hand-written ``expected`` verdict for ``law-corpus``,
zero failures for ``trace-axioms`` (the axioms are theorems) and the true
verdict for ``law-probes``.

All sill functions are looked up through the module objects at call time,
so that the tracer's wrappers, installed after setup, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

BENCH_DIR = Path(__file__).resolve().parent

FLIP_EVAL_DEPTH = 8
FLIP_GRID_DEPTH = 9
LAW_DEPTH = 4
AXIOM_ROUNDS = 4
MAX_PREFIX = 7
DOT = "·"


@dataclass
class Op:
    """One operation: ``call`` runs sill, ``check`` returns an error or None."""

    op_id: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _flip_path(m) -> Path:
    return Path(m["sill"].__file__).parent / "fixtures" / "flip.sill"


def _load_checked(m, text: str):
    sill = m["sill"]
    program = sill.parse_program(text)
    sill.check_program(program)
    return program


class FlipEval:
    """``sill eval flip.sill --proc flip1 --depth 8 --in "b+ = …" --json``,
    run in-process through ``cli.main``."""

    name = "flip-eval"

    def setup(self, m):
        path = _flip_path(m)
        if "flip1" not in _load_checked(m, path.read_text(encoding="utf-8")).procs():
            raise RuntimeError("flip.sill has no flip1")
        return str(path)

    def ops(self, m, path, rng: random.Random) -> Iterator[list[Op]]:
        while True:
            bits = [rng.choice("01") for _ in range(rng.randint(0, MAX_PREFIX))]
            yield [self._op(m, path, bits)]

    @staticmethod
    def _op(m, path, bits) -> Op:
        value = DOT.join(bits + ["_"])
        flipped = DOT.join(["1" if b == "0" else "0" for b in bits] + ["_"])
        want = {"b-": "_", "f+": flipped}
        argv = ["eval", path, "--proc", "flip1", "--depth", str(FLIP_EVAL_DEPTH),
                "--in", f"b+ = {value}", "--json"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = m["cli"].main(argv)
            return code, out.getvalue()

        def check(got):
            code, text = got
            if code != 0:
                return f"eval {value}: exit code {code}"
            output = json.loads(text)["output"]
            return None if output == want else f"eval {value}: got {output}, want {want}"

        return Op(f"flip1({value})", call, check)


class FlipGrid:
    name = "flip-grid"

    def setup(self, m):
        procs = _load_checked(m, _flip_path(m).read_text(encoding="utf-8")).procs()
        left, right = procs["flip2"], procs["fwdp"]
        if dict(left.delta) != dict(right.delta) or left.channel != right.channel:
            raise RuntimeError("flip2 and fwdp have different interfaces")
        return left, right

    def ops(self, m, ctx, rng: random.Random) -> Iterator[list[Op]]:
        left, right = ctx
        equiv = m["equiv"]
        want = 2 ** (FLIP_GRID_DEPTH + 1) - 1

        def call():
            return equiv.check_equiv(left.proc, right.proc, dict(left.delta),
                                     left.channel, left.ty, depth=FLIP_GRID_DEPTH)

        def check(verdict):
            if verdict.kind == "equivalent" and verdict.inputs_checked == want:
                return None
            return (f"flip2 vs fwdp: {verdict.kind} after "
                    f"{verdict.inputs_checked} inputs, want equivalent after {want}")

        op = Op(f"flip2~fwdp@{FLIP_GRID_DEPTH}", call, check)
        while True:
            yield [op]


@dataclass
class _Instance:
    op_id: str
    expected: str
    fn: str
    args: tuple
    kwargs: dict


def _equiv_op(m, inst: _Instance, accept: tuple[str, ...]) -> Op:
    equiv = m["equiv"]

    def call():
        return getattr(equiv, inst.fn)(*inst.args, **inst.kwargs)

    def check(verdict):
        if verdict.kind in accept:
            return None
        return f"{inst.op_id}: {verdict.kind}, want {inst.expected}"

    return Op(inst.op_id, call, check)


def _shuffled_passes(ops: list[Op], rng: random.Random) -> Iterator[list[Op]]:
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


class LawCorpus:
    name = "law-corpus"

    def setup(self, m):
        """Capture the law suite's instances instead of checking them.

        ``law_suite`` builds each instance and hands it to
        ``check_equiv``/``term_equiv``; recording those calls gives the
        instances as data, each with its hand-written expected verdict.
        """
        equiv, laws, sill = m["equiv"], m["laws"], m["sill"]
        calls = []

        def recorder(fn):
            def record(*args, **kwargs):
                calls.append((fn, args, kwargs))
                return equiv.Verdict("equivalent", kwargs.get("depth", LAW_DEPTH))
            return record

        saved = equiv.check_equiv, equiv.term_equiv
        equiv.check_equiv = recorder("check_equiv")
        equiv.term_equiv = recorder("term_equiv")
        try:
            report = laws.law_suite(depth=LAW_DEPTH)
        finally:
            equiv.check_equiv, equiv.term_equiv = saved
        if len(calls) != len(report.instances):
            raise RuntimeError("law suite instances and checks do not pair up")
        out = []
        for (fn, args, kwargs), inst in zip(calls, report.instances):
            if fn == "check_equiv":
                left, right, delta, c, cty = args
                psi = dict(kwargs.get("psi") or {})
                sill.check_process(psi, dict(delta), left, c, cty)
                sill.check_process(psi, dict(delta), right, c, cty)
            else:
                left, right, ty = args
                sill.check_term({}, left, ty)
                sill.check_term({}, right, ty)
            out.append(_Instance(f"{inst.law}/{inst.name}", inst.expected,
                                 fn, args, kwargs))
        return out

    def ops(self, m, instances, rng: random.Random) -> Iterator[list[Op]]:
        ops = [_equiv_op(m, inst, (inst.expected,)) for inst in instances]
        return _shuffled_passes(ops, rng)


class TraceAxioms:
    name = "trace-axioms"

    def setup(self, m):
        m["laws"].aspect_battery(2)
        return None

    def ops(self, m, ctx, rng: random.Random) -> Iterator[list[Op]]:
        laws = m["laws"]
        while True:
            s1, s2 = rng.randrange(2 ** 31), rng.randrange(2 ** 31)

            def call(s1=s1, s2=s2):
                return (laws.trace_axiom_suite(seed=s1, rounds=AXIOM_ROUNDS),
                        laws.conway_identity_suite(seed=s2, rounds=AXIOM_ROUNDS))

            def check(reports, s1=s1, s2=s2):
                bad = [f.axiom for rep in reports for f in rep.failures]
                return f"seeds {s1}/{s2}: failed {bad}" if bad else None

            yield [Op(f"axioms({s1},{s2})", call, check)]


class LawProbes:
    """Truncation probes: a private cut whose protocol is deeper than the
    observation depth.  At the seed sill gives the wrong verdict on all
    three, so this workload is kept out of ``BENCHMARK.json`` (whose
    workloads must have no failing operation) and is run by ``--workload
    all`` and by the tests instead."""

    name = "law-probes"

    PROBES = (("pa", "pb", 1, "distinguished"),
              ("pa", "pb", 2, "distinguished"),
              ("pa", "bare", 2, "equivalent"))

    def setup(self, m):
        text = (BENCH_DIR / "probes.sill").read_text(encoding="utf-8")
        return _load_checked(m, text).procs()

    def ops(self, m, procs, rng: random.Random) -> Iterator[list[Op]]:
        ops = []
        for left, right, depth, truth in self.PROBES:
            lp, rp = procs[left], procs[right]
            inst = _Instance(f"{left}~{right}@{depth}", truth, "check_equiv",
                             (lp.proc, rp.proc, dict(lp.delta), lp.channel, lp.ty),
                             {"depth": depth})
            ops.append(_equiv_op(m, inst, (truth, "approximate")))
        return _shuffled_passes(ops, rng)


WORKLOADS = {w.name: w for w in (FlipEval(), FlipGrid(), LawCorpus(),
                                 TraceAxioms(), LawProbes())}
