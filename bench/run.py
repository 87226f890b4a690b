"""sill benchmark: time to a verdict on five workloads, plus a traced run.

Usage (from the repository root)::

    python3 bench/run.py --workload flip-eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 0

Each workload runs alone in this process, as a closed loop with one
caller: the next operation starts when the previous one has returned.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``latency_p50_s``, ``latency_tail_s``,
``throughput_ops_s``, ``peak_rss_mb``); with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written under
``bench/out/``.  ``--workload all`` runs every workload, each in its own
process, and prints one table.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
# The workloads BENCHMARK.json lists, then those only ``--workload all`` runs:
# flip-grid has 3-4 ops per run, too few to hold its spread within the
# bounds on a shared machine, and law-probes has wrong verdicts.
DRIVER_WORKLOADS = ("flip-eval", "law-corpus", "trace-axioms")
EXTRA_WORKLOADS = ("flip-grid", "law-probes")
SILL_MODULES = ("sill", "parser", "typecheck", "domain", "semantics",
                "equiv", "laws", "cli")

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("throughput_ops_s", "1/s"), ("peak_rss_mb", "MB"))


class SetupError(RuntimeError):
    pass


def import_sill() -> dict:
    """Import sill afresh from ``src/`` and return its modules by short name."""
    for name in [n for n in sys.modules if n == "sill" or n.startswith("sill.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        sill = importlib.import_module("sill")
    except ImportError as exc:
        raise SetupError(f"cannot import sill from {SRC}: {exc}") from exc
    where = Path(sill.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"imported sill from {where}, not from {SRC}")
    return {short: sill if short == "sill" else importlib.import_module(f"sill.{short}")
            for short in SILL_MODULES}


def set_up(workload, times=None):
    """A fresh import of sill plus loading, parsing and typechecking the
    workload's fixed inputs; its duration is appended to ``times``."""
    t0 = time.perf_counter()
    modules = import_sill()
    ctx = workload.setup(modules)
    if times is not None:
        times.append(time.perf_counter() - t0)
    gc.collect()
    return modules, ctx


class Runner:
    """Runs rounds of ops, timing each op and checking it against its
    reference.  The loop stops only between rounds, once less than half a
    typical round of the time budget is left."""

    def __init__(self, registry, tracer=None):
        self.registry = registry
        self.tracer = tracer
        self.latencies = []
        self.errors = []
        self.op_ids = []

    def run_op(self, op):
        self.registry.take()
        index = len(self.op_ids)
        if self.tracer:
            self.tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            result, raised = op.call(), None
        except Exception as exc:  # an operation that raises is an error, not a crash
            result, raised = None, exc
        t1 = time.perf_counter()
        diags = self.registry.take()
        if self.tracer:
            self.tracer.end_op(diags)
        self.latencies.append(t1 - t0)
        self.op_ids.append(op.op_id)
        if raised is not None:
            error = f"{op.op_id}: raised {type(raised).__name__}: {raised}"
        elif any(diag.nonconverged for diag in diags):
            error = f"{op.op_id}: a fixed point ran out of fuel"
        else:
            error = op.check(result)
        if error:
            self.errors.append(error)

    def run_rounds(self, rounds, seconds):
        """Run rounds until the budget is spent; return how many ran and
        the time they took."""
        durations = []
        start = time.perf_counter()
        for rnd in rounds:
            r0 = time.perf_counter()
            for op in rnd:
                self.run_op(op)
            end = time.perf_counter()
            durations.append(end - r0)
            if seconds - (end - start) <= statistics.median(durations) / 2:
                return len(durations), end - start


def tail_percentile(n):
    """The highest percentile of ``n`` samples with ten samples above it.

    With 20 samples or fewer that percentile would not lie above the
    median, so the maximum (percentile 100) stands in for it.
    """
    return 100.0 * (n - 10) / n if n > 20 else 100.0


def tail(latencies):
    xs = sorted(latencies)
    n = len(xs)
    return (xs[n - 11] if n > 20 else xs[-1]), tail_percentile(n)


def digest(op_ids) -> str:
    return hashlib.sha256("\n".join(op_ids).encode()).hexdigest()[:16]


def untraced(workload, seed, seconds):
    times = []
    for _ in range(SETUPS):
        modules, ctx = set_up(workload, times)
    with tracing.ConfigRegistry(modules["semantics"]) as registry:
        runner = Runner(registry)
        _, wall = runner.run_rounds(
            workload.ops(modules, ctx, random.Random(seed)), seconds)
    lat_tail, pct = tail(runner.latencies)
    values = {
        "setup_s": statistics.median(times),
        "latency_p50_s": statistics.median(runner.latencies),
        "latency_tail_s": lat_tail,
        "throughput_ops_s": len(runner.latencies) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: (values[k], u) for k, u in END_TO_END}
    notes = {"setups": SETUPS, "tail_percentile": pct,
             "samples": len(runner.latencies)}
    return runner, metrics, notes


def traced(workload, seed, seconds, out_path):
    """Run about half of ``seconds`` untraced, then trace the same rounds.

    Each phase starts from a fresh set-up, so both start from cold caches
    (sill's modules, with ``laws._grid_cached``, are imported afresh);
    ``tracing.overhead_ratio`` divides the traced op time by the untraced.
    """
    modules, ctx = set_up(workload)
    with tracing.ConfigRegistry(modules["semantics"]) as registry:
        plain = Runner(registry)
        rounds, _ = plain.run_rounds(
            workload.ops(modules, ctx, random.Random(seed)), seconds / 2)
    modules, ctx = set_up(workload)
    grid_cache = modules["laws"]._grid_cached.cache_info
    hits0, misses0 = grid_cache()[:2]
    tr = tracing.Tracer(modules)
    with tracing.ConfigRegistry(modules["semantics"]) as registry:
        runner = Runner(registry, tr)
        tr.install()
        try:
            ops = workload.ops(modules, ctx, random.Random(seed))
            for rnd in itertools.islice(ops, rounds):
                for op in rnd:
                    runner.run_op(op)
        finally:
            tr.uninstall()
    if runner.op_ids != plain.op_ids:
        raise RuntimeError("the traced phase ran other ops than the untraced one")
    hits1, misses1 = grid_cache()[:2]
    metrics = tr.metrics(len(runner.latencies), (hits1 - hits0, misses1 - misses0))
    metrics["tracing.overhead_ratio"] = (
        sum(runner.latencies) / sum(plain.latencies), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": seed, "ops": runner.op_ids,
            "columns": ["span", "parent", "layer", "op", "start_s", "end_s"],
            "spans": tr.spans, "dropped": tr.dropped,
        }, handle)
    notes = {"spans_file": str(out_path.relative_to(ROOT)),
             "spans": len(tr.spans), "spans_dropped": tr.dropped}
    return runner, metrics, notes


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    if trace:
        out_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        runner, metrics, notes = traced(workload, seed, seconds, out_path)
    else:
        runner, metrics, notes = untraced(workload, seed, seconds)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": len(runner.latencies), "failed": len(runner.errors),
        "errors": runner.errors, "op_ids": runner.op_ids,
        "op_digest": digest(runner.op_ids),
        "metrics": metrics, "notes": notes,
    }


def print_report(res):
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"ops {res['attempted']}  op_digest {res['op_digest']}")
    for name, (value, unit) in res["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {res['notes']['setups']} set-ups)"
        if name == "latency_tail_s":
            extra = (f"  (p{res['notes']['tail_percentile']:.1f} of "
                     f"{res['notes']['samples']} samples)")
        print(f"  {name:<28} {value:>14.6g} {unit}{extra}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<28} {rate:>14.6g} ratio  "
          f"({res['failed']} of {res['attempted']} ops)")
    for err in res["errors"][:5]:
        print(f"  error: {err}")
    if "spans_file" in res["notes"]:
        print(f"  {res['notes']['spans']} spans ({res['notes']['spans_dropped']} "
              f"over the cap) written to {res['notes']['spans_file']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))


def run_all(seed, seconds, trace) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in (*DRIVER_WORKLOADS, *EXTRA_WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"workload {name} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    names = list(rows[0][1]["metrics"]) + ["error_rate"]
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  {'unit':<6}" +
          "".join(f"{name:>15}" for name, _ in rows))
    for metric in names:
        unit = ("ratio" if metric == "error_rate"
                else rows[0][1]["metrics"][metric]["unit"])
        cells = []
        for _, res in rows:
            value = (res["failed"] / res["attempted"] if metric == "error_rate"
                     else res["metrics"][metric]["value"])
            cells.append(f"{value:>15.6g}")
        print(f"{metric:<{width}}  {unit:<6}" + "".join(cells))
    print(f"{'latency_tail_pct':<{width}}  {'%':<6}" + "".join(
        f"{tail_percentile(res['attempted']):>15.6g}" for _, res in rows))
    print(f"seed {seed}; ops: " +
          ", ".join(f"{name} {res['attempted']}" for name, res in rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
