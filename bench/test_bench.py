"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest bench -q`` (about a minute: the tiny run still does one
depth-9 ``flip-grid`` check)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_what_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.DRIVER_WORKLOADS)
    names = list(tracer.Tracer(None).metrics(1, (0, 0))) + ["tracing.overhead_ratio"]
    assert [m["name"] for m in SPEC["per_layer"]] == names


def test_tiny_run_prints_every_metric_for_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "5",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines[0].split()
    assert header[2:] == [*run.DRIVER_WORKLOADS, *run.EXTRA_WORKLOADS]
    table = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    for name, unit in [*run.END_TO_END, ("error_rate", "ratio"),
                       ("latency_tail_pct", "%")]:
        assert table[name][0] == unit
        assert len(table[name]) == 1 + len(header) - 2
    # the truncation probes are the only wrong verdicts at this commit
    assert [float(x) for x in table["error_rate"][1:5]] == [0.0] * 4


def test_wrong_reference_raises_error_rate(monkeypatch):
    right = run.run_workload("law-corpus", seed=2, seconds=0.01, trace=0)
    assert right["failed"] == 0 and right["attempted"] == 95

    real = workloads._equiv_op
    monkeypatch.setattr(workloads, "_equiv_op",
                        lambda m, inst, accept: real(m, inst, ("no-such-verdict",)))
    wrong = run.run_workload("law-corpus", seed=2, seconds=0.01, trace=0)
    assert wrong["failed"] == wrong["attempted"] == 95


def test_flip_eval_reference_is_the_complement():
    modules = run.import_sill()
    path = WORKLOADS["flip-eval"].setup(modules)
    op = workloads.FlipEval._op(modules, path, ["0", "1", "1"])
    code, text = op.call()
    assert code == 0
    assert json.loads(text)["output"] == {"b-": "_", "f+": "1·0·0·_"}
    assert op.check((code, text)) is None
    wrong = json.dumps({"output": {"b-": "_", "f+": "0·1·1·_"}})
    assert op.check((code, wrong)) is not None


@pytest.mark.parametrize("name", ["flip-eval", "law-corpus", "trace-axioms",
                                  "law-probes"])
def test_same_seed_same_op_sequence(name):
    modules = run.import_sill()
    wl = WORKLOADS[name]
    ctx = wl.setup(modules)

    def first_ids(seed, n=300):
        ids = []
        for rnd in wl.ops(modules, ctx, random.Random(seed)):
            ids.extend(op.op_id for op in rnd)
            if len(ids) >= n:
                return ids[:n]

    assert first_ids(11) == first_ids(11)
    if name != "law-probes":  # three probes have few orders
        assert first_ids(11) != first_ids(12)


def test_same_seed_same_error_rate():
    a = run.run_workload("law-probes", seed=4, seconds=0.05, trace=0)
    b = run.run_workload("law-probes", seed=4, seconds=0.05, trace=0)
    n = min(a["attempted"], b["attempted"])
    assert a["op_ids"][:n] == b["op_ids"][:n]
    assert a["failed"] / a["attempted"] == b["failed"] / b["attempted"]


def test_traced_flip_eval_counts_the_cli_path():
    res = run.run_workload("flip-eval", seed=3, seconds=0.01, trace=1)
    values = {k: v for k, (v, _) in res["metrics"].items()}
    assert res["failed"] == 0
    assert values["parse.calls"] == 1 and values["fix.rounds"] > 0
    assert values["format.calls"] > 0


def test_traced_run_reports_every_layer_metric():
    res = run.run_workload("trace-axioms", seed=1, seconds=0.01, trace=1)
    assert [m["name"] for m in SPEC["per_layer"]] == list(res["metrics"])
    values = {k: v for k, (v, _) in res["metrics"].items()}
    assert values["gen.calls"] > 0 and values["trace.iters"] > 0
    assert values["parse.calls"] == values["fix.calls"] == 0
    assert values["tracing.overhead_ratio"] > 0
    spans = json.loads((ROOT / res["notes"]["spans_file"]).read_text())["spans"]
    assert {s[2] for s in spans} >= {"op", "gen", "trace", "evaluate", "compare"}


def test_diag_mismatch_fails_loudly():
    modules = run.import_sill()
    tr = tracer.Tracer(modules)

    def call():
        cfg = modules["sill"].EvalConfig(depth=2)
        cfg.diag.trace_iters.append(3)  # a Kleene loop the tracer never saw
        cfg.diag.reset()  # what a reset clears still counts

    with tracer.ConfigRegistry(modules["semantics"]) as registry:
        tr.install()
        try:
            with pytest.raises(tracer.TraceMismatch):
                run.Runner(registry, tr).run_op(Op("fake", call, lambda _: None))
        finally:
            tr.uninstall()


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([0.5, 0.1, 0.3]) == (0.5, 100.0)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0)
    xs = [float(i) for i in range(100)]
    value, pct = run.tail(xs)
    assert sum(1 for x in xs if x > value) == 10 and pct == 90.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flip-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
