"""Span tracing of sill's layers, installed from outside the package.

The tracer wraps sill's layer entry points for the duration of a traced
phase and restores them afterwards; ``src/`` is never edited.  A span is
opened when control crosses from one layer into another.  Calls that stay
inside the same layer (recursive ``denote_process``, nested
``Denotation.__call__``) are counted but do not open a span of their own,
so their time is part of the enclosing span's self time.

Layers and the functions that enter them:

* ``parse``: ``parser.parse_program``, ``parse_process``, ``parse_term``,
  ``parse_type``
* ``typecheck``: ``typecheck.check_program``, ``check_process``,
  ``check_term``
* ``denote``: ``semantics.denote_process``, ``denote_term``
* ``fix``: ``semantics._denote_fix`` and its convergence check
  (``_func_converged``, with the ``row_truncate`` calls it makes)
* ``enumerate``: ``domain.enumerate_values``, ``equiv.input_grid``
* ``evaluate``: ``semantics.Denotation.__call__``
* ``trace``: the Kleene loops behind ``semantics.trace`` and ``sfix_row``
* ``compare``: ``semantics.row_truncate`` and ``Row`` equality reached
  directly from an operation (the verdict comparison)
* ``format``: ``domain.format_value``, ``parse_value``
* ``gen``: ``laws.grid_for``, ``random_monotone_den``

The counts the tracer keeps by itself (Kleene loops and their iterations,
``fix`` calls and rounds, loops that hit fuel) are checked after every
operation against the ``Diag`` records of the ``EvalConfig`` objects the
operation created (with what ``Diag.reset`` cleared).  A disagreement raises :class:`TraceMismatch`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPAN_CAP = 200_000

LAYERS = ("parse", "typecheck", "denote", "fix", "enumerate", "evaluate",
          "trace", "compare", "format", "gen")

_ENTRY_POINTS = {
    "parser": {"parse_program": "parse", "parse_process": "parse",
               "parse_term": "parse", "parse_type": "parse"},
    "typecheck": {"check_program": "typecheck", "check_process": "typecheck",
                  "check_term": "typecheck"},
    "semantics": {"denote_process": "denote", "denote_term": "denote"},
    "domain": {"format_value": "format", "parse_value": "format"},
    "laws": {"grid_for": "gen", "random_monotone_den": "gen"},
}


class TraceMismatch(AssertionError):
    """The tracer's own counts disagree with sill's ``Diag``."""


class _Frame:
    __slots__ = ("layer", "start", "child", "sid", "iters", "prev", "last",
                 "rounds", "converged")

    def __init__(self, layer, start, sid):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.sid = sid


class ConfigRegistry:
    """Collects the ``Diag`` of every ``EvalConfig`` built while an
    operation runs, as a context manager.

    Used in untraced runs too: it costs one list append per config and
    lets the benchmark see a fixed point that ran out of fuel inside code
    that never reports it (the law suites).  ``Diag.reset`` (``sill eval``
    calls it between denoting and evaluating) is wrapped so that what it
    clears is kept as a copy.
    """

    def __init__(self, semantics):
        self._cfg, self._diag = semantics.EvalConfig, semantics.Diag
        self._orig = self._cfg.__init__, self._diag.reset
        self.configs = []
        self.cleared = []

    def __enter__(self):
        (orig_init, orig_reset), configs = self._orig, self.configs
        cleared, Diag = self.cleared, self._diag

        def init(cfg, *args, **kwargs):
            orig_init(cfg, *args, **kwargs)
            configs.append(cfg)

        def reset(diag):
            cleared.append(Diag(list(diag.trace_iters), list(diag.fix_rounds),
                                diag.nonconverged))
            orig_reset(diag)

        self._cfg.__init__, self._diag.reset = init, reset
        return self

    def __exit__(self, *exc):
        self._cfg.__init__, self._diag.reset = self._orig

    def take(self):
        """The ``Diag`` records since the last call: one per config, and
        one per reset."""
        out = [cfg.diag for cfg in self.configs] + self.cleared
        self.configs.clear()
        self.cleared.clear()
        return out


class Tracer:
    """Spans and counters for one traced phase of a workload."""

    def __init__(self, sill_modules):
        self.m = sill_modules
        self.t0 = time.perf_counter()
        self.root = _Frame("op", self.t0, 0)
        self.stack = [self.root]
        self.op = -1
        self.next_sid = 1
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.count = Counter()
        self.iters_max = 0
        self.enum_seen = set()
        self.pending = None
        self._undo = []
        self._op_count = Counter()

    # -- spans --------------------------------------------------------------

    def enter(self, layer):
        frame = _Frame(layer, time.perf_counter(), self.next_sid)
        self.next_sid += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - frame.start
        self.self_s[frame.layer] += dur - frame.child
        parent.child += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.sid, parent.sid, frame.layer, self.op,
                               frame.start - self.t0, end - self.t0))
        else:
            self.dropped += 1

    def begin_op(self, op_index):
        self.op = op_index
        self.root.start = time.perf_counter()
        self.root.child = 0.0
        self.root.sid = self.next_sid
        self.next_sid += 1
        self._op_count.clear()

    def end_op(self, diags):
        end = time.perf_counter()
        self.self_s["op"] += end - self.root.start - self.root.child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.root.sid, 0, "op", self.op,
                               self.root.start - self.t0, end - self.t0))
        else:
            self.dropped += 1
        self._check_diag(diags)

    def _check_diag(self, diags):
        c = self._op_count
        diag = {
            "trace loops": sum(len(d.trace_iters) for d in diags),
            "trace iterations": sum(sum(d.trace_iters) for d in diags),
            "fix calls": sum(len(d.fix_rounds) for d in diags),
            "fix rounds": sum(sum(d.fix_rounds) for d in diags),
            "nonconverged": any(d.nonconverged for d in diags),
        }
        mine = {
            "trace loops": c["trace_loops"],
            "trace iterations": c["trace_iters"],
            "fix calls": c["fix_calls"],
            "fix rounds": c["fix_rounds"],
            "nonconverged": c["nonconverged"] > 0,
        }
        for key, want in diag.items():
            if mine[key] != want:
                raise TraceMismatch(
                    f"op {self.op}: traced {key} = {mine[key]} but "
                    f"sill's Diag says {want}")

    def _bump(self, key, n=1):
        self.count[key] += n
        self._op_count[key] += n

    # -- wrappers -----------------------------------------------------------

    def _layer_wrapper(self, layer, fn):
        stack, calls = self.stack, self.calls
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate_wrapper(self, fn, keyed):
        inner = self._layer_wrapper("enumerate", fn)
        seen, bump = self.enum_seen, self._bump

        def wrapper(*args, **kwargs):
            if keyed:
                key = (args[0], args[1], args[2])
                if key in seen:
                    bump("enum_repeats")
                else:
                    seen.add(key)
                bump("enum_keyed")
            out = inner(*args, **kwargs)
            bump("enum_values", len(out))
            return out

        return wrapper

    def _rebind(self, orig, new):
        """Point every ``sill`` module's binding of ``orig`` at ``new``."""
        bound = 0
        for name, mod in list(sys.modules.items()):
            if name != "sill" and not name.startswith("sill."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {orig!r} found to wrap")

    def _patch_attr(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        m = self.m
        for modname, entries in _ENTRY_POINTS.items():
            mod = m[modname]
            for fname, layer in entries.items():
                orig = getattr(mod, fname)
                self._rebind(orig, self._layer_wrapper(layer, orig))

        D, S, E = m["domain"], m["semantics"], m["equiv"]
        self._row_eq, self._truncate = S.Row.__eq__, D.truncate
        self._rebind(D.enumerate_values,
                     self._enumerate_wrapper(D.enumerate_values, keyed=True))
        self._rebind(E.input_grid,
                     self._enumerate_wrapper(E.input_grid, keyed=False))
        self._install_fix(S)
        self._install_loops(S)
        self._install_evaluate(S)
        self._install_compare(S)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _install_fix(self, S):
        orig_fix, orig_conv = S._denote_fix, S._func_converged
        stack, calls, bump = self.stack, self.calls, self._bump
        enter, leave = self.enter, self.leave

        def denote_fix(*args, **kwargs):
            calls["fix"] += 1
            frame = enter("fix")
            frame.rounds = 0
            frame.converged = False
            try:
                return orig_fix(*args, **kwargs)
            finally:
                leave(frame)
                bump("fix_calls")
                bump("fix_rounds", frame.rounds)
                if not frame.converged:
                    bump("nonconverged")

        def func_converged(*args, **kwargs):
            top = stack[-1]
            ok = orig_conv(*args, **kwargs)
            if top.layer == "fix":
                top.rounds += 1
                top.converged = ok
            return ok

        self._rebind(orig_fix, denote_fix)
        self._rebind(orig_conv, func_converged)

    def _install_loops(self, S):
        """Kleene loops: ``trace`` and ``sfix_row`` each build one Denotation
        whose function is the loop; the constructor hook wraps it."""
        tracer = self

        def loop_builder(orig, kind):
            def build(den, keys, cfg):
                meta = dict(keys) if kind == "sfix" else None
                tracer.pending = (kind, meta, cfg.depth)
                try:
                    out = orig(den, keys, cfg)
                finally:
                    left, tracer.pending = tracer.pending, None
                if left is not None:
                    raise RuntimeError(f"{kind} built no Denotation to trace")
                return out
            return build

        self._rebind(S.trace, loop_builder(S.trace, "trace"))
        self._rebind(S.sfix_row, loop_builder(S.sfix_row, "sfix"))

    def _loop_fn(self, fn, kind, bind, depth):
        enter, leave, bump, calls = self.enter, self.leave, self._bump, self.calls
        row_eq, truncate = self._row_eq, self._truncate
        tracer = self

        def loop(row):
            calls["trace"] += 1
            bump("eval_misses")
            frame = enter("trace")
            frame.iters = 0
            frame.prev = frame.last = None
            try:
                out = fn(row)
            finally:
                leave(frame)
            if kind == "trace":
                iters = frame.iters - 1
                converged = (frame.iters >= 2
                             and row_eq(frame.prev[1], frame.last[1]))
                bump("trace_loops")
                bump("trace_iters", iters)
            else:
                iters = frame.iters
                fed, got = frame.last
                converged = all(truncate(got[ok], depth) == fed[ik]
                                for ik, ok in bind.items())
                bump("sfix_iters", iters)
            tracer.iters_max = max(tracer.iters_max, iters)
            if not converged:
                bump("nonconverged")
            return out

        return loop

    def _install_evaluate(self, S):
        Den, Row = S.Denotation, S.Row
        orig_call, orig_init = Den.__call__, Den.__init__
        orig_row_init = Row.__init__
        stack, calls, bump = self.stack, self.calls, self._bump
        enter, leave = self.enter, self.leave
        tracer, count = self, self.count

        def call(den, row):
            calls["evaluate"] += 1
            top = stack[-1]
            if top.layer == "evaluate":
                return orig_call(den, row)
            frame = enter("evaluate")
            try:
                out = orig_call(den, row)
            finally:
                leave(frame)
            if top.layer == "trace":
                top.iters += 1
                top.prev, top.last = top.last, (row, out)
            return out

        def init(den, inputs, outputs, fn, label=""):
            pending = tracer.pending
            if pending is not None:
                tracer.pending = None
                kind, bind, depth = pending
                if not label.startswith(kind + "("):
                    raise RuntimeError(f"unexpected {kind} label {label!r}")
                fn = tracer._loop_fn(fn, kind, bind, depth)
            else:
                fn = _miss_counter(fn, bump)
            orig_init(den, inputs, outputs, fn, label)

        def row_init(row, mapping):
            count["rows_built"] += 1
            orig_row_init(row, mapping)

        self._patch_attr(Den, "__call__", call)
        self._patch_attr(Den, "__init__", init)
        self._patch_attr(Row, "__init__", row_init)

    def _install_compare(self, S):
        orig_trunc, row_eq = S.row_truncate, self._row_eq
        stack, calls, bump = self.stack, self.calls, self._bump
        enter, leave, root = self.enter, self.leave, self.root

        def row_truncate(*args, **kwargs):
            top = stack[-1]
            if top.layer == "fix":
                bump("fix_check_truncations")
                return orig_trunc(*args, **kwargs)
            calls["compare"] += 1
            if top.layer == "compare":
                return orig_trunc(*args, **kwargs)
            frame = enter("compare")
            try:
                return orig_trunc(*args, **kwargs)
            finally:
                leave(frame)

        def eq(a, b):
            if stack[-1] is not root:
                return row_eq(a, b)
            calls["compare"] += 1
            frame = enter("compare")
            try:
                return row_eq(a, b)
            finally:
                leave(frame)

        self._rebind(orig_trunc, row_truncate)
        self._patch_attr(S.Row, "__eq__", eq)

    # -- report -------------------------------------------------------------

    def metrics(self, ops, grid_cache_delta):
        """Per-layer metrics: counts and times per traced operation."""
        c = self.count
        per = 1.0 / max(ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] * per, "count")
            out[f"{layer}.self_s"] = (self.self_s[layer] * per, "s")
        out["op.self_s"] = (self.self_s["op"] * per, "s")
        out["fix.rounds"] = (c["fix_rounds"] * per, "count")
        out["fix.check_rows"] = (c["fix_check_truncations"] / 2 * per, "count")
        out["enumerate.values"] = (c["enum_values"] * per, "count")
        out["enumerate.repeat_ratio"] = (
            _ratio(c["enum_repeats"], c["enum_keyed"]), "ratio")
        out["evaluate.memo_hit_ratio"] = (
            1.0 - _ratio(c["eval_misses"], self.calls["evaluate"]), "ratio")
        out["evaluate.rows_built"] = (c["rows_built"] * per, "count")
        out["trace.iters"] = (c["trace_iters"] * per, "count")
        out["trace.sfix_iters"] = (c["sfix_iters"] * per, "count")
        out["trace.iters_max"] = (self.iters_max, "count")
        out["trace.nonconverged"] = (c["nonconverged"] * per, "count")
        hits, misses = grid_cache_delta
        out["gen.grid_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        return out


def _miss_counter(fn, bump):
    def counted(row):
        bump("eval_misses")
        return fn(row)
    return counted


def _ratio(num, den):
    return num / den if den else 0.0
