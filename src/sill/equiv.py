"""Semantic equivalence of processes, decided up to an observation depth.

Two processes at the same typed interface are compared by evaluating
both denotations on every enumerated input (all positive communications
for the used channels crossed with all negative communications for the
provided one, at the working depth) under each sampled environment, and
comparing the truncated outputs.  A difference yields a replayable
counterexample; agreement yields ``equivalent``, downgraded to
``approximate`` when a fixed point failed to converge within fuel or the
environment space could only be sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import ast as A
from . import domain as D
from . import semantics as S
from . import typecheck as T


@dataclass
class Verdict:
    kind: str  # "equivalent" | "distinguished" | "approximate"
    depth: int
    inputs_checked: int = 0
    witness: Optional[dict] = None        # formatted input row
    left_out: Optional[dict] = None
    right_out: Optional[dict] = None
    reason: str = ""
    env_note: str = ""
    witness_row: Optional["S.Row"] = None  # raw row, for replay

    @property
    def equivalent(self) -> bool:
        return self.kind == "equivalent"

    def describe(self) -> str:
        if self.kind == "equivalent":
            return (f"equivalent at depth {self.depth} "
                    f"({self.inputs_checked} inputs)")
        if self.kind == "distinguished":
            w = ", ".join(f"{k} = {v}" for k, v in sorted(self.witness.items()))
            l = ", ".join(f"{k} = {v}" for k, v in sorted(self.left_out.items()))
            r = ", ".join(f"{k} = {v}" for k, v in sorted(self.right_out.items()))
            return f"distinguished on {w}: left gives {l}; right gives {r}"
        return f"approximate: {self.reason}"


def _format_row(row: S.Row, aspects: Mapping[str, S.Aspect]) -> dict:
    return {
        k: D.format_value(row[k], aspects[k][0], aspects[k][1])
        for k in sorted(row)
    }


def input_grid(delta: Mapping[str, A.SType], c: str, cty: A.SType, depth: int,
               func_enum: Optional[D.FuncEnum] = None) -> list[S.Row]:
    return list(S.row_grid(S.proc_inputs(delta, c, cty), depth, func_enum))


def check_equiv(left: A.Process, right: A.Process,
                delta: Mapping[str, A.SType], c: str, cty: A.SType,
                psi: Optional[Mapping[str, A.FType]] = None,
                depth: int = 4,
                env_samples: Sequence[S.Env] = (),
                func_enum: Optional[D.FuncEnum] = None,
                fuel: Optional[int] = None) -> Verdict:
    """Compare two processes at a common interface."""
    psi = dict(psi or {})
    T.check_process(psi, dict(delta), left, c, cty)
    T.check_process(psi, dict(delta), right, c, cty)

    envs = [S.EMPTY_ENV, *env_samples]
    grid = input_grid(delta, c, cty, depth, func_enum)
    in_aspects = S.proc_inputs(delta, c, cty)
    out_aspects = S.proc_outputs(delta, c, cty)

    checked = 0
    nonconverged = False
    for env in envs:
        cfg = S.EvalConfig(depth=depth, fuel=fuel, func_enum=func_enum)
        dl = S.denote_process(left, delta, c, cty, psi, env, cfg)
        dr = S.denote_process(right, delta, c, cty, psi, env, cfg)
        for row in grid:
            out_l = S.row_truncate(dl(row), depth)
            out_r = S.row_truncate(dr(row), depth)
            checked += 1
            if out_l != out_r:
                if cfg.diag.nonconverged:
                    return Verdict(
                        "approximate", depth, checked,
                        witness=_format_row(row, in_aspects),
                        left_out=_format_row(out_l, out_aspects),
                        right_out=_format_row(out_r, out_aspects),
                        reason="a fixed point did not converge within fuel",
                        env_note=_env_note(psi, env_samples),
                    )
                return Verdict(
                    "distinguished", depth, checked,
                    witness=_format_row(row, in_aspects),
                    left_out=_format_row(out_l, out_aspects),
                    right_out=_format_row(out_r, out_aspects),
                    env_note=_env_note(psi, env_samples),
                    witness_row=row,
                )
        nonconverged = nonconverged or cfg.diag.nonconverged
    if nonconverged:
        return Verdict(
            "approximate", depth, checked,
            reason="a fixed point did not converge within fuel",
            env_note=_env_note(psi, env_samples),
        )
    return Verdict("equivalent", depth, checked,
                   env_note=_env_note(psi, env_samples))


def _env_note(psi, env_samples) -> str:
    if psi:
        n = 1 + len(env_samples)
        return f"for {n} sampled environment(s) over {sorted(psi)}"
    return ""


def term_equiv(left: A.Term, right: A.Term, ty: A.FType,
               psi: Optional[Mapping[str, A.FType]] = None,
               depth: int = 4,
               env_samples: Sequence[S.Env] = (),
               func_enum: Optional[D.FuncEnum] = None) -> Verdict:
    """Compare two functional terms; quoted processes compare extensionally."""
    psi = dict(psi or {})
    T.check_term(psi, left, ty)
    T.check_term(psi, right, ty)
    envs = [S.EMPTY_ENV, *env_samples]
    checked = 0
    for env in envs:
        cfg = S.EvalConfig(depth=depth, func_enum=func_enum)
        vl = S.denote_term(left, ty, psi, env, cfg)
        vr = S.denote_term(right, ty, psi, env, cfg)
        verdict = _func_values_equal(vl, vr, ty, cfg)
        checked += 1
        if verdict is False:
            return Verdict(
                "distinguished", depth, checked,
                witness={"env": "all-bottom" if not dict(env) else repr(dict(env))},
                left_out={"value": D.format_func_value(vl)},
                right_out={"value": D.format_func_value(vr)},
                env_note=_env_note(psi, env_samples),
            )
        if verdict is None or cfg.diag.nonconverged:
            return Verdict(
                "approximate", depth, checked,
                reason="functional values are not comparable at this type",
                env_note=_env_note(psi, env_samples),
            )
    return Verdict("equivalent", depth, checked,
                   env_note=_env_note(psi, env_samples))


def _func_values_equal(vl: D.FuncValue, vr: D.FuncValue, ty: A.FType,
                       cfg: S.EvalConfig) -> Optional[bool]:
    if vl == vr:
        return True
    stuckish = (D.QProcBot, D.QProc)
    if isinstance(vl, stuckish) and isinstance(vr, stuckish) and isinstance(ty, A.ProcType):
        # the literal stuck process is the quoted process that never outputs,
        # at the interface of the other side (one side is quoted, as vl != vr)
        quoted = vl if isinstance(vl, D.QProc) else vr

        def as_den(v):
            if isinstance(v, D.QProc):
                return v.den
            return S.constant_bot(quoted.den.inputs, quoted.den.outputs)

        try:
            return S._qproc_extensionally_equal(as_den(vl), as_den(vr), ty, cfg)
        except D.NotEnumerable:
            return None
    if isinstance(vl, D.Closure) or isinstance(vr, D.Closure):
        return None
    return False
