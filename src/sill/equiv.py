"""Semantic equivalence of processes, decided up to an observation depth.

Two processes at the same typed interface are compared by evaluating
both denotations on every enumerated input (all positive communications
for the used channels crossed with all negative communications for the
provided one, at the working depth) in the all-bottom environment, and
comparing the truncated outputs.  A difference yields a replayable
counterexample; agreement yields ``equivalent``, downgraded to
``approximate`` when a fixed point failed to converge within fuel or the
compared phrases mention a functional variable, which was tried only at
bottom.  A difference only in functional values (two outputs that print
alike: quoted processes compare by identity) is ``approximate`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import ast as A
from . import domain as D
from . import semantics as S


@dataclass
class Verdict:
    kind: str  # "equivalent" | "distinguished" | "approximate"
    depth: int
    inputs_checked: int = 0
    witness: Optional[dict] = None        # formatted input row
    left_out: Optional[dict] = None
    right_out: Optional[dict] = None
    reason: str = ""

    @property
    def equivalent(self) -> bool:
        return self.kind == "equivalent"

    def describe(self) -> str:
        if self.kind == "equivalent":
            return (f"equivalent at depth {self.depth} "
                    f"({self.inputs_checked} inputs)")
        if self.witness is None:
            return f"approximate: {self.reason}"
        w, l, r = map(D.join_row, (self.witness, self.left_out, self.right_out))
        rows = f"on {w}: left gives {l}; right gives {r}"
        if self.kind == "distinguished":
            return f"distinguished {rows}"
        return f"approximate: {self.reason}, {rows}"


def input_grid(delta: Mapping[str, A.SType], c: str, cty: A.SType,
               depth: int) -> list[S.Row]:
    return list(S.row_grid(S.proc_inputs(delta, c, cty), depth))


def _free_note(psi: Mapping[str, A.FType], *phrases) -> str:
    """Why a verdict that agreed is only approximate when the compared
    phrases mention variables of ``psi``: those were tried only at bottom."""
    if psi:
        free = set().union(*map(A.free_term_vars, phrases)) & psi.keys()
        if free:
            return f"only the all-bottom environment was tried for {sorted(free)}"
    return ""


def check_equiv(left: A.Process, right: A.Process,
                delta: Mapping[str, A.SType], c: str, cty: A.SType,
                psi: Optional[Mapping[str, A.FType]] = None,
                depth: int = 4,
                fuel: Optional[int] = None) -> Verdict:
    """Compare two processes at a common interface; raises
    :class:`~sill.typecheck.TypeCheckError` if either is ill-typed there."""
    psi = dict(psi or {})
    cfg = S.EvalConfig(depth=depth, fuel=fuel)
    dl = S.denote_process(left, delta, c, cty, psi, S.EMPTY_ENV, cfg)
    dr = S.denote_process(right, delta, c, cty, psi, S.EMPTY_ENV, cfg)
    grid = input_grid(delta, c, cty, depth)
    diff = S.first_difference(dl, dr, grid, depth)
    checked = len(grid) if diff is None else grid.index(diff[0]) + 1
    shown = {} if diff is None else {
        "witness": D.format_row(diff[0], dl.inputs),
        "left_out": D.format_row(diff[1], dl.outputs),
        "right_out": D.format_row(diff[2], dl.outputs)}
    if cfg.diag.nonconverged:
        return Verdict("approximate", depth, checked, **shown,
                       reason="a fixed point did not converge within fuel")
    if diff is not None and shown["left_out"] == shown["right_out"]:
        return Verdict("approximate", depth, checked, **shown,
                       reason="the outputs differ only in functional values")
    if diff is not None:
        return Verdict("distinguished", depth, checked, **shown)
    note = _free_note(psi, left, right)
    if note:
        return Verdict("approximate", depth, checked, reason=note)
    return Verdict("equivalent", depth, checked)


def term_equiv(left: A.Term, right: A.Term, ty: A.FType,
               psi: Optional[Mapping[str, A.FType]] = None,
               depth: int = 4) -> Verdict:
    """Compare two functional terms; quoted processes compare extensionally.
    Raises :class:`~sill.typecheck.TypeCheckError` if either is ill-typed."""
    psi = dict(psi or {})
    cfg = S.EvalConfig(depth=depth)
    vl = S.denote_term(left, ty, psi, S.EMPTY_ENV, cfg)
    vr = S.denote_term(right, ty, psi, S.EMPTY_ENV, cfg)
    verdict = _func_values_equal(vl, vr, ty, cfg)
    if verdict is False:
        return Verdict(
            "distinguished", depth, 1,
            witness={"env": "all-bottom"},
            left_out={"value": D.format_func_value(vl)},
            right_out={"value": D.format_func_value(vr)},
        )
    if verdict is None or cfg.diag.nonconverged:
        return Verdict("approximate", depth, 1,
                       reason="functional values are not comparable at this type")
    note = _free_note(psi, left, right)
    if note:
        return Verdict("approximate", depth, 1, reason=note)
    return Verdict("equivalent", depth, 1)


def _func_values_equal(vl: D.FuncValue, vr: D.FuncValue, ty: A.FType,
                       cfg: S.EvalConfig) -> Optional[bool]:
    if vl == vr:
        return True
    stuckish = (D.QProcBot, D.QProc)
    if isinstance(vl, stuckish) and isinstance(vr, stuckish) and isinstance(ty, A.ProcType):
        # the literal stuck process is the quoted process that never outputs,
        # at the interface of the other side (one side is quoted, as vl != vr)
        quoted = vl if isinstance(vl, D.QProc) else vr
        stuck = S.constant_bot(quoted.den.inputs, quoted.den.outputs)
        left, right = (v.den if isinstance(v, D.QProc) else stuck for v in (vl, vr))
        try:
            grid = S.row_grid(left.inputs, cfg.depth)
            return S.first_difference(left, right, grid, cfg.depth) is None
        except D.NotEnumerable:
            return None
    if isinstance(vl, (D.Closure, D.Native)) or isinstance(vr, (D.Closure, D.Native)):
        return None
    return False
