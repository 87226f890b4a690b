r"""Typechecking for session types, terms, and processes.

Three judgments are decided here: polarity of session types, functional
typing of terms (bidirectionally, with annotations on lambda binders and
top-level declarations), and process typing against a linear channel
context.  Linearity is enforced by threading the channel context through
the process: each rule consumes what it uses and returns the rest, and the
top-level entry point requires everything to be consumed.

Process typing has one clause per message kind: its right rule types the
message on the provided channel, its left rule on a used channel at the
polarity-dual type.  ``_SIDES`` is the one table of both sides:

    message       provided (right)     used (left)
    send shift    down   downR         up     upL
    recv shift    up     upR           down   downL
    send label    +{}    plusR         &{}    withL
    case          &{}    withR         +{}    plusL
    send channel  *      tensorR       -o     lollyL
    recv channel  -o     lollyR        *      tensorL
    send value    /\     andR          =>     impL
    recv value    =>     impR          /\     andL
    send unfold   rho+   rho+R         rho-   rho-L
    recv unfold   rho-   rho-R         rho+   rho+L
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import ast as A
from .ast import NEG, POS, Polarity


class TypeCheckError(Exception):
    """A rejected judgment, tagged with the rule that failed.

    kind is one of: unbound, polarity, linear, label, rule.
    """

    def __init__(self, kind: str, rule: str, message: str,
                 span: Optional[A.Span] = None,
                 expected: Optional[str] = None, found: Optional[str] = None):
        self.kind = kind
        self.rule = rule
        self.message = message
        self.span = span
        self.expected = expected
        self.found = found
        loc = f"{span.line}:{span.col}: " if span else ""
        detail = ""
        if expected is not None or found is not None:
            detail = f" (expected {expected}, found {found})"
        super().__init__(f"{loc}[{rule}] {message}{detail}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rule": self.rule,
            "message": self.message,
            "line": self.span.line if self.span else None,
            "col": self.span.col if self.span else None,
            "expected": self.expected,
            "found": self.found,
        }


# ---------------------------------------------------------------------------
# Session types


# While ``check_program`` runs, the polarity of each closed session type it
# has checked, by identity: its declarations name the same few type nodes
# again and again.  Each entry keeps its type alive, so that no other node
# can take over its id.
_closed_polarity: Optional[dict[int, tuple[A.SType, Polarity]]] = None


def check_session_type(xi: Mapping[str, Polarity], ty: A.SType) -> Polarity:
    """Return the polarity of ``ty`` under the type-variable context ``xi``."""
    if xi or _closed_polarity is None:
        return _polarity(xi, ty)
    hit = _closed_polarity.get(id(ty))
    if hit is None:
        hit = _closed_polarity[id(ty)] = (ty, _polarity(xi, ty))
    return hit[1]


def _polarity(xi: Mapping[str, Polarity], ty: A.SType) -> Polarity:
    match ty:
        case A.Unit():
            return POS
        case A.TVar(name=a):
            if a not in xi:
                raise TypeCheckError(
                    "unbound", "Cvar", f"unbound type variable {a!r}", ty.span
                )
            return xi[a]
        case A.Down(body=b):
            _require_polarity(xi, b, NEG, "Cdown", ty)
            return POS
        case A.Up(body=b):
            _require_polarity(xi, b, POS, "Cup", ty)
            return NEG
        case A.Plus(branches=bs):
            for _, t in bs:
                _require_polarity(xi, t, POS, "Cplus", ty)
            return POS
        case A.With(branches=bs):
            for _, t in bs:
                _require_polarity(xi, t, NEG, "Cwith", ty)
            return NEG
        case A.Tensor(carried=l, cont=r):
            _require_polarity(xi, l, POS, "Ctensor", ty)
            _require_polarity(xi, r, POS, "Ctensor", ty)
            return POS
        case A.Lolly(carried=l, cont=r):
            _require_polarity(xi, l, POS, "Clolly", ty)
            _require_polarity(xi, r, NEG, "Clolly", ty)
            return NEG
        case A.AndVal(val=v, cont=r):
            check_ftype(v)
            _require_polarity(xi, r, POS, "Cand", ty)
            return POS
        case A.ImpVal(val=v, cont=r):
            check_ftype(v)
            _require_polarity(xi, r, NEG, "Cimp", ty)
            return NEG
        case A.Rec(var=a, body=b):
            if not A.is_contractive(ty):
                raise TypeCheckError(
                    "rule", "Crho",
                    f"recursive type is not contractive in {a!r}", ty.span,
                )
            for p in (POS, NEG):
                try:
                    got = check_session_type({**xi, a: p}, b)
                except TypeCheckError:
                    continue
                if got == p:
                    return p
            raise TypeCheckError(
                "polarity", "Crho",
                "body polarity does not match the bound variable", ty.span,
            )
    raise TypeCheckError("rule", "Crho", f"not a session type: {ty!r}", ty.span)


def _require_polarity(xi, ty: A.SType, want: Polarity, rule: str, at: A.SType):
    got = check_session_type(xi, ty)
    if got != want:
        raise TypeCheckError(
            "polarity", rule, "wrong polarity for subphrase",
            at.span or ty.span, expected=f"type{want}", found=f"type{got}",
        )


def polarity_of(ty: A.SType) -> Polarity:
    return check_session_type({}, ty)


def subst_type_checked(sigma: Mapping[str, A.SType], ty: A.SType,
                       xi: Mapping[str, Polarity],
                       image_xi: Optional[Mapping[str, Polarity]] = None) -> A.SType:
    """Capture-avoiding substitution, after verifying that every image has
    the polarity of the variable it replaces."""
    image_xi = image_xi or {}
    for name, image in sigma.items():
        if name not in xi:
            raise TypeCheckError(
                "unbound", "S-S-T", f"no variable {name!r} to substitute for"
            )
        got = check_session_type(image_xi, image)
        if got != xi[name]:
            raise TypeCheckError(
                "polarity", "S-S-T",
                f"substituting a type{got} type for the type{xi[name]} "
                f"variable {name!r}",
                expected=f"type{xi[name]}", found=f"type{got}",
            )
    return A.subst_type(sigma, ty)


def check_ftype(ty: A.FType) -> None:
    match ty:
        case A.Arrow(arg=a, res=r):
            check_ftype(a)
            check_ftype(r)
        case A.ProcType(provided=p, used=us):
            check_session_type({}, p)
            for _, t in us:
                check_session_type({}, t)
        case _:
            raise TypeCheckError("rule", "T{}", f"not a functional type: {ty!r}", ty.span)


# ---------------------------------------------------------------------------
# Terms


def infer_term(psi: Mapping[str, A.FType], term: A.Term) -> A.FType:
    match term:
        case A.Var(name=x):
            if x not in psi:
                raise TypeCheckError(
                    "unbound", "F-Var", f"unbound variable {x!r}", term.span
                )
            return psi[x]
        case A.App(fn=f, arg=a):
            fty = infer_term(psi, f)
            if not isinstance(fty, A.Arrow):
                raise TypeCheckError(
                    "rule", "F-App", "application of a non-function", term.span,
                    expected="an arrow type", found=_show_ftype(fty),
                )
            check_term(psi, a, fty.arg)
            return fty.res
        case A.Lam(var=x, ty=t, body=m):
            check_ftype(t)
            return A.Arrow(t, infer_term({**psi, x: t}, m))
        case A.Anno(term=m, ty=t):
            check_ftype(t)
            check_term(psi, m, t)
            return t
        case A.Fix():
            raise TypeCheckError(
                "rule", "F-Fix",
                "cannot infer the type of a fixed point; annotate it", term.span,
            )
        case A.Quote():
            raise TypeCheckError(
                "rule", "I-{}",
                "cannot infer the interface of a quoted process; annotate it",
                term.span,
            )
    raise TypeCheckError("rule", "F-Var", f"not a term: {term!r}", term.span)


def check_term(psi: Mapping[str, A.FType], term: A.Term, ty: A.FType) -> None:
    match term:
        case A.Fix(var=x, body=m):
            check_term({**psi, x: ty}, m, ty)
            return
        case A.Lam(var=x, ty=t, body=m):
            if not isinstance(ty, A.Arrow):
                raise TypeCheckError(
                    "rule", "F-Fun", "lambda against a non-arrow type", term.span,
                    expected=_show_ftype(ty), found="a lambda",
                )
            if not A.ftypes_equal(t, ty.arg):
                raise TypeCheckError(
                    "rule", "F-Fun", "binder annotation disagrees", term.span,
                    expected=_show_ftype(ty.arg), found=_show_ftype(t),
                )
            check_term({**psi, x: t}, m, ty.res)
            return
        case A.Quote(provided=a, proc=p, used=us):
            if not isinstance(ty, A.ProcType):
                raise TypeCheckError(
                    "rule", "I-{}", "quote against a non-process type", term.span,
                    expected=_show_ftype(ty), found="a quoted process",
                )
            if len(us) != len(ty.used):
                raise TypeCheckError(
                    "rule", "I-{}",
                    f"quote uses {len(us)} channel(s), its type lists {len(ty.used)}",
                    term.span,
                )
            names = [a, *us]
            if len(set(names)) != len(names):
                raise TypeCheckError(
                    "rule", "I-{}", f"duplicate channel names in quote: {names}",
                    term.span,
                )
            delta = {u: t for u, (_, t) in zip(us, ty.used)}
            check_process(psi, delta, p, a, ty.provided)
            return
    got = infer_term(psi, term)
    if not A.ftypes_equal(got, ty):
        raise TypeCheckError(
            "rule", "F-App", "term has the wrong type", term.span,
            expected=_show_ftype(ty), found=_show_ftype(got),
        )


def _show_ftype(ty: A.FType) -> str:
    from .pretty import pp_ftype

    try:
        return pp_ftype(ty)
    except Exception:
        return repr(ty)


def _show_type(ty: A.SType) -> str:
    from .pretty import pp_type

    try:
        return pp_type(ty)
    except Exception:
        return repr(ty)


# ---------------------------------------------------------------------------
# Processes


def check_process(psi: Mapping[str, A.FType], delta: Mapping[str, A.SType],
                  proc: A.Process, channel: str, ty: A.SType) -> None:
    """Decide whether ``proc`` provides ``channel : ty`` using exactly ``delta``."""
    if channel in delta:
        raise TypeCheckError(
            "linear", "Cut",
            f"provided channel {channel!r} also appears in the context", proc.span,
        )
    leftover = _check(dict(psi), dict(delta), proc, channel, ty)
    if leftover:
        names = ", ".join(sorted(leftover))
        raise TypeCheckError(
            "linear", "Cut", f"unconsumed channel(s): {names}", proc.span
        )


# Each message kind has a right rule, on the provided channel, and a left
# rule, on a used channel at the polarity-dual type.  A side names the type
# constructor the channel must have there, the polarity it must have (checked
# only for ``rho``: the other constructors fix it), the rule, and the error.
_SIDES = {
    A.SendShift: ((A.Down, POS, "downR", "shift sent at a non-downshift type"),
                  (A.Up, NEG, "upL", "shift sent on {a!r} at a non-upshift type")),
    A.RecvShift: ((A.Up, NEG, "upR", "shift awaited at a non-upshift type"),
                  (A.Down, POS, "downL",
                   "shift awaited on {a!r} at a non-downshift type")),
    A.SendLabel: ((A.Plus, POS, "plusR", "label sent at a non-choice type"),
                  (A.With, NEG, "withL", "label sent on {a!r} at a non-choice type")),
    A.Case: ((A.With, NEG, "withR", "case at a non-choice provided type"),
             (A.Plus, POS, "plusL", "case on {a!r} at a non-choice type")),
    A.SendChan: ((A.Tensor, POS, "tensorR", "channel sent at a non-tensor type"),
                 (A.Lolly, NEG, "lollyL",
                  "channel sent on {a!r} at a non-lolly type")),
    A.RecvChan: ((A.Lolly, NEG, "lollyR", "channel awaited at a non-lolly type"),
                 (A.Tensor, POS, "tensorL",
                  "channel awaited on {a!r} at a non-tensor type")),
    A.SendVal: ((A.AndVal, POS, "andR", "value sent at a non-value-carrying type"),
                (A.ImpVal, NEG, "impL",
                 "value sent on {a!r} at a non-value-carrying type")),
    A.RecvVal: ((A.ImpVal, NEG, "impR", "value awaited at a non-value-carrying type"),
                (A.AndVal, POS, "andL",
                 "value awaited on {a!r} at a non-value-carrying type")),
    A.SendUnfold: ((A.Rec, POS, "rho+R", "unfold message at a non-recursive type"),
                   (A.Rec, NEG, "rho-L", "unfold message at a non-recursive type")),
    A.RecvUnfold: ((A.Rec, NEG, "rho-R", "unfold message at a non-recursive type"),
                   (A.Rec, POS, "rho+L", "unfold message at a non-recursive type")),
}

_EXPECTED = {
    A.Down: "down _", A.Up: "up _", A.Plus: "+{...}", A.With: "&{...}",
    A.Tensor: "_ * _", A.Lolly: "_ -o _", A.AndVal: "_ /\\ _",
    A.ImpVal: "_ => _", A.Rec: "rho _. _",
}


def _entry(proc: A.Process, a: str, c: str):
    """The ``_SIDES`` entry that checks ``proc`` on channel ``a``: its right
    rule on the provided channel ``c``, its left rule on a used one."""
    right, left = _SIDES[type(proc)]
    return right if a == c else left


def _check(psi: dict, delta: dict, proc: A.Process, c: str, ty: A.SType) -> dict:
    def side(a: str):
        """The current type of channel ``a``, checked against the rule of
        ``proc`` on that side; the rule's name; and a builder for the
        continuation with ``a`` retyped."""
        want, pol, rule, message = _entry(proc, a, c)
        if a == c:
            t = ty

            def cont(p, retyped, delta=delta, psi=psi) -> dict:
                return _check(psi, delta, p, c, retyped)
        else:
            t = _use(delta, a, c, proc, rule)

            def cont(p, retyped, delta=delta, psi=psi) -> dict:
                return _check(psi, {**delta, a: retyped}, p, c, ty)
        if not isinstance(t, want):
            raise TypeCheckError(
                "rule", rule, message.format(a=a), proc.span,
                expected=_EXPECTED[want], found=_show_type(t),
            )
        if want is A.Rec and (got := check_session_type({}, t)) != pol:
            raise TypeCheckError(
                "polarity", rule, "recursive type has the wrong polarity", proc.span,
                expected=f"type{pol}", found=f"type{got}",
            )
        return t, rule, cont

    match proc:
        case A.Fwd(provided=b, used=a):
            if b != c:
                raise TypeCheckError(
                    "rule", "Fwd", f"forward provides {b!r}, not the ambient {c!r}",
                    proc.span,
                )
            if a not in delta:
                raise TypeCheckError(
                    "unbound", "Fwd", f"unknown channel {a!r}", proc.span
                )
            if not A.types_equal(delta[a], ty):
                raise TypeCheckError(
                    "rule", "Fwd", "forwarded channels have different types",
                    proc.span, expected=_show_type(ty), found=_show_type(delta[a]),
                )
            rest = dict(delta)
            del rest[a]
            return rest

        case A.Close(channel=a):
            if a != c:
                raise TypeCheckError(
                    "rule", "1R", f"close on {a!r}, which is not provided here",
                    proc.span,
                )
            if not isinstance(ty, A.Unit):
                raise TypeCheckError(
                    "rule", "1R", "close at a non-unit type", proc.span,
                    expected="1", found=_show_type(ty),
                )
            return delta

        case A.Wait(channel=a, cont=p):
            ta = _use(delta, a, c, proc, "1L")
            if not isinstance(ta, A.Unit):
                raise TypeCheckError(
                    "rule", "1L", f"wait on {a!r} at a non-unit type", proc.span,
                    expected="1", found=_show_type(ta),
                )
            rest = dict(delta)
            del rest[a]
            return _check(psi, rest, p, c, ty)

        case A.SendShift(channel=a, cont=p) | A.RecvShift(channel=a, cont=p):
            t, _, cont = side(a)
            return cont(p, t.body)

        case A.SendUnfold(channel=a, cont=p) | A.RecvUnfold(channel=a, cont=p):
            t, _, cont = side(a)
            return cont(p, A.unfold_rec(t))

        case A.SendLabel(channel=a, label=k, cont=p):
            t, rule, cont = side(a)
            return cont(p, _branch(t.branches, k, proc, rule))

        case A.Case(channel=a, branches=bs):
            t, rule, cont = side(a)
            _same_labels(bs, t.branches, proc, rule)
            ts = dict(t.branches)
            return _join_branches([cont(p, ts[k]) for k, p in bs], proc, rule)

        case A.SendChan(channel=a, sent=b, cont=p):
            if b not in delta:
                raise TypeCheckError(
                    "unbound", _entry(proc, a, c)[2], f"unknown channel {b!r}", proc.span
                )
            t, rule, cont = side(a)
            _expect_chan_type(delta[b], t.carried, b, proc, rule)
            return cont(p, t.cont, {d: u for d, u in delta.items() if d != b})

        case A.RecvChan(bound=b, channel=a, cont=p):
            if b in delta or b == c:
                raise TypeCheckError(
                    "linear", _entry(proc, a, c)[2], f"received channel shadows {b!r}",
                    proc.span,
                )
            t, rule, cont = side(a)
            rest = cont(p, t.cont, {**delta, b: t.carried})
            if b in rest:
                raise TypeCheckError(
                    "linear", rule, f"received channel {b!r} is not consumed",
                    proc.span,
                )
            return rest

        case A.SendVal(channel=a, term=m, cont=p):
            t, _, cont = side(a)
            check_term(psi, m, t.val)
            return cont(p, t.cont)

        case A.RecvVal(bound=x, channel=a, cont=p):
            t, _, cont = side(a)
            return cont(p, t.cont, psi={**psi, x: t.val})

        case A.Unquote(provided=a, term=m, used=us):
            if a != c:
                raise TypeCheckError(
                    "rule", "E-{}", f"spawn provides {a!r}, not the ambient {c!r}",
                    proc.span,
                )
            mty = infer_term(psi, m)
            if not isinstance(mty, A.ProcType):
                raise TypeCheckError(
                    "rule", "E-{}", "spawned term is not a quoted process",
                    proc.span, expected="{...}", found=_show_ftype(mty),
                )
            if len(us) != len(mty.used):
                raise TypeCheckError(
                    "rule", "E-{}",
                    f"spawn passes {len(us)} channel(s), the type lists {len(mty.used)}",
                    proc.span,
                )
            if not A.types_equal(mty.provided, ty):
                raise TypeCheckError(
                    "rule", "E-{}", "spawned process provides the wrong type",
                    proc.span, expected=_show_type(ty), found=_show_type(mty.provided),
                )
            rest = dict(delta)
            for u, (_, ut) in zip(us, mty.used):
                if u not in rest:
                    raise TypeCheckError(
                        "unbound" if u not in delta else "linear", "E-{}",
                        f"channel {u!r} is not available", proc.span,
                    )
                _expect_chan_type(rest[u], ut, u, proc, "E-{}")
                del rest[u]
            return rest

        case A.Cut(channel=x, left=l, right=r, anno=t):
            if x in delta or x == c:
                raise TypeCheckError(
                    "linear", "Cut", f"cut channel shadows {x!r}", proc.span
                )
            cut_ty = t
            if cut_ty is None and isinstance(l, A.Unquote):
                mty = infer_term(psi, l.term)
                if isinstance(mty, A.ProcType):
                    cut_ty = mty.provided
            if cut_ty is None:
                raise TypeCheckError(
                    "rule", "Cut", "cut needs a type annotation", proc.span
                )
            check_session_type({}, cut_ty)
            rest = _check(psi, delta, l, x, cut_ty)
            rest = _check(psi, {**rest, x: cut_ty}, r, c, ty)
            if x in rest:
                raise TypeCheckError(
                    "linear", "Cut", f"cut channel {x!r} is not consumed", proc.span
                )
            return rest

    raise TypeCheckError("rule", "Cut", f"not a process: {proc!r}", proc.span)


def _use(delta: dict, a: str, c: str, proc: A.Process, rule: str) -> A.SType:
    if a == c:
        raise TypeCheckError(
            "rule", rule, f"{a!r} is the provided channel, not a used one", proc.span
        )
    if a not in delta:
        raise TypeCheckError(
            "unbound", rule, f"unknown or already-consumed channel {a!r}", proc.span
        )
    return delta[a]


def _branch(bs, k: str, proc: A.Process, rule: str) -> A.SType:
    mapping = dict(bs)
    if k not in mapping:
        raise TypeCheckError(
            "label", rule, f"label {k!r} is not offered", proc.span,
            expected="one of " + ", ".join(sorted(mapping)), found=k,
        )
    return mapping[k]


def _same_labels(branches, tybranches, proc: A.Process, rule: str) -> None:
    have = {k for k, _ in branches}
    want = {k for k, _ in tybranches}
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"extra {extra}")
        raise TypeCheckError(
            "label", rule, "case labels do not match: " + "; ".join(parts), proc.span
        )


def _join_branches(leftovers: list[dict], proc: A.Process, rule: str) -> dict:
    first = leftovers[0]
    for other in leftovers[1:]:
        if set(other) != set(first) or any(
            not A.types_equal(first[k], other[k]) for k in first
        ):
            raise TypeCheckError(
                "linear", rule,
                "branches consume the linear context differently", proc.span,
            )
    return first


def _expect_chan_type(got: A.SType, want: A.SType, chan: str,
                      proc: A.Process, rule: str) -> None:
    if not A.types_equal(got, want):
        raise TypeCheckError(
            "rule", rule, f"channel {chan!r} has the wrong type", proc.span,
            expected=_show_type(want), found=_show_type(got),
        )


# ---------------------------------------------------------------------------
# Programs


def check_program(program) -> list[tuple[str, str]]:
    """Check every declaration; returns (name, kind) pairs in order."""
    from .parser import ProcDecl, TermDecl, TypeDecl

    global _closed_polarity
    _closed_polarity = {}
    results = []
    try:
        for decl in program.decls:
            if isinstance(decl, TypeDecl):
                check_session_type({}, decl.ty)
                results.append((decl.name, "type"))
            elif isinstance(decl, TermDecl):
                check_ftype(decl.ty)
                check_term({}, decl.term, decl.ty)
                results.append((decl.name, "term"))
            elif isinstance(decl, ProcDecl):
                for _, t in decl.delta:
                    check_session_type({}, t)
                check_session_type({}, decl.ty)
                check_process({}, dict(decl.delta), decl.proc, decl.channel, decl.ty)
                results.append((decl.name, "proc"))
            else:
                raise TypeCheckError("rule", "Cut", f"unknown declaration: {decl!r}")
    finally:
        _closed_polarity = None
    return results
