"""Denotations of terms and processes.

A well-typed process becomes a :class:`Denotation`: a pure function from
an input row (the positive aspect of every used channel plus the negative
aspect of the provided one) to an output row (the reverse).  Composition
of processes is a feedback loop on the two aspects of the private channel,
computed as a least fixed point by Kleene iteration inside the
depth-truncated value space; truncation makes every ascending chain finite
with a computable height bound, so iteration terminates and the result is
the truncation of the true fixed point.  A brute-force Knaster-Tarski
construction of the same operator (the meet of all post-fixed points over
an enumerated grid) is provided as a testing oracle.

Functional terms evaluate call-by-value into :class:`~sill.domain.FuncValue`;
the fixed-point operator iterates from bottom, detecting convergence of
quoted-process iterates extensionally on the enumerated input grid of
their interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

from . import ast as A
from . import domain as D
from . import typecheck as T
from .ast import NEG, POS, Polarity

Aspect = tuple[A.SType, Polarity]


# ---------------------------------------------------------------------------
# Rows: immutable keyed tuples of communication values


class Row(Mapping):
    __slots__ = ("_entries", "_dict", "_hash")

    def __init__(self, mapping: Mapping[str, D.CommValue] | Iterable[tuple[str, D.CommValue]]):
        d = dict(mapping)
        object.__setattr__(self, "_entries", tuple(sorted(d.items())))
        object.__setattr__(self, "_dict", d)
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, key: str) -> D.CommValue:
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._entries))
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Row) and self._entries == other._entries

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self._entries)
        return f"Row({inner})"

    def updated(self, changes: Mapping[str, D.CommValue]) -> "Row":
        return Row({**self._dict, **changes})

    def without(self, *keys: str) -> "Row":
        return Row({k: v for k, v in self._dict.items() if k not in keys})

    def project(self, keys) -> "Row":
        return Row({k: self._dict[k] for k in keys})


def bot_row(keys) -> Row:
    return Row({k: D.BOT for k in keys})


def row_leq(a: Row, b: Row) -> bool:
    return set(a) == set(b) and all(D.leq(a[k], b[k]) for k in a)


def row_meet(a: Row, b: Row) -> Row:
    return Row({k: D.meet2(a[k], b[k]) for k in a})


def row_truncate(a: Row, depth: int) -> Row:
    return Row({k: D.truncate(v, depth) for k, v in a.items()})


def row_grid(aspects: Mapping[str, Aspect], depth: int,
             func_enum: Optional[D.FuncEnum] = None) -> Iterator[Row]:
    """Every row over ``aspects`` whose values have height at most ``depth``."""
    keys = sorted(aspects)
    pools = [D.enumerate_values(*aspects[k], depth, func_enum) for k in keys]
    return (Row(dict(zip(keys, combo))) for combo in itertools.product(*pools))


def kplus(chan: str) -> str:
    return chan + "+"


def kminus(chan: str) -> str:
    return chan + "-"


# ---------------------------------------------------------------------------
# Evaluation configuration and diagnostics


@dataclass
class Diag:
    trace_iters: list[int] = field(default_factory=list)
    fix_rounds: list[int] = field(default_factory=list)
    nonconverged: bool = False

    def reset(self):
        self.trace_iters.clear()
        self.fix_rounds.clear()
        self.nonconverged = False


@dataclass
class EvalConfig:
    depth: int = 4
    fuel: Optional[int] = None
    diag: Diag = field(default_factory=Diag)
    func_enum: Optional[D.FuncEnum] = None

    def fix_fuel(self) -> int:
        return self.fuel if self.fuel is not None else max(2 * self.depth + 8, 32)


# ---------------------------------------------------------------------------
# Denotations


class Denotation:
    """A pure, memoized function between rows with a typed interface."""

    __slots__ = ("inputs", "outputs", "_fn", "_memo", "label")

    def __init__(self, inputs: Mapping[str, Aspect], outputs: Mapping[str, Aspect],
                 fn: Callable[[Row], Row], label: str = ""):
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self._fn = fn
        self._memo: dict[Row, Row] = {}
        self.label = label

    def __call__(self, row: Row | Mapping[str, D.CommValue]) -> Row:
        if not isinstance(row, Row):
            row = Row(row)
        if set(row) != set(self.inputs):
            missing = set(self.inputs) - set(row)
            extra = set(row) - set(self.inputs)
            raise ValueError(f"bad input row: missing {missing}, extra {extra}")
        hit = self._memo.get(row)
        if hit is None:
            hit = self._fn(row)
            if not isinstance(hit, Row):
                hit = Row(hit)
            self._memo[row] = hit
        return hit

    def __repr__(self):
        return (f"Denotation({self.label or 'anon'}: "
                f"{sorted(self.inputs)} -> {sorted(self.outputs)})")


def constant_bot(inputs: Mapping[str, Aspect], outputs: Mapping[str, Aspect]) -> Denotation:
    return Denotation(inputs, outputs, lambda row: bot_row(outputs), label="bot")


def tensor(f: Denotation, g: Denotation) -> Denotation:
    """Parallel composition on disjoint key sets."""
    overlap = (set(f.inputs) & set(g.inputs)) | (set(f.outputs) & set(g.outputs))
    if overlap:
        raise ValueError(f"tensor key overlap: {overlap}")
    inputs = {**f.inputs, **g.inputs}
    outputs = {**f.outputs, **g.outputs}

    def fn(row: Row) -> Row:
        a = f(row.project(f.inputs))
        b = g(row.project(g.inputs))
        return Row({**dict(a), **dict(b)})

    return Denotation(inputs, outputs, fn, label=f"({f.label}*{g.label})")


def relabel(den: Denotation, in_map: Mapping[str, str], out_map: Mapping[str, str]) -> Denotation:
    """Rename interface keys; ``in_map`` maps new input keys to old ones."""
    inputs = {new: den.inputs[old] for new, old in in_map.items()}
    outputs = {new: den.outputs[old] for new, old in out_map.items()}
    if len(inputs) != len(den.inputs) or len(outputs) != len(den.outputs):
        raise ValueError("relabel must cover the whole interface")

    def fn(row: Row) -> Row:
        inner = Row({old: row[new] for new, old in in_map.items()})
        out = den(inner)
        return Row({new: out[old] for new, old in out_map.items()})

    return Denotation(inputs, outputs, fn, label=f"relabel({den.label})")


def strictify(den: Denotation, key: str) -> Denotation:
    """Force bottom output whenever the ``key`` input is bottom."""
    if key not in den.inputs:
        raise ValueError(f"{key} is not an input of {den!r}")

    def fn(row: Row) -> Row:
        if row[key] == D.BOT:
            return bot_row(den.outputs)
        return den(row)

    return Denotation(den.inputs, den.outputs, fn, label=f"strict[{key}]({den.label})")


def fix_inputs(den: Denotation, fixed: Mapping[str, D.CommValue]) -> Denotation:
    """Partially apply a denotation on some of its inputs."""
    rest = {k: v for k, v in den.inputs.items() if k not in fixed}

    def fn(row: Row) -> Row:
        return den(Row({**dict(row), **dict(fixed)}))

    return Denotation(rest, den.outputs, fn, label=f"fix({den.label})")


# ---------------------------------------------------------------------------
# Trace and parametrized fixed points


def trace(den: Denotation, fb_keys, cfg: EvalConfig) -> Denotation:
    """Close a feedback loop over ``fb_keys`` by Kleene iteration from bottom.

    Each feedback key must be both an input and an output.  Iterates are
    truncated at the working depth, whose finite chain height bounds the
    iteration count; convergence is detected on the full output row, and
    the recorded per-call iteration count is the index at which the chain
    stopped evolving.
    """
    fb = sorted(fb_keys)
    for k in fb:
        if k not in den.inputs or k not in den.outputs:
            raise ValueError(f"feedback key {k} must be an input and an output")
    inputs = {k: v for k, v in den.inputs.items() if k not in fb}
    outputs = {k: v for k, v in den.outputs.items() if k not in fb}
    bound = sum(D.chain_steps(t, p, cfg.depth) for t, p in
                (den.inputs[k] for k in fb)) + 2
    fuel = cfg.fuel if cfg.fuel is not None else bound

    def fn(row: Row) -> Row:
        x = bot_row(fb)
        prev = None
        n = 0
        while True:
            n += 1
            y = den(Row({**dict(row), **dict(x)}))
            if prev is not None and y == prev:
                break
            if n > fuel:
                cfg.diag.nonconverged = True
                break
            x = Row({k: D.truncate(y[k], cfg.depth) for k in fb})
            prev = y
        cfg.diag.trace_iters.append(n - 1)
        return y.without(*fb)

    return Denotation(inputs, outputs, fn, label=f"trace({den.label})")


def knaster_tarski_trace(den: Denotation, fb_keys, depth: int,
                         func_enum: Optional[D.FuncEnum] = None) -> Denotation:
    """The trace as the meet of all post-fixed points, by exhaustive search.

    For each plain input, every candidate pair of an output row and a
    feedback row is tested for ``f(a, x) <= (b, x)``; the pointwise meet of
    the candidates that pass is itself one of them, and its plain part is
    the result.  Exponential, but an independent oracle for :func:`trace`.
    """
    fb = sorted(fb_keys)
    inputs = {k: v for k, v in den.inputs.items() if k not in fb}
    outputs = {k: v for k, v in den.outputs.items() if k not in fb}

    x_grid = list(row_grid({k: den.inputs[k] for k in fb}, depth, func_enum))
    b_grid = list(row_grid(outputs, depth, func_enum))

    def fn(row: Row) -> Row:
        post: list[tuple[Row, Row]] = []
        for x in x_grid:
            out = den(Row({**dict(row), **dict(x)}))
            out_x = out.project(fb)
            out_b = out.without(*fb)
            if not row_leq(out_x, x):
                continue
            for b in b_grid:
                if row_leq(out_b, b):
                    post.append((b, x))
        if not post:
            raise D.DomainError(
                "no post-fixed point within the enumerated grid; "
                "the map escapes the stated depth"
            )
        b_meet, x_meet = post[0]
        for b, x in post[1:]:
            b_meet = row_meet(b_meet, b)
            x_meet = row_meet(x_meet, x)
        if (b_meet, x_meet) not in post:
            raise D.DomainError("meet of post-fixed points is not itself one")
        return b_meet

    return Denotation(inputs, outputs, fn, label=f"kt-trace({den.label})")


def sfix_row(den: Denotation, bind: Mapping[str, str], cfg: EvalConfig) -> Denotation:
    """Parametrized least fixed point over rows.

    ``bind`` maps each fed-back input key to the output key that refeeds
    it.  The result keeps all of ``den``'s outputs and drops the bound
    inputs.
    """
    for ik, ok in bind.items():
        if ik not in den.inputs or ok not in den.outputs:
            raise ValueError(f"bad binding {ik} <- {ok}")
    inputs = {k: v for k, v in den.inputs.items() if k not in bind}
    bound = sum(D.chain_steps(t, p, cfg.depth) for t, p in
                (den.inputs[k] for k in bind)) + 2
    fuel = cfg.fuel if cfg.fuel is not None else bound

    def fn(row: Row) -> Row:
        x = bot_row(bind)
        n = 0
        while True:
            n += 1
            y = den(Row({**dict(row), **dict(x)}))
            x2 = Row({ik: D.truncate(y[ok], cfg.depth) for ik, ok in bind.items()})
            if x2 == x:
                break
            if n > fuel:
                cfg.diag.nonconverged = True
                break
            x = x2
        return y

    return Denotation(inputs, den.outputs, fn, label=f"sfix({den.label})")


# ---------------------------------------------------------------------------
# Environments


class Env(Mapping):
    __slots__ = ("_dict",)

    def __init__(self, mapping: Mapping[str, D.FuncValue] | Iterable = ()):
        object.__setattr__(self, "_dict", dict(mapping))

    def __getitem__(self, key):
        return self._dict.get(key, D.FBOT)

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)

    def updated(self, key: str, value: D.FuncValue) -> "Env":
        return Env({**self._dict, key: value})

    def project(self, names) -> "Env":
        return Env({k: v for k, v in self._dict.items() if k in names})

    def as_tuple(self):
        return tuple(sorted(self._dict.items(), key=lambda kv: kv[0]))


EMPTY_ENV = Env()

_PROV_KEY = "$p"


def _canon_used(i: int) -> str:
    return f"$u{i}"


# ---------------------------------------------------------------------------
# Interfaces


def proc_inputs(delta: Mapping[str, A.SType], c: str, cty: A.SType) -> dict[str, Aspect]:
    ins = {kplus(d): (t, POS) for d, t in delta.items()}
    ins[kminus(c)] = (cty, NEG)
    return ins


def proc_outputs(delta: Mapping[str, A.SType], c: str, cty: A.SType) -> dict[str, Aspect]:
    outs = {kminus(d): (t, NEG) for d, t in delta.items()}
    outs[kplus(c)] = (cty, POS)
    return outs


# ---------------------------------------------------------------------------
# Terms


def denote_term(term: A.Term, ty: Optional[A.FType],
                psi: Mapping[str, A.FType], env: Env, cfg: EvalConfig) -> D.FuncValue:
    match term:
        case A.Var(name=x):
            return env[x]
        case A.Anno(term=m, ty=t):
            return denote_term(m, t, psi, env, cfg)
        case A.Lam(var=x, ty=t, body=m):
            if isinstance(ty, A.Arrow):
                arrow = ty
            else:
                arrow = A.Arrow(t, T.infer_term({**psi, x: t}, m))
            return D.Closure(
                x, m, arrow, env.as_tuple(), tuple(sorted(psi.items()))
            )
        case A.App(fn=f, arg=a):
            fty = T.infer_term(dict(psi), f)
            assert isinstance(fty, A.Arrow)
            fv = denote_term(f, fty, psi, env, cfg)
            av = denote_term(a, fty.arg, psi, env, cfg)
            return apply_func(fv, av, cfg)
        case A.Quote(provided=a, proc=p, used=us):
            if not isinstance(ty, A.ProcType):
                raise ValueError("quote needs its process type to evaluate")
            delta = {u: t for u, (_, t) in zip(us, ty.used)}
            den = denote_process(p, delta, a, ty.provided, psi, env, cfg)
            in_map = {_canon_used(i): kplus(u) for i, u in enumerate(us)}
            in_map[_PROV_KEY] = kminus(a)
            out_map = {_canon_used(i): kminus(u) for i, u in enumerate(us)}
            out_map[_PROV_KEY] = kplus(a)
            return D.QProc(relabel(den, in_map, out_map))
        case A.Fix(var=x, body=m):
            if ty is None:
                raise ValueError("fix needs a type annotation to evaluate")
            return _denote_fix(x, m, ty, psi, env, cfg)
    raise ValueError(f"not a term: {term!r}")


def apply_func(fv: D.FuncValue, av: D.FuncValue, cfg: EvalConfig) -> D.FuncValue:
    """Call-by-value application: strict in both the function and argument."""
    if fv == D.FBOT:
        return D.FBOT
    if not isinstance(fv, D.Closure):
        raise ValueError(f"cannot apply {fv!r}")
    if av == D.FBOT:
        return D.FBOT
    psi = dict(fv.psi)
    psi[fv.var] = fv.ty.arg
    env = Env(dict(fv.env)).updated(fv.var, av)
    return denote_term(fv.body, fv.ty.res, psi, env, cfg)


def _denote_fix(x: str, body: A.Term, ty: A.FType,
                psi: Mapping[str, A.FType], env: Env, cfg: EvalConfig) -> D.FuncValue:
    psi2 = {**psi, x: ty}
    fuel = cfg.fix_fuel()
    v: D.FuncValue = D.FBOT
    rounds = 0
    while rounds < fuel:
        w = denote_term(body, ty, psi2, env.updated(x, v), cfg)
        rounds += 1
        if _func_converged(v, w, ty, cfg):
            v = w
            cfg.diag.fix_rounds.append(rounds)
            return v
        v = w
    cfg.diag.nonconverged = True
    cfg.diag.fix_rounds.append(rounds)
    return v


def _func_converged(v: D.FuncValue, w: D.FuncValue, ty: A.FType, cfg: EvalConfig) -> bool:
    if v == w:
        return True
    if isinstance(v, D.QProc) and isinstance(w, D.QProc) and isinstance(ty, A.ProcType):
        try:
            return _qproc_extensionally_equal(v.den, w.den, ty, cfg)
        except D.NotEnumerable:
            return False
    return False


def _qproc_extensionally_equal(d1: Denotation, d2: Denotation,
                               ty: A.ProcType, cfg: EvalConfig) -> bool:
    for row in row_grid(d1.inputs, cfg.depth, cfg.func_enum):
        if row_truncate(d1(row), cfg.depth) != row_truncate(d2(row), cfg.depth):
            return False
    return True


def unquote_den(v: D.FuncValue, provided: str, used: tuple[str, ...],
                delta: Mapping[str, A.SType], cty: A.SType) -> Denotation:
    """Lower a quoted-process value to a denotation at the spawn site.

    Bottom and the quoted stuck process both lower to the function that
    never produces output.
    """
    inputs = proc_inputs({u: delta[u] for u in used}, provided, cty)
    outputs = proc_outputs({u: delta[u] for u in used}, provided, cty)
    if isinstance(v, D.QProc):
        in_map = {kplus(u): _canon_used(i) for i, u in enumerate(used)}
        in_map[kminus(provided)] = _PROV_KEY
        out_map = {kminus(u): _canon_used(i) for i, u in enumerate(used)}
        out_map[kplus(provided)] = _PROV_KEY
        return relabel(v.den, in_map, out_map)
    if v == D.FBOT or isinstance(v, D.QProcBot):
        return constant_bot(inputs, outputs)
    raise ValueError(f"cannot spawn {v!r}")


# ---------------------------------------------------------------------------
# Processes


def denote_process(proc: A.Process, delta: Mapping[str, A.SType], c: str,
                   cty: A.SType, psi: Mapping[str, A.FType], env: Env,
                   cfg: EvalConfig) -> Denotation:
    """Build the denotation of a typechecked process.

    The derivation is syntax-directed, so the clause to apply is read off
    the process and the evolving types; receiving clauses are wrapped with
    the strictness operator on the awaited component.  Each message clause
    is both the right rule (on the provided channel) and the left rule (on
    a used one): the two differ only in which keys carry the channel's
    incoming and outgoing aspects, and in which type the message advances.
    """
    delta = dict(delta)
    inputs = proc_inputs(delta, c, cty)
    outputs = proc_outputs(delta, c, cty)

    def clause(fn, label) -> Denotation:
        return Denotation(inputs, outputs, fn, label=label)

    def side(a: str):
        """The input key, output key and current type of channel ``a``, and
        a builder for the continuation with ``a`` retyped."""
        if a == c:
            def cont(p, ty, delta=delta, psi=psi, env=env) -> Denotation:
                return denote_process(p, delta, c, ty, psi, env, cfg)
            return kminus(c), kplus(c), cty, cont

        def cont(p, ty, delta=delta, psi=psi, env=env) -> Denotation:
            return denote_process(p, {**delta, a: ty}, c, cty, psi, env, cfg)
        return kplus(a), kminus(a), delta[a], cont

    match proc:
        case A.Fwd(provided=b, used=a):
            def fwd_fn(row: Row) -> Row:
                return Row({kminus(a): row[kminus(b)], kplus(b): row[kplus(a)]})
            return clause(fwd_fn, "fwd")

        case A.Close(channel=a):
            return clause(lambda row: Row({kplus(a): D.STAR}), "close")

        case A.Wait(channel=a, cont=p):
            rest = {d: t for d, t in delta.items() if d != a}
            inner = denote_process(p, rest, c, cty, psi, env, cfg)

            def wait_fn(row: Row) -> Row:
                out = inner(row.without(kplus(a)))
                return Row({**dict(out), kminus(a): D.BOT})

            return strictify(clause(wait_fn, "wait"), kplus(a))

        case A.SendShift(channel=a, cont=p):
            _, o, ty, cont = side(a)
            assert isinstance(ty, (A.Down, A.Up))
            inner = cont(p, ty.body)

            def send_shift(row: Row) -> Row:
                out = inner(row)
                return Row({**dict(out), o: D.up(out[o])})

            return clause(send_shift, "send-shift")

        case A.RecvShift(channel=a, cont=p):
            i, _, ty, cont = side(a)
            assert isinstance(ty, (A.Up, A.Down))
            inner = cont(p, ty.body)

            def recv_shift(row: Row) -> Row:
                return inner(row.updated({i: D.down(row[i])}))

            return strictify(clause(recv_shift, "recv-shift"), i)

        case A.SendLabel(channel=a, label=k, cont=p):
            i, o, ty, cont = side(a)
            assert isinstance(ty, (A.Plus, A.With))
            labels = [l for l, _ in ty.branches]
            inner = cont(p, dict(ty.branches)[k])

            def send_label(row: Row) -> Row:
                out = inner(row.updated({i: D.split_record(row[i], labels)[k]}))
                return Row({**dict(out), o: D.tag(k, out[o])})

            return clause(send_label, "send-label")

        case A.Case(channel=a, branches=bs):
            i, o, ty, cont = side(a)
            assert isinstance(ty, (A.With, A.Plus))
            tys = dict(ty.branches)
            inners = {k: cont(p, tys[k]) for k, p in bs}
            labels = sorted(tys)

            def recv_label(row: Row) -> Row:
                v = row[i]
                assert isinstance(v, D.Tag)
                k, payload = v.label, v.inner.inner
                out = inners[k](row.updated({i: payload}))
                chosen = D.record({l: out[o] if l == k else D.BOT for l in labels})
                return Row({**dict(out), o: chosen})

            return strictify(clause(recv_label, "case"), i)

        case A.SendChan(channel=a, sent=b, cont=p):
            i, o, ty, cont = side(a)
            assert isinstance(ty, (A.Tensor, A.Lolly))
            inner = cont(p, ty.cont, {d: t for d, t in delta.items() if d != b})

            def send_chan(row: Row) -> Row:
                b_neg, a_in = D.split_pair(row[i])
                out = inner(row.without(kplus(b)).updated({i: a_in}))
                return Row({
                    **dict(out),
                    kminus(b): b_neg,
                    o: D.up(D.pair(row[kplus(b)], out[o])),
                })

            return clause(send_chan, "send-chan")

        case A.RecvChan(bound=b, channel=a, cont=p):
            i, o, ty, cont = side(a)
            assert isinstance(ty, (A.Lolly, A.Tensor))
            inner = cont(p, ty.cont, {**delta, b: ty.carried})

            def recv_chan(row: Row) -> Row:
                b_pos, a_in = D.split_pair(D.down(row[i]))
                out = inner(row.updated({i: a_in, kplus(b): b_pos}))
                return Row({
                    **dict(out.without(kminus(b))),
                    o: D.pair(out[kminus(b)], out[o]),
                })

            return strictify(clause(recv_chan, "recv-chan"), i)

        case A.SendVal(channel=a, term=m, cont=p):
            _, o, ty, cont = side(a)
            assert isinstance(ty, (A.AndVal, A.ImpVal))
            v = denote_term(m, ty.val, psi, env, cfg)
            inner = cont(p, ty.cont)

            def send_val(row: Row) -> Row:
                if v == D.FBOT:
                    return bot_row(outputs)
                out = inner(row)
                return Row({**dict(out), o: D.up(D.valpair(v, out[o]))})

            return clause(send_val, "send-val")

        case A.RecvVal(bound=x, channel=a, cont=p):
            i, _, ty, cont = side(a)
            assert isinstance(ty, (A.ImpVal, A.AndVal))
            inner_cache: dict[D.FuncValue, Denotation] = {}

            def recv_val(row: Row) -> Row:
                v, a_in = D.split_valpair(D.down(row[i]))
                inner = inner_cache.get(v)
                if inner is None:
                    inner = cont(p, ty.cont, psi={**psi, x: ty.val}, env=env.updated(x, v))
                    inner_cache[v] = inner
                return inner(row.updated({i: a_in}))

            return strictify(clause(recv_val, "recv-val"), i)

        case A.SendUnfold(channel=a, cont=p) | A.RecvUnfold(channel=a, cont=p):
            i, o, ty, cont = side(a)
            assert isinstance(ty, A.Rec)
            inner = cont(p, A.unfold_rec(ty))

            def unfold_msg(row: Row) -> Row:
                out = inner(row.updated({i: D.unfold(row[i])}))
                return Row({**dict(out), o: D.fold(out[o])})

            return clause(unfold_msg, "unfold")

        case A.Unquote(provided=a, term=m, used=us):
            mty = T.infer_term(dict(psi), m)
            assert isinstance(mty, A.ProcType)
            v = denote_term(m, mty, psi, env, cfg)
            return unquote_den(v, a, us, delta, cty)

        case A.Cut(channel=x, left=l, right=r, anno=t):
            cut_ty = t
            if cut_ty is None and isinstance(l, A.Unquote):
                mty = T.infer_term(dict(psi), l.term)
                assert isinstance(mty, A.ProcType)
                cut_ty = mty.provided
            if cut_ty is None:
                raise ValueError("cut without a type annotation")
            left_chans = A.free_channels(l)
            delta1 = {d: ty_ for d, ty_ in delta.items() if d in left_chans}
            delta2 = {d: ty_ for d, ty_ in delta.items() if d not in left_chans}
            dl = denote_process(l, delta1, x, cut_ty, psi, env, cfg)
            dr = denote_process(r, {**delta2, x: cut_ty}, c, cty, psi, env, cfg)
            joint = tensor(dl, dr)
            return trace(joint, [kminus(x), kplus(x)], cfg)

    raise ValueError(f"not a process: {proc!r}")


# ---------------------------------------------------------------------------
# Public entry points (typecheck, then denote)


def process_denotation(proc: A.Process, delta: Mapping[str, A.SType], c: str,
                       cty: A.SType, psi: Optional[Mapping[str, A.FType]] = None,
                       env: Optional[Env] = None,
                       cfg: Optional[EvalConfig] = None) -> Denotation:
    psi = dict(psi or {})
    T.check_process(psi, dict(delta), proc, c, cty)
    return denote_process(proc, delta, c, cty, psi, env or EMPTY_ENV,
                          cfg or EvalConfig())


def term_denotation(term: A.Term, ty: A.FType,
                    psi: Optional[Mapping[str, A.FType]] = None,
                    env: Optional[Env] = None,
                    cfg: Optional[EvalConfig] = None) -> D.FuncValue:
    psi = dict(psi or {})
    T.check_term(psi, term, ty)
    return denote_term(term, ty, psi, env or EMPTY_ENV, cfg or EvalConfig())
