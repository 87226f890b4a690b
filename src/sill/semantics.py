"""Denotations of terms and processes.

A well-typed process becomes a :class:`Denotation`: a pure function from
an input row (the positive aspect of every used channel plus the negative
aspect of the provided one) to an output row (the reverse).  Composition
of processes is a feedback loop on the two aspects of the private channel,
computed as a least fixed point by Kleene iteration from bottom on whole
values.  The chain height of the depth-truncated value space bounds the
iteration count, so iteration terminates; a chain that has not settled
within the bound is reported as not converged.  A brute-force Knaster-Tarski
construction of the same operator (the meet of all post-fixed points over
an enumerated grid) is a testing oracle.  With :func:`tensor`, :func:`seq`
(composition by key name) and :class:`wire`, :func:`trace` and
:func:`sfix_row` form one combinator set: a cut is the trace of a tensor,
and the law suites build both sides of every axiom from the set.

Functional terms evaluate call-by-value into :class:`~sill.domain.FuncValue`.
The fixed-point operator iterates from bottom.  At a quoted-process type
it computes only the points a query observes: each input row of the
interface is an unknown, solved together with the rows it depends on the
first time a query asks for it, and kept for later queries.  The rows are
swept dependencies first, so a row off a cycle is exact and only the rows
of a cycle iterate until they agree at the working depth.  Within one
:class:`EvalConfig`, every instantiation of a ``fix`` node with the same
free-variable values is one site, so each fixed point is solved once.

Denotation is staged in two passes, as in a closure-generating interpreter
(Feeley and Lapalme, "Using closures for code generation", 1987).  The
static pass runs once per AST node and typing context.  It follows the
typing derivation, which :func:`~sill.typecheck.derive` builds when the
phrase is first denoted (so an ill-typed phrase raises the typechecker's
error): each process node's channel context and each inferred term type is
read off the derivation, not decided again.  It resolves interfaces and
keys, and returns an instantiator ``inst(env, cfg)``.  The dynamic pass,
calling it, binds only the functional environment, so a ``fix`` sweep, a
received value and a closure application re-bind ``env`` instead of
re-walking the syntax.  Static results are cached per :class:`EvalConfig`, never across
configurations.  Message clauses instantiate to plain functions from rows
to rows; a memoized :class:`Denotation` is kept only where a function is
shared or queried again: the process :func:`denote_process` returns, the
two operands of a cut (its Kleene loop calls them again with rows that
repeat), a quote's body, and a ``fix`` site's value and probe.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping, Optional

from . import ast as A
from . import domain as D
from . import typecheck as T
from .ast import NEG, POS, Polarity

Aspect = tuple[A.SType, Polarity]


# ---------------------------------------------------------------------------
# Rows: dicts from interface keys to communication values


class Row(dict):
    """A row of a denotation's interface, never mutated once built.

    Equality is dict equality, which compares the hash-consed values by
    identity.  The hash is computed from the items whenever it is asked
    for, whatever their order.  A :class:`Denotation` memoizes on its
    input values, not on the row.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.items()))
        return f"Row({inner})"

    def updated(self, changes: Mapping[str, D.CommValue]) -> "Row":
        return Row({**self, **changes})

    def without(self, *keys: str) -> "Row":
        return Row({k: v for k, v in self.items() if k not in keys})

    def project(self, keys) -> "Row":
        return Row({k: self[k] for k in keys})


def bot_row(keys) -> Row:
    return Row({k: D.BOT for k in keys})


def row_leq(a: Row, b: Row) -> bool:
    return a.keys() == b.keys() and all(D.leq(a[k], b[k]) for k in a)


def row_meet(a: Row, b: Row) -> Row:
    return Row({k: D.meet2(a[k], b[k]) for k in a})


def row_truncate(a: Row, depth: int) -> Row:
    """``a`` with each value truncated at ``depth``; ``a`` itself if none is cut."""
    cut = {k: D.truncate(v, depth) for k, v in a.items()}
    return a if cut == a else Row(cut)


def row_grid(aspects: Mapping[str, Aspect], depth: int) -> Iterator[Row]:
    """Every row over ``aspects`` whose values have height at most ``depth``."""
    keys = sorted(aspects)
    pools = [D.enumerate_values(*aspects[k], depth) for k in keys]
    return (Row(zip(keys, combo)) for combo in itertools.product(*pools))


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
    # the static pass's instantiators, by AST node and typing context
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the live fix sites, by node, typing context and free-variable values
    fixes: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, init=False, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Denotations


class Denotation:
    """A pure function between rows with a typed interface, memoized on the
    input values in sorted key order: a tuple, a bare value for one key."""

    __slots__ = ("inputs", "outputs", "_fn", "_key", "_memo", "label")

    def __init__(self, inputs: Mapping[str, Aspect], outputs: Mapping[str, Aspect],
                 fn: Callable[[Row], Row], label: str = ""):
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self._fn = fn
        self._key = (operator.itemgetter(*sorted(self.inputs)) if self.inputs
                     else lambda row: ())
        self._memo: dict[object, Row] = {}
        self.label = label

    def __call__(self, row: Row | Mapping[str, D.CommValue]) -> Row:
        if row.keys() != self.inputs.keys():
            missing = self.inputs.keys() - row.keys()
            extra = row.keys() - self.inputs.keys()
            raise ValueError(f"bad input row: missing {missing}, extra {extra}")
        key = self._key(row)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._fn(row if isinstance(row, Row) else Row(row))
            if not isinstance(hit, Row):
                hit = Row(hit)
            self._memo[key] = hit
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
        return Row({**a, **b})

    return Denotation(inputs, outputs, fn, label=f"({f.label}*{g.label})")


def seq(*stages: Denotation | Mapping[str, str]) -> Denotation:
    """Sequential composition by key name over a shared row.

    A stage reads each of its input keys from the latest earlier stage that
    produced it, and otherwise from the outer input; the outputs are the
    produced keys that no later stage reads.  A stage may be a :class:`wire`
    or a plain mapping ``{new: old}``: it renames or copies keys, and is not
    called.  An outer key that only plain mappings read has the aspect at
    which its copy is read.
    """
    shape = tuple((tuple(s.inputs), tuple(s.outputs)) if type(s) is Denotation
                  else (isinstance(s, wire), tuple(s.items())) for s in stages)
    aspects, reads, outs = _seq_plan(shape)
    inputs = {k: stages[n].inputs[old] for k, n, old in aspects}
    outputs = {k: stages[n].outputs[s] if j else inputs[s] for k, j, n, s in outs}
    calls = [(None if n is None else stages[n], read) for n, read in reads]

    def fn(row: Row) -> Row:
        rows = [row]
        for den, read in calls:
            row = rows[read] if type(read) is int else Row({k: rows[j][s] for k, j, s in read})
            rows.append(den(row) if den else row)
        return row

    return Denotation(inputs, outputs, fn, "seq")


@lru_cache(maxsize=256)
def _seq_plan(shape: tuple) -> tuple:
    """:func:`seq`'s plan for stages of this ``shape`` (each denotation's
    input and output keys, or whether a map of keys is a :class:`wire`, whose
    inputs give aspects, and its items): the stage and key giving each outer
    key's aspect, the row each called stage reads and then the result (stage
    None), and where each output comes from.  Row 0 is the outer input and
    row ``i`` the ``i``-th call's output; a row is read whole by its number,
    else as ``(key, row, key there)`` entries."""
    at: dict[str, tuple[int, str]] = {}  # each key, as (row, key there)
    unread: dict[str, tuple[int, str]] = {}  # the produced keys not read since
    aspects: dict[str, tuple[int, str]] = {}  # each outer key's (stage, key there)
    reads, rows = [], {}
    for n, (keys, made) in enumerate(shape):
        den = type(keys) is tuple
        pairs = [(k, k) for k in keys] if den else made
        got = {new: at.get(old, (0, old)) for new, old in pairs}
        for new, old in pairs:
            unread.pop(old, None)
            if got[new][0] == 0 and keys is not False:
                aspects.setdefault(got[new][1], (n, old))
        if den:
            reads.append((n, got))
            rows[len(reads)] = made
            got = {k: (len(reads), k) for k in made}
        at.update(got)
        unread.update(got)
    if any(j == 0 and s not in aspects for j, s in unread.values()):
        raise ValueError("an output copies an outer key that no stage reads")
    rows[0] = list(aspects)

    def read(got: dict[str, tuple[int, str]]):
        whole = [j for j, keys in rows.items() if got == {k: (j, k) for k in keys}]
        return whole[0] if whole else tuple((k, j, s) for k, (j, s) in got.items())

    return (tuple((k, n, old) for k, (n, old) in aspects.items()),
            tuple((n, read(got)) for n, got in [*reads, (None, unread)]),
            tuple((k, j, reads[j - 1][0] if j else None, s) for k, (j, s) in unread.items()))


class wire(Denotation):
    """A swap, an identity or a copy: each output ``new`` carries input ``old``.
    Its ``items()`` are those of ``mapping``, so :func:`seq` reads it as a map."""

    __slots__ = ("items",)

    def __init__(self, inputs: Mapping[str, Aspect], mapping: Mapping[str, str]):
        super().__init__(inputs, {new: inputs[old] for new, old in mapping.items()},
                         lambda row: Row({new: row[old] for new, old in mapping.items()}),
                         "wire")
        self.items = dict(mapping).items


def _renamed(fn: Callable[[Row], Row], in_map: Mapping[str, str],
             out_map: Mapping[str, str]) -> Callable[[Row], Row]:
    """``fn`` with its keys renamed; each map sends a new key to an old one."""

    def renamed(row: Row) -> Row:
        out = fn(Row({old: row[new] for new, old in in_map.items()}))
        return Row({new: out[old] for new, old in out_map.items()})

    return renamed


def strictify(den: Denotation, key: str) -> Denotation:
    """Force bottom output whenever the ``key`` input is bottom."""
    if key not in den.inputs:
        raise ValueError(f"{key} is not an input of {den!r}")
    return Denotation(den.inputs, den.outputs, _strict(den, key, bot_row(den.outputs)),
                      label=f"strict[{key}]({den.label})")


def _strict(fn: Callable[[Row], Row], key: str, bot: Row) -> Callable[[Row], Row]:
    """The strictness operator: ``fn``, but ``bot`` while ``key`` is bottom."""

    def strict(row: Row) -> Row:
        return bot if row[key] == D.BOT else fn(row)

    return strict


# ---------------------------------------------------------------------------
# Trace and parametrized fixed points


def kleene(step: Callable, state, bound: int, cfg: EvalConfig, done: bool = False):
    """Iterate ``state, done = step(state)`` until done, within the fuel:
    ``cfg.fuel``, else ``bound`` steps.  Running out sets
    ``cfg.diag.nonconverged``.  Returns the last state and the step count."""
    fuel = bound if cfg.fuel is None else cfg.fuel
    n = 0
    while not done and n < fuel:
        state, done = step(state)
        n += 1
    if not done:
        cfg.diag.nonconverged = True
    return state, n


def trace(den: Denotation, fb_keys, cfg: EvalConfig) -> Denotation:
    """Close a feedback loop over ``fb_keys`` by Kleene iteration from bottom.

    Each feedback key must be both an input and an output.  Iterates are
    fed back whole, never truncated.  The iteration bound is the chain
    height of each key's domain: truncated at the working depth for a key
    whose aspect has a ``rho``, whole for one without (its values are
    finite).  A chain that has not settled within the bound (or the fuel)
    sets ``cfg.diag.nonconverged``, so its result is approximate.
    Convergence is detected on the full output row, and the recorded
    per-call iteration count is the index at which the chain stopped
    evolving.
    """
    fb = sorted(fb_keys)
    for k in fb:
        if k not in den.inputs or k not in den.outputs:
            raise ValueError(f"feedback key {k} must be an input and an output")
    inputs = {k: v for k, v in den.inputs.items() if k not in fb}
    outputs = {k: v for k, v in den.outputs.items() if k not in fb}
    cut = {k for k in fb if D.recursive(*den.inputs[k])}
    bound = sum(D.chain_steps(*den.inputs[k], cfg.depth if k in cut else math.inf)
                for k in fb) + 2

    def fn(row: Row) -> Row:
        def step(y: Row) -> tuple[Row, bool]:
            x = {k: y[k] for k in fb}
            y2 = den(Row({**row, **x}))
            return y2, y2 == y

        y, n = kleene(step, den(Row({**row, **bot_row(fb)})), bound, cfg)
        cfg.diag.trace_iters.append(n)
        return y.without(*fb)

    return Denotation(inputs, outputs, fn, label=f"trace({den.label})")


def knaster_tarski_trace(den: Denotation, fb_keys, depth: int) -> Denotation:
    """The trace as the meet of all post-fixed points, by exhaustive search.

    For each plain input, every candidate pair of an output row and a
    feedback row is tested for ``f(a, x) <= (b, x)``; the pointwise meet of
    the candidates that pass is itself one of them, and its plain part is
    the result.  Exponential, but an independent oracle for :func:`trace`.
    """
    fb = sorted(fb_keys)
    inputs = {k: v for k, v in den.inputs.items() if k not in fb}
    outputs = {k: v for k, v in den.outputs.items() if k not in fb}

    x_grid = list(row_grid({k: den.inputs[k] for k in fb}, depth))
    b_grid = list(row_grid(outputs, depth))

    def fn(row: Row) -> Row:
        post: list[tuple[Row, Row]] = []
        for x in x_grid:
            out = den(Row({**row, **x}))
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

    def fn(row: Row) -> Row:
        def step(state: tuple[dict, Row]) -> tuple[tuple[dict, Row], bool]:
            x = state[0]
            y = den(Row({**row, **x}))
            x2 = {ik: D.truncate(y[ok], cfg.depth) for ik, ok in bind.items()}
            return (x2, y), x2 == x

        state, done = step((bot_row(bind), None))
        (_, y), _ = kleene(step, state, bound, cfg, done)
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
# Staging


Inst = Callable[[Env, EvalConfig], object]


def _staged(cfg: EvalConfig, node, ctx: tuple, compile_: Callable[[], Inst]) -> Inst:
    """The instantiator of ``node`` in the typing context ``ctx``, from the
    static pass run the first time ``cfg`` asks for it.  The entry keeps
    ``node`` alive, so that its ``id`` is not reused."""
    key = (id(node), ctx)
    hit = cfg.compiled.get(key)
    if hit is None:
        hit = cfg.compiled[key] = (node, compile_())
    return hit[1]


def _interface_keys(provided: str, used: Iterable[str]) -> tuple[dict, dict]:
    """Each input and output key of a process on these channels, mapped to
    the canonical key of its quoted form."""
    ins = {kplus(u): _canon_used(i) for i, u in enumerate(used)}
    ins[kminus(provided)] = _PROV_KEY
    outs = {kminus(u): _canon_used(i) for i, u in enumerate(used)}
    outs[kplus(provided)] = _PROV_KEY
    return ins, outs


def _quoted_interface(ty: A.ProcType) -> tuple[dict[str, Aspect], dict[str, Aspect]]:
    """The input and output aspects of a quoted process of type ``ty``, on
    its canonical keys."""
    used = ty.used_types()
    inputs = {_canon_used(i): (t, POS) for i, t in enumerate(used)}
    outputs = {_canon_used(i): (t, NEG) for i, t in enumerate(used)}
    inputs[_PROV_KEY] = (ty.provided, NEG)
    outputs[_PROV_KEY] = (ty.provided, POS)
    return inputs, outputs


# ---------------------------------------------------------------------------
# Terms


def denote_term(term: A.Term, ty: Optional[A.FType],
                psi: Optional[Mapping[str, A.FType]] = None, env: Optional[Env] = None,
                cfg: Optional[EvalConfig] = None) -> D.FuncValue:
    """The value of ``term`` at ``ty`` (None: at its annotation) in ``env``.
    Raises :class:`~sill.typecheck.TypeCheckError` if it does not have that
    type: the first time ``cfg`` meets it, the term is typechecked."""
    psi, cfg = dict(psi or {}), cfg or EvalConfig()
    ty = term.ty if ty is None else ty
    inst = _staged(cfg, term, (ty, tuple(psi.items())),
                   lambda: _compile_term(term, ty, psi, T.derive(T.check_term, psi, term, ty)))
    return inst(env or EMPTY_ENV, cfg)


def _compile_term(term: A.Term, ty: A.FType, psi: dict[str, A.FType], table: dict) -> Inst:
    """The static pass over a term of type ``ty``: an instantiator of its
    value.  The type of a term the derivation ``table`` inferred is read
    from it."""
    match term:
        case A.Var(name=x):
            return lambda env, cfg: env[x]
        case A.Anno(term=m, ty=t):
            return _compile_term(m, t, psi, table)
        case A.Lam(var=x, body=m):
            scope = tuple(sorted(psi.items()))
            return lambda env, cfg: D.Closure(x, m, ty, env.as_tuple(), scope)
        case A.App(fn=f, arg=a):
            fty = table[id(f)][1]
            fn, arg = _compile_term(f, fty, psi, table), _compile_term(a, fty.arg, psi, table)
            return lambda env, cfg: apply_func(fn(env, cfg), arg(env, cfg), cfg)
        case A.Quote(provided=a, proc=p, used=us):
            body = _compile_process(p, table)
            inputs, outputs = _quoted_interface(ty)
            in_map, out_map = ({new: old for old, new in m.items()} for m in _interface_keys(a, us))
            return lambda env, cfg: D.QProc(Denotation(
                inputs, outputs, _renamed(body(env, cfg), in_map, out_map), "quote"))
        case A.Fix(var=x, body=m):
            body = _compile_term(m, ty, {**psi, x: ty}, table)
            free = sorted(A.free_term_vars(term))
            ctx = (term, ty, *(psi[y] for y in free))
            static = tuple(map(id, ctx))

            def fix(env: Env, cfg: EvalConfig) -> D.FuncValue:
                key = (static, tuple(id(env[y]) for y in free))
                site = cfg.fixes.get(key)
                if site is None:
                    site = cfg.fixes[key] = _FixSite(x, body, ty, env, cfg, ctx)
                return site.instance()

            return fix
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
    body = _staged(cfg, fv.body, (fv.ty.res, tuple(psi.items())), lambda: _compile_term(
        fv.body, fv.ty.res, psi, T.derive(T.check_term, psi, fv.body, fv.ty.res)))
    return body(Env(dict(fv.env)).updated(fv.var, av), cfg)


_QUOTED = object()  # a site's value-level result is its quoted :attr:`_FixSite.value`


class _FixSite:
    """One fixed point ``fix x. body`` in one query: the ``Fix`` node, in its
    typing context ``ctx`` (the node, ``ty`` and the types of its free
    variables), with the values ``env`` binds to those variables.

    While the site lives, every instantiation of the node in the same
    context with the same values (by identity) is this site:
    ``cfg.fixes`` holds it weakly under their ids, and the site holds
    ``ctx`` and ``env``, so those ids stay valid while the entry exists.
    The value level is iterated once, at the first instantiation.

    At a quoted-process type the value of the fix is :attr:`value`.  The
    input rows of its interface are the unknowns of the fixed-point
    equation: the first time any instantiation asks for a row,
    :func:`_denote_fix` solves it together with the rows it depends on,
    and keeps them in :attr:`solved` as constants for later queries.
    """

    def __init__(self, x: str, body: Inst, ty: A.FType, env: Env, cfg: EvalConfig,
                 ctx: tuple):
        self.x, self.body, self.ty, self.env, self.cfg, self.ctx = x, body, ty, env, cfg, ctx
        self.solved: dict[Row, Row] = {}
        self._value: Optional[weakref.ref] = None
        # FBOT, a closure or _QUOTED, once the value level is solved
        self._level: object = None

    def instance(self) -> D.FuncValue:
        """The value of the fix, from the site's one value-level solve.
        The quoted value is not kept here: it holds the site."""
        if self._level is None:
            v = _denote_fix(self)
            self._level = _QUOTED if isinstance(v, D.QProc) else v
        return self.value if self._level is _QUOTED else self._level

    def unroll(self, v: D.FuncValue) -> D.FuncValue:
        """The body with the recursive variable bound to ``v``."""
        return self.body(self.env.updated(self.x, v), self.cfg)

    @cached_property
    def interface(self) -> tuple[dict[str, Aspect], dict[str, Aspect]]:
        """The input and output aspects of :attr:`value`."""
        assert isinstance(self.ty, A.ProcType)
        return _quoted_interface(self.ty)

    @property
    def value(self) -> D.QProc:
        """The same quoted process for as long as anything holds it.  It
        holds the site, so the site holds it weakly: a strong reference
        back would make a cycle that keeps :attr:`cfg` until the cyclic
        collector runs."""
        value = self._value and self._value()
        if value is None:
            def solve(row: Row) -> Row:
                hit = self.solved.get(row)
                return _denote_fix(self, row) if hit is None else hit

            value = D.QProc(Denotation(*self.interface, solve, label="fix"))
            self._value = weakref.ref(value)
        return value

    def step(self, table: dict[Row, Row], swept: Mapping[Row, Row]
             ) -> tuple[D.QProc, D.QProc, list[Row], list[Row]]:
        """A probe over :attr:`solved`, ``swept`` (the rows this sweep has
        evaluated) and ``table`` (the last outputs of the others), as a
        quoted process; the body unrolled over it; and the lists of stale
        and found rows, which grow as the probe is read.  A read that
        neither :attr:`solved` nor ``swept`` answers is stale; a row that
        ``table`` lacks too is found: it reads as bottom and is added to
        ``table``.  The probe's memo pins the first read of each row, so
        every read of a row in one sweep sees one value."""
        inputs, outputs = self.interface
        stale: list[Row] = []
        found: list[Row] = []

        def read(row: Row) -> Row:
            hit = self.solved.get(row, swept.get(row))
            if hit is None:
                stale.append(row)
                hit = table.get(row)
                if hit is None:
                    found.append(row)
                    hit = table[row] = bot_row(outputs)
            return hit

        v = D.QProc(Denotation(inputs, outputs, read, label="probe"))
        w = self.unroll(v)
        if not isinstance(w, D.QProc):  # the stuck process
            w = D.QProc(constant_bot(inputs, outputs))
        return v, w, stale, found


def _denote_fix(site: _FixSite, row: Optional[Row] = None) -> D.FuncValue | Row:
    """Kleene iteration from bottom for a ``fix``, within the fuel.

    Without ``row``, iterate the value of the fix, and return it;
    :meth:`_FixSite.instance` does so once per site, however many
    instantiations share it.  Iterates
    converge when they are equal.  At a quoted-process type only the value
    level is iterated: once an iterate is above bottom, so is the fix, and
    the next iterate is :attr:`_FixSite.value`, whose rows are solved on
    demand.  It agrees with the one before on the rows solved so far: none.

    With ``row``, solve that input row of ``site.value`` and return its
    output.  The unknowns are ``row`` and each row the body reads that is
    not solved yet, in the order they are found; each is found by a read
    from a row found before it.  Each sweep unrolls the body once over a
    probe, evaluates the rows in reverse order of discovery, then the rows
    first read during the sweep, and writes each output where later rows of
    the sweep read it.  So a chain's dependencies come first.  A read of a
    row the sweep has not evaluated yet is stale: it sees the last sweep's
    output, or bottom.  A sweep with no stale read computed each row from
    solved rows or rows computed before it in the sweep, so by induction
    each output is the exact least solution, and the solve ends: a chain of
    rows takes two sweeps, a row that reads only solved rows one.  Every
    cycle has a row that reads stale in every sweep; then the solve ends
    when the stale rows' new outputs agree with what was read, truncated at
    the working depth, and keeps the new outputs.  This is a local solver
    of the subsystem the query depends on (after Le Charlier and Van
    Hentenryck 1992).

    A round is one sweep, or one value-level iterate, and makes one
    convergence check.  Each call appends its number of rounds to
    ``cfg.diag.fix_rounds``, so the list has one entry per solve actually
    run: a row that any instantiation of the site solved before adds none.
    """
    cfg = site.cfg
    bound = max(2 * cfg.depth + 8, 32)
    if row is None:
        quoted = isinstance(site.ty, A.ProcType)

        def iterate(v: D.FuncValue) -> tuple[D.FuncValue, bool]:
            w = site.unroll(v) if v == D.FBOT or not quoted else site.value
            return w, _func_converged(v, w, cfg)

        v, rounds = kleene(iterate, D.FBOT, bound, cfg)
        result = site.value if quoted and v != D.FBOT else v
    else:
        def sweep(table: dict[Row, Row]) -> tuple[dict[Row, Row], bool]:
            swept: dict[Row, Row] = {}
            v, w, stale, found = site.step(table, swept)
            # dependencies first; ``found`` grows while it is visited
            for r in itertools.chain(reversed(list(table)), found):
                swept[r] = w.den(r)
            done = _func_converged(v, w, cfg, stale)
            table.update(swept)  # in place, so it keeps the order of discovery
            return table, done

        table, rounds = kleene(sweep, {row: bot_row(site.interface[1])}, bound, cfg)
        site.solved.update(table)
        result = table[row]
    cfg.diag.fix_rounds.append(rounds)
    return result


def _func_converged(v: D.FuncValue, w: D.FuncValue, cfg: EvalConfig,
                    rows: Iterable[Row] = ()) -> bool:
    """Whether successive iterates agree: as values, or as quoted processes
    on ``rows``, truncated at the working depth."""
    if v == w:
        return True
    if isinstance(v, D.QProc) and isinstance(w, D.QProc):
        return first_difference(v.den, w.den, rows, cfg.depth) is None
    return False


def first_difference(d1: Denotation, d2: Denotation, rows: Iterable[Row],
                     depth: int) -> Optional[tuple[Row, Row, Row]]:
    """The first of ``rows`` where ``d1`` and ``d2`` differ after truncation
    at ``depth``, with both truncated outputs; None if they agree on all."""
    for row in rows:
        o1, o2 = row_truncate(d1(row), depth), row_truncate(d2(row), depth)
        if o1 != o2:
            return row, o1, o2
    return None


# ---------------------------------------------------------------------------
# Processes


def denote_process(proc: A.Process, delta: Mapping[str, A.SType], c: str,
                   cty: A.SType, psi: Optional[Mapping[str, A.FType]] = None,
                   env: Optional[Env] = None, cfg: Optional[EvalConfig] = None) -> Denotation:
    """The denotation of ``proc`` providing ``c : cty`` from ``delta`` in
    ``env``.  Raises :class:`~sill.typecheck.TypeCheckError` if it is
    ill-typed: the first time ``cfg`` meets the process in this context,
    its typing is derived, and the static pass reads the derivation."""
    psi, cfg = dict(psi or {}), cfg or EvalConfig()
    ctx = (tuple(delta.items()), c, cty, tuple(psi.items()))
    inst = _staged(cfg, proc, ctx, lambda: _compile_den(
        proc, T.derive(T.check_process, psi, delta, proc, c, cty)))
    return inst(env or EMPTY_ENV, cfg)


def _compile_den(proc: A.Process, table: dict) -> Inst:
    """The static pass over a process whose instances are memoized
    denotations: a cut's instance is its trace, any other is wrapped."""
    _, _, delta, c, cty = table[id(proc)]
    inputs, outputs = proc_inputs(delta, c, cty), proc_outputs(delta, c, cty)
    inst = _compile_process(proc, table)
    label = type(proc).__name__

    def den(env: Env, cfg: EvalConfig) -> Denotation:
        fn = inst(env, cfg)
        return fn if isinstance(fn, Denotation) else Denotation(inputs, outputs, fn, label)

    return den


def _compile_process(proc: A.Process, table: dict) -> Inst:
    """The static pass over a process: an instantiator of the function from
    its input rows to its output rows.

    The clause to apply is read off the process, and the context of each
    node (its functional context, the channels it consumes with their
    types, and the channel it provides with its type) off its judgment in
    the typing derivation ``table`` (:func:`~sill.typecheck.derive`), so
    the rules are decided once, by the typechecker.  Receiving clauses are
    wrapped with the strictness operator on the awaited component.  Each
    message clause is both the right rule (on the provided channel) and the
    left rule (on a used one): the two differ only in which keys carry the
    channel's incoming and outgoing aspects.
    """
    _, psi, delta, c, cty = table[id(proc)]

    def bot_out() -> Row:
        return bot_row(proc_outputs(delta, c, cty))

    def side(a: str) -> tuple[str, str, A.SType]:
        """The input key, output key and type of channel ``a``."""
        return (kminus(c), kplus(c), cty) if a == c else (kplus(a), kminus(a), delta[a])

    def clause(fn, *parts: Inst, strict: Optional[str] = None) -> Inst:
        """Instantiate ``parts`` in order and pass them to ``fn`` ahead of
        the row; ``strict`` names the awaited input key."""
        bot = bot_out() if strict else None

        def inst(env: Env, cfg: EvalConfig) -> Callable[[Row], Row]:
            bound = partial(fn, *[part(env, cfg) for part in parts])
            return bound if strict is None else _strict(bound, strict, bot)
        return inst

    match proc:
        case A.Fwd(provided=b, used=a):
            def fwd(row: Row) -> Row:
                return Row({kminus(a): row[kminus(b)], kplus(b): row[kplus(a)]})
            return clause(fwd)

        case A.Close(channel=a):
            return clause(lambda row: Row({kplus(a): D.STAR}))

        case A.Wait(channel=a, cont=p):
            def wait(inner, row: Row) -> Row:
                return Row({**inner(row.without(kplus(a))), kminus(a): D.BOT})

            return clause(wait, _compile_process(p, table), strict=kplus(a))

        case A.SendShift(channel=a, cont=p):
            _, o, _ = side(a)

            def send_shift(inner, row: Row) -> Row:
                out = inner(row)
                return Row({**out, o: D.up(out[o])})

            return clause(send_shift, _compile_process(p, table))

        case A.RecvShift(channel=a, cont=p):
            i, _, _ = side(a)

            def recv_shift(inner, row: Row) -> Row:
                return inner(row.updated({i: D.down(row[i])}))

            return clause(recv_shift, _compile_process(p, table), strict=i)

        case A.SendLabel(channel=a, label=k, cont=p):
            i, o, ty = side(a)
            labels = [l for l, _ in ty.branches]

            def send_label(inner, row: Row) -> Row:
                out = inner(row.updated({i: D.split_record(row[i], labels)[k]}))
                return Row({**out, o: D.Tag(k, out[o])})

            return clause(send_label, _compile_process(p, table))

        case A.Case(channel=a, branches=bs):
            i, o, ty = side(a)
            arms = [(k, _compile_process(p, table)) for k, p in bs]
            labels = sorted(l for l, _ in ty.branches)

            def recv_label(inners, row: Row) -> Row:
                v = row[i]
                assert isinstance(v, D.Tag)
                k, payload = v.label, v.inner
                out = inners[k](row.updated({i: payload}))
                chosen = D.record({l: out[o] if l == k else D.BOT for l in labels})
                return Row({**out, o: chosen})

            return clause(recv_label,
                          lambda env, cfg: {k: arm(env, cfg) for k, arm in arms}, strict=i)

        case A.SendChan(channel=a, sent=b, cont=p):
            i, o, _ = side(a)

            def send_chan(inner, row: Row) -> Row:
                b_neg, a_in = D.split_pair(row[i])
                out = inner(row.without(kplus(b)).updated({i: a_in}))
                return Row({
                    **out,
                    kminus(b): b_neg,
                    o: D.up(D.pair(row[kplus(b)], out[o])),
                })

            return clause(send_chan, _compile_process(p, table))

        case A.RecvChan(bound=b, channel=a, cont=p):
            i, o, _ = side(a)

            def recv_chan(inner, row: Row) -> Row:
                b_pos, a_in = D.split_pair(D.down(row[i]))
                out = inner(row.updated({i: a_in, kplus(b): b_pos}))
                return Row({
                    **out.without(kminus(b)),
                    o: D.pair(out[kminus(b)], out[o]),
                })

            return clause(recv_chan, _compile_process(p, table), strict=i)

        case A.SendVal(channel=a, term=m, cont=p):
            _, o, ty = side(a)
            bot = bot_out()

            def send_val(v, inner, row: Row) -> Row:
                if v == D.FBOT:
                    return bot
                out = inner(row)
                return Row({**out, o: D.up(D.valpair(v, out[o]))})

            return clause(send_val, _compile_term(m, ty.val, psi, table),
                          _compile_process(p, table))

        case A.RecvVal(bound=x, channel=a, cont=p):
            i, _, _ = side(a)
            body, bot = _compile_process(p, table), bot_out()

            def recv_val(env: Env, cfg: EvalConfig) -> Callable[[Row], Row]:
                inners: dict[D.FuncValue, Callable[[Row], Row]] = {}

                def fn(row: Row) -> Row:
                    v, a_in = D.split_valpair(D.down(row[i]))
                    inner = inners.get(v)
                    if inner is None:
                        inner = inners[v] = body(env.updated(x, v), cfg)
                    return inner(row.updated({i: a_in}))

                return _strict(fn, i, bot)

            return recv_val

        case A.SendUnfold(cont=p) | A.RecvUnfold(cont=p):
            # a recursive type has the values of its unfolding
            return _compile_process(p, table)

        case A.Unquote(provided=a, term=m, used=us):
            value = _compile_term(m, table[id(m)][1], psi, table)
            keys, bot = _interface_keys(a, us), bot_out()

            def spawn(env: Env, cfg: EvalConfig) -> Callable[[Row], Row]:
                v = value(env, cfg)
                if isinstance(v, D.QProc):
                    return _renamed(v.den, *keys)
                if v == D.FBOT or isinstance(v, D.QProcBot):  # never outputs
                    return lambda row: bot
                raise ValueError(f"cannot spawn {v!r}")

            return spawn

        case A.Cut(channel=x, left=l, right=r):
            dl, dr = _compile_den(l, table), _compile_den(r, table)
            fb = [kminus(x), kplus(x)]
            return lambda env, cfg: trace(tensor(dl(env, cfg), dr(env, cfg)), fb, cfg)

    raise ValueError(f"not a process: {proc!r}")
