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
A ``fix`` at ``A1 -> … -> An -> P`` computes only the points a query
observes: whether it is defined at some arguments (compared by identity),
and each input row of the quoted process that n arguments give, is an
unknown, solved from bottom together with the unknowns it depends on the
first time a query asks for it, and kept for later queries.  They are
swept dependencies first, so an unknown off a cycle is exact and only those
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
from functools import lru_cache, partial, reduce
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
                return site.value()

            return fix
    raise ValueError(f"not a term: {term!r}")


def apply_func(fv: D.FuncValue, av: D.FuncValue, cfg: EvalConfig) -> D.FuncValue:
    """Call-by-value application: strict in both the function and argument."""
    if fv == D.FBOT:
        return D.FBOT
    if not isinstance(fv, (D.Closure, D.Native)):
        raise ValueError(f"cannot apply {fv!r}")
    if av == D.FBOT:
        return D.FBOT
    if isinstance(fv, D.Native):
        return fv.fn(av)
    psi = dict(fv.psi)
    psi[fv.var] = fv.ty.arg
    body = _staged(cfg, fv.body, (fv.ty.res, tuple(psi.items())), lambda: _compile_term(
        fv.body, fv.ty.res, psi, T.derive(T.check_term, psi, fv.body, fv.ty.res)))
    return body(Env(dict(fv.env)).updated(fv.var, av), cfg)


class _FixSite:
    """One fixed point ``fix x. body`` in one query: the ``Fix`` node, in its
    typing context ``ctx`` (the node, its type ``A1 -> … -> An -> P`` with
    ``P`` a quoted-process type, and the types of its free variables), with
    the values ``env`` binds to those variables.

    While the site lives, every instantiation of the node in the same
    context with the same values (by identity) is this site:
    ``cfg.fixes`` holds it weakly under their ids, and the site holds
    ``ctx`` and ``env``, so those ids stay valid while the entry exists.

    Its unknowns are keyed by the ids of a tuple ``args`` of at most n
    arguments, which :attr:`held` keeps alive: ``(ids, None)`` is whether
    the fix applied to ``args`` is above bottom, and for n arguments
    ``(ids, vals)`` is the output row of the process they give on the input
    values ``vals`` in sorted key order.  The first time :meth:`value` needs
    one, :func:`_denote_fix` solves it with the unknowns it depends on, and
    keeps them in :attr:`solved` as constants for later queries.
    """

    def __init__(self, x: str, body: Inst, ty: A.FType, env: Env, cfg: EvalConfig,
                 ctx: tuple):
        self.x, self.body, self.env, self.cfg, self.ctx = x, body, env, cfg, ctx
        self.arity = 0
        while isinstance(ty, A.Arrow):
            ty, self.arity = ty.res, self.arity + 1
        self.inputs, self.outputs = _quoted_interface(ty)
        self.keys = sorted(self.inputs)
        self.solved: dict[tuple, bool | Row] = {}
        self.held: dict[tuple, tuple] = {}
        # the values of the fix by the ids of their arguments, held weakly:
        # they hold the site, and a cycle would keep ``cfg`` until collected
        self.values: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def value(self, args: tuple = ()) -> D.FuncValue:
        """The fix applied to ``args``, over the solved unknowns: the same
        value for as long as anything holds it."""
        ids = tuple(map(id, args))
        v = self.values.get(ids)
        if v is None:
            v = self.values[ids] = self.curried(args, self.solve, self.value)
        return v

    def solve(self, unknown: tuple) -> bool | Row:
        hit = self.solved.get(unknown)
        return _denote_fix(self, unknown) if hit is None else hit

    def probe(self, read: Callable[[tuple], bool | Row], args: tuple = ()) -> D.FuncValue:
        """The fix applied to ``args`` as a sweep sees it: ``read`` answers
        its unknowns."""
        return self.curried(args, read, partial(self.probe, read))

    def curried(self, args: tuple, answer: Callable[[tuple], bool | Row],
                extend: Callable[[tuple], D.FuncValue]) -> D.FuncValue:
        """The fix applied to ``args`` where ``answer`` gives the unknowns:
        FBOT; below the arity, a function that ``extend`` applies to
        ``args`` and its argument; at the arity, a quoted process."""
        ids = tuple(map(id, args))
        self.held.setdefault(ids, args)
        if not answer((ids, None)):
            return D.FBOT
        if len(args) < self.arity:
            return D.Native(lambda a: extend((*args, a)))
        return D.QProc(Denotation(self.inputs, self.outputs, lambda row: answer(
            (ids, tuple(map(row.__getitem__, self.keys)))), label="fix"))

    def apply(self, w: D.FuncValue, unknown: tuple, applied: dict) -> bool | Row:
        """The answer to ``unknown`` that ``w`` (the body unrolled once, or
        FBOT for bottom) gives when applied to the arguments; ``applied``
        keeps each application.  A stuck process outputs bottom."""
        ids, vals = unknown
        f = applied.get(ids)
        if f is None:
            f = applied[ids] = reduce(partial(apply_func, cfg=self.cfg), self.held[ids], w)
        if vals is None:
            return f != D.FBOT
        if isinstance(f, D.QProc):
            return f.den(Row(zip(self.keys, vals)))
        return bot_row(self.outputs)


def _denote_fix(site: _FixSite, unknown: tuple) -> bool | Row:
    """Solve ``unknown`` of ``site`` by Kleene iteration from bottom, within
    the fuel, and return its answer.

    The unknowns are ``unknown`` and each one the body reads that is not
    solved yet, in the order they are found.  Each sweep unrolls the body
    once over a probe, a value built like :meth:`_FixSite.value` whose
    unknowns read this solve's answers; applies the unrolled value to each
    unknown's arguments, in reverse order of discovery and then the unknowns
    first read during the sweep; and writes each answer where later reads
    of the sweep see it.  So a chain's dependencies come first.  A read of
    an unknown the sweep has not answered yet is stale: it sees the last
    sweep's answer, or bottom.  A sweep with no stale read computed each
    answer from solved unknowns or ones answered before it, so by induction
    each answer is the exact least solution, and the solve ends: a chain of
    unknowns takes two sweeps, one that reads only solved unknowns one.
    Every cycle has an unknown read stale in every sweep; then the solve
    ends when the stale unknowns' new answers agree with what was read,
    rows truncated at the working depth, and keeps the new answers.  This
    is a local solver of the subsystem the query depends on (after Le
    Charlier and Van Hentenryck 1992).  A solve adds at most its round bound
    of argument tuples to the site; an unknown found past that reads as
    bottom and is never answered, so a recursion on arguments built afresh
    in each unfolding runs out of fuel instead of finding unknowns forever.

    A round is one sweep, and makes one convergence check.  Each call
    appends its number of rounds to ``cfg.diag.fix_rounds``, so the list
    has one entry per solve actually run: an unknown that any instantiation
    of the site solved before adds none.
    """
    cfg = site.cfg
    bound = max(2 * cfg.depth + 8, 32)
    max_held = len(site.held) + bound

    def sweep(table: dict[tuple, bool | Row]) -> tuple[dict[tuple, bool | Row], bool]:
        swept: dict[tuple, bool | Row] = {}
        stale: list[tuple] = []
        found: list[tuple] = []

        def read(u: tuple) -> bool | Row:
            hit = site.solved.get(u, swept.get(u))
            if hit is None:
                stale.append(u)
                hit = table.get(u)
                if hit is None:
                    hit = site.apply(D.FBOT, u, {})
                    if len(site.held) <= max_held:
                        found.append(u)
                        table[u] = hit
            return hit

        w, applied = site.body(site.env.updated(site.x, site.probe(read)), cfg), {}
        # dependencies first; ``found`` grows while it is visited
        for u in itertools.chain(reversed(list(table)), found):
            swept[u] = site.apply(w, u, applied)
        done = _func_converged(table, swept, cfg, stale)
        table.update(swept)  # in place, so it keeps the order of discovery
        return table, done

    table, rounds = kleene(sweep, {unknown: site.apply(D.FBOT, unknown, {})}, bound, cfg)
    site.solved.update(table)
    cfg.diag.fix_rounds.append(rounds)
    return table[unknown]


def _func_converged(read: Mapping[tuple, bool | Row], new: Mapping[tuple, bool | Row],
                    cfg: EvalConfig, unknowns: Iterable[tuple]) -> bool:
    """Whether a sweep's ``new`` answers agree with what it ``read`` on
    ``unknowns``, rows truncated at the working depth; an unanswered one does not."""
    return all(u in new and (read[u] == new[u] if u[1] is None else
               row_truncate(read[u], cfg.depth) == row_truncate(new[u], cfg.depth))
               for u in unknowns)


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
