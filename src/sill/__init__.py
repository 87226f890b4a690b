"""A polarized session-typed language: checker, evaluator, equivalence tester.

Session types classify bidirectional communication protocols; each closed
type denotes a pair of domains of unidirectional communications, and a
well-typed process denotes a continuous function from the positive aspects
of its used channels (plus the negative aspect of the provided one) to the
reverse.  Process composition is a least fixed point over the two aspects
of the private channel, computed by Kleene iteration at a finite
observation depth.

Typical use::

    from sill import parse_program, check_program, check_equiv

    program = parse_program(source_text)
    check_program(program)
    decl = program.procs()["flip2"]
    verdict = check_equiv(decl.proc, other.proc, dict(decl.delta),
                          decl.channel, decl.ty, depth=8)
"""

from . import ast
from .ast import NEG, POS, Polarity
from .domain import (BOT, STAR, CommValue, FuncValue, NotEnumerable,
                     conforms, down, enumerate_values, fold, format_value, leq,
                     lub2, meet2, parse_value, truncate, unfold, up)
from .equiv import Verdict, check_equiv, term_equiv
from .laws import (conway_identity_suite, law_suite, trace_axiom_suite,
                   trace_oracle_suite)
from .parser import (Program, SillSyntaxError, parse_ftype, parse_process,
                     parse_program, parse_term, parse_type)
from .pretty import pp_ftype, pp_process, pp_program, pp_term, pp_type
from .semantics import (Denotation, Env, EvalConfig, Row, denote_process,
                        denote_term, knaster_tarski_trace, process_denotation,
                        sfix_row, strictify, term_denotation, trace)
from .typecheck import (TypeCheckError, check_process, check_program,
                        check_session_type, check_term, infer_term,
                        polarity_of, subst_type_checked)

__version__ = "0.1.0"

__all__ = [
    "ast", "Polarity", "POS", "NEG",
    "BOT", "STAR", "CommValue", "FuncValue", "NotEnumerable",
    "conforms", "down", "enumerate_values", "fold", "format_value", "leq",
    "lub2", "meet2", "parse_value", "truncate", "unfold", "up",
    "Verdict", "check_equiv", "term_equiv",
    "law_suite", "trace_axiom_suite", "conway_identity_suite",
    "trace_oracle_suite",
    "Program", "SillSyntaxError", "parse_ftype", "parse_process",
    "parse_program", "parse_term", "parse_type",
    "pp_ftype", "pp_process", "pp_program", "pp_term", "pp_type",
    "Denotation", "Env", "EvalConfig", "Row", "denote_process", "denote_term",
    "knaster_tarski_trace", "process_denotation", "sfix_row", "strictify",
    "term_denotation", "trace",
    "TypeCheckError", "check_process", "check_program", "check_session_type",
    "check_term", "infer_term", "polarity_of", "subst_type_checked",
]
