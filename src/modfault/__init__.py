"""Symbolic fault-injection analysis of modular-arithmetic programs.

The library parses a small statement language for modular computations,
simulates every data fault a configurable attacker model permits, normalizes
each faulted computation by term rewriting over Z and its Z_N subrings, and
decides an attack success condition on the result.  A concrete small-prime
evaluator serves as an independent soundness oracle.
"""

from .analyzer import (
    ATTACK, DETECTED, FAILURE, HARMLESS, AnalysisError, Outcome, Report,
    analyze, classify, nominal_run, removed_check_variants,
)
from .executor import (
    ClosedProgram, SymbolicRun, UnrolledTerm, inline, run_symbolic,
)
from .faults import (
    EnumerationCapExceeded, Fault, FaultConfig, FaultSite, Injection,
    RANDOMIZING, ZEROING, count_vectors, enumerate_sites, enumerate_vectors,
    inject,
)
from .oracle import (
    ConcreteEnv, OracleError, check_soundness, eval_expr, eval_program,
    instantiate, prop1_check,
)
from .parser import parse, parse_cond, parse_expr
from .printer import pretty, pretty_expr
from .reporting import render, report_dict
from .rewriter import RewriteBudgetExceeded, Rewriter
from .terms import (
    And, Assign, Cond, Declare, Eq, EqMod, Expr, Fresh, LanguageError, Mod,
    Neq, NeqMod, ONE, One, Opp, Or, Pow, Prod, Program, Return, Sum, Var,
    Verify, ZERO, Zero,
)

__version__ = "1.0.0"
