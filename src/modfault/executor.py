"""Turns a (possibly faulted) program into a closed symbolic computation.

Assigned variables are fully inlined so rewrite rules can match structurally
(the subring collapse must see p inside p' = p*r*r, for instance).  Only
noprop/prime declarations and fresh fault variables remain free.

``inline`` is the one place where protection ends: the terms it returns
carry no protection flags, so nothing downstream strips them again.  Faults
on a verification's outcome never enter the program; ``run_symbolic`` takes
them as an overlay keyed by check index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .faults import RANDOMIZING, ZEROING
from .rewriter import Rewriter, TRUE, UNKNOWN
from .terms import (
    Assign, Cond, Expr, Program, Return, Var, Verify, strip_protection,
)


class ExecutionError(Exception):
    pass


@dataclass(frozen=True)
class UnrolledTerm:
    """Closed checks in program order plus the closed returned expression."""
    checks: Tuple[Cond, ...]
    result: Expr


@dataclass(frozen=True)
class SymbolicRun:
    detected_by: Optional[int]  # first verification that provably aborts
    normal_form: Optional[Expr]  # normalized result when no check fired
    warnings: Tuple[str, ...] = ()

    @property
    def completed(self) -> bool:
        return self.detected_by is None


def subst(e: Expr, env: Dict[str, Expr]) -> Expr:
    """Replace every variable bound in env, in an expression or a condition."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    kids = e.children()
    new_kids = tuple(subst(c, env) for c in kids)
    return e if new_kids == kids else e.with_children(new_kids)


def inline(program: Program) -> UnrolledTerm:
    """Replace every assigned variable by its defining expression.

    Protection flags are stripped here and nowhere else: they only matter
    for fault-site enumeration, which happens on the source program before
    inlining.
    """
    env: Dict[str, Expr] = {}
    checks: List[Cond] = []
    result: Optional[Expr] = None
    for st in program.statements:
        if isinstance(st, Assign):
            env[st.target] = subst(strip_protection(st.rhs), env)
        elif isinstance(st, Verify):
            checks.append(subst(strip_protection(st.condition), env))
        elif isinstance(st, Return):
            result = subst(strip_protection(st.value), env)
    if result is None:
        raise ExecutionError("program has no return statement")
    return UnrolledTerm(tuple(checks), result)


def run_symbolic(u: UnrolledTerm, rewriter: Rewriter,
                 fresh: FrozenSet[str] = frozenset(),
                 check_faults: Optional[Mapping[int, str]] = None) -> SymbolicRun:
    """Evaluate the checks in order; the first provable abort wins.

    ``check_faults`` maps a check index to the kind of fault on its outcome:
    a zeroed outcome skips the abort (recorded as a warning), a randomized
    one always fires it.

    A check whose condition is nonzero but not provably generically nonzero
    is passed through (the abort may fail to trigger for corner-case values)
    and recorded as a warning; the analyzer never claims safety silently on
    such a path.
    """
    warnings: List[str] = []
    check_faults = check_faults or {}
    for k, check in enumerate(u.checks):
        kind = check_faults.get(k)
        if kind == ZEROING:
            warnings.append(f"check {k} skipped by a zeroed condition")
            continue
        if kind == RANDOMIZING:
            return SymbolicRun(k, None, tuple(warnings))
        verdict = rewriter.decide_check(check, fresh)
        if verdict == TRUE:
            return SymbolicRun(k, None, tuple(warnings))
        if verdict == UNKNOWN:
            warnings.append(f"check {k} not provably triggered; passed through")
    return SymbolicRun(None, rewriter.normalize(u.result), tuple(warnings))
