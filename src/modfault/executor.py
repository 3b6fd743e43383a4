"""Turns a program, nominal or under a fault overlay, into a closed symbolic
computation.

Assigned variables are fully inlined so rewrite rules can match structurally
(the subring collapse must see p inside p' = p*r*r, for instance).  Only
noprop/prime declarations and fresh fault variables remain free.

A program is closed once, into a ``ClosedProgram``: for each statement, its
protection-stripped source term, the variables that term reads and its
nominal closed value.  That is the one place where protection ends: the terms
it holds carry no protection flags, so nothing downstream strips them again.
A faulted run is that closure plus an overlay (``faults.inject``).  One walker
goes through the statements in order: a statement keeps its nominal value
unless it is faulted itself or reads a variable whose value the faults
changed, and inside a statement it re-closes only the subterms that read such
a variable.  ``run_symbolic`` decides each verification as soon as the walk
reaches it and stops at the first that fires; ``inline`` drains the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple, Union,
)

from .faults import (
    Injection, RANDOMIZING, ZEROING, apply_faults, fault_value, inject,
)
from .rewriter import Rewriter, TRUE, UNKNOWN
from .terms import (
    Assign, Cond, DeclareNoProp, DeclarePrime, Expr, Program, Return, Var,
    Verify, strip_protection,
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


class Step(NamedTuple):
    """One term-computing statement of a closed program."""
    index: int                # position in Program.statements
    target: Optional[str]     # the assigned variable; None for a check or the return
    check: Optional[int]      # the verification's index; None otherwise
    source: Expr              # protection-stripped right-hand side, condition or value
    reads: FrozenSet[str]     # variables the source reads
    value: Expr               # nominal closed value


class ClosedProgram:
    """A program closed once, the base every fault overlay is applied to."""

    __slots__ = ("program", "steps", "declarations", "_closed")

    def __init__(self, program: Program):
        self.program = program
        # source subterm -> (nominal closed value, variables it reads); in a
        # single-assignment program a subterm closes the same way wherever
        # it occurs
        self._closed: Dict[Expr, Tuple[Expr, FrozenSet[str]]] = {}
        steps: List[Step] = []
        declarations = set()
        env: Dict[str, Expr] = {}
        check = 0
        for index, st in enumerate(program.statements):
            if isinstance(st, (DeclareNoProp, DeclarePrime)):
                declarations.add(index)
                continue
            if isinstance(st, Assign):
                source, target, k = strip_protection(st.rhs), st.target, None
            elif isinstance(st, Verify):
                source, target, k = strip_protection(st.condition), None, check
                check += 1
            else:
                source, target, k = strip_protection(st.value), None, None
            value, reads = self._close(source, env)
            if target is not None:
                env[target] = value
            steps.append(Step(index, target, k, source, reads, value))
        if not program.statements or not isinstance(program.statements[-1], Return):
            raise ExecutionError("program does not end with a return statement")
        self.steps = tuple(steps)
        self.declarations = frozenset(declarations)

    def _close(self, e: Expr, env: Dict[str, Expr]) -> Tuple[Expr, FrozenSet[str]]:
        entry = self._closed.get(e)
        if entry is None:
            kids = e.children()
            if isinstance(e, Var):
                entry = (env.get(e.name, e), frozenset((e.name,)))
            elif not kids:
                entry = (e, frozenset())
            else:
                values, reads = zip(*[self._close(c, env) for c in kids])
                entry = (e if values == kids else e.with_children(values),
                         reads[0].union(*reads[1:]))
            self._closed[e] = entry
        return entry

    def reclose(self, e: Expr, changed: Dict[str, Expr]) -> Expr:
        """Close a (possibly faulted) source term where the variables in
        ``changed`` take the given values: a subterm that reads none of them
        keeps its nominal closed value."""
        entry = self._closed.get(e)
        if entry is not None and entry[1].isdisjoint(changed):
            return entry[0]
        if isinstance(e, Var):
            return changed.get(e.name, e)
        kids = e.children()
        new_kids = tuple(self.reclose(c, changed) for c in kids)
        return e if new_kids == kids else e.with_children(new_kids)


def _walk(closed: ClosedProgram, faults: Injection) -> Iterator[Tuple[Optional[int], Expr]]:
    """The closed verifications, as (check index, condition), then the closed
    result, as (None, expression), of the program under ``faults``."""
    data = faults.data
    # variables whose value differs from their nominal closed value
    changed: Dict[str, Expr] = {}
    for index, here in data.items():
        if index in closed.declarations:  # a permanent fault on an input
            for fault in here:
                changed[fault.site.variable] = fault_value(fault)
    for index, target, check, source, reads, nominal in closed.steps:
        here = data.get(index)
        if here is not None:
            value = closed.reclose(apply_faults(source, here), changed)
        elif changed and not reads.isdisjoint(changed):
            value = closed.reclose(source, changed)
        else:
            value = nominal
        if target is None:
            yield check, value
        elif value is not nominal:
            changed[target] = value


def inline(target: Union[Program, Injection]) -> UnrolledTerm:
    """The closed checks and result of a program, or of the run a fault
    overlay gives."""
    faults = target if isinstance(target, Injection) else inject(target, ())
    checks: List[Cond] = []
    result: Optional[Expr] = None
    for check, term in _walk(ClosedProgram(faults.program), faults):
        if check is None:
            result = term
        else:
            checks.append(term)
    return UnrolledTerm(tuple(checks), result)


def run_symbolic(closed: ClosedProgram, rewriter: Rewriter,
                 faults: Optional[Injection] = None) -> SymbolicRun:
    """Walk the program under ``faults`` (none by default) and decide each
    check as soon as it is built; the first provable abort ends the run, and
    the result is normalized only when every check passed.

    A check-outcome fault zeroed skips its abort (recorded as a warning); a
    randomized one always fires it.

    A check whose condition is nonzero but not provably generically nonzero
    is passed through (the abort may fail to trigger for corner-case values)
    and recorded as a warning; the analyzer never claims safety silently on
    such a path.
    """
    if faults is None:
        faults = inject(closed.program, ())
    warnings: List[str] = []
    for k, term in _walk(closed, faults):
        if k is None:  # the walk ends with the result
            break
        kind = faults.checks.get(k)
        if kind == ZEROING:
            warnings.append(f"check {k} skipped by a zeroed condition")
            continue
        if kind == RANDOMIZING:
            return SymbolicRun(k, None, tuple(warnings))
        verdict = rewriter.decide_check(term, faults.fresh)
        if verdict == TRUE:
            return SymbolicRun(k, None, tuple(warnings))
        if verdict == UNKNOWN:
            warnings.append(f"check {k} not provably triggered; passed through")
    return SymbolicRun(None, rewriter.normalize(term), tuple(warnings))
