"""Turns a program, nominal or under a fault overlay, into a closed symbolic
computation.

Assigned variables are fully inlined so rewrite rules can match structurally
(the subring collapse must see p inside p' = p*r*r, for instance).  Only
noprop/prime inputs and fault variables (``Fresh`` nodes) remain free.

A program is closed once, into a ``ClosedProgram``: one step per statement,
holding its protection-stripped source term, the variables that term reads
and its nominal closed value, and the closed attack condition, in which every
name but ``_`` and ``@`` stands for its fault-free value.  That is the one
place where protection ends, the condition's included, and the only code
that computes a protection-free term (term nodes keep no protection-free
copy): the terms it holds carry no protection flags, so nothing downstream
strips them again.  A declaration's step has no source term; it is where the
permanent faults on the inputs it declares enter the walk, the way
``oracle.eval_program`` applies them.  In a single-assignment program nothing
before the declaration reads those inputs.

A faulted run is that closure plus an overlay (``faults.inject``).  One
walker goes through the steps in order: a statement keeps its nominal value
unless it is faulted itself or reads a variable whose value the faults
changed, and inside a statement it re-closes only the subterms that read such
a variable.  A re-closed statement value is kept under its faulted source
term and the values of the changed variables it reads, so runs that reach a
statement in the same state share it.

The walk is resumable.  A run records its walk state in front of each
statement it reaches (the changed variables, shared copy-on-write, and the
warnings so far) in a trail, and a run whose faults agree with an earlier
run's before statement p resumes in front of p from that run's trail.
``run_symbolic`` decides each verification as soon as the walk reaches it
and stops at the first that fires; ``ClosedProgram.inline`` drains the walk
from the first statement.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple, Union,
)

from .faults import (
    Injection, RANDOMIZING, ZEROING, apply_faults, fault_value, inject,
)
from .rewriter import Rewriter, TRUE, UNKNOWN
from .terms import (
    Assign, Cond, Declare, Expr, Program, Return, Var, Verify,
    strip_protection,
)


class ExecutionError(Exception):
    pass


class UnrolledTerm(NamedTuple):
    """Closed checks in program order plus the closed returned expression."""
    checks: Tuple[Cond, ...]
    result: Expr


class SymbolicRun(NamedTuple):
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
    """One statement of a closed program."""
    target: Optional[str]     # the assigned variable; None for any other statement
    check: Optional[int]      # the verification's index; None otherwise
    source: Optional[Expr]    # protection-stripped right-hand side, condition
                              # or value; None for a declaration
    reads: FrozenSet[str]     # variables the source reads
    value: Optional[Expr]     # nominal closed value; None for a declaration


_DECLARATION = Step(None, None, None, frozenset(), None)

# The walk state in front of statement p: the variables whose value the
# faults changed, with those values (never mutated once recorded), and the
# warnings of the checks passed so far.
WalkState = Tuple[Dict[str, Expr], Tuple[str, ...]]


class ClosedProgram:
    """A program closed once, the base every fault overlay is applied to."""

    __slots__ = ("program", "steps", "condition", "_closed", "_reclosed")

    def __init__(self, program: Program):
        self.program = program
        # source subterm -> (nominal closed value, variables it reads); in a
        # single-assignment program a subterm closes the same way wherever
        # it occurs
        self._closed: Dict[Expr, Tuple[Expr, FrozenSet[str]]] = {}
        # (faulted source term, changed variables it reads with their
        # values) -> re-closed value
        self._reclosed: Dict[tuple, Expr] = {}
        steps: List[Step] = []
        env: Dict[str, Expr] = {}
        check = 0
        for st in program.statements:
            if isinstance(st, Declare):
                steps.append(_DECLARATION)
                continue
            target = k = None
            if isinstance(st, Assign):
                term, target = st.rhs, st.target
            elif isinstance(st, Verify):
                term, k = st.condition, check
                check += 1
            else:
                term = st.value
            source = strip_protection(term)
            value, reads = self._close(source, env)
            if target is not None:
                env[target] = value
            steps.append(Step(target, k, source, reads, value))
        if not program.statements or not isinstance(program.statements[-1], Return):
            raise ExecutionError("program does not end with a return statement")
        self.steps = tuple(steps)
        # every name but ``_`` and ``@`` stands for its fault-free value
        self.condition = self._close(strip_protection(program.attack_condition), env)[0]

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

    def _reclose_step(self, term: Expr, reads: FrozenSet[str],
                      changed: Dict[str, Expr]) -> Expr:
        """``reclose`` for a statement's whole term, where ``reads`` holds
        every program variable the term reads, shared across runs."""
        key = (term, tuple([item for item in changed.items() if item[0] in reads]))
        value = self._reclosed.get(key)
        if value is None:
            value = self._reclosed[key] = self.reclose(term, changed)
        return value

    def inline(self, faults: Optional[Injection] = None) -> UnrolledTerm:
        """The closed checks and result of the run under ``faults`` (none by
        default)."""
        if faults is None:
            faults = inject(self.program, ())
        checks: List[Cond] = []
        for step, _, term in _walk(self, faults, 0, {}):
            if step.check is not None:
                checks.append(term)
        return UnrolledTerm(tuple(checks), term)  # the walk ends with the return


def _walk(closed: ClosedProgram, faults: Injection, start: int,
          changed: Dict[str, Expr]
          ) -> Iterator[Tuple[Step, Dict[str, Expr], Optional[Expr]]]:
    """The steps from statement ``start`` on under ``faults``, where the
    faults before it changed the variables in ``changed``: yields each step,
    the changed variables in front of it and the step's closed value (None
    for a declaration)."""
    data = faults.data
    for index, step in enumerate(closed.steps[start:], start):
        target, _, source, reads, nominal = step
        here = data.get(index)
        if here is not None and source is not None:
            value = closed._reclose_step(apply_faults(source, here), reads, changed)
        elif changed and not reads.isdisjoint(changed):
            value = closed._reclose_step(source, reads, changed)
        else:
            value = nominal
        yield step, changed, value
        if here is not None and source is None:  # faulted inputs enter
            changed = {**changed, **{f.site.variable: fault_value(f) for f in here}}
        elif target is not None and value is not nominal:
            changed = {**changed, target: value}


def inline(target: Union[Program, Injection]) -> UnrolledTerm:
    """The closed checks and result of a program, or of the run a fault
    overlay gives."""
    faults = target if isinstance(target, Injection) else inject(target, ())
    return ClosedProgram(faults.program).inline(faults)


def run_symbolic(closed: ClosedProgram, rewriter: Rewriter,
                 faults: Optional[Injection] = None,
                 trail: Optional[List[WalkState]] = None) -> SymbolicRun:
    """Walk the program under ``faults`` (none by default) and decide each
    check as soon as it is built; the first provable abort ends the run, and
    the result is normalized only when every check passed.

    ``trail`` holds the walk states in front of statements 0..p of an
    earlier run whose faults agree with ``faults`` before statement p.  The
    run resumes in front of p from the last of them and appends the state in
    front of each later statement it reaches, the one where it stops
    included, also when the rewriter raises.  An empty trail (the default)
    starts at statement 0 with nothing changed.

    A check-outcome fault zeroed skips its abort (recorded as a warning); a
    randomized one always fires it.

    A check whose condition is nonzero but not provably generically nonzero
    is passed through (the abort may fail to trigger for corner-case values)
    and recorded as a warning; the analyzer never claims safety silently on
    such a path.
    """
    if faults is None:
        faults = inject(closed.program, ())
    if trail is None:
        trail = []
    changed, warnings = trail.pop() if trail else ({}, ())
    for step, front, term in _walk(closed, faults, len(trail), changed):
        trail.append((front, warnings))
        k = step.check
        if k is None:  # a declaration, an assignment or the closing return
            continue
        kind = faults.checks.get(k)
        if kind == ZEROING:
            warnings += (f"check {k} skipped by a zeroed condition",)
            continue
        if kind == RANDOMIZING:
            return SymbolicRun(k, None, warnings)
        verdict = rewriter.decide_check(term)
        if verdict == TRUE:
            return SymbolicRun(k, None, warnings)
        if verdict == UNKNOWN:
            warnings += (f"check {k} not provably triggered; passed through",)
    return SymbolicRun(None, rewriter.normalize(term), warnings)
