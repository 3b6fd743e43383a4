"""Full-proof orchestration: every permitted fault vector is simulated
symbolically and classified against the attack success condition."""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .executor import ClosedProgram, SymbolicRun, WalkState, run_symbolic, subst
# Unused here, but kept bound: the benchmark's tracer patches this name.
from .executor import inline  # noqa: F401
from .faults import (
    FaultConfig, FaultVector, Injection, enumerate_sites, enumerate_vectors,
    fresh_name_base, inject,
)
from .printer import pretty_expr
from .rewriter import Rewriter, RewriteBudgetExceeded, degenerate_moduli
from .terms import And, Cond, Expr, Or, Program, Verify

DETECTED = "detected"
HARMLESS = "harmless"
ATTACK = "attack"
FAILURE = "failure"

NOMINAL_RESULT = "_"
FAULTED_RESULT = "@"


class AnalysisError(Exception):
    pass


class Outcome(NamedTuple):
    kind: str                      # detected | harmless | attack | failure
    detected_by: Optional[int] = None
    witness: Optional[str] = None  # attack: faulted normal form (pretty)
    branch: Optional[str] = None   # attack: satisfied disjunct of the condition
    warnings: Tuple[str, ...] = ()
    error: Optional[str] = None    # failure: what went wrong


@dataclass(frozen=True)
class Report:
    path: str
    sha256: str
    config: FaultConfig
    nominal: str                   # pretty-printed nominal normal form
    results: Tuple[Tuple[FaultVector, Outcome], ...]
    duration_ms: float

    @functools.cached_property
    def summary(self) -> Dict[str, int]:
        """The count of each outcome class, counted on first use; callers
        must not mutate it."""
        counts = {"total": len(self.results), "detected": 0, "harmless": 0,
                  "attacks": 0, "failures": 0}
        for _, outcome in self.results:
            if outcome.kind == DETECTED:
                counts["detected"] += 1
            elif outcome.kind == HARMLESS:
                counts["harmless"] += 1
            elif outcome.kind == ATTACK:
                counts["attacks"] += 1
            else:
                counts["failures"] += 1
        return counts

    def attacks(self) -> List[Tuple[FaultVector, Outcome]]:
        return [(v, o) for v, o in self.results if o.kind == ATTACK]


def bind_results(cond: Cond, nominal: Expr, faulted: Expr) -> Cond:
    return subst(cond, {NOMINAL_RESULT: nominal, FAULTED_RESULT: faulted})


def _satisfied_branch(bound: Cond, template: Cond, rewriter: Rewriter) -> str:
    """The first Or-disjunct that holds, labelled with the unbound source
    condition so attack reports stay readable."""
    if isinstance(bound, And):
        for b, t in ((bound.lhs, template.lhs), (bound.rhs, template.rhs)):
            if isinstance(b, (And, Or)):
                return _satisfied_branch(b, t, rewriter)
        return pretty_expr(template)
    if isinstance(bound, Or):
        if rewriter.decide(bound.lhs):
            return _satisfied_branch(bound.lhs, template.lhs, rewriter)
        return _satisfied_branch(bound.rhs, template.rhs, rewriter)
    return pretty_expr(template)


def classify(nominal: SymbolicRun, faulted: SymbolicRun, success_template: Cond,
             rewriter: Rewriter) -> Outcome:
    """Per-vector classification against the attack success condition, with
    ``_`` bound to the nominal normal form and ``@`` to the faulted one."""
    if not nominal.completed:
        raise AnalysisError("nominal run aborted; honest computations must complete")
    warnings = faulted.warnings
    if not faulted.completed:
        return Outcome(DETECTED, detected_by=faulted.detected_by, warnings=warnings)
    if degenerate_moduli(faulted.normal_form):
        warnings = warnings + ("degenerate modulus (reduction modulo zero)",)
    bound = bind_results(success_template, nominal.normal_form, faulted.normal_form)
    if rewriter.decide(bound):
        branch = _satisfied_branch(bound, success_template, rewriter)
        return Outcome(ATTACK, witness=pretty_expr(faulted.normal_form),
                       branch=branch, warnings=warnings)
    return Outcome(HARMLESS, warnings=warnings)


class _PrefixTree:
    """The fault vectors of one analysis as a prefix tree over one walker.

    The root, the empty vector, is the nominal run: the tree walks it on
    construction, keeps it as ``nominal`` and records its trail, which holds
    one walk state per statement.  A vector's run is its prefix's run (the
    vector without its last fault) up to the statement of that last fault,
    statement p, so the run resumes from ``trail[p]``, the state its prefix
    recorded in front of p, under all of the vector's faults.  When the
    prefix's run ended before p (a check fired or the rewrite budget ran
    out), the vector's outcome is the prefix's: the checks before p see the
    same terms, and the last fault's fresh name cannot occur in them.

    The trail and outcome of each vector shorter than ``depth``, the longest
    a vector can be, are kept for the life of the tree; a vector runs only
    after its prefix is recorded.  Equal outcomes are one object: the tree
    returns the first of each from a table it owns."""

    def __init__(self, closed: ClosedProgram, rewriter: Rewriter, depth: int):
        self.closed = closed
        self.rewriter = rewriter
        self.depth = depth
        self._outcomes: Dict[Outcome, Outcome] = {}
        trail: List[WalkState] = []
        self.nominal = nominal_run(closed, rewriter, trail)
        # a completed run reaches every step, so the root's outcome is never used
        self._records: Dict[FaultVector, Tuple[List[WalkState], Optional[Outcome]]] = {
            (): (trail, None)}

    def shared(self, outcome: Outcome) -> Outcome:
        """The tree's one object equal to ``outcome``."""
        return self._outcomes.setdefault(outcome, outcome)

    def outcome(self, vector: FaultVector) -> Outcome:
        """The outcome of a non-empty vector whose prefix is recorded."""
        trail, outcome = self._records[vector[:-1]]
        resume = vector[-1].site.statement
        if resume < len(trail):
            trail = trail[:resume + 1]
            outcome = self._run(inject(self.closed.program, vector), trail)
        if len(vector) < self.depth:
            self._records[vector] = (trail, outcome)
        return outcome

    def _run(self, faults: Injection, trail: List[WalkState]) -> Outcome:
        program = self.closed.program
        try:
            run = run_symbolic(self.closed, self.rewriter, faults, trail)
            outcome = classify(self.nominal, run, program.attack_condition, self.rewriter)
        except RewriteBudgetExceeded as err:
            outcome = Outcome(FAILURE, error=str(err))
        return self.shared(outcome)


# -- the process pool ---------------------------------------------------------

# Blocks of vectors handed to the pool per worker: enough that a worker which
# finishes early takes another block, few enough that each block keeps the
# memo of its first faults' runs warm.
BLOCKS_PER_WORKER = 4

# The prefix tree and vector list of the analysis the pool serves, set before
# its workers fork, so that each inherits them.
_WORKER_STATE: dict = {}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _rewriter(primes: frozenset) -> Rewriter:
    """The process's rewriter for one set of prime names.  Successive
    analyses of programs that declare the same primes (the versions of one
    countermeasure) reuse its normal forms and check verdicts; the budget
    rule keeps their verdicts those of a cold memo."""
    return Rewriter(primes=primes)


def _blocks(vectors: Sequence[FaultVector], start: int,
            count: int) -> List[Tuple[int, int]]:
    """``vectors[start:]`` as at most ``count`` contiguous ``(start, stop)``
    index ranges of about equal size.  A range ends only where the first
    fault's site changes, so every vector that starts at one site falls in
    one block."""
    blocks: List[Tuple[int, int]] = []
    size = -(-(len(vectors) - start) // count)
    while start < len(vectors):
        stop = min(start + size, len(vectors))
        while stop < len(vectors) and vectors[stop][0].site == vectors[stop - 1][0].site:
            stop += 1
        blocks.append((start, stop))
        start = stop
    return blocks


def _worker(block: Tuple[int, int]) -> Tuple[List[Outcome], List[int]]:
    """The outcomes of one block of longest vectors, whose prefixes the
    process that forked the worker recorded: the block's distinct outcomes,
    and for each vector the index of its outcome among them."""
    tree, vectors = _WORKER_STATE["tree"], _WORKER_STATE["vectors"]
    outcomes = [tree.outcome(v) for v in vectors[slice(*block)]]
    distinct = {id(o): o for o in outcomes}  # the tree keeps one object per outcome
    index = {key: i for i, key in enumerate(distinct)}
    return list(distinct.values()), [index[id(o)] for o in outcomes]


def nominal_run(closed: ClosedProgram, rewriter: Rewriter,
                trail: Optional[List[WalkState]] = None) -> SymbolicRun:
    """The fault-free run of a closed program, which must complete; its walk
    states go to ``trail`` when one is given."""
    run = run_symbolic(closed, rewriter, trail=trail)
    if not run.completed:
        raise AnalysisError(
            f"nominal run detected by verification {run.detected_by}; "
            f"the program rejects its own honest computation")
    return run


def analyze(program: Program, cfg: FaultConfig, path: str = "<memory>",
            source: bytes = b"", jobs: int = 1) -> Report:
    """Simulate every fault vector of the model and classify each outcome.

    Every vector shorter than the longest, and every vector of a 1-fault
    model, runs in this process, so each prefix is recorded before a pool
    forks.  The longest go, in blocks, to at most ``jobs`` processes, no
    more than this process has CPUs or there are blocks.  The workers fork,
    to inherit the recorded runs and the memo they warmed; with one
    process, or where the platform cannot fork, no pool starts.  A worker
    that dies raises ``AnalysisError``; any error from the pool cancels the
    blocks no worker has taken.

    The rewriter is the process's one for the program's primes, so the
    analysis reuses the normal forms and check verdicts of earlier analyses
    with the same primes, and the memo stays alive after it returns.  The
    report is the one a fresh process would give.

    The cyclic garbage collector is paused for the whole analysis, pool
    workers included, and left as the caller had it: an analysis builds
    no reference cycles, so a collection would free nothing, and every one
    would walk the memo and the recorded runs."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _analyze(program, cfg, path, source, jobs)
    finally:
        if collecting:
            gc.enable()


def _analyze(program: Program, cfg: FaultConfig, path: str, source: bytes,
             jobs: int) -> Report:
    start = time.monotonic()
    sites = enumerate_sites(program, cfg)
    tree = _PrefixTree(ClosedProgram(program), _rewriter(program.prime_names()),
                       min(cfg.max_faults, len(sites)))
    vectors = list(enumerate_vectors(sites, cfg, fresh_name_base(program)))
    in_process = bisect.bisect(vectors, max(tree.depth - 1, 1), key=len)
    outcomes = [tree.outcome(v) for v in itertools.islice(vectors, in_process)]
    forks = "fork" in multiprocessing.get_all_start_methods()
    workers = min(jobs, usable_cpus()) if forks else 1
    blocks = _blocks(vectors, in_process, BLOCKS_PER_WORKER * workers)
    workers = min(workers, len(blocks))
    if workers > 1:
        # imported only here: it adds about 20 ms to the start-up of every
        # run, and only a pool uses it
        from concurrent.futures import process
        # the executor forks every worker at the first block, before it starts
        # the thread that manages them, so no fork happens in a process that
        # has threads
        pool = process.ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        _WORKER_STATE.update(tree=tree, vectors=vectors)
        try:
            for distinct, ids in pool.map(_worker, blocks):
                distinct = [tree.shared(o) for o in distinct]
                outcomes += [distinct[i] for i in ids]
        except process.BrokenProcessPool:
            raise AnalysisError("a pool worker died before returning its block") from None
        finally:
            pool.shutdown(cancel_futures=True)
            _WORKER_STATE.clear()
    else:
        outcomes.extend(map(tree.outcome, itertools.islice(vectors, in_process, None)))
    results = tuple(zip(vectors, outcomes))
    duration_ms = (time.monotonic() - start) * 1000.0
    return Report(
        path=path,
        sha256=hashlib.sha256(source).hexdigest(),
        config=cfg,
        nominal=pretty_expr(tree.nominal.normal_form),
        results=results,
        duration_ms=duration_ms,
    )


def removed_check_variants(program: Program) -> List[Tuple[int, Program]]:
    """One variant per verification, with that verification deleted
    (minimality harness: each must re-enable a single-fault attack)."""
    variants = []
    check_index = 0
    for idx, st in enumerate(program.statements):
        if isinstance(st, Verify):
            statements = program.statements[:idx] + program.statements[idx + 1:]
            variants.append((check_index, Program(statements, program.attack_condition)))
            check_index += 1
    return variants
