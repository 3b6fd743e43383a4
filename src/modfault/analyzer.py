"""Full-proof orchestration: every permitted fault vector is simulated
symbolically and classified against the attack success condition."""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .executor import SymbolicRun, inline, run_symbolic, subst
from .faults import (
    FaultConfig, FaultVector, enumerate_sites, enumerate_vectors,
    fresh_name_base, inject,
)
from .printer import pretty_cond, pretty_expr
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


@dataclass(frozen=True)
class Outcome:
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

    @property
    def summary(self) -> Dict[str, int]:
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
        return pretty_cond(template)
    if isinstance(bound, Or):
        if rewriter.decide(bound.lhs):
            return _satisfied_branch(bound.lhs, template.lhs, rewriter)
        return _satisfied_branch(bound.rhs, template.rhs, rewriter)
    return pretty_cond(template)


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


def _analyze_vector(program: Program, vector: FaultVector, nominal: SymbolicRun,
                    rewriter: Rewriter) -> Outcome:
    check_faults = {f.site.check: f.kind for f in vector if f.site.scope == "check"}
    fresh = frozenset(f.fresh_name for f in vector
                      if f.fresh_name and f.site.scope != "check")
    try:
        faulted_program = inject(program, vector)
        unrolled = inline(faulted_program)
        run = run_symbolic(unrolled, rewriter, fresh, check_faults)
        return classify(nominal, run, program.attack_condition, rewriter)
    except RewriteBudgetExceeded as err:
        return Outcome(FAILURE, error=str(err))


# -- multiprocessing workers --------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(program: Program, nominal: SymbolicRun, primes: frozenset):
    _WORKER_STATE["program"] = program
    _WORKER_STATE["nominal"] = nominal
    _WORKER_STATE["rewriter"] = Rewriter(primes=primes)


def _worker(vector: FaultVector) -> Outcome:
    return _analyze_vector(_WORKER_STATE["program"], vector,
                           _WORKER_STATE["nominal"], _WORKER_STATE["rewriter"])


def nominal_run(program: Program, rewriter: Optional[Rewriter] = None) -> SymbolicRun:
    rewriter = rewriter or Rewriter(primes=program.prime_names())
    run = run_symbolic(inline(program), rewriter, frozenset())
    if not run.completed:
        raise AnalysisError(
            f"nominal run detected by verification {run.detected_by}; "
            f"the program rejects its own honest computation")
    return run


def analyze(program: Program, cfg: FaultConfig, path: str = "<memory>",
            source: bytes = b"", jobs: int = 1) -> Report:
    """Simulate every fault vector of the model and classify each outcome."""
    start = time.monotonic()
    rewriter = Rewriter(primes=program.prime_names())
    nominal = nominal_run(program, rewriter)
    sites = enumerate_sites(program, cfg)
    vectors = list(enumerate_vectors(sites, cfg, fresh_name_base(program)))
    if jobs > 1 and len(vectors) > 1:
        with multiprocessing.Pool(
                jobs, initializer=_init_worker,
                initargs=(program, nominal, program.prime_names())) as pool:
            outcomes = pool.map(_worker, vectors, chunksize=64)
    else:
        outcomes = [_analyze_vector(program, v, nominal, rewriter) for v in vectors]
    results = tuple(zip(vectors, outcomes))
    duration_ms = (time.monotonic() - start) * 1000.0
    return Report(
        path=path,
        sha256=hashlib.sha256(source).hexdigest(),
        config=cfg,
        nominal=pretty_expr(nominal.normal_form),
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
