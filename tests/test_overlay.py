"""The fault overlay against the program rebuild it replaced.

``reference_inject`` and ``reference_run_symbolic`` are the definitions the
overlay walk replaced, kept as the reference: the first rebuilds a faulted
program (fresh names declared up front, a faulted declaration split into a
declaration and an assignment), the second decides the checks of a fully
built ``UnrolledTerm``.  For every vector of the corpus at one fault and of
criterion 7, draining the overlay walk must give the same closed run as
inlining the rebuilt program, and the analysis must send the rewriter the
same calls, in the same order, as the reference path.
"""

from modfault import (
    ClosedProgram, FaultConfig, RANDOMIZING, Rewriter, RewriteBudgetExceeded,
    ZEROING, classify, enumerate_sites, enumerate_vectors, inject, inline,
    nominal_run,
)
from modfault.analyzer import FAILURE, Outcome, _analyze_vector
from modfault.executor import SymbolicRun
from modfault.faults import _operand_paths, fresh_name_base
from modfault.rewriter import TRUE, UNKNOWN
from modfault.terms import (
    Assign, DeclareNoProp, Program, Return, Var, Verify, ZERO, replace_at,
)

from conftest import CRITERION_7


def reference_inject(program, vector):
    statements = list(program.statements)
    declared_permanents = []
    fresh_names = [f.fresh_name for f in vector
                   if f.fresh_name and f.site.scope != "check"]

    def apply_order(fault):
        if fault.site.scope == "transient":
            return (0, -len(fault.site.path))
        return (1, 0)

    for fault in sorted(vector, key=apply_order):
        site = fault.site
        if site.scope == "check":
            continue
        st = statements[site.statement]
        value = ZERO if fault.kind == ZEROING else Var(fault.fresh_name)
        if site.scope == "transient":
            statements[site.statement] = _replace_in_statement(st, site.path, value)
        elif isinstance(st, Assign):
            statements[site.statement] = Assign(st.target, value)
        else:
            declared_permanents.append(fault)

    out = []
    if fresh_names:
        out.append(DeclareNoProp(tuple(fresh_names), (False,) * len(fresh_names)))
    for idx, st in enumerate(statements):
        faults_here = [f for f in declared_permanents if f.site.statement == idx]
        if not faults_here:
            out.append(st)
            continue
        faulted = {f.site.variable: f for f in faults_here}
        names = tuple(n for n in st.names if n not in faulted)
        flags = tuple(fl for n, fl in zip(st.names, st.protected_flags) if n not in faulted)
        if names:
            out.append(type(st)(names, flags))
        for name in st.names:
            f = faulted.get(name)
            if f is not None:
                value = ZERO if f.kind == ZEROING else Var(f.fresh_name)
                out.append(Assign(name, value))
    return Program(tuple(out), program.attack_condition)


def _replace_in_statement(st, path, value):
    slot, rest = path[0], path[1:]
    if isinstance(st, Assign):
        return Assign(st.target, replace_at(st.rhs, rest, value))
    if isinstance(st, Return):
        return Return(replace_at(st.value, rest, value))
    path = _operand_paths(st.condition)[slot] + rest
    return Verify(replace_at(st.condition, path, value), st.abort_value)


def reference_run_symbolic(u, rewriter, fresh, check_faults):
    warnings = []
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


def reference_analyze_vector(unrolled, program, vector, nominal, rewriter):
    check_faults = {f.site.check: f.kind for f in vector if f.site.scope == "check"}
    fresh = frozenset(f.fresh_name for f in vector
                      if f.fresh_name and f.site.scope != "check")
    try:
        run = reference_run_symbolic(unrolled, rewriter, fresh, check_faults)
        return classify(nominal, run, program.attack_condition, rewriter)
    except RewriteBudgetExceeded as err:
        return Outcome(FAILURE, error=str(err))


class LoggingRewriter(Rewriter):
    """Records every public call with its arguments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def normalize(self, e):
        self.calls.append(("normalize", e))
        return super().normalize(e)

    def decide(self, c):
        self.calls.append(("decide", c))
        return super().decide(c)

    def decide_check(self, c, fresh):
        self.calls.append(("decide_check", c, fresh))
        return super().decide_check(c, fresh)


def assert_overlay_matches_reference(program, cfg):
    closed = ClosedProgram(program)
    new_rw = LoggingRewriter(primes=program.prime_names())
    ref_rw = LoggingRewriter(primes=program.prime_names())
    nominal = nominal_run(closed, new_rw)
    assert nominal == nominal_run(closed, ref_rw)
    assert new_rw.calls == ref_rw.calls
    vectors = list(enumerate_vectors(enumerate_sites(program, cfg), cfg,
                                     fresh_name_base(program)))
    for i, vector in enumerate(vectors):
        unrolled = inline(reference_inject(program, vector))
        assert inline(inject(program, vector)) == unrolled, f"vector #{i}: {vector}"
        new_rw.calls.clear()
        ref_rw.calls.clear()
        outcome = _analyze_vector(closed, vector, nominal, new_rw)
        expected = reference_analyze_vector(unrolled, program, vector, nominal, ref_rw)
        assert outcome == expected, f"vector #{i}: {vector}"
        assert new_rw.calls == ref_rw.calls, f"vector #{i}: {vector}"
    return len(vectors)


def test_overlay_matches_reference_on_the_corpus(corpus_programs):
    cfg = FaultConfig(max_faults=1)
    total = sum(assert_overlay_matches_reference(prog, cfg)
                for prog in corpus_programs.values())
    assert total == 1522


def test_overlay_matches_reference_on_criterion_7(corpus_programs):
    total = assert_overlay_matches_reference(corpus_programs["vigilant-fixed"], CRITERION_7)
    assert total == 13861


def test_overlay_matches_reference_under_a_tight_budget(corpus_programs):
    # with shared memos, a budget failure depends on every earlier call: the
    # same traffic must give the same failures
    from modfault import RewriteBudget
    prog = corpus_programs["vigilant-original"]
    closed = ClosedProgram(prog)
    nominal = nominal_run(closed, Rewriter(primes=prog.prime_names()))
    budget = RewriteBudget(max_steps=30)
    new_rw = LoggingRewriter(primes=prog.prime_names(), budget=budget)
    ref_rw = LoggingRewriter(primes=prog.prime_names(), budget=budget)
    cfg = FaultConfig(max_faults=1)
    failures = 0
    for vector in enumerate_vectors(enumerate_sites(prog, cfg), cfg):
        outcome = _analyze_vector(closed, vector, nominal, new_rw)
        expected = reference_analyze_vector(
            inline(reference_inject(prog, vector)), prog, vector, nominal, ref_rw)
        assert outcome == expected
        failures += outcome.kind == FAILURE
    assert new_rw.calls == ref_rw.calls
    assert failures  # the budget must bite for the test to mean anything
