"""The prefix tree over the fault overlay against the program rebuild it
replaced.

``reference_inject`` and ``reference_run_symbolic`` are the definitions the
overlay walk replaced, kept as the reference: the first rebuilds a faulted
program (fresh names declared up front, a faulted declaration split into a
declaration and an assignment), the second decides the checks of a fully
built ``UnrolledTerm``, every vector from its first statement.  For every
vector of the corpus at one fault, of criterion 7 and of its 3-fault
permanent-only twin, draining the overlay walk on one closure must give the
same closed run as closing the rebuilt program, and the prefix tree must
give the same outcome as the reference.  Its rewriter calls must be the
reference's without the ``decide_check`` calls on the checks before the
last fault's statement: those the vector's prefix already decided.  When
the prefix's run ended before that statement, the vector makes no call at
all.
"""

import dataclasses

from modfault import (
    ClosedProgram, FaultConfig, RANDOMIZING, Rewriter, RewriteBudgetExceeded,
    ZEROING, classify, enumerate_sites, enumerate_vectors, inject, inline,
)
from modfault.analyzer import FAILURE, Outcome, _PrefixTree
from modfault.executor import SymbolicRun
from modfault.faults import _operand_paths, fresh_name_base
from modfault.rewriter import TRUE, UNKNOWN
from modfault.terms import (
    Assign, Declare, Fresh, Program, Return, Verify, ZERO, replace_at,
)

from conftest import CRITERION_7, THREE_FAULTS_PERMANENT


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
        value = ZERO if fault.kind == ZEROING else Fresh(fault.fresh_name)
        if site.scope == "transient":
            statements[site.statement] = _replace_in_statement(st, site.path, value)
        elif isinstance(st, Assign):
            statements[site.statement] = Assign(st.target, value)
        else:
            declared_permanents.append(fault)

    out = []
    if fresh_names:
        out.append(Declare(tuple(fresh_names), (False,) * len(fresh_names)))
    for idx, st in enumerate(statements):
        faults_here = [f for f in declared_permanents if f.site.statement == idx]
        if not faults_here:
            out.append(st)
            continue
        faulted = {f.site.variable: f for f in faults_here}
        names = tuple(n for n in st.names if n not in faulted)
        flags = tuple(fl for n, fl in zip(st.names, st.protected_flags) if n not in faulted)
        if names:
            out.append(dataclasses.replace(st, names=names, protected_flags=flags))
        for name in st.names:
            f = faulted.get(name)
            if f is not None:
                value = ZERO if f.kind == ZEROING else Fresh(f.fresh_name)
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


def reference_run_symbolic(u, rewriter, check_faults):
    warnings = []
    for k, check in enumerate(u.checks):
        kind = check_faults.get(k)
        if kind == ZEROING:
            warnings.append(f"check {k} skipped by a zeroed condition")
            continue
        if kind == RANDOMIZING:
            return SymbolicRun(k, None, tuple(warnings))
        verdict = rewriter.decide_check(check)
        if verdict == TRUE:
            return SymbolicRun(k, None, tuple(warnings))
        if verdict == UNKNOWN:
            warnings.append(f"check {k} not provably triggered; passed through")
    return SymbolicRun(None, rewriter.normalize(u.result), tuple(warnings))


def reference_analyze_vector(unrolled, program, vector, nominal, rewriter):
    check_faults = {f.site.check: f.kind for f in vector if f.site.scope == "check"}
    try:
        run = reference_run_symbolic(unrolled, rewriter, check_faults)
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

    def decide_check(self, c):
        self.calls.append(("decide_check", c))
        return super().decide_check(c)


def prefix_decided_calls(program, vector, ref_calls):
    """How many of the reference's leading calls decide checks before the
    statement of the vector's last fault: the checks its prefix decided."""
    last = vector[-1].site.statement
    faulted = {f.site.check for f in vector if f.site.scope == "check"}
    checks = [i for i, st in enumerate(program.statements) if isinstance(st, Verify)]
    before = sum(1 for k, i in enumerate(checks) if i < last and k not in faulted)
    leading = next((n for n, call in enumerate(ref_calls) if call[0] != "decide_check"),
                   len(ref_calls))
    return min(before, leading)


def assert_prefix_tree_matches_reference(program, cfg, max_steps=100_000):
    """Sweep every vector of the model through one prefix tree and through
    the reference.  Return the vector count, and each failed vector with the
    number of rewriter calls the tree made for it."""
    closed = ClosedProgram(program)
    primes = program.prime_names()
    new_rw = LoggingRewriter(primes=primes, max_steps=max_steps)
    ref_rw = LoggingRewriter(primes=primes, max_steps=max_steps)
    tree = _PrefixTree(closed, new_rw, cfg.max_faults)
    # the root is the nominal run, walked on construction under the sweep's
    # budget
    nominal = reference_run_symbolic(inline(program), ref_rw, {})
    assert tree.nominal == nominal
    assert new_rw.calls == ref_rw.calls
    vectors = list(enumerate_vectors(enumerate_sites(program, cfg), cfg,
                                     fresh_name_base(program)))
    failures = {}
    for i, vector in enumerate(vectors):
        unrolled = inline(reference_inject(program, vector))
        assert closed.inline(inject(program, vector)) == unrolled, f"vector #{i}: {vector}"
        new_rw.calls.clear()
        ref_rw.calls.clear()
        outcome = tree.outcome(vector)
        expected = reference_analyze_vector(unrolled, program, vector, nominal, ref_rw)
        assert outcome == expected, f"vector #{i}: {vector}"
        # when the prefix's run ended before the last fault's statement, the
        # reference made only the skipped calls, and the tree makes none
        skipped = prefix_decided_calls(program, vector, ref_rw.calls)
        assert new_rw.calls == ref_rw.calls[skipped:], f"vector #{i}: {vector}"
        if outcome.kind == FAILURE:
            failures[vector] = len(new_rw.calls)
    return len(vectors), failures


def test_overlay_matches_reference_on_the_corpus(corpus_programs):
    cfg = FaultConfig(max_faults=1)
    total = sum(assert_prefix_tree_matches_reference(prog, cfg)[0]
                for prog in corpus_programs.values())
    assert total == 1522


def test_overlay_matches_reference_on_criterion_7(corpus_programs):
    total, _ = assert_prefix_tree_matches_reference(
        corpus_programs["vigilant-fixed"], CRITERION_7)
    assert total == 13861


def test_overlay_matches_reference_at_three_faults(corpus_programs):
    # every 3-fault vector resumes from the trail of its 2-fault prefix
    total, _ = assert_prefix_tree_matches_reference(
        corpus_programs["vigilant-fixed"], THREE_FAULTS_PERMANENT)
    assert total == 3682


def test_overlay_matches_reference_when_an_input_is_read_next(corpus_programs):
    # with the primes declared first, the statement right after the inputs'
    # declaration reads the input e, so a faulted input must enter the walk
    # at its declaration; two faults on that declaration resume there
    program = corpus_programs["unprotected"]
    noprop, prime, *rest = program.statements
    swapped = Program((prime, noprop, *rest), program.attack_condition)
    total, _ = assert_prefix_tree_matches_reference(
        swapped, FaultConfig(max_faults=2, transient_enabled=False))
    assert total == 50


def test_overlay_matches_reference_under_a_tight_budget(corpus_programs):
    # the budget counts unshared steps, so a vector fails whatever earlier
    # vectors left in the memo, and whether its prefix made the calls it skips;
    # the nominal run completes under it, as it must
    total, failures = assert_prefix_tree_matches_reference(
        corpus_programs["vigilant-fixed"], CRITERION_7, max_steps=1500)
    assert total == 13861
    # the budget must bite for the test to mean anything, on prefixes too
    assert sum(len(v) == 1 for v in failures) == 20
    assert sum(len(v) == 2 for v in failures) == 246
    # a prefix whose run failed at a check, before the last fault's
    # statement, passes its failure on without a rewriter call
    inherited = [v for v, calls in failures.items() if not calls]
    assert len(inherited) == 12
    assert all(v[:-1] in failures for v in inherited)
