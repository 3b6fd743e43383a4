import itertools

import pytest

from modfault import (
    ClosedProgram, EnumerationCapExceeded, FaultConfig, RANDOMIZING, Rewriter,
    ZEROING, count_vectors, enumerate_sites, enumerate_vectors, inject, inline,
    nominal_run, parse,
)
from modfault.analyzer import _analyze_vector
from modfault.faults import Fault, FaultSite, apply_faults, fresh_name_base
from modfault.oracle import eval_program, instantiate
from modfault.terms import Prod, Var, Verify, Zero, free_vars, subterm_at, walk


def _permanent_vars(sites):
    return {s.variable for s in sites if s.scope == "permanent"}


def test_unprotected_permanent_sites(corpus_programs):
    sites = enumerate_sites(corpus_programs["unprotected"], FaultConfig())
    names = _permanent_vars(sites)
    assert {"Sp", "Sq", "S", "M", "e"} <= names
    # protected definitions contribute no permanent site
    assert not ({"dp", "dq", "iq", "p", "q"} & names)


def test_transient_sites_cover_every_unprotected_node(corpus_programs):
    prog = corpus_programs["unprotected"]
    sites = enumerate_sites(prog, FaultConfig())
    transient = [s for s in sites if s.scope == "transient"]
    expected = 0
    for st in prog.statements:
        for e in (getattr(st, "rhs", None), getattr(st, "value", None)):
            if e is not None and not e.protected:
                expected += sum(1 for _ in walk(e))
    assert len(transient) == expected
    # and each paths back to a real unprotected node
    for s in transient:
        st = prog.statements[s.statement]
        expr = getattr(st, "rhs", None) or getattr(st, "value", None)
        node = subterm_at(expr, s.path[1:])
        assert not node.protected


def test_no_sites_under_protection():
    p = parse("noprop x ; return {x} ; _ != @")
    sites = enumerate_sites(p, FaultConfig())
    assert all(s.scope != "transient" or s.statement != 1 for s in sites)


def test_modulus_recomputation_sites(corpus_programs):
    prog = corpus_programs["vigilant-original"]
    n_stmt = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "target", None) == "N")
    sites = enumerate_sites(prog, FaultConfig())
    paths = {s.path for s in sites if s.scope == "transient" and s.statement == n_stmt}
    assert (0, 0) in paths and (0, 1) in paths  # the p and the q read


def test_check_sites_respect_protect_conditions(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    open_sites = enumerate_sites(prog, FaultConfig())
    closed_sites = enumerate_sites(prog, FaultConfig(protect_conditions=True))
    assert sum(1 for s in open_sites if s.scope == "check") == 7
    assert sum(1 for s in closed_sites if s.scope == "check") == 0
    open_cond_transients = [
        s for s in open_sites if s.scope == "transient"
        and isinstance(prog.statements[s.statement], Verify)]
    closed_cond_transients = [
        s for s in closed_sites if s.scope == "transient"
        and isinstance(prog.statements[s.statement], Verify)]
    assert open_cond_transients and not closed_cond_transients


def test_vector_counting_formula():
    assert count_vectors(3, FaultConfig(max_faults=1, kinds=(ZEROING,))) == 3
    assert count_vectors(3, FaultConfig(max_faults=2)) == 3 * 2 + 3 * 4
    sites = [FaultSite("permanent", i, variable=f"v{i}") for i in range(3)]
    vectors = list(enumerate_vectors(sites, FaultConfig(max_faults=2)))
    assert len(vectors) == 18
    assert all(len({f.site for f in v}) == len(v) for v in vectors)


def test_enumeration_is_deterministic(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    cfg = FaultConfig(max_faults=1)
    a = enumerate_sites(prog, cfg)
    b = enumerate_sites(prog, cfg)
    assert a == b
    va = list(enumerate_vectors(a, cfg))
    vb = list(enumerate_vectors(b, cfg))
    assert va == vb


def test_enumeration_cap():
    sites = [FaultSite("permanent", i, variable=f"v{i}") for i in range(30)]
    cfg = FaultConfig(max_faults=3, max_vectors=100)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_vectors(sites, cfg))


def test_inject_is_non_destructive(corpus_programs, corpus_sources):
    prog = corpus_programs["unprotected"]
    sites = enumerate_sites(prog, FaultConfig())
    for vector in itertools.islice(
            enumerate_vectors(sites, FaultConfig(max_faults=1)), 20):
        # an overlay on the program itself: no faulted program is built
        assert inject(prog, vector).program is prog
    assert prog == parse(corpus_sources["unprotected"])


def test_permanent_randomizing_rewrites_definition(corpus_programs):
    prog = corpus_programs["unprotected"]
    sp_stmt = next(i for i, st in enumerate(prog.statements)
                   if getattr(st, "target", None) == "Sp")
    vec = (Fault(FaultSite("permanent", sp_stmt, variable="Sp"),
                 RANDOMIZING, "f1"),)
    faults = inject(prog, vec)
    assert faults.data == {sp_stmt: vec}
    # Sp closes to the fresh variable, which every later read sees
    assert apply_faults(prog.statements[sp_stmt].rhs, faults.data[sp_stmt]) == Var("f1")
    assert "f1" in faults.fresh
    assert "f1" in free_vars(inline(faults).result)


def test_permanent_on_declaration_becomes_assignment(corpus_programs):
    prog = corpus_programs["unprotected"]
    vec = (Fault(FaultSite("permanent", 0, variable="M"), RANDOMIZING, "f1"),)
    faults = inject(prog, vec)
    assert faults.data == {0: vec} and faults.fresh == {"f1"}
    # every read of M sees the fresh variable instead
    result = free_vars(inline(faults).result)
    assert "M" in free_vars(inline(prog).result)
    assert "M" not in result and "f1" in result


def test_transient_zero_replaces_single_occurrence(corpus_programs):
    prog = corpus_programs["vigilant-original"]
    n_stmt = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "target", None) == "N")
    vec = (Fault(FaultSite("transient", n_stmt, path=(0, 0)), ZEROING),)
    faults = inject(prog, vec)
    assert apply_faults(prog.statements[n_stmt].rhs, faults.data[n_stmt]) \
        == Prod((Zero(), Var("q")))
    # every other statement untouched
    assert list(faults.data) == [n_stmt]
    assert faults.fresh == frozenset()


def test_check_fault_is_a_run_overlay(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    closed = ClosedProgram(prog)
    rw = Rewriter(primes=prog.prime_names())
    nominal = nominal_run(closed, rw)
    env = instantiate(prog, seed=1)
    check_sites = [s for s in enumerate_sites(prog, FaultConfig())
                   if s.scope == "check"]
    assert [s.check for s in check_sites] == list(range(7))
    for site in check_sites:
        k = site.check
        zero = (Fault(site, ZEROING),)
        rand = (Fault(site, RANDOMIZING, "f1"),)
        for vector in (zero, rand):
            faults = inject(prog, vector)
            # no data fault, and no fresh name for a randomized outcome
            assert faults.data == {} and faults.fresh == frozenset()
            assert faults.checks == {k: vector[0].kind}
        skipped = _analyze_vector(closed, zero, nominal, rw)
        assert skipped.detected_by is None
        assert f"check {k} skipped by a zeroed condition" in skipped.warnings
        assert _analyze_vector(closed, rand, nominal, rw).detected_by == k
        # the numeric run honours the same overlay
        assert eval_program(inject(prog, zero), env) == eval_program(prog, env)
        assert eval_program(inject(prog, rand), env) == ("error", k)


def test_protected_sub_condition_has_no_transient_sites():
    p = parse("noprop x, y, z ; if {x = y} /\\ z != 0 abort with 0 ; return x ; _ != @")
    sites = enumerate_sites(p, FaultConfig())
    # slots 0 and 1 are x and y inside the braces; slot numbers stay put
    assert {s.path for s in sites if s.scope == "transient" and s.statement == 1} \
        == {(2,), (3,)}
    assert [s.check for s in sites if s.scope == "check"] == [0]


def test_fresh_base_avoids_collisions():
    p = parse("noprop f1 ; return f1 ; _ != @")
    assert fresh_name_base(p) != "f"
