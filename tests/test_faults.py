import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    ClosedProgram, EnumerationCapExceeded, FaultConfig, RANDOMIZING, Rewriter,
    ZEROING, count_vectors, enumerate_sites, enumerate_vectors, inject, inline,
    parse,
)
from modfault.analyzer import _PrefixTree
from modfault.faults import Fault, FaultSite, apply_faults, fresh_name_base
from modfault.oracle import eval_program, instantiate
from modfault.terms import (
    And, Assign, Declare, Fresh, Neq, One, Or, Program, Prod, Return, Var,
    Verify, Zero,
)

from conftest import CORPUS_FILES, free_vars, subterm_at, walk
from test_printer import conds, exprs


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
    # no vector is longer than there are sites, whatever the order asked for
    huge = FaultConfig(max_faults=10 ** 9)
    assert count_vectors(3, huge) == count_vectors(3, FaultConfig(max_faults=3)) == 26
    assert len(list(enumerate_vectors(sites, huge))) == 26


@pytest.mark.parametrize("kinds, kept", [
    ((ZEROING, ZEROING), (ZEROING,)),
    ((RANDOMIZING, ZEROING, RANDOMIZING), (RANDOMIZING, ZEROING)),
    ((ZEROING, RANDOMIZING, ZEROING, ZEROING), (ZEROING, RANDOMIZING)),
])
def test_repeated_kinds_count_once(kinds, kept):
    sites = [FaultSite("permanent", i, variable=f"v{i}") for i in range(4)]
    cfg = FaultConfig(max_faults=2, kinds=kinds)
    assert cfg.kinds == kept
    assert count_vectors(len(sites), cfg) == len(list(enumerate_vectors(sites, cfg)))


def test_unknown_kinds_are_refused_by_the_config():
    # the one check behind the library and the CLI's --kinds
    with pytest.raises(ValueError, match="^unknown fault kind 'sparkles'; "
                                         "choose from zeroing, randomizing$"):
        FaultConfig(kinds=(ZEROING, "sparkles"))
    with pytest.raises(ValueError, match="non-empty"):
        FaultConfig(kinds=())


def test_enumeration_is_deterministic(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    cfg = FaultConfig(max_faults=1)
    a = enumerate_sites(prog, cfg)
    b = enumerate_sites(prog, cfg)
    assert a == b
    va = list(enumerate_vectors(a, cfg))
    vb = list(enumerate_vectors(b, cfg))
    assert va == vb


def test_vectors_share_each_distinct_fault(corpus_programs):
    prog = corpus_programs["unprotected"]
    cfg = FaultConfig(max_faults=2, transient_enabled=False)
    sites = enumerate_sites(prog, cfg)
    vectors = list(enumerate_vectors(sites, cfg))
    # the first randomizing fault on site 0 opens one vector per later site
    # and kind, and each holds the same object for it
    first = [v[0] for v in vectors
             if len(v) == 2 and v[0] == Fault(sites[0], RANDOMIZING, "f1")]
    assert len(first) == 2 * (len(sites) - 1)
    assert all(f is first[0] for f in first)
    # and so does every other fault: one object per distinct fault
    distinct = {}
    for vector in vectors:
        for fault in vector:
            assert distinct.setdefault(fault, fault) is fault


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
    assert apply_faults(prog.statements[sp_stmt].rhs, faults.data[sp_stmt]) == Fresh("f1")
    assert Fresh("f1") in walk(inline(faults).result)


def test_permanent_on_declaration_becomes_assignment(corpus_programs):
    prog = corpus_programs["unprotected"]
    vec = (Fault(FaultSite("permanent", 0, variable="M"), RANDOMIZING, "f1"),)
    faults = inject(prog, vec)
    assert faults.data == {0: vec}
    # every read of M sees the fresh variable instead
    result = inline(faults).result
    assert "M" in free_vars(inline(prog).result)
    assert "M" not in free_vars(result) and Fresh("f1") in walk(result)


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
    assert not any(isinstance(n, Fresh) for n in walk(inline(faults).result))


def test_check_fault_is_a_run_overlay(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    closed = ClosedProgram(prog)
    tree = _PrefixTree(closed, Rewriter(primes=prog.prime_names()), 1)
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
            # no data fault, and no fresh variable for a randomized outcome:
            # the run closes as the nominal one
            assert faults.data == {} and closed.inline(faults) == closed.inline()
            assert faults.checks == {k: vector[0].kind}
        skipped = tree.outcome(zero)
        assert skipped.detected_by is None
        assert f"check {k} skipped by a zeroed condition" in skipped.warnings
        assert tree.outcome(rand).detected_by == k
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


def test_operands_of_a_protected_sub_condition_are_not_faultable():
    p = parse("noprop x, y, z ; if {x = y /\\ {z != 0}} \\/ x = z abort with 0 ;"
              " return x ; _ != @")
    sites = enumerate_sites(p, FaultConfig())
    # slots 0 to 3 sit under the braces; x = z holds slots 4 and 5
    assert {s.path for s in sites if s.scope == "transient" and s.statement == 1} \
        == {(4,), (5,)}


# The site enumerator that walked each verification operand three times (once
# to number it, once to descend to it, once to look for protection above it),
# kept as the reference that enumerate_sites must match site for site.

def reference_operand_paths(c):
    if isinstance(c, (And, Or)):
        return [(i, *path) for i, sub in enumerate(c.children())
                for path in reference_operand_paths(sub)]
    return [(i,) for i in range(len(c.children()))]


def reference_crosses_protection(e, path):
    if e.protected:
        return True
    for i in path:
        e = e.children()[i]
        if e.protected:
            return True
    return False


def reference_statement_slots(st, protect_conditions):
    if isinstance(st, Assign):
        return [(0, st.rhs)]
    if isinstance(st, Return):
        return [(0, st.value)]
    if isinstance(st, Verify) and not protect_conditions:
        return [(slot, subterm_at(st.condition, path))
                for slot, path in enumerate(reference_operand_paths(st.condition))
                if not reference_crosses_protection(st.condition, path)]
    return []


def reference_walk_unprotected(e, path):
    if e.protected:
        return
    yield path, e
    for i, c in enumerate(e.children()):
        yield from reference_walk_unprotected(c, path + (i,))


def reference_enumerate_sites(program, cfg):
    sites = []
    check_index = 0
    for idx, st in enumerate(program.statements):
        if isinstance(st, Declare):
            for name, prot in zip(st.names, st.protected_flags):
                if not prot:
                    sites.append(FaultSite("permanent", idx, variable=name))
        elif isinstance(st, Assign):
            if not st.rhs.protected:
                sites.append(FaultSite("permanent", idx, variable=st.target))
        elif isinstance(st, Verify):
            if not (cfg.protect_conditions or st.condition.protected):
                sites.append(FaultSite("check", idx, check=check_index))
            check_index += 1
        if cfg.transient_enabled:
            for slot, expr in reference_statement_slots(st, cfg.protect_conditions):
                for path, _node in reference_walk_unprotected(expr, (slot,)):
                    sites.append(FaultSite("transient", idx, path=path))
    return sites


SITE_SETTINGS = [FaultConfig(protect_conditions=pc, transient_enabled=te)
                 for pc in (False, True) for te in (True, False)]


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_sites_match_the_reference_on_the_corpus(corpus_programs, name):
    prog = corpus_programs[name]
    for cfg in SITE_SETTINGS:
        assert enumerate_sites(prog, cfg) == reference_enumerate_sites(prog, cfg)


@given(st.lists(conds(), min_size=1, max_size=3), exprs())
@settings(max_examples=100, deadline=None)
def test_sites_match_the_reference_under_protection_at_any_depth(conditions, value):
    # braces anywhere in the verification conditions: on an operand, a
    # comparison, a sub-condition, or the whole condition
    prog = Program((Declare(("a", "b"), (False, True)),
                    *(Verify(c, One()) for c in conditions),
                    Assign("x", value), Return(value)),
                   Neq(Var("_"), Var("@")))
    for cfg in SITE_SETTINGS:
        assert enumerate_sites(prog, cfg) == reference_enumerate_sites(prog, cfg)


# A fault built in another interpreter, pickled with that interpreter's hash
# of it.
PICKLED_FAULT = """
import pickle, sys
from modfault.faults import Fault, FaultSite
fault = Fault(FaultSite("transient", 3, path=(0, 1)), "randomizing", "f1")
sys.stdout.buffer.write(pickle.dumps((hash(fault), fault)))
"""


def test_a_pickled_fault_hashes_as_one_built_here():
    fault = Fault(FaultSite("transient", 3, path=(0, 1)), RANDOMIZING, "f1")
    theirs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", PICKLED_FAULT], capture_output=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed), timeout=60)
        their_hash, loaded = pickle.loads(proc.stdout)
        assert loaded == fault and hash(loaded) == hash(fault)
        assert hash(loaded.site) == hash(fault.site)
        theirs.append(their_hash)
    assert theirs[0] != theirs[1]  # the seeds do hash the fault differently


def test_a_replaced_fault_hashes_as_one_built_anew():
    site = FaultSite("transient", 3, path=(0, 1))
    fault = Fault(site, ZEROING)._replace(kind=RANDOMIZING, fresh_name="f1")
    assert fault == Fault(site, RANDOMIZING, "f1")
    assert hash(fault) == hash(Fault(site, RANDOMIZING, "f1"))
    moved = site._replace(statement=4)
    assert moved == FaultSite("transient", 4, path=(0, 1))
    assert hash(moved) == hash(FaultSite("transient", 4, path=(0, 1)))
