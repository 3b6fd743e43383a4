import json
import multiprocessing
import pickle
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from modfault import analyzer
from modfault import (
    ATTACK, DETECTED, FAILURE, HARMLESS, ClosedProgram, FaultConfig, Rewriter,
    analyze, classify, count_vectors, enumerate_sites, enumerate_vectors,
    nominal_run, parse,
)
from modfault.analyzer import _PrefixTree, removed_check_variants
from modfault.cli import build_parser, main
from modfault.executor import SymbolicRun
from modfault.faults import Fault, FaultSite, RANDOMIZING, ZEROING
from modfault.reporting import report_dict

from conftest import CORPUS_FILES, CRITERION_7, ROOT, THREE_FAULTS_PERMANENT


def _attack_sites(report):
    return [(v[0].site.scope, v[0].site.statement, v[0].site.path, v[0].kind)
            for v, o in report.results if o.kind == ATTACK]


def test_identical_runs_are_harmless(corpus_programs):
    prog = corpus_programs["unprotected"]
    rw = Rewriter(primes=prog.prime_names())
    nominal = nominal_run(ClosedProgram(prog), rw)
    same = SymbolicRun(None, nominal.normal_form)
    outcome = classify(nominal, same, prog.attack_condition, rw)
    assert outcome.kind == HARMLESS  # `_ != @` fails on equal results


def test_detected_beats_condition(corpus_programs):
    prog = corpus_programs["unprotected"]
    rw = Rewriter(primes=prog.prime_names())
    nominal = nominal_run(ClosedProgram(prog), rw)
    aborted = SymbolicRun(2, None)
    outcome = classify(nominal, aborted, prog.attack_condition, rw)
    assert outcome.kind == DETECTED and outcome.detected_by == 2


def test_exhaustiveness(corpus_programs):
    prog = corpus_programs["unprotected"]
    cfg = FaultConfig(max_faults=1)
    report = analyze(prog, cfg)
    assert len(report.results) == count_vectors(len(enumerate_sites(prog, cfg)), cfg)
    s = report.summary
    assert s["total"] == s["detected"] + s["harmless"] + s["attacks"] + s["failures"]


def test_unprotected_gcd_attack_surface(corpus_programs):
    report = analyze(corpus_programs["unprotected"], FaultConfig(max_faults=1))
    attacked_vars = {v[0].site.variable for v, o in report.results
                     if o.kind == ATTACK and v[0].site.scope == "permanent"
                     and v[0].kind == RANDOMIZING}
    assert {"Sp", "Sq"} <= attacked_vars
    branches = {v[0].site.variable: o.branch for v, o in report.results
                if o.kind == ATTACK and v[0].site.scope == "permanent"
                and v[0].kind == RANDOMIZING}
    assert branches["Sp"] == "_ =[q] @"  # faulting Sp leaks q
    assert branches["Sq"] == "_ =[p] @"


def test_braces_in_the_attack_condition_change_no_verdict(corpus_sources):
    plain = corpus_sources["unprotected"]
    braced = plain.replace("_ != @ /\\ ( _ =[p] @ \\/ _ =[q] @ )",
                           "{_} != @ /\\ ( _ =[{p}] @ \\/ {_ =[q] @} )")
    assert braced != plain
    cfg = FaultConfig(max_faults=1)
    report = analyze(parse(braced), cfg)
    assert report.summary == {"total": 56, "detected": 0, "harmless": 14,
                              "attacks": 42, "failures": 0}
    plain_results = analyze(parse(plain), cfg).results
    assert [(v, o.kind, o.witness) for v, o in report.results] == [
        (v, o.kind, o.witness) for v, o in plain_results]
    # the satisfied branch is labelled with the source condition, braces included
    assert {o.branch for _, o in report.attacks()} == {"_ =[{p}] @", "{_ =[q] @}"}


def test_coherent_blinding_fault_is_harmless(corpus_programs):
    # randomizing r permanently rewrites every intermediate coherently: the
    # final reduction modulo p*q provably equals the nominal signature
    prog = corpus_programs["vigilant-fixed"]
    r_decl = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "names", None) and "r" in st.names)
    vec = (Fault(FaultSite("permanent", r_decl, variable="r"), RANDOMIZING, "f1"),)
    rw = Rewriter(primes=prog.prime_names())
    closed = ClosedProgram(prog)
    outcome = _PrefixTree(closed, rw, 1).outcome(vec)
    assert outcome.kind == HARMLESS


def test_degenerate_modulus_warning(corpus_programs):
    # zeroing N makes the final reduction inert and flags the vector
    prog = corpus_programs["vigilant-original"]
    n_stmt = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "target", None) == "N")
    vec = (Fault(FaultSite("permanent", n_stmt, variable="N"), ZEROING),)
    rw = Rewriter(primes=prog.prime_names())
    closed = ClosedProgram(prog)
    outcome = _PrefixTree(closed, rw, 1).outcome(vec)
    assert outcome.kind == HARMLESS
    assert any("degenerate" in w for w in outcome.warnings)


def test_nominal_must_complete():
    prog = parse("noprop x ; if x != 0 abort with x ; return x ; _ != @")
    with pytest.raises(Exception, match="nominal"):
        analyze(prog, FaultConfig(max_faults=1))


def test_budget_failures_are_reported_not_raised(corpus_programs, monkeypatch):
    # budget exhaustion on a faulted run lands in the failure bucket instead
    # of aborting the whole analysis or counting as harmless
    from modfault import rewriter as rwmod
    from modfault.terms import free_vars
    prog = corpus_programs["unprotected"]
    original = rwmod.Rewriter.normalize

    def tight_normalize(self, e):
        if any(n.startswith("f") and n[1:].isdigit() for n in free_vars(e)):
            raise rwmod.RewriteBudgetExceeded("forced for the test")
        return original(self, e)

    monkeypatch.setattr(rwmod.Rewriter, "normalize", tight_normalize)
    report = analyze(prog, FaultConfig(max_faults=1, kinds=(RANDOMIZING,)))
    assert report.summary["failures"] == report.summary["total"]
    assert all(o.kind == FAILURE for _, o in report.results)


def test_reports_are_reproducible(corpus_programs):
    prog = corpus_programs["unprotected"]
    cfg = FaultConfig(max_faults=1)
    a = report_dict(analyze(prog, cfg))
    b = report_dict(analyze(prog, cfg))
    a.pop("duration_ms"), b.pop("duration_ms")
    assert a == b


def _sequential_and_parallel(prog, monkeypatch, context):
    """Each of two multi-fault models analyzed at one job and in a real pool
    of two processes from ``context``, started whatever this machine's CPU
    count; reports without ``duration_ms``."""
    monkeypatch.setattr(analyzer, "multiprocessing", context)
    monkeypatch.setattr(analyzer, "usable_cpus", lambda: 2)
    pairs = []
    for cfg in (CRITERION_7, THREE_FAULTS_PERMANENT):
        seq = report_dict(analyze(prog, cfg, jobs=1))
        par = report_dict(analyze(prog, cfg, jobs=2))
        seq.pop("duration_ms"), par.pop("duration_ms")
        pairs.append((seq, par))
    return pairs


def test_parallel_matches_sequential(corpus_programs, monkeypatch):
    # forked workers inherit the parent's 1-fault runs and memo
    prog = corpus_programs["vigilant-fixed"]
    for seq, par in _sequential_and_parallel(prog, monkeypatch,
                                             multiprocessing.get_context()):
        assert seq == par


def test_parallel_matches_sequential_under_spawn(corpus_programs, monkeypatch):
    # spawned workers start cold: they rebuild the tree and the vector list
    # and analyze each prefix on demand, to the same reports
    prog = corpus_programs["vigilant-fixed"]
    for seq, par in _sequential_and_parallel(prog, monkeypatch,
                                             multiprocessing.get_context("spawn")):
        assert seq == par


def _in_process_pool(monkeypatch, cores):
    """Patch in a pool that records its size and maps in this process, on a
    machine with ``cores`` cores: no process is started, however many jobs
    are asked for.  Each result is copied through pickle, as a real pool
    sends it back.  Returns the list of pool sizes."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [pickle.loads(pickle.dumps(fn(item))) for item in items]

    monkeypatch.setattr(analyzer.multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(analyzer, "_WORKER_STATE", {})
    monkeypatch.setattr(analyzer.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(analyzer.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    return sizes


def _same_reports(prog, cfg, *job_counts):
    reports = [report_dict(analyze(prog, cfg, jobs=jobs)) for jobs in job_counts]
    for report in reports:
        report.pop("duration_ms")
    return all(report == reports[0] for report in reports)


def test_workers_are_capped_by_cores_and_vectors(corpus_programs, monkeypatch):
    sizes = _in_process_pool(monkeypatch, 4)
    prog = corpus_programs["unprotected"]
    # a 1-fault model runs in this process, at any job count
    assert _same_reports(prog, FaultConfig(max_faults=1, kinds=(ZEROING,)), 1, 10 ** 9)
    assert sizes == []
    # the 2-fault vectors go to at most min(jobs, CPUs, blocks) workers
    assert _same_reports(prog, FaultConfig(max_faults=2, kinds=(ZEROING,)), 1, 3, 10 ** 9)
    assert sizes == [3, 4]  # as many workers as jobs, then one per CPU
    three_blocks = parse("noprop x ; y := x ; return y ; _ != @")  # 4 sites
    cfg = FaultConfig(max_faults=2, kinds=(ZEROING,))
    assert analyze(three_blocks, cfg, jobs=10 ** 9).summary["total"] == 4 + 6
    assert sizes == [3, 4, 3]  # the 2-fault vectors start at 3 sites


def test_one_usable_cpu_starts_no_pool(corpus_programs, monkeypatch):
    # pinned to one CPU of a 2-core machine (`taskset -c 0`): os.cpu_count()
    # says 2, the affinity mask 1
    sizes = _in_process_pool(monkeypatch, 2)
    monkeypatch.setattr(analyzer.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert analyzer.usable_cpus() == 1
    assert build_parser().parse_args(["analyze", "x.fj"]).jobs == 1
    prog = corpus_programs["unprotected"]
    analyze(prog, FaultConfig(max_faults=2, kinds=(ZEROING,)), jobs=2)
    assert sizes == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=40), st.data(), st.integers(1, 12))
def test_blocks_cover_the_range_once_and_start_at_a_new_first_site(first_sites, data,
                                                                   count):
    vectors = [(SimpleNamespace(site=s),) for s in first_sites]
    start = data.draw(st.integers(0, len(vectors)))
    blocks = analyzer._blocks(vectors, start, count)
    assert len(blocks) <= count
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(start, len(vectors)))
    assert all(lo < hi for lo, hi in blocks)
    for lo, _ in blocks[1:]:
        assert vectors[lo][0].site != vectors[lo - 1][0].site


def _distinct_objects(report):
    ids = {id(o) for _, o in report.results}
    assert len(ids) == len({o for _, o in report.results})
    return len(ids)


def test_equal_outcomes_are_one_object(criterion_7_report, corpus_programs,
                                       monkeypatch):
    # one object per distinct outcome, also when the outcomes come back from
    # pool workers, each a copy
    assert _distinct_objects(criterion_7_report) == 12
    prog = corpus_programs["vigilant-fixed"]
    assert _distinct_objects(analyze(prog, CRITERION_7, jobs=1)) == 12
    sizes = _in_process_pool(monkeypatch, 2)
    assert _distinct_objects(analyze(prog, CRITERION_7, jobs=2)) == 12
    assert sizes == [2]


def _tree_outcomes(prog, vectors, rewriter, depth):
    """Each vector's outcome from a fresh prefix tree that has analyzed only
    the nominal run, in the given order."""
    tree = _PrefixTree(ClosedProgram(prog), rewriter, depth)
    return {vector: tree.outcome(vector) for vector in vectors}


def test_verdicts_do_not_depend_on_vector_order(corpus_programs):
    # the budget counts unshared steps: a memoized normal form charges what
    # it cost, so the verdicts cannot depend on what earlier vectors left in
    # the memo
    prog = corpus_programs["vigilant-fixed"]
    cfg = FaultConfig(max_faults=1)
    vectors = list(enumerate_vectors(enumerate_sites(prog, cfg), cfg))
    def outcomes(order):
        return _tree_outcomes(prog, order, Rewriter(primes=prog.prime_names(),
                                                    max_steps=2000), 1)

    expected = outcomes(vectors)
    assert sum(o.kind == FAILURE for o in expected.values()) == 56
    for seed in (1, 2, 3):
        shuffled = list(vectors)
        random.Random(seed).shuffle(shuffled)
        assert outcomes(shuffled) == expected, f"seed {seed}"


def test_prefixes_are_analyzed_on_demand(corpus_programs):
    # a pool worker started cold receives 2-fault vectors whose 1-fault
    # prefixes it has not analyzed: the tree analyzes each prefix when first
    # needed
    prog = corpus_programs["vigilant-fixed"]
    cfg = FaultConfig(max_faults=2, kinds=(RANDOMIZING,), protect_conditions=True)
    report = analyze(prog, cfg, jobs=2)
    expected = {v: o for v, o in report.results if len(v) == 2}
    actual = _tree_outcomes(prog, expected, Rewriter(primes=prog.prime_names()), 2)
    assert len(actual) == 13695
    assert actual == expected


def test_removed_check_variants(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    variants = removed_check_variants(prog)
    assert len(variants) == 7
    for k, variant in variants:
        assert len(variant.verifications()) == 6


# -- one rewriter per set of primes ----------------------------------------------

# corpus-1f's model, as the benchmark's sessions pass it to the CLI
ONE_FAULT_JSON = ["--faults", "1", "--kinds", "zeroing,randomizing", "--format", "json",
                  "--jobs", "1"]


def _corpus_cli_reports(names, outdir):
    """The JSON report of each corpus file at 1 fault, both kinds, from
    ``cli.main`` in this process, one file after another as the benchmark's
    sessions run them; without ``duration_ms``."""
    reports = {}
    for name in names:
        path = str(CORPUS_FILES[name].relative_to(ROOT))
        assert main(["analyze", path, *ONE_FAULT_JSON, "--out", str(outdir)]) in (0, 2)
        reports[name] = json.loads((outdir / f"{name}.report.json").read_text())
        reports[name].pop("duration_ms")
    return reports


def test_reports_do_not_depend_on_earlier_analyses(cold_rewriter, tmp_path, monkeypatch):
    # each file in its own interpreter, then all four in one process, in
    # corpus order and reversed: the later analyses find the earlier ones'
    # normal forms and check verdicts in the shared memo
    monkeypatch.chdir(ROOT)
    names = list(CORPUS_FILES)
    cold = {}
    for name in names:
        out = tmp_path / f"cold-{name}"
        path = str(CORPUS_FILES[name].relative_to(ROOT))
        proc = subprocess.run([sys.executable, "-m", "modfault.cli", "analyze", path,
                               *ONE_FAULT_JSON, "--out", str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 2), proc.stderr
        cold[name] = json.loads((out / f"{name}.report.json").read_text())
        cold[name].pop("duration_ms")
    assert _corpus_cli_reports(names, tmp_path / "forward") == cold
    analyzer._rewriter.cache_clear()
    assert _corpus_cli_reports(names[::-1], tmp_path / "reversed") == cold


def test_budget_failures_do_not_depend_on_earlier_analyses(cold_rewriter, corpus_programs):
    # a memo hit charges the steps its computation took, so a memo warmed by
    # other programs under the same budget fails the same vectors as a cold one
    cfg = FaultConfig(max_faults=1, kinds=(ZEROING, RANDOMIZING))
    target = corpus_programs["vigilant-fixed"]
    primes = target.prime_names()
    analyzer._rewriter(primes).max_steps = 2000
    cold = analyze(target, cfg)
    assert sum(o.kind == FAILURE for _, o in cold.results) == 56
    analyzer._rewriter.cache_clear()
    analyzer._rewriter(primes).max_steps = 2000
    for name in ("unprotected", "vigilant-original", "vigilant-coron"):
        assert corpus_programs[name].prime_names() == primes
        analyze(corpus_programs[name], cfg)
    assert analyze(target, cfg).results == cold.results


def test_forked_pool_with_a_warm_memo_matches_a_cold_run(cold_rewriter, corpus_programs,
                                                         monkeypatch):
    # forked workers inherit the shared rewriter with the memo the corpus
    # warmed, and still give the report of one cold process
    prog = corpus_programs["vigilant-fixed"]
    cold = report_dict(analyze(prog, THREE_FAULTS_PERMANENT, jobs=1))
    analyzer._rewriter.cache_clear()
    for program in corpus_programs.values():
        analyze(program, FaultConfig(max_faults=1, kinds=(ZEROING, RANDOMIZING)))
    monkeypatch.setattr(analyzer, "multiprocessing", multiprocessing.get_context("fork"))
    monkeypatch.setattr(analyzer, "usable_cpus", lambda: 2)
    warm = report_dict(analyze(prog, THREE_FAULTS_PERMANENT, jobs=2))
    cold.pop("duration_ms"), warm.pop("duration_ms")
    assert warm == cold


def test_a_prime_name_does_not_leak_into_a_noprop_program(cold_rewriter):
    # the same statements, with p prime and without: only the first may
    # reduce a^(p-1) mod p by Fermat's little theorem
    body = "noprop a ; y := a^(p - 1) mod p ; return y ; _ != @"
    prime, noprop = parse("prime p ; " + body), parse("noprop p ; " + body)
    cfg = FaultConfig(max_faults=1)
    cold = report_dict(analyze(noprop, cfg))
    analyzer._rewriter.cache_clear()
    with_primes = report_dict(analyze(prime, cfg))
    warm = report_dict(analyze(noprop, cfg))
    for report in (cold, with_primes, warm):
        report.pop("duration_ms")
    assert with_primes["nominal"] == "1"
    assert warm == cold != with_primes
