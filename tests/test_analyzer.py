import contextlib
import gc
import json
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
from concurrent.futures import process
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from modfault import analyzer
from modfault import (
    ATTACK, DETECTED, FAILURE, HARMLESS, AnalysisError, ClosedProgram, FaultConfig,
    Rewriter, analyze, classify, count_vectors, enumerate_sites, enumerate_vectors,
    nominal_run, parse,
)
from modfault.analyzer import _PrefixTree, removed_check_variants
from modfault.cli import build_parser, main
from modfault.executor import SymbolicRun
from modfault.faults import Fault, FaultSite, RANDOMIZING, ZEROING
from modfault.reporting import report_dict

from conftest import CORPUS_FILES, CRITERION_7, ROOT, THREE_FAULTS_PERMANENT, free_vars


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


# A program whose honest run aborts.
NOMINAL_ABORTS = "noprop x ; if x != 0 abort with x ; return x ; _ != @"


def test_nominal_must_complete():
    prog = parse(NOMINAL_ABORTS)
    with pytest.raises(Exception, match="nominal"):
        analyze(prog, FaultConfig(max_faults=1))


def test_budget_failures_are_reported_not_raised(corpus_programs, monkeypatch):
    # budget exhaustion on a faulted run lands in the failure bucket instead
    # of aborting the whole analysis or counting as harmless
    from modfault import rewriter as rwmod
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


def _sequential_and_parallel(prog, monkeypatch):
    """Each of two multi-fault models analyzed at one job and in a real pool
    of two processes, started whatever this machine's CPU count; reports
    without ``duration_ms``."""
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
    for seq, par in _sequential_and_parallel(prog, monkeypatch):
        assert seq == par


def _in_process_pool(monkeypatch, cores):
    """Patch in a pool that records its size and maps in this process, on a
    machine with ``cores`` cores: no process is started, however many jobs
    are asked for.  Each result is copied through pickle, as a real pool
    sends it back.  Returns the list of pool sizes."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def map(self, fn, items):
            return [pickle.loads(pickle.dumps(fn(item))) for item in items]

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(process, "ProcessPoolExecutor", InProcessPool)
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


def test_a_platform_without_fork_starts_no_pool(corpus_programs, monkeypatch):
    # the workers must fork to inherit the tree; where the platform cannot
    # fork, every vector runs in this process, to the same report
    sizes = _in_process_pool(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _same_reports(corpus_programs["unprotected"],
                         FaultConfig(max_faults=2, kinds=(ZEROING,)), 1, 2)
    assert sizes == []


# -- a real pool in its own interpreter ----------------------------------------

UNPROTECTED_2F = ["analyze", str(CORPUS_FILES["unprotected"]), "--faults", "2",
                  "--kinds", "zeroing", "--jobs", "2"]


def _run_script(script, *args):
    """Exit code, stdout and stderr of ``script`` read by ``python -`` with
    ``args``.  The interpreter leads its own process group: if it has not
    exited after 60 s, the group, pool workers included, is killed and the
    test fails, rather than the suite hanging."""
    proc = subprocess.Popen([sys.executable, "-", *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(script, timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no exit after 60 s: {script}")
    return proc.returncode, out, err


# The last block of a 2-fault analysis at two jobs fails in its worker: the
# worker's module global ``_worker`` is replaced before the pool forks.
FAILING_BLOCK = """
import os, sys
from modfault import FaultConfig, analyzer, cli, parse

def fails_on_the_last_block(block):
    if block[1] == len(analyzer._WORKER_STATE["vectors"]):
        {failure}
    return worker(block)

worker, analyzer._worker = analyzer._worker, fails_on_the_last_block
analyzer.usable_cpus = lambda: 2
path = sys.argv[2]
try:
    analyzer.analyze(parse(open(path).read()), FaultConfig(max_faults=2, kinds=("zeroing",)),
                     jobs=2)
except Exception as err:
    print(type(err).__name__)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("failure, error, message", [
    ("os._exit(1)", "AnalysisError", "a pool worker died before returning its block"),
    ("raise RecursionError", "RecursionError", "terms nest too deeply to analyze"),
], ids=["worker-dies", "worker-raises"])
def test_a_failing_worker_fails_the_analysis(failure, error, message):
    # a worker that dies (as by an out-of-memory kill) or raises fails the
    # analysis with one error line and exit 1, instead of hanging it
    code, out, err = _run_script(FAILING_BLOCK.replace("{failure}", failure),
                                 *UNPROTECTED_2F)
    assert out == f"{error}\n"
    assert (code, err) == (1, f"error: {UNPROTECTED_2F[1]}: {message}\n")


def test_a_script_read_from_stdin_under_spawn_gets_the_one_job_report():
    # a worker spawned from ``python -`` cannot import its ``__main__``; the
    # pool forks whatever the default start method
    code, out, err = _run_script("""
import multiprocessing, sys
from modfault import FaultConfig, analyze, analyzer, parse, report_dict
multiprocessing.set_start_method("spawn")
analyzer.usable_cpus = lambda: 2
program = parse(open(sys.argv[1]).read())
cfg = FaultConfig(max_faults=2, kinds=("zeroing",))
reports = [report_dict(analyze(program, cfg, jobs=jobs)) for jobs in (2, 1)]
for report in reports:
    report.pop("duration_ms")
print(reports[0] == reports[1])
""", UNPROTECTED_2F[1])
    assert (code, out, err) == (0, "True\n", "")


def test_the_pool_never_forks_a_process_that_has_threads():
    # from Python 3.12, os.fork warns when the process has threads: the
    # executor must fork its workers before it starts its manager thread, and
    # join that thread before the next analysis forks again
    code, out, err = _run_script("""
import sys, warnings
from modfault import FaultConfig, analyze, analyzer, parse
analyzer.usable_cpus = lambda: 2
program = parse(open(sys.argv[1]).read())
criterion_7 = FaultConfig(max_faults=2, kinds=("zeroing",), protect_conditions=True)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for _ in range(2):
        analyze(program, criterion_7, jobs=2)
print([str(warning.message) for warning in caught])
""", str(CORPUS_FILES["vigilant-fixed"]))
    assert (code, out, err) == (0, "[]\n", "")


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


def _pool_blocks(prog, monkeypatch):
    """The blocks a pool of two gets for the 3-fault permanent-only model:
    for each, the lengths of its vectors and how many records the worker
    added to the tree.  The pool runs in this process."""
    sizes = _in_process_pool(monkeypatch, 2)
    worker, blocks = analyzer._worker, []

    def recording_worker(block):
        tree, vectors = analyzer._WORKER_STATE["tree"], analyzer._WORKER_STATE["vectors"]
        records = len(tree._records)
        result = worker(block)
        blocks.append(({len(v) for v in vectors[slice(*block)]},
                       len(tree._records) - records))
        return result

    monkeypatch.setattr(analyzer, "_worker", recording_worker)
    assert _same_reports(prog, THREE_FAULTS_PERMANENT, 1, 2)
    assert sizes == [2] and blocks
    return blocks


def test_the_pool_gets_only_the_longest_vectors(corpus_programs, monkeypatch):
    # every shorter vector, and so every prefix, runs in this process first
    for lengths, _ in _pool_blocks(corpus_programs["vigilant-fixed"], monkeypatch):
        assert lengths == {3}


def test_a_worker_records_no_prefix(corpus_programs, monkeypatch):
    for _, added in _pool_blocks(corpus_programs["vigilant-fixed"], monkeypatch):
        assert added == 0


@pytest.mark.parametrize("faults", [1, 2])
@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(corpus_programs, monkeypatch, jobs, faults):
    # before any site is enumerated, as FaultConfig rejects max_faults below 1
    monkeypatch.setattr(analyzer, "enumerate_sites", None)
    with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
        analyze(corpus_programs["unprotected"], FaultConfig(max_faults=faults), jobs=jobs)


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


# -- the paused collector ---------------------------------------------------------

@pytest.fixture
def no_collector():
    """The cyclic collector off, and garbage from before the test freed."""
    collecting = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if collecting:
        gc.enable()


@pytest.mark.parametrize("name, cfg, jobs, max_steps, failures", [
    ("vigilant-fixed", CRITERION_7, 1, None, 0),
    ("vigilant-fixed", CRITERION_7, 2, None, 0),
    ("unprotected", FaultConfig(max_faults=1), 1, None, 0),
    ("vigilant-fixed", CRITERION_7, 1, 2000, 204),
], ids=["criterion-7-j1", "criterion-7-j2", "unprotected-1f", "criterion-7-budget"])
def test_an_analysis_leaves_no_cyclic_garbage(cold_rewriter, corpus_programs, monkeypatch,
                                              no_collector, name, cfg, jobs, max_steps,
                                              failures):
    # analyze pauses the collector, which frees nothing only while an
    # analysis, its pool and its budget failures build no reference cycle
    monkeypatch.setattr(analyzer, "usable_cpus", lambda: 2)
    program = corpus_programs[name]
    if max_steps:
        analyzer._rewriter(program.prime_names()).max_steps = max_steps
    assert analyze(program, cfg, jobs=jobs).summary["failures"] == failures
    assert gc.collect() == 0


@pytest.mark.parametrize("source, cfg, jobs, error", [
    ("unprotected", FaultConfig(max_faults=2, kinds=(ZEROING,)), 2, None),
    ("unprotected", FaultConfig(max_faults=1), 1, None),
    ("unprotected", FaultConfig(max_faults=1), 0, ValueError),
    (NOMINAL_ABORTS, FaultConfig(max_faults=1), 1, AnalysisError),
], ids=["pool", "one-process", "jobs-0", "nominal-aborts"])
@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_analyze_restores_the_collector_state(corpus_programs, monkeypatch, source, cfg,
                                              jobs, error, collecting):
    monkeypatch.setattr(analyzer, "usable_cpus", lambda: 2)
    program = corpus_programs.get(source) or parse(source)
    before = gc.isenabled()
    if collecting:
        gc.enable()
    else:
        gc.disable()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            analyze(program, cfg, jobs=jobs)
        assert gc.isenabled() == collecting
        assert gc.get_freeze_count() == 0
    finally:
        if before:
            gc.enable()
        else:
            gc.disable()
