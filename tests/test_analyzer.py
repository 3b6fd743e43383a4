import pytest

from modfault import (
    ATTACK, DETECTED, FAILURE, HARMLESS, ClosedProgram, FaultConfig, Rewriter,
    analyze, classify, count_vectors, enumerate_sites, nominal_run, parse,
)
from modfault.analyzer import removed_check_variants
from modfault.executor import SymbolicRun
from modfault.faults import Fault, FaultSite, RANDOMIZING, ZEROING
from modfault.reporting import report_dict


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


def test_coherent_blinding_fault_is_harmless(corpus_programs):
    # randomizing r permanently rewrites every intermediate coherently: the
    # final reduction modulo p*q provably equals the nominal signature
    prog = corpus_programs["vigilant-fixed"]
    r_decl = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "names", None) and "r" in st.names)
    vec = (Fault(FaultSite("permanent", r_decl, variable="r"), RANDOMIZING, "f1"),)
    rw = Rewriter(primes=prog.prime_names())
    nominal = nominal_run(ClosedProgram(prog), rw)
    from modfault.analyzer import _analyze_vector
    outcome = _analyze_vector(ClosedProgram(prog), vec, nominal, rw)
    assert outcome.kind == HARMLESS


def test_degenerate_modulus_warning(corpus_programs):
    # zeroing N makes the final reduction inert and flags the vector
    prog = corpus_programs["vigilant-original"]
    n_stmt = next(i for i, st in enumerate(prog.statements)
                  if getattr(st, "target", None) == "N")
    vec = (Fault(FaultSite("permanent", n_stmt, variable="N"), ZEROING),)
    rw = Rewriter(primes=prog.prime_names())
    nominal = nominal_run(ClosedProgram(prog), rw)
    from modfault.analyzer import _analyze_vector
    outcome = _analyze_vector(ClosedProgram(prog), vec, nominal, rw)
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


def test_parallel_matches_sequential(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    cfg = FaultConfig(max_faults=1, kinds=(ZEROING,))
    seq = report_dict(analyze(prog, cfg, jobs=1))
    par = report_dict(analyze(prog, cfg, jobs=3))
    seq.pop("duration_ms"), par.pop("duration_ms")
    assert seq == par


def test_removed_check_variants(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    variants = removed_check_variants(prog)
    assert len(variants) == 7
    for k, variant in variants:
        assert len(variant.verifications()) == 6
