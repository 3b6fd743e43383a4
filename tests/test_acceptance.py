"""Acceptance suite: one test per shipped claim, each recording a PASS/FAIL
line that the terminal summary prints (see conftest)."""

import math
import random
import time

from modfault import (
    ATTACK, ClosedProgram, FaultConfig, Mod, One, Opp, Pow, Prod, RANDOMIZING,
    Rewriter, Sum, Var, Zero, analyze, parse_expr, run_symbolic,
)
from modfault.analyzer import removed_check_variants
from modfault.cli import main as cli_main
from modfault.oracle import (
    ConcreteEnv, check_soundness, crt_signature, eval_program,
)
from modfault.terms import EqMod

from conftest import CORPUS_FILES

RESULTS = []


def record(criterion, ok, detail=""):
    RESULTS.append((criterion, ok, detail))
    assert ok, f"{criterion}: {detail}"


def _attacks_by_site(report):
    return [(v[0].site, v[0].kind, o) for v, o in report.results
            if o.kind == ATTACK]


def _statement_of(program, target):
    return next(i for i, st in enumerate(program.statements)
                if getattr(st, "target", None) == target)


def test_criterion_1_unprotected_broken(corpus_programs):
    t0 = time.monotonic()
    report = analyze(corpus_programs["unprotected"], FaultConfig(max_faults=1))
    elapsed = time.monotonic() - t0
    randomized = {(v[0].site.variable, v[0].kind) for v, o in report.results
                  if o.kind == ATTACK and v[0].site.scope == "permanent"}
    ok = (("Sp", RANDOMIZING) in randomized and ("Sq", RANDOMIZING) in randomized
          and elapsed < 5.0)
    exit_code = cli_main(["analyze", str(CORPUS_FILES["unprotected"]),
                          "--faults", "1", "--jobs", "1"])
    ok = ok and exit_code == 2
    record("criterion 1 (unprotected broken by Sp/Sq faults, < 5 s)", ok,
           f"attacks={report.summary['attacks']} elapsed={elapsed:.2f}s exit={exit_code}")


def test_criterion_2_gcd_attack_numerically(corpus_programs, capsys):
    exit_code = cli_main(["oracle", str(CORPUS_FILES["unprotected"]),
                          "--prop1", "--trials", "100"])
    spot = ConcreteEnv({"M": 2, "e": 7, "p": 7, "q": 11}, p=7, q=11)
    status, s = eval_program(corpus_programs["unprotected"], spot)
    s_hat = crt_signature(spot, sp=pow(2, 1, 7), sq=5)
    ok = (exit_code == 0 and status == "ok" and s == 30 and s_hat == 16
          and math.gcd(77, s - s_hat) == 7)
    record("criterion 2 (gcd factor recovery, 100 trials + spot values)", ok,
           f"S={s} S^={s_hat} gcd={math.gcd(77, s - s_hat)} exit={exit_code}")


def test_criterion_3_single_point_of_failure(corpus_programs):
    prog = corpus_programs["vigilant-original"]
    t0 = time.monotonic()
    report = analyze(prog, FaultConfig(max_faults=1, transient_enabled=True))
    elapsed = time.monotonic() - t0
    n_stmt = _statement_of(prog, "N")
    attacks = _attacks_by_site(report)
    p_read = any(s.statement == n_stmt and s.path == (0, 0) and k == RANDOMIZING
                 for s, k, _ in attacks)
    q_read = any(s.statement == n_stmt and s.path == (0, 1) and k == RANDOMIZING
                 for s, k, _ in attacks)
    all_at_n = all(s.statement == n_stmt for s, _, _ in attacks)
    ok = p_read and q_read and all_at_n and elapsed < 600
    record("criterion 3 (original: single point of failure at N := p * q, < 10 min)",
           ok, f"attacks={len(attacks)} all_at_N={all_at_n} elapsed={elapsed:.1f}s")


def test_criterion_4_repaired_version_safe(corpus_programs):
    report = analyze(corpus_programs["vigilant-coron"], FaultConfig(max_faults=1))
    s = report.summary
    exit_code = cli_main(["analyze", str(CORPUS_FILES["vigilant-coron"]),
                          "--faults", "1", "--jobs", "1"])
    ok = s["attacks"] == 0 and s["failures"] == 0 and exit_code == 0
    record("criterion 4 (repaired version: 0 attacks, 0 failures)", ok, f"{s}")


def test_criterion_5_fixed_simplified_safe(corpus_programs):
    t0 = time.monotonic()
    report = analyze(corpus_programs["vigilant-fixed"], FaultConfig(max_faults=1))
    elapsed = time.monotonic() - t0
    s = report.summary
    exit_code = cli_main(["analyze", str(CORPUS_FILES["vigilant-fixed"]),
                          "--faults", "1", "--jobs", "1"])
    ok = (s["attacks"] == 0 and s["failures"] == 0 and exit_code == 0
          and elapsed < 600)
    record("criterion 5 (fixed simplified version safe, < 10 min)", ok,
           f"{s} elapsed={elapsed:.1f}s exit={exit_code}")


def test_criterion_6_minimality(corpus_programs):
    prog = corpus_programs["vigilant-fixed"]
    t0 = time.monotonic()
    cfg = FaultConfig(max_faults=1)
    missing = []
    for k, variant in removed_check_variants(prog):
        report = analyze(variant, cfg)
        if report.summary["attacks"] < 1:
            missing.append(k)
    elapsed = time.monotonic() - t0
    ok = not missing and elapsed < 5400
    record("criterion 6 (each of the 7 checks is necessary, < 1.5 h)", ok,
           f"variants_without_attack={missing} elapsed={elapsed:.1f}s")


def test_criterion_7_two_fault_attack(criterion_7_report):
    report = criterion_7_report
    elapsed = report.duration_ms / 1000.0
    wanted = {("R3", "S'p"), ("R4", "S'q")}
    seen = set()
    for v, o in report.results:
        if o.kind != ATTACK or len(v) != 2:
            continue
        names = tuple(sorted(f.site.variable or "" for f in v
                             if f.site.scope == "permanent"))
        if len(names) == 2:
            seen.add((names[0], names[1]))
    found = {(a, b) for a, b in wanted if (a, b) in seen or (b, a) in seen}
    ok = found == wanted and elapsed < 4 * 3600
    record("criterion 7 (two zeroing faults: R3+S'p and R4+S'q, <= 4 h)", ok,
           f"found={sorted(seen)} elapsed={elapsed:.1f}s")


def test_criterion_8_rewriter_identities():
    rw = Rewriter(primes={"p", "q"})
    a, n, r, d, x = (Var(s) for s in "aNrdx")
    ok1 = rw.normalize(Mod(Mod(a, n), n)) == Mod(a, n)
    binomial = rw.normalize(Mod(Pow(Sum((One(), r)), d), Prod((r, r))))
    ok2 = binomial == Mod(Sum((One(), Prod((d, r)))), Prod((r, r)))
    lemma_lhs = rw.decide(EqMod(parse_expr("a * x"), parse_expr("b * x"),
                                parse_expr("N * x")))
    lemma_rhs = rw.decide(EqMod(Var("a"), Var("b"), Var("N")))
    ok3 = lemma_lhs == lemma_rhs
    ok = ok1 and ok2 and ok3
    record("criterion 8 (rewriter unit identities, exact structural equality)",
           ok, f"identity={ok1} binomial={ok2} lemma={ok3}")


def test_criterion_9_property_suites(corpus_programs):
    rng = random.Random(20240101)
    names = ["a", "b", "p", "q", "r", "x"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Zero(), One()] + [Var(n) for n in names])
        kind = rng.randrange(6)
        if kind == 0:
            return Opp(random_expr(depth - 1))
        if kind == 1:
            return Sum(tuple(random_expr(depth - 1) for _ in range(rng.randrange(2, 4))))
        if kind == 2:
            return Prod(tuple(random_expr(depth - 1) for _ in range(2)))
        if kind == 3:
            return Pow(random_expr(depth - 1), rng.choice([Zero(), One(), Var("x")]))
        return Mod(random_expr(depth - 1), random_expr(depth - 1))

    rw = Rewriter(primes={"p", "q"})
    idempotent = True
    for _ in range(1000):
        e = random_expr(4)
        once = rw.normalize(e)
        if rw.normalize(once) != once:
            idempotent = False
            break

    oracle_ok = all(check_soundness(prog, trials=100, seed=11).passed
                    for prog in corpus_programs.values())

    nominal_ok = True
    for prog in corpus_programs.values():
        run = run_symbolic(ClosedProgram(prog), Rewriter(primes=prog.prime_names()))
        nominal_ok = nominal_ok and run.completed

    ok = idempotent and oracle_ok and nominal_ok
    record("criterion 9 (idempotence x1000, oracle x100 x4 files, nominal runs)",
           ok, f"idempotent={idempotent} oracle={oracle_ok} nominal={nominal_ok}")
