import math

import pytest

from modfault import Rewriter, parse_expr
from modfault.oracle import (
    ConcreteEnv, OracleError, check_soundness, crt_signature, eval_expr,
    eval_program, instantiate, prop1_check,
)

SPOT = ConcreteEnv({"M": 2, "e": 7, "p": 7, "q": 11}, p=7, q=11)


def test_spot_key_derivation():
    # p=7, q=11, e=7: dp = e^-1 mod 6 = 1, dq = e^-1 mod 10 = 3, iq = 2
    assert pow(7, -1, 6) == 1
    assert pow(7, -1, 10) == 3
    assert pow(11, -1, 7) == 2


def test_spot_signature(corpus_programs):
    # S = 30 = 2^43 mod 77
    status, value = eval_program(corpus_programs["unprotected"], SPOT)
    assert (status, value) == ("ok", 30)
    assert pow(2, 43, 77) == 30


def test_spot_faulted_signature():
    # faulted Sq = 5 gives S^ = 16 and gcd(77, 30-16) = 7 = p
    s_hat = crt_signature(SPOT, sp=2, sq=5)
    assert s_hat == 16
    assert math.gcd(77, 30 - 16) == 7


def test_mod_conventions():
    env = ConcreteEnv({"n": 9, "x": 5})
    assert eval_expr(parse_expr("0 mod n"), env) == 0
    assert eval_expr(parse_expr("x mod 0"), env) == 5  # identity
    assert eval_expr(parse_expr("x^-1 mod n"), env) == 2  # 5*2 = 10 = 1 mod 9


def test_inverse_must_exist():
    env = ConcreteEnv({"x": 3, "n": 9})
    with pytest.raises(OracleError, match="inverse"):
        eval_expr(parse_expr("x^-1 mod n"), env)


def test_negative_exponent_needs_modulus():
    env = ConcreteEnv({"x": 3})
    with pytest.raises(OracleError, match="negative exponent"):
        eval_expr(parse_expr("x^-1"), env)


def test_instantiate_is_deterministic_and_valid(corpus_programs):
    prog = corpus_programs["vigilant-original"]
    for seed in range(30):
        env = instantiate(prog, seed)
        assert env == instantiate(prog, seed)
        n = env.p * env.q
        assert env.p != env.q
        assert math.gcd(env.values["r"], n) == 1
        assert math.gcd(env.values["e"], (env.p - 1) * (env.q - 1)) == 1
        assert 0 <= env.values["M"] < n


def test_nominal_numeric_runs_pass_all_checks(corpus_programs):
    for name, prog in corpus_programs.items():
        for seed in range(25):
            status, value = eval_program(prog, instantiate(prog, seed))
            assert status == "ok", f"{name} aborted with seed {seed}"


def test_countermeasure_matches_unprotected_result(corpus_programs):
    plain = corpus_programs["unprotected"]
    protected = corpus_programs["vigilant-fixed"]
    for seed in range(25):
        env = instantiate(protected, seed)
        _, expected = eval_program(plain, env)
        _, value = eval_program(protected, env)
        assert value == expected


def test_check_soundness_passes_on_corpus(corpus_programs):
    for name, prog in corpus_programs.items():
        report = check_soundness(prog, trials=100, seed=3)
        assert report.passed, f"{name}: {report.first_counterexample}"


def test_check_soundness_rejects_zero_trials(corpus_programs):
    with pytest.raises(ValueError):
        check_soundness(corpus_programs["unprotected"], trials=0)


def test_mutated_rule_is_caught(corpus_programs, monkeypatch):
    # a deliberately wrong rule (subring collapse generalized to arbitrary
    # moduli) must produce a numeric counterexample
    from modfault import rewriter as rwmod
    monkeypatch.setattr(rwmod, "_is_multiple", lambda a, b: True)
    report = check_soundness(corpus_programs["unprotected"], trials=100, seed=3)
    assert not report.passed
    assert report.first_counterexample is not None


def test_prop1_at_scale(corpus_programs):
    env = instantiate(corpus_programs["unprotected"], seed=5)
    successes, trials = prop1_check(env, trials=100, seed=5)
    assert successes >= trials - 1


def test_gcd_case_analysis():
    # gcd(N, x) for any x is one of 1, p, q, N
    p, q = 7, 11
    n = p * q
    for x in range(-n * 2, n * 2):
        assert math.gcd(n, x) in (1, p, q, n)


def test_symbolic_and_numeric_agree_on_faulted_runs(corpus_programs):
    # faulted normal forms evaluate to the faulted numeric result once the
    # fresh fault variable is bound; both runs read the same fault overlay
    from modfault import FaultConfig, enumerate_sites, enumerate_vectors, inject
    from modfault.executor import inline
    prog = corpus_programs["unprotected"]
    cfg = FaultConfig(max_faults=1)
    rw = Rewriter(primes=prog.prime_names())
    sites = enumerate_sites(prog, cfg)
    checked = 0
    for vector in enumerate_vectors(sites, cfg):
        faults = inject(prog, vector)
        unrolled = inline(faults)
        normal = rw.normalize(unrolled.result)
        for seed in range(3):
            env = instantiate(prog, seed=100 + seed)
            for f in vector:
                if f.fresh_name:
                    env = env.bind(f.fresh_name, 3 + seed)
            try:
                status, value = eval_program(faults, env)
            except OracleError:
                continue  # the fault made an inverse undefined: nothing to compare
            assert status == "ok"  # no checks in the unprotected program
            assert eval_expr(normal, env) == value
            checked += 1
    assert checked > 100  # the skip path must not swallow the suite
