import hashlib
import json
import math

import pytest

from modfault import Rewriter, parse, parse_expr
from modfault import oracle
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


# sha256 over (values, p, q) of instantiate(program, seed) for seeds 0..199,
# one JSON line per seed; the three vigilant files declare the same inputs.
PINNED_INSTANTIATIONS = {
    "unprotected": "05becfbe30f71d6cf9b8f594383f73c9f258d2612e002835008165933e675d22",
    "vigilant-original": "1c33c7494fc6c86a2326b83cd2e1b37762c9bbfe2afb929d39dc792f51ceff1e",
    "vigilant-coron": "1c33c7494fc6c86a2326b83cd2e1b37762c9bbfe2afb929d39dc792f51ceff1e",
    "vigilant-fixed": "1c33c7494fc6c86a2326b83cd2e1b37762c9bbfe2afb929d39dc792f51ceff1e",
}


def test_corpus_instantiations_are_pinned(corpus_programs):
    for name, prog in corpus_programs.items():
        digest = hashlib.sha256()
        for seed in range(200):
            env = instantiate(prog, seed)
            digest.update(json.dumps([env.values, env.p, env.q], sort_keys=True).encode()
                          + b"\n")
        assert digest.hexdigest() == PINNED_INSTANTIATIONS[name], name


def test_gcd_attack_draws_are_pinned(corpus_programs, monkeypatch):
    # every CRT signature prop1_check builds, in order: a swapped half keeps
    # the success counts but not these draws
    digest = hashlib.sha256()
    original = oracle.crt_signature

    def recorded(env, sp, sq):
        digest.update(f"{sp} {sq}\n".encode())
        return original(env, sp, sq)

    monkeypatch.setattr(oracle, "crt_signature", recorded)
    prog = corpus_programs["unprotected"]
    for seed in range(50):
        prop1_check(instantiate(prog, seed), 20, seed)
    assert digest.hexdigest() == (
        "af10c5ff07d8ad3680d28327a9afa71d8bcdbdf95233980f9ef98048d961ccc5")


def test_crt_primes_are_distinct_by_construction():
    prog = parse("prime q, s ;\nnoprop a ;\nx := a mod (q * s) ;\nreturn x ;\n_ != @\n")
    for seed in range(30):
        env = instantiate(prog, seed)
        assert (env.p, env.q) == (env.values["s"], env.values["q"])
        assert env.p != env.q


def test_negative_exponent_under_a_wide_modulus_is_an_oracle_error():
    env = ConcreteEnv({"a": 4, "b": 3})
    with pytest.raises(OracleError, match="33-bit modulus"):
        eval_expr(parse_expr("b^(a^-1) mod (a^(a*a) + 1)"), env)


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


@pytest.mark.parametrize("env, message", [
    (ConcreteEnv({"M": 2, "e": 7, "p": 7}, p=7), "two prime inputs"),
    (ConcreteEnv({"M": 2, "e": 5, "p": 11, "q": 7}, p=11, q=7), "e invertible"),
], ids=["one-prime", "e-not-invertible"])
def test_prop1_prerequisites(env, message):
    with pytest.raises(OracleError, match=message):
        prop1_check(env, trials=5)


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


# -- "detected" verdicts the numbers contradict --------------------------------

def _never_aborts(program, vector, seeds=range(40)):
    """Whether the faulted run evaluates at some seed and aborts at none;
    fault variables take 3 + seed."""
    from modfault import inject
    faults = inject(program, vector)
    ran = False
    for seed in seeds:
        env = instantiate(program, seed)
        for f in vector:
            if f.fresh_name:
                env = env.bind(f.fresh_name, 3 + seed)
        try:
            status, _ = eval_program(faults, env)
        except OracleError:
            continue  # the fault made an inverse undefined at this seed
        if status == "error":
            return False
        ran = True
    return ran


# Transient zeroings of vigilant-fixed at 1 fault that the analysis reports
# detected (by the check given last) but that abort at none of 40 seeds.
# Nine zero a modulus: the rewriter keeps x mod 0 opaque, yet still calls a
# fault-free residual over it nonzero.  The two at path (2, 0) zero the p of
# a check's "p - 1" modulus, and the rewriter does not fold a reduction
# modulo -1 to zero.  None meets the attack condition, so no attack is
# hidden; the fix must empty this list and update the corpus counts.
UNSOUND_DETECTIONS = [
    (6, (0, 1), 0), (9, (0, 1), 0), (10, (0, 1), 0), (13, (0, 1), 2),
    (14, (2, 0), 1), (18, (0, 1), 3), (21, (0, 1), 3), (22, (0, 1), 3),
    (25, (0, 1), 5), (26, (2, 0), 4), (29, (0, 1, 1, 1), 6),
]


def test_unsound_detections_are_pinned(corpus_programs):
    from modfault import DETECTED, FaultConfig, ZEROING, analyze
    program = corpus_programs["vigilant-fixed"]
    report = analyze(program, FaultConfig(max_faults=1), jobs=1)
    unsound = []
    for vector, outcome in report.results:
        if outcome.kind == DETECTED and _never_aborts(program, vector):
            (fault,) = vector
            assert (fault.site.scope, fault.kind) == ("transient", ZEROING)
            unsound.append((fault.site.statement, fault.site.path, outcome.detected_by))
    assert unsound == UNSOUND_DETECTIONS


CRT_WITH_ONE_CHECK = """
noprop M, e ; prime p, q ;
Sp := M^e mod p ; Sq := M^e mod q ;
S := Sq + q * ((q^-1 mod p) * (Sp - Sq) mod p) ;
if S !=[p] Sp \\/ S !=[q] Sq abort with 0 ;
return S ;
_ != @ /\\ ( _ =[p] @ \\/ _ =[q] @ )
"""


@pytest.mark.xfail(strict=True, reason="a zeroed modulus counts as detected")
def test_a_zeroed_modulus_hides_an_attack():
    # Zeroing the outer p of the recombination is reported detected by the
    # check, but numerically the check never fires and the result meets the
    # attack condition at 32 of 40 seeds.
    from modfault import ATTACK, FaultConfig, ZEROING, analyze
    program = parse(CRT_WITH_ONE_CHECK)
    report = analyze(program, FaultConfig(max_faults=1, kinds=(ZEROING,)), jobs=1)
    (vector, outcome), = [(v, o) for v, o in report.results
                          if (v[0].site.statement, v[0].site.path) == (4, (0, 1, 1, 1))]
    assert _never_aborts(program, vector)
    assert outcome.kind == ATTACK
