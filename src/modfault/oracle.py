"""Concrete small-prime ground truth for the symbolic engine.

Programs are instantiated over toy primes and evaluated with exact integer
arithmetic; all algebraic identities used by the rewriter are size
independent, so desk-scale agreement checks are meaningful.  ``x mod 0`` is
the identity, matching the rewriter's degenerate-modulus convention, and
``x^-1 mod m`` is the modular inverse.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .executor import inline
from .faults import Injection, RANDOMIZING, apply_faults, fault_value, inject
from .rewriter import Rewriter
from .terms import (
    And, Assign, Cond, Declare, Eq, EqMod, Expr, Mod, Neq, NeqMod, One, Opp,
    Or, Pow, Prod, Program, Return, Sum, Var, Verify, Zero,
)

PRIME_POOL = (5, 7, 11, 13, 17, 19, 23, 29)

# The most bits a power outside any modulus may take: toy values stay far
# below it, and a tower such as a^(a^a) would not finish.
_MAX_POW_BITS = 1 << 16

# The most bits a modulus may take when a negative exponent under it needs
# its Carmichael function: trial division then stays under 2^16 steps.  The
# corpus never factors a modulus above 29.
_MAX_FACTOR_BITS = 32


class OracleError(Exception):
    pass


class _NegativeExponent(OracleError):
    """A negative exponent met outside any modular context."""


@dataclass
class ConcreteEnv:
    """Integer assignment for every free variable of a program."""
    values: Dict[str, int]
    p: int = 0
    q: int = 0

    def bind(self, name: str, value: int) -> "ConcreteEnv":
        new = dict(self.values)
        new[name] = value
        return ConcreteEnv(new, self.p, self.q)


def instantiate(program: Program, seed: int) -> ConcreteEnv:
    """Deterministic instantiation, each input drawn once.

    Prime inputs are distinct toy primes.  The CRT primes p and q are the
    inputs named ``p`` and ``q``, and otherwise the first other primes
    declared, so the two differ; one missing is 0.  With both, ``noprop``
    inputs named M, e and r get M in [0, p*q), e invertible modulo
    (p-1)(q-1) and r coprime to p*q."""
    rng = random.Random(seed)
    declared = [st for st in program.statements if isinstance(st, Declare)]
    primes = [name for st in declared if st.prime for name in st.names]
    if len(primes) > len(PRIME_POOL):
        raise OracleError(f"{len(primes)} prime inputs; the oracle draws from "
                          f"{len(PRIME_POOL)} toy primes")
    values: Dict[str, int] = dict(zip(primes, rng.sample(PRIME_POOL, k=len(primes))))
    others = iter(name for name in primes if name not in ("p", "q"))
    p = values["p"] if "p" in values else values.get(next(others, None), 0)
    q = values["q"] if "q" in values else values.get(next(others, None), 0)
    n = p * q
    phi = (p - 1) * (q - 1) if n else 0
    for name in (name for st in declared if not st.prime for name in st.names):
        if name == "M" and n:
            values[name] = rng.randrange(0, n)
        elif name == "e" and phi:
            values[name] = _coprime(rng, 3, 50, phi)
        elif name == "r" and n:
            values[name] = _coprime(rng, 2, 40, n)
        else:
            values[name] = rng.randrange(1, 30)
    return ConcreteEnv(values, p, q)


def _coprime(rng: random.Random, lo: int, hi: int, m: int) -> int:
    """The first of up to 200 draws from [lo, hi) that is coprime to ``m``."""
    for _ in range(200):
        x = rng.randrange(lo, hi)
        if math.gcd(x, m) == 1:
            return x
    raise OracleError(f"200 draws from [{lo}, {hi}) found none coprime to {m}")


def _carmichael(m: int) -> int:
    """lambda(m) by toy-scale factorization; exponents live modulo this."""
    m = abs(m)
    if m.bit_length() > _MAX_FACTOR_BITS:
        raise OracleError(f"cannot factor a {m.bit_length()}-bit modulus for a negative "
                          f"exponent; the oracle factors up to {_MAX_FACTOR_BITS} bits")
    if m <= 2:
        return 1
    lam = 1
    x = m
    d = 2
    while d * d <= x:
        if x % d == 0:
            k = 0
            while x % d == 0:
                x //= d
                k += 1
            if d == 2:
                block = 1 if k == 1 else (2 if k == 2 else 2 ** (k - 2))
            else:
                block = d ** (k - 1) * (d - 1)
            lam = lam * block // math.gcd(lam, block)
        d += 1
    if x > 1:
        block = x - 1
        lam = lam * block // math.gcd(lam, block)
    return lam


def eval_expr(e: Expr, env: ConcreteEnv, modulus: Optional[int] = None) -> int:
    """Big-integer semantics; ``modulus`` is the enclosing reduction ring,
    needed to interpret negative powers (modular inverses)."""
    if isinstance(e, Zero):
        return 0
    if isinstance(e, One):
        return 1
    if isinstance(e, Var):
        try:
            return env.values[e.name]
        except KeyError:
            raise OracleError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Opp):
        return -eval_expr(e.arg, env, modulus)
    if isinstance(e, Sum):
        return sum(eval_expr(c, env, modulus) for c in e.operands)
    if isinstance(e, Prod):
        out = 1
        for c in e.operands:
            out *= eval_expr(c, env, modulus)
        return out
    if isinstance(e, Pow):
        return _eval_pow(e, env, modulus)
    if isinstance(e, Mod):
        m = abs(eval_expr(e.modulus, env, None))  # least non-negative residue
        body = eval_expr(e.body, env, m if m != 0 else None)
        if m == 0:
            return body  # reduction modulo zero is the identity
        return body % m
    raise TypeError(f"not an expression: {e!r}")


def _eval_pow(e: Pow, env: ConcreteEnv, modulus: Optional[int]) -> int:
    base = eval_expr(e.base, env, modulus)
    try:
        exp = eval_expr(e.exponent, env, None)
    except _NegativeExponent:
        if modulus is None:
            raise
        # the rewriter unwraps Fermat-reduced exponents; interpret them
        # modulo lambda of the enclosing ring
        lam = _carmichael(modulus)
        exp = eval_expr(e.exponent, env, lam) % lam
    if exp < 0:
        if modulus is None:
            raise _NegativeExponent(f"negative exponent outside a mod context: {exp}")
        try:
            inv = pow(base, -1, modulus)
        except ValueError:
            raise OracleError(
                f"nonexistent modular inverse of {base} mod {modulus}") from None
        return pow(inv, -exp, modulus)
    if modulus is not None:
        return pow(base, exp, modulus)
    if abs(base) > 1 and exp * abs(base).bit_length() > _MAX_POW_BITS:
        raise OracleError(f"a power of {base} to a {exp.bit_length()}-bit exponent "
                          f"exceeds {_MAX_POW_BITS} bits outside any modulus")
    return base ** exp


def eval_cond(c: Cond, env: ConcreteEnv) -> bool:
    if isinstance(c, And):
        return eval_cond(c.lhs, env) and eval_cond(c.rhs, env)
    if isinstance(c, Or):
        return eval_cond(c.lhs, env) or eval_cond(c.rhs, env)
    if isinstance(c, Eq):
        return eval_expr(c.lhs, env) == eval_expr(c.rhs, env)
    if isinstance(c, Neq):
        return eval_expr(c.lhs, env) != eval_expr(c.rhs, env)
    if isinstance(c, (EqMod, NeqMod)):
        m = abs(eval_expr(c.modulus, env))
        a = eval_expr(c.lhs, env, m if m else None)
        b = eval_expr(c.rhs, env, m if m else None)
        equal = (a == b) if m == 0 else ((a - b) % m == 0)
        return equal if isinstance(c, EqMod) else not equal
    raise TypeError(f"not a condition: {c!r}")


def eval_program(target: Union[Program, Injection], env: ConcreteEnv):
    """Sequential interpretation of a program, or of the run a fault overlay
    gives; returns ("ok", value) or ("error", check #).  Fresh fault
    variables must be bound in ``env``."""
    faults = target if isinstance(target, Injection) else inject(target, ())
    env = ConcreteEnv(dict(env.values), env.p, env.q)
    check_index = 0
    for index, st in enumerate(faults.program.statements):
        here = faults.data.get(index, ())
        if isinstance(st, Declare):
            for fault in here:
                env.values[fault.site.variable] = eval_expr(fault_value(fault), env)
        elif isinstance(st, Assign):
            env.values[st.target] = eval_expr(apply_faults(st.rhs, here), env)
        elif isinstance(st, Verify):
            kind = faults.checks.get(check_index)
            if kind == RANDOMIZING or (
                    kind is None and eval_cond(apply_faults(st.condition, here), env)):
                return ("error", check_index)
            check_index += 1
        elif isinstance(st, Return):
            return ("ok", eval_expr(apply_faults(st.value, here), env))
    raise OracleError("program has no return statement")


@dataclass
class SoundnessReport:
    trials: int
    failures: int
    first_counterexample: Optional[Dict[str, int]] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_soundness(program: Program, trials: int, seed: int = 0) -> SoundnessReport:
    """Sequential run == inlined run == normalized inlined run, numerically.

    The rewriter is a fresh one, not the one analyses share: the oracle is
    the independent cross-check of the normal forms, so it must not read
    them from a memo that an analysis filled."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    unrolled = inline(program)
    rewriter = Rewriter(primes=program.prime_names())
    normal = rewriter.normalize(unrolled.result)
    failures = 0
    first = None
    for i in range(trials):
        env = instantiate(program, seed + i)
        direct = eval_program(program, env)
        if direct[0] != "ok":
            failures += 1
            first = first or dict(env.values)
            continue
        inlined_value = eval_expr(unrolled.result, env)
        normal_value = eval_expr(normal, env)
        if not (direct[1] == inlined_value == normal_value):
            failures += 1
            if first is None:
                first = dict(env.values)
    return SoundnessReport(trials, failures, first)


def crt_signature(env: ConcreteEnv, sp: int, sq: int) -> int:
    p, q = env.p, env.q
    iq = pow(q, -1, p)
    return sq + q * ((iq * (sp - sq)) % p)


def prop1_check(env: ConcreteEnv, trials: int, seed: int = 0) -> Tuple[int, int]:
    """The gcd attack at toy scale: faulting one half of an unprotected CRT
    signature exposes a prime factor.  Returns (successes, trials)."""
    if not env.p or not env.q:
        raise OracleError("the gcd attack check needs two prime inputs")
    missing = [name for name in ("M", "e") if name not in env.values]
    if missing:
        raise OracleError(f"the gcd attack check needs the inputs M and e; "
                          f"missing: {', '.join(missing)}")
    rng = random.Random(seed)
    primes = (env.p, env.q)
    m_msg, e = env.values["M"], env.values["e"]
    try:
        halves = [pow(m_msg, pow(e, -1, prime - 1), prime) for prime in primes]
    except ValueError:
        raise OracleError(f"the gcd attack check needs e invertible modulo p-1 and "
                          f"q-1; e = {e}") from None
    n, s = env.p * env.q, crt_signature(env, *halves)
    successes = 0
    for _ in range(trials):
        half = rng.randrange(2)  # 1 faults the q half, which exposes p
        faulted = list(halves)
        while faulted[half] == halves[half]:
            faulted[half] = rng.randrange(0, primes[half])
        if math.gcd(n, s - crt_signature(env, *faulted)) == primes[1 - half]:
            successes += 1
    return successes, trials
