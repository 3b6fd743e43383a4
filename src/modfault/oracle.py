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
    And, Assign, Cond, DeclareNoProp, DeclarePrime, Eq, EqMod, Expr, Mod,
    Neq, NeqMod, One, Opp, Or, Pow, Prod, Program, Return, Sum, Var, Verify,
    Zero,
)

PRIME_POOL = (5, 7, 11, 13, 17, 19, 23, 29)


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


def _free_names(program: Program) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    primes, noprops = [], []
    for st in program.statements:
        if isinstance(st, DeclarePrime):
            primes.extend(st.names)
        elif isinstance(st, DeclareNoProp):
            noprops.extend(st.names)
    return tuple(primes), tuple(noprops)


def instantiate(program: Program, seed: int) -> ConcreteEnv:
    """Deterministic valid instantiation: distinct toy primes, r coprime to
    p*q, e invertible modulo (p-1)(q-1), M in [0, p*q)."""
    rng = random.Random(seed)
    prime_names, noprop_names = _free_names(program)
    for _ in range(1000):
        values: Dict[str, int] = {}
        chosen = rng.sample(PRIME_POOL, k=len(prime_names)) if prime_names else []
        for name, value in zip(prime_names, chosen):
            values[name] = value
        p = values.get("p", chosen[0] if chosen else 0)
        q = values.get("q", chosen[1] if len(chosen) > 1 else 0)
        n = p * q
        phi = (p - 1) * (q - 1) if n else 0
        ok = True
        for name in noprop_names:
            if name == "M" and n:
                values[name] = rng.randrange(0, n)
            elif name == "e" and phi:
                e = rng.randrange(3, 50)
                for _ in range(200):
                    if math.gcd(e, phi) == 1:
                        break
                    e = rng.randrange(3, 50)
                else:
                    ok = False
                values[name] = e
            elif name == "r" and n:
                r = rng.randrange(2, 40)
                for _ in range(200):
                    if math.gcd(r, n) == 1:
                        break
                    r = rng.randrange(2, 40)
                else:
                    ok = False
                values[name] = r
            else:
                values[name] = rng.randrange(1, 30)
        if not ok:
            continue
        env = ConcreteEnv(values, p, q)
        if _env_valid(env, n, phi):
            return env
    raise OracleError("no valid instantiation found after 1000 retries")


def _env_valid(env: ConcreteEnv, n: int, phi: int) -> bool:
    if n:
        if env.p == env.q:
            return False
        r = env.values.get("r")
        if r is not None and math.gcd(r, n) != 1:
            return False
        e = env.values.get("e")
        if e is not None and math.gcd(e, phi) != 1:
            return False
    return True


def _carmichael(m: int) -> int:
    """lambda(m) by toy-scale factorization; exponents live modulo this."""
    m = abs(m)
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
        exp = eval_expr(e.exponent, env, _carmichael(modulus)) % _carmichael(modulus)
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
        if isinstance(st, (DeclareNoProp, DeclarePrime)):
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
    """Sequential run == inlined run == normalized inlined run, numerically."""
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
    rng = random.Random(seed)
    p, q = env.p, env.q
    n = p * q
    m_msg = env.values["M"]
    e = env.values["e"]
    dp = pow(e, -1, p - 1)
    dq = pow(e, -1, q - 1)
    sp = pow(m_msg, dp, p)
    sq = pow(m_msg, dq, q)
    s = crt_signature(env, sp, sq)
    successes = 0
    for _ in range(trials):
        if rng.randrange(2):  # fault the q half: recover p
            bad = rng.randrange(0, q)
            while bad == sq:
                bad = rng.randrange(0, q)
            s_hat = crt_signature(env, sp, bad)
            if math.gcd(n, s - s_hat) == p:
                successes += 1
        else:  # fault the p half: recover q
            bad = rng.randrange(0, p)
            while bad == sp:
                bad = rng.randrange(0, p)
            s_hat = crt_signature(env, bad, sq)
            if math.gcd(n, s - s_hat) == q:
                successes += 1
    return successes, trials
