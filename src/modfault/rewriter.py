"""Fixpoint term rewriting over Z and its Z_N subrings, plus condition deciding.

Normal forms are reached by innermost rewriting: flattening of nested sums and
products, stable sorting under a canonical total order, neutral and absorbing
elements, opposite-pair cancellation, and -- inside a modulus context --
wrapper stripping, subring collapse, inverse-pair cancellation, the Chinese
remainder decomposition, Fermat/Euler exponent reduction and the binomial
identity (1+x)^d = 1+d*x (mod x^2).  Distributivity is deliberately absent
(it is not confluent), so syntactically different normal forms denote
generically different values.

Terms arrive without protection flags: ``executor.ClosedProgram`` is the one
place that strips them.  Normal forms never carry the flag either way, because
``_norm`` rebuilds every node it returns and drops the flag on variables.

A modulus that normalizes to zero makes the reduction inert: ``Mod(x, 0)``
is kept as-is and reported as a degenerate modulus, matching the concrete
evaluator's ``x % 0 == x`` convention while keeping the residue opaque to
further modular reasoning.  Any other symbolic modulus is assumed to denote
a value larger than one (generic-value semantics); instantiations where a
reduced residue re-enters as a unit-valued modulus lie outside the domain.

Deciding comes in two flavours.  ``decide`` (attack conditions) is
two-valued: equalities hold only when proven, inequalities hold unless
equality is proven.  ``decide_check`` (verifications) is three-valued: an
abort is only claimed when the residual difference is *generically* nonzero.
A nonzero residual whose fault-variable occurrences all sit under a power
that itself carries a multiplicative cofactor stays ``unknown`` and the check
is passed through: such a deviation can be annihilated for corner-case
instantiations of the key material, so claiming detection would make the
safety verdict unsound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .terms import (
    And, Cond, Eq, EqMod, Expr, Mod, Neq, NeqMod, ONE, One, Opp, Or, Pow,
    Prod, Sum, Var, ZERO, Zero, sort_key, walk,
)
# Unused here, but kept bound: the benchmark's tracer patches this name.
from .terms import strip_protection  # noqa: F401

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"


class RewriteBudgetExceeded(Exception):
    """Normalization exceeded its step budget instead of silently giving up."""


@dataclass
class RewriteBudget:
    max_steps: int = 100_000


class Rewriter:
    """Shared rewrite engine; pure, so one instance may serve many analyses.

    ``primes`` are the names declared with the ``prime`` keyword; fresh fault
    variables have no properties at all and never take part in a theorem.
    """

    def __init__(self, primes: Iterable[str] = (), budget: Optional[RewriteBudget] = None):
        self.primes = frozenset(primes)
        self.budget = budget or RewriteBudget()
        self._steps = 0
        self._memo = {}

    # -- public entry points ----------------------------------------------

    def normalize(self, e: Expr) -> Expr:
        self._steps = 0
        return self._norm(e, None)

    def decide(self, c: Cond) -> bool:
        """Two-valued deciding for attack success conditions."""
        self._steps = 0
        return self._decide(c)

    def decide_check(self, c: Cond, fresh: FrozenSet[str]) -> str:
        """Three-valued deciding for verification conditions.

        Verdicts share the normal-form memo, keyed by the condition and the
        fault variables: one condition can be unknown with a fault variable
        and provably true without it."""
        key = (c, fresh)
        verdict = self._memo.get(key)
        if verdict is None:
            self._steps = 0
            verdict = self._memo[key] = self._decide_check(c, fresh)
        return verdict

    # -- normalization ------------------------------------------------------

    def _bump(self):
        self._steps += 1
        if self._steps > self.budget.max_steps:
            raise RewriteBudgetExceeded(
                f"rewrite budget of {self.budget.max_steps} steps exceeded")

    def _norm(self, e: Expr, ctx: Optional[Expr]) -> Expr:
        key = (e, ctx)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._bump()
        result = self._norm_dispatch(e, ctx)
        if ctx is not None and result != ZERO and _is_multiple(result, ctx):
            result = ZERO  # multiples of the modulus vanish in its own ring
        self._memo[key] = result
        return result

    def _norm_dispatch(self, e: Expr, ctx: Optional[Expr]) -> Expr:
        if isinstance(e, Zero):
            return ZERO
        if isinstance(e, One):
            return ONE
        if isinstance(e, Var):
            return Var(e.name) if e.protected else e
        if isinstance(e, Opp):
            return self._mk_opp(self._norm(e.arg, ctx), ctx)
        if isinstance(e, Sum):
            return self._assemble_sum([self._norm(c, ctx) for c in e.operands], ctx)
        if isinstance(e, Prod):
            return self._assemble_prod([self._norm(c, ctx) for c in e.operands], ctx)
        if isinstance(e, Pow):
            base = self._norm(e.base, ctx)
            exponent = self._norm(e.exponent, None)
            return self._simplify_pow(base, exponent, ctx)
        if isinstance(e, Mod):
            return self._norm_mod(e, ctx)
        raise TypeError(f"not an expression: {e!r}")

    def _norm_mod(self, e: Mod, ctx: Optional[Expr]) -> Expr:
        modulus = self._norm(e.modulus, None)
        if ctx is not None and _is_multiple(modulus, ctx):
            # subring collapse / wrapper strip: (x mod k*ctx) mod ctx = x mod ctx
            return self._norm(e.body, ctx)
        if modulus == ZERO:
            body = self._norm(e.body, None)
            if body == ZERO:
                return ZERO
            return Mod(body, ZERO)  # inert, degenerate modulus
        if modulus == ONE:
            return ZERO
        body = self._norm(e.body, modulus)
        if body == ZERO:
            return ZERO
        if body == ONE:
            return ONE  # moduli of interest exceed 1
        components = _crt_components(modulus)
        if len(components) > 1 and all(
                self._norm(Mod(body, g), None) == ZERO for g in components):
            return ZERO  # Chinese remainder theorem: zero in every component
        return Mod(body, modulus)

    def _mk_opp(self, a: Expr, ctx: Optional[Expr] = None) -> Expr:
        if a == ZERO:
            return ZERO
        if isinstance(a, Opp):
            return a.arg
        if isinstance(a, Sum):
            return self._assemble_sum([self._mk_opp(c, ctx) for c in a.operands], ctx)
        return Opp(a)

    def _assemble_sum(self, parts: List[Expr], ctx: Optional[Expr] = None) -> Expr:
        flat: List[Expr] = []
        for p in parts:
            if ctx is not None and p != ZERO and _is_multiple(p, ctx):
                continue
            if isinstance(p, Sum):
                flat.extend(p.operands)
            elif p != ZERO:
                flat.append(p)
        # opposite pairs cancel as multisets
        counts = Counter(flat)
        for t in list(counts):
            if isinstance(t, Opp):
                continue
            k = min(counts[t], counts.get(Opp(t), 0))
            if k:
                counts[t] -= k
                counts[Opp(t)] -= k
        out: List[Expr] = []
        for t, n in counts.items():
            out.extend([t] * n)
        out.sort(key=sort_key)
        if not out:
            return ZERO
        if len(out) == 1:
            return out[0]
        return Sum(tuple(out))

    def _assemble_prod(self, parts: List[Expr], ctx: Optional[Expr]) -> Expr:
        flat: List[Expr] = []
        negative = False
        for p in parts:
            if isinstance(p, Opp):
                negative = not negative
                p = p.arg
            if isinstance(p, Prod):
                flat.extend(p.operands)
            elif p == ONE:
                continue
            else:
                flat.append(p)
        if any(f == ZERO for f in flat):
            return ZERO
        if ctx is not None:
            if _covers(Counter(flat), _factor_counter(_abs_term(ctx))):
                return ZERO  # multiple of the modulus
            flat = self._cancel_inverse_pairs(flat)
            flat = self._merge_same_base_powers(flat)
            if any(f == ZERO for f in flat):
                return ZERO
        flat = [f for f in flat if f != ONE]
        flat.sort(key=sort_key)
        if not flat:
            result: Expr = ONE
        elif len(flat) == 1:
            result = flat[0]
        else:
            result = Prod(tuple(flat))
        return self._mk_opp(result) if negative else result

    def _cancel_inverse_pairs(self, factors: List[Expr]) -> List[Expr]:
        # x * x^-1 = 1 in the ring of the enclosing modulus
        out = list(factors)
        changed = True
        while changed:
            changed = False
            for i, f in enumerate(out):
                if isinstance(f, Pow) and f.exponent == Opp(ONE):
                    for j, g in enumerate(out):
                        if j != i and g == f.base:
                            for k in sorted((i, j), reverse=True):
                                del out[k]
                            changed = True
                            break
                    if changed:
                        break
        return out

    def _merge_same_base_powers(self, factors: List[Expr]) -> List[Expr]:
        out: List[Expr] = []
        for f in factors:
            if isinstance(f, Pow):
                for i, g in enumerate(out):
                    if isinstance(g, Pow) and g.base == f.base:
                        exponent = self._norm(Sum((g.exponent, f.exponent)), None)
                        out[i] = self._simplify_pow(g.base, exponent, None)
                        break
                else:
                    out.append(f)
            else:
                out.append(f)
        return out

    def _simplify_pow(self, base: Expr, exponent: Expr, ctx: Optional[Expr]) -> Expr:
        if exponent == ZERO:
            return ONE
        if exponent == ONE:
            return base
        if base == ONE:
            return ONE
        if base == ZERO and not isinstance(exponent, Opp):
            return ZERO  # 0^e = 0; a negative exponent of zero stays inert
        if ctx is not None:
            reduced = self._theorem_pow(base, exponent, ctx)
            if reduced is not None:
                return reduced
        return Pow(base, exponent)

    def _theorem_pow(self, base: Expr, exponent: Expr, ctx: Expr) -> Optional[Expr]:
        # binomial special case: (1+x)^d mod x*x = 1 + d*x
        if isinstance(ctx, Prod) and len(ctx.operands) == 2 \
                and ctx.operands[0] == ctx.operands[1]:
            x = ctx.operands[0]
            if base == self._assemble_sum([ONE, x]):
                return self._norm(Sum((ONE, Prod((exponent, x)))), ctx)
        phi = self._totient_of(ctx)
        if phi is not None:
            reduced = self._norm(Mod(exponent, phi), None)
            if isinstance(reduced, Mod) and reduced.modulus == phi:
                reduced = reduced.body  # unwrap back to the reduced exponent
            if reduced != exponent:
                return self._simplify_pow(base, reduced, ctx)
        return None

    def _totient_of(self, ctx: Expr) -> Optional[Expr]:
        """phi of the context modulus when its primality is known."""
        if isinstance(ctx, Var) and ctx.name in self.primes:
            return self._assemble_sum([ctx, Opp(ONE)])  # Fermat: p - 1
        if isinstance(ctx, Prod) and len(ctx.operands) == 2:
            a, b = ctx.operands
            if isinstance(a, Var) and isinstance(b, Var) and a != b \
                    and a.name in self.primes and b.name in self.primes:
                # Euler for a product of two distinct primes
                return self._assemble_prod(
                    [self._assemble_sum([a, Opp(ONE)]),
                     self._assemble_sum([b, Opp(ONE)])], None)
        return None

    # -- deciding -----------------------------------------------------------

    def _decide(self, c: Cond) -> bool:
        if isinstance(c, And):
            return self._decide(c.lhs) and self._decide(c.rhs)
        if isinstance(c, Or):
            return self._decide(c.lhs) or self._decide(c.rhs)
        if isinstance(c, Eq):
            return self._equal(c.lhs, c.rhs)
        if isinstance(c, Neq):
            return not self._equal(c.lhs, c.rhs)
        if isinstance(c, EqMod):
            return self._congruence_delta(c.lhs, c.rhs, c.modulus) == ZERO
        if isinstance(c, NeqMod):
            return self._congruence_delta(c.lhs, c.rhs, c.modulus) != ZERO
        raise TypeError(f"not a condition: {c!r}")

    def _equal(self, lhs: Expr, rhs: Expr) -> bool:
        return self._equal_normal(self._norm(lhs, None), self._norm(rhs, None))

    def _equal_normal(self, a: Expr, b: Expr) -> bool:
        """Equality of two normal forms."""
        if a == b:
            return True
        if isinstance(a, Mod) and isinstance(b, Mod) and a.modulus == b.modulus \
                and a.modulus != ZERO:
            # equal residues differing only in body: compare modulo the ring
            return self._congruence_delta(a.body, b.body, a.modulus) == ZERO
        return False

    def _congruence_delta(self, lhs: Expr, rhs: Expr, modulus: Expr) -> Expr:
        """Normal form of lhs - rhs in Z_modulus, after the cancellation lemma."""
        a, b, m = self._normal_operands(lhs, rhs, modulus)
        return self._norm(Mod(Sum((a, Opp(b))), m), None)

    def _normal_operands(self, lhs: Expr, rhs: Expr,
                         modulus: Expr) -> Tuple[Expr, Expr, Expr]:
        """Normal forms of a congruence's operands, after the cancellation lemma."""
        return self._lemma_cancel(self._norm(lhs, None), self._norm(rhs, None),
                                  self._norm(modulus, None))

    def _lemma_cancel(self, a: Expr, b: Expr, m: Expr) -> Tuple[Expr, Expr, Expr]:
        """a*x = b*x (mod N*x)  reduces to  a = b (mod N); a or b may be zero."""
        if m == ZERO:
            return a, b, m
        fm = _factor_counter(m)
        fa, sa = _signed_factors(a)
        fb, sb = _signed_factors(b)
        if a == ZERO and b == ZERO:
            return a, b, m
        if a == ZERO:
            common = fb & fm
        elif b == ZERO:
            common = fa & fm
        else:
            common = fa & fb & fm
        if not common:
            return a, b, m
        a2 = a if a == ZERO else self._rebuild_product(fa - common, sa)
        b2 = b if b == ZERO else self._rebuild_product(fb - common, sb)
        m2 = self._rebuild_product(fm - common, False)
        return a2, b2, m2

    def _rebuild_product(self, factors: Counter, negative: bool) -> Expr:
        parts: List[Expr] = []
        for t, n in factors.items():
            parts.extend([t] * n)
        result = self._assemble_prod(parts, None)
        return self._mk_opp(result) if negative else result

    # -- three-valued check deciding ----------------------------------------

    def _decide_check(self, c: Cond, fresh: FrozenSet[str]) -> str:
        if isinstance(c, And):
            left = self._decide_check(c.lhs, fresh)
            if left == FALSE:
                return FALSE
            right = self._decide_check(c.rhs, fresh)
            if right == FALSE:
                return FALSE
            if left == TRUE and right == TRUE:
                return TRUE
            return UNKNOWN
        if isinstance(c, Or):
            left = self._decide_check(c.lhs, fresh)
            if left == TRUE:
                return TRUE
            right = self._decide_check(c.rhs, fresh)
            if right == TRUE:
                return TRUE
            if left == FALSE and right == FALSE:
                return FALSE
            return UNKNOWN
        if isinstance(c, (EqMod, NeqMod)):
            holds = self._check_congruence(c.lhs, c.rhs, c.modulus, fresh)
            return holds if isinstance(c, EqMod) else _negate3(holds)
        if isinstance(c, (Eq, Neq)):
            a = self._norm(c.lhs, None)
            b = self._norm(c.rhs, None)
            if self._equal_normal(a, b):
                holds = TRUE
            else:
                delta = self._norm(Sum((a, self._mk_opp(b))), None)
                holds = FALSE if self._generically_nonzero(delta, fresh) else UNKNOWN
            return holds if isinstance(c, Eq) else _negate3(holds)
        raise TypeError(f"not a condition: {c!r}")

    def _check_congruence(self, lhs: Expr, rhs: Expr, modulus: Expr,
                          fresh: FrozenSet[str]) -> str:
        """Three-valued congruence for verifications, decided per CRT
        component: cofactors that cancel in a subring (e.g. a blinding factor
        congruent to 1 mod r^2) must not mask a fault there."""
        a, b, m = self._normal_operands(lhs, rhs, modulus)
        difference = Sum((a, Opp(b)))
        all_zero = True
        any_fires = False
        for g in _crt_components(m):
            delta = self._norm(Mod(difference, g), None)
            if delta == ZERO:
                continue
            all_zero = False
            if self._generically_nonzero(self._drop_invertible_cofactors(delta, g), fresh):
                any_fires = True
        if all_zero:
            return TRUE
        if any_fires:
            return FALSE
        return UNKNOWN

    def _drop_invertible_cofactors(self, delta: Expr, g: Expr) -> Expr:
        """Cancel cofactors shared by every summand that are explicit inverses.

        An x^-1 surviving in this ring's context is the inverse *in this
        ring* (its wrapper was stripped), hence a unit; dividing it out
        cannot change whether the difference is zero.  Ordinary cofactors
        are kept: nothing guarantees them invertible here.
        """
        body = delta.body if isinstance(delta, Mod) and delta.modulus == g else delta
        summands = body.operands if isinstance(body, Sum) else (body,)
        counters = []
        for s in summands:
            f, _neg = _signed_factors(s)
            counters.append(f)
        common = counters[0]
        for f in counters[1:]:
            common = common & f
        units = Counter({t: n for t, n in common.items()
                         if isinstance(t, Pow) and t.exponent == Opp(ONE)})
        if not units:
            return delta
        rebuilt = []
        for s, f in zip(summands, counters):
            _same, neg = _signed_factors(s)
            rebuilt.append(self._rebuild_product(f - units, neg))
        return self._norm(Mod(Sum(tuple(rebuilt)), g), None)

    def _generically_nonzero(self, delta: Expr, fresh: FrozenSet[str]) -> bool:
        """Detection genericity: may we claim this nonzero residual fires a check?

        Yes when the residual is fault-free (a structural deviation), when a
        fault variable lands in a modulus (a random ring), or when every fault
        occurrence enters transparently (additively or multiplicatively, with
        no power in the way once a product surrounds it).  An occurrence
        confined to a Pow that itself carries product cofactors is opaque:
        the power is many-to-one and its unknown cofactors can annihilate the
        deviation for corner instantiations of the inputs, so no detection is
        claimed for a residual with an opaque channel.
        """
        if delta == ZERO:
            return False
        if not fresh:
            return True
        scan = _FreshScan(fresh)
        scan.visit(delta, in_prod=False, in_pow=False)
        if not scan.occurrences:
            return True  # no fault variable occurs at all
        if scan.in_modulus:
            return True
        return scan.transparent and not scan.opaque


def _negate3(v: str) -> str:
    if v == TRUE:
        return FALSE
    if v == FALSE:
        return TRUE
    return UNKNOWN


class _FreshScan:
    """Classify each fault-variable occurrence of a residual.

    transparent: reachable through sums, opposites and product factors only,
    or through a power that has no product around it (a unit coefficient).
    opaque: beneath a power that itself sits inside a product.
    in_modulus: inside the modulus operand of some reduction.
    """

    def __init__(self, fresh: FrozenSet[str]):
        self.fresh = fresh
        self.occurrences = 0
        self.transparent = False
        self.opaque = False
        self.in_modulus = False

    def visit(self, e: Expr, in_prod: bool, in_pow: bool):
        if isinstance(e, Var):
            if e.name in self.fresh:
                self.occurrences += 1
                if in_pow and in_prod:
                    self.opaque = True
                else:
                    self.transparent = True
            return
        if isinstance(e, Mod):
            if any(isinstance(n, Var) and n.name in self.fresh
                   for n in walk(e.modulus)):
                self.occurrences += 1
                self.in_modulus = True
            self.visit(e.body, in_prod, in_pow)
            return
        if isinstance(e, Pow):
            for c in e.children():
                self.visit(c, in_prod, in_pow or in_prod)
            return
        child_in_prod = in_prod or isinstance(e, Prod)
        for c in e.children():
            self.visit(c, child_in_prod, in_pow)


def _factor_counter(t: Expr) -> Counter:
    if isinstance(t, Prod):
        return Counter(t.operands)
    return Counter([t])


def _signed_factors(t: Expr) -> Tuple[Counter, bool]:
    if isinstance(t, Opp):
        return _factor_counter(t.arg), True
    return _factor_counter(t), False


def _covers(haystack: Counter, needle: Counter) -> bool:
    return all(haystack.get(t, 0) >= n for t, n in needle.items())


def _abs_term(t: Expr) -> Expr:
    return t.arg if isinstance(t, Opp) else t


def _is_multiple(a: Expr, b: Expr) -> bool:
    """a is a structural multiple of b, up to sign (factor multiset inclusion)."""
    if a == b:
        return True
    return _covers(_factor_counter(_abs_term(a)), _factor_counter(_abs_term(b)))


def _crt_components(m: Expr) -> List[Expr]:
    """The Chinese remainder split of a modulus: one component per distinct
    factor f of a product, f^n held as the product of n copies, in order of
    first occurrence; a modulus with fewer than two distinct factors is its
    own single component."""
    if isinstance(m, Prod):
        counts = Counter(m.operands)
        if len(counts) > 1:
            return [f if n == 1 else Prod((f,) * n) for f, n in counts.items()]
    return [m]


def degenerate_moduli(e: Expr) -> bool:
    """True when the term contains an inert reduction modulo zero."""
    return any(isinstance(n, Mod) and n.modulus == ZERO for n in walk(e))
