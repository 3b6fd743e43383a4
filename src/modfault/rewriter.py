"""Fixpoint term rewriting over Z and its Z_N subrings, plus condition deciding.

Normal forms are reached by innermost rewriting: flattening of nested sums and
products, stable sorting under a canonical total order, neutral and absorbing
elements, opposite-pair cancellation, and -- inside a modulus context --
wrapper stripping, subring collapse, inverse-pair cancellation, the Chinese
remainder decomposition, Fermat/Euler exponent reduction and the binomial
identity (1+x)^d = 1+d*x (mod x^2).  Distributivity is deliberately absent
(it is not confluent), so syntactically different normal forms denote
generically different values.

Program terms arrive without protection flags, because
``executor.ClosedProgram`` strips them.  Attack conditions keep theirs:
``analyzer.classify`` binds ``program.attack_condition`` as parsed, braces
included.  Normal forms never carry the flag either way, because ``_norm``
rebuilds every node it returns and ``_norm_dispatch`` drops the flag on
variables.

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
Fault variables are the ``Fresh`` nodes of the condition, so a verdict
depends on the condition alone.  A nonzero residual whose fault-variable
occurrences all sit under a power that itself carries a multiplicative
cofactor stays ``unknown`` and the check is passed through: such a deviation
can be annihilated for corner-case instantiations of the key material, so
claiming detection would make the safety verdict unsound.

The step budget counts ``_norm`` calls, so the sequence of those calls is
part of every verdict: a report with a failure depends on it.  An edit to the
hot path (dispatch, sum and product assembly, the multiple-of-the-modulus
tests, the cancellation lemma) must keep the number and order of ``_norm``
calls, or budget verdicts move.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Tuple

from .terms import (
    And, Cond, Eq, EqMod, Expr, Fresh, Mod, Neq, NeqMod, ONE, One, Opp, Or,
    Pow, Prod, Sum, Var, ZERO, Zero, sort_key,
)
# Unused here, but kept bound: the benchmark's tracer patches this name.
from .terms import strip_protection  # noqa: F401

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"

# -1, the exponent of an explicit inverse; kept alive, so built once
_MINUS_ONE = Opp(ONE)


class RewriteBudgetExceeded(Exception):
    """Normalization exceeded its step budget instead of silently giving up."""


class Rewriter:
    """Shared rewrite engine; pure, so one instance may serve many analyses.

    ``primes`` are the names declared with the ``prime`` keyword; fault
    variables (``Fresh`` nodes) have no properties at all and never take
    part in a theorem.

    ``max_steps`` bounds each public call's unshared steps: a memoized normal
    form charges the steps its computation took, so whether a call exceeds
    the budget does not depend on what earlier calls left in the memo, and
    verdicts do not depend on the order in which vectors are analyzed.

    The memo outlives an analysis: ``analyzer`` keeps one instance per set
    of primes for the life of the process, and each analysis of a program
    with those primes starts from the normal forms and check verdicts of
    the ones before it.  The budget rule above makes that safe, as it does
    across vectors: a verdict is the one a cold memo would give.  The memo's
    keys hold the interned nodes they name, so no key outlives its node.
    """

    def __init__(self, primes: Iterable[str] = (), max_steps: int = 100_000):
        self.primes = frozenset(primes)
        self.max_steps = max_steps
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

    def decide_check(self, c: Cond) -> str:
        """Three-valued deciding for verification conditions.

        Verdicts share the normal-form memo, keyed by the condition, which
        holds its fault variables as ``Fresh`` nodes."""
        verdict = self._memo.get(c)
        if verdict is None:
            self._steps = 0
            verdict = self._memo[c] = self._decide_check(c)
        return verdict

    # -- normalization ------------------------------------------------------

    def _norm(self, e: Expr, ctx: Optional[Expr]) -> Expr:
        key = (e, ctx)
        hit = self._memo.get(key)
        start = self._steps
        self._steps += 1 if hit is None else hit[1]
        if self._steps > self.max_steps:
            raise RewriteBudgetExceeded(
                f"rewrite budget of {self.max_steps} steps exceeded")
        if hit is not None:
            return hit[0]
        result = self._norm_dispatch(e, ctx)
        if ctx is not None and result is not ZERO and _is_multiple(result, ctx):
            result = ZERO  # multiples of the modulus vanish in its own ring
        self._memo[key] = (result, self._steps - start)
        return result

    def _norm_dispatch(self, e: Expr, ctx: Optional[Expr]) -> Expr:
        kind = type(e)
        if kind is Var or kind is Fresh:
            return Var(e.name) if e.protected else e
        if kind is Prod:
            return self._assemble_prod([self._norm(c, ctx) for c in e.operands], ctx)
        if kind is Sum:
            return self._assemble_sum([self._norm(c, ctx) for c in e.operands], ctx)
        if kind is Pow:
            base = self._norm(e.base, ctx)
            exponent = self._norm(e.exponent, None)
            return self._simplify_pow(base, exponent, ctx)
        if kind is Mod:
            return self._norm_mod(e, ctx)
        if kind is Opp:
            return self._mk_opp(self._norm(e.arg, ctx), ctx)
        if kind is Zero:
            return ZERO
        if kind is One:
            return ONE
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
        if a is ZERO:
            return ZERO
        kind = type(a)
        if kind is Opp:
            return a.arg
        if kind is Sum:
            return self._assemble_sum([self._mk_opp(c, ctx) for c in a.operands], ctx)
        return Opp(a)

    def _assemble_sum(self, parts: List[Expr], ctx: Optional[Expr] = None) -> Expr:
        flat: List[Expr] = []
        for p in parts:
            if p is ZERO or ctx is not None and _is_multiple(p, ctx):
                continue
            if type(p) is Sum:
                flat.extend(p.operands)
            else:
                flat.append(p)
        if any(type(t) is Opp for t in flat):
            # opposite pairs cancel as multisets; an Opp of an Opp is not a
            # normal form and cancels with nothing
            counts = Counter(flat)
            for u in counts:
                if type(u) is Opp and type(u.arg) is not Opp:
                    k = min(counts[u], counts.get(u.arg, 0))
                    if k:
                        counts[u] -= k
                        counts[u.arg] -= k
            out: List[Expr] = []
            for t, n in counts.items():
                out.extend([t] * n)
        else:
            out = flat
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
            if type(p) is Opp:
                negative = not negative
                p = p.arg
            if type(p) is Prod:
                flat.extend(p.operands)
            elif p is not ONE:
                flat.append(p)
        if ZERO in flat:
            return ZERO
        if ctx is not None:
            if _holds_factors(flat, ctx):
                return ZERO  # multiple of the modulus
            flat = self._cancel_inverse_pairs(flat)
            flat = self._merge_same_base_powers(flat)
            if ZERO in flat:
                return ZERO
        if ONE in flat:
            flat = [f for f in flat if f is not ONE]
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
                if type(f) is Pow and f.exponent is _MINUS_ONE:
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
            return self._assemble_sum([ctx, _MINUS_ONE])  # Fermat: p - 1
        if isinstance(ctx, Prod) and len(ctx.operands) == 2:
            a, b = ctx.operands
            if isinstance(a, Var) and isinstance(b, Var) and a != b \
                    and a.name in self.primes and b.name in self.primes:
                # Euler for a product of two distinct primes
                return self._assemble_prod(
                    [self._assemble_sum([a, _MINUS_ONE]),
                     self._assemble_sum([b, _MINUS_ONE])], None)
        return None

    # -- deciding -----------------------------------------------------------

    def _decide(self, c: Cond) -> bool:
        if isinstance(c, (And, Or)):
            return _connective(c, self._decide, True, False)
        if isinstance(c, (Eq, Neq)):
            holds = self._equal(c.lhs, c.rhs)
            return holds if isinstance(c, Eq) else not holds
        if isinstance(c, (EqMod, NeqMod)):
            holds = self._congruence_delta(c.lhs, c.rhs, c.modulus) == ZERO
            return holds if isinstance(c, EqMod) else not holds
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
        if m is ZERO or a is ZERO and b is ZERO:
            return a, b, m
        if not _shares_a_factor(a, b, m):
            return a, b, m
        fm = _factor_counter(m)
        (fa, sa), (fb, sb) = _signed_factors(a), _signed_factors(b)
        common = fm
        for t, f in ((a, fa), (b, fb)):
            if t != ZERO:  # zero is a multiple of every cofactor
                common = common & f
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

    def _decide_check(self, c: Cond) -> str:
        if isinstance(c, (And, Or)):
            return _connective(c, self._decide_check, TRUE, FALSE)
        if isinstance(c, (Eq, Neq)):
            a = self._norm(c.lhs, None)
            b = self._norm(c.rhs, None)
            if self._equal_normal(a, b):
                holds = TRUE
            else:
                delta = self._norm(Sum((a, self._mk_opp(b))), None)
                holds = FALSE if self._generically_nonzero(delta) else UNKNOWN
            return holds if isinstance(c, Eq) else _NEGATE3[holds]
        if isinstance(c, (EqMod, NeqMod)):
            holds = self._check_congruence(c.lhs, c.rhs, c.modulus)
            return holds if isinstance(c, EqMod) else _NEGATE3[holds]
        raise TypeError(f"not a condition: {c!r}")

    def _check_congruence(self, lhs: Expr, rhs: Expr, modulus: Expr) -> str:
        """Three-valued congruence for verifications, decided per CRT
        component: cofactors that cancel in a subring (e.g. a blinding factor
        congruent to 1 mod r^2) must not mask a fault there.  It holds when
        every component's difference is zero, and fails when some component's
        is generically nonzero."""
        a, b, m = self._normal_operands(lhs, rhs, modulus)
        difference = Sum((a, Opp(b)))
        verdicts = [
            TRUE if delta == ZERO
            else FALSE if self._generically_nonzero(
                self._drop_invertible_cofactors(delta, g))
            else UNKNOWN
            for g in _crt_components(m)
            for delta in (self._norm(Mod(difference, g), None),)]
        return FALSE if FALSE in verdicts else UNKNOWN if UNKNOWN in verdicts else TRUE

    def _drop_invertible_cofactors(self, delta: Expr, g: Expr) -> Expr:
        """Cancel cofactors shared by every summand that are explicit inverses.

        An x^-1 surviving in this ring's context is the inverse *in this
        ring* (its wrapper was stripped), hence a unit; dividing it out
        cannot change whether the difference is zero.  Ordinary cofactors
        are kept: nothing guarantees them invertible here.
        """
        body = delta.body if isinstance(delta, Mod) and delta.modulus == g else delta
        summands = body.operands if isinstance(body, Sum) else (body,)
        signed = [_signed_factors(s) for s in summands]
        common = signed[0][0]
        for f, _neg in signed[1:]:
            common = common & f
        units = Counter({t: n for t, n in common.items()
                         if type(t) is Pow and t.exponent is _MINUS_ONE})
        if not units:
            return delta
        rebuilt = [self._rebuild_product(f - units, neg) for f, neg in signed]
        return self._norm(Mod(Sum(tuple(rebuilt)), g), None)

    def _generically_nonzero(self, delta: Expr) -> bool:
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
        if not delta._fresh:
            return True  # no fault variable occurs at all
        scan = _FreshScan()
        scan.visit(delta, in_prod=False, in_pow=False)
        if scan.in_modulus:
            return True
        return scan.transparent and not scan.opaque


def _connective(c: Cond, decide, true, false):
    r"""Decide ``c``, a ``/\`` or an ``\/``, with ``decide`` over the verdicts
    ``true`` and ``false``: the left operand first, the right one only when
    the left does not settle the connective, and ``UNKNOWN`` when the two
    disagree and neither settles it."""
    settles = false if isinstance(c, And) else true
    left = decide(c.lhs)
    if left == settles:
        return settles
    right = decide(c.rhs)
    return right if right == settles or right == left else UNKNOWN


_NEGATE3 = {TRUE: FALSE, FALSE: TRUE, UNKNOWN: UNKNOWN}


class _FreshScan:
    """Classify each fault-variable occurrence of a residual.

    transparent: reachable through sums, opposites and product factors only,
    or through a power that has no product around it (a unit coefficient).
    opaque: beneath a power that itself sits inside a product.
    in_modulus: inside the modulus operand of some reduction.
    Subterms without a fault variable are not entered.
    """

    def __init__(self):
        self.transparent = False
        self.opaque = False
        self.in_modulus = False

    def visit(self, e: Expr, in_prod: bool, in_pow: bool):
        if not e._fresh:
            return
        if isinstance(e, Fresh):
            if in_pow and in_prod:
                self.opaque = True
            else:
                self.transparent = True
            return
        if isinstance(e, Mod):
            if e.modulus._fresh:
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
    """The factor multiset of a term.  A product's is cached on the node and
    shared, so callers must not mutate the result.  Any other term's is built
    afresh: cached on the term, it would hold the term alive."""
    if isinstance(t, Prod):
        factors = t._factors
        if factors is None:
            factors = Counter(t.operands)
            object.__setattr__(t, "_factors", factors)
        return factors
    return Counter((t,))


def _signed_factors(t: Expr) -> Tuple[Counter, bool]:
    if isinstance(t, Opp):
        return _factor_counter(t.arg), True
    return _factor_counter(t), False


def _covers(haystack: Counter, needle: Counter) -> bool:
    for t, n in needle.items():
        if haystack.get(t, 0) < n:
            return False
    return True


def _holds_factors(flat: List[Expr], m: Expr) -> bool:
    """The factor list ``flat`` holds every factor of ``m``, up to sign, as
    often as ``m`` does: their product is a multiple of ``m``."""
    if type(m) is Opp:
        m = m.arg
    if type(m) is not Prod:
        return m in flat
    for t, n in _factor_counter(m).items():
        if n == 1:
            if t not in flat:
                return False
        elif flat.count(t) < n:
            return False
    return True


def _shares_a_factor(a: Expr, b: Expr, m: Expr) -> bool:
    """Some factor of ``m`` is a factor of both ``a`` and ``b``, up to sign;
    zero has every factor."""
    fa = a.arg if type(a) is Opp else a
    fa = fa.operands if type(fa) is Prod else (fa,)
    fb = b.arg if type(b) is Opp else b
    fb = fb.operands if type(fb) is Prod else (fb,)
    for t in (m.operands if type(m) is Prod else (m,)):
        if (a is ZERO or t in fa) and (b is ZERO or t in fb):
            return True
    return False


def _is_multiple(a: Expr, b: Expr) -> bool:
    """a is a structural multiple of b, up to sign (factor multiset inclusion)."""
    if a is b:
        return True
    if type(a) is Opp:
        a = a.arg
    if type(b) is Opp:
        b = b.arg
    if type(a) is not Prod:
        # a single factor covers only itself: every product the parser or
        # the rewriter builds has two or more factors
        return a is b
    if type(b) is Prod:
        return _covers(_factor_counter(a), _factor_counter(b))
    return b in a.operands


def _crt_components(m: Expr) -> List[Expr]:
    """The Chinese remainder split of a modulus: one component per distinct
    factor f of a product, f^n held as the product of n copies, in order of
    first occurrence; a modulus with fewer than two distinct factors is its
    own single component."""
    if type(m) is Prod:
        counts = _factor_counter(m)
        if len(counts) > 1:
            return [f if n == 1 else Prod((f,) * n) for f, n in counts.items()]
    return [m]


def degenerate_moduli(e: Expr) -> bool:
    """True when the term contains an inert reduction modulo zero.  Each
    distinct subterm is visited once: normal forms share subterms heavily."""
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        if isinstance(n, Mod) and n.modulus == ZERO:
            return True
        seen.add(n)
        stack.extend(n.children())
    return False
