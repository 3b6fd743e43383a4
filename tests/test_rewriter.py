import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    And, EqMod, FaultConfig, Fresh, Mod, Neq, NeqMod, One, Opp, Or, Pow, Prod,
    RANDOMIZING, RewriteBudgetExceeded, Rewriter, Sum, Var, ZEROING, Zero, Eq,
    analyze, parse_cond, parse_expr,
)
from modfault.oracle import ConcreteEnv, eval_expr
from modfault.rewriter import (
    FALSE, TRUE, UNKNOWN, _crt_components, _factor_counter, _is_multiple,
    _signed_factors,
)
from modfault.terms import _INTERNED, sort_key

from conftest import walk

V = Var
pe = parse_expr


@pytest.fixture
def rw():
    return Rewriter(primes={"p", "q"})


# -- ring axioms --------------------------------------------------------------

def test_neutral_and_absorbing(rw):
    assert rw.normalize(pe("x + 0")) == V("x")
    assert rw.normalize(pe("x * 1")) == V("x")
    assert rw.normalize(pe("x * 0")) == Zero()


def test_opposites(rw):
    assert rw.normalize(Opp(Opp(V("x")))) == V("x")
    assert rw.normalize(Opp(Zero())) == Zero()
    assert rw.normalize(pe("x + (-x)")) == Zero()
    assert rw.normalize(pe("-(a + b) + a + b")) == Zero()
    # opposites factor out of products
    assert rw.normalize(Prod((V("a"), Opp(V("b"))))) == Opp(Prod((V("a"), V("b"))))


def test_flattening_and_sorting(rw):
    e = Sum((Sum((V("b"), V("a"))), V("c")))
    n = rw.normalize(e)
    assert isinstance(n, Sum) and len(n.operands) == 3
    assert rw.normalize(Prod((V("b"), Prod((V("c"), V("a")))))) == \
        rw.normalize(Prod((V("a"), V("b"), V("c"))))


def test_commutative_canonicalization(rw):
    operands = [V("a"), Opp(V("b")), Prod((V("c"), V("d"))), One()]
    forms = {rw.normalize(Sum(tuple(perm)))
             for perm in itertools.permutations(operands)}
    assert len(forms) == 1
    forms = {rw.normalize(Prod(tuple(perm)))
             for perm in itertools.permutations([V("a"), V("b"), V("c")])}
    assert len(forms) == 1


def test_exponent_basics(rw):
    assert rw.normalize(Pow(V("x"), Zero())) == One()
    assert rw.normalize(Pow(V("x"), One())) == V("x")
    assert rw.normalize(Pow(One(), V("e"))) == One()
    assert rw.normalize(Pow(Zero(), V("e"))) == Zero()
    assert rw.normalize(Pow(Zero(), Zero())) == One()


# -- modular rules -------------------------------------------------------------

def test_modular_identity(rw):
    assert rw.normalize(pe("(a mod N) mod N")) == Mod(V("a"), V("N"))
    assert rw.normalize(pe("(N * k) mod N")) == Zero()
    assert rw.normalize(pe("N mod N")) == Zero()


def test_modular_inverse(rw):
    assert rw.normalize(pe("q * (q^-1 mod p) mod p")) == One()
    # numeric cross-check: 11 * (11^-1 mod 7) mod 7 == 1
    env = ConcreteEnv({"q": 11, "p": 7})
    assert eval_expr(pe("q * (q^-1 mod p) mod p"), env) == 1
    assert rw.normalize(pe("((a mod N) + ((-a) mod N)) mod N")) == Zero()


def test_modular_assoc_strips_wrappers(rw):
    n = rw.normalize(pe("((b mod N) + (a mod N)) mod N"))
    assert n == Mod(Sum((V("a"), V("b"))), V("N"))
    n = rw.normalize(pe("((a mod N) * (b mod N)) mod N"))
    assert n == Mod(Prod((V("a"), V("b"))), V("N"))


def test_subring_collapse(rw):
    assert rw.normalize(pe("(a mod (N * m)) mod N")) == Mod(V("a"), V("N"))
    assert rw.normalize(pe("(a mod (p * r * r)) mod p")) == Mod(V("a"), V("p"))


def test_binomial_special_case(rw):
    n = rw.normalize(pe("(1 + r)^d mod (r * r)"))
    assert n == Mod(Sum((One(), Prod((V("d"), V("r"))))), Prod((V("r"), V("r"))))


def test_fermat(rw):
    # exponent blinding by a multiple of p-1 vanishes modulo a prime
    blinded = pe("M^(dp + R1 * (p - 1)) mod p")
    plain = pe("M^dp mod p")
    assert rw.normalize(blinded) == rw.normalize(plain)


def test_fermat_only_for_primes(rw):
    e = pe("M^(dp + R1 * (N - 1)) mod N")
    n = rw.normalize(e)
    assert n != rw.normalize(pe("M^dp mod N"))


def test_euler(rw):
    blinded = pe("M^(d + k * ((p - 1) * (q - 1))) mod (p * q)")
    plain = pe("M^d mod (p * q)")
    assert rw.normalize(blinded) == rw.normalize(plain)


def test_crt_zero(rw):
    assert rw.normalize(pe("(p * q * x) mod (p * q)")) == Zero()
    # both components must vanish: r*r needs the square, not just r
    assert rw.normalize(pe("(p * r * x) mod (p * r * r)")) != Zero()
    assert rw.normalize(pe("(p * r * r * x) mod (p * r * r)")) == Zero()


def test_mod_one_and_mod_zero(rw):
    assert rw.normalize(pe("x mod 1")) == Zero()
    inert = rw.normalize(pe("x mod 0"))
    assert inert == Mod(V("x"), Zero())  # inert, no rewrite through zero
    assert rw.normalize(Mod(Zero(), Zero())) == Zero()


def test_same_base_power_merging(rw):
    n = rw.normalize(pe("(x^a * x^b) mod N"))
    assert n == Mod(Pow(V("x"), Sum((V("a"), V("b")))), V("N"))


def test_budget_exceeded():
    tight = Rewriter(max_steps=10)
    # distinct variables so memoization cannot absorb the work
    deep = pe(" + ".join(f"x{i}" for i in range(40)))
    with pytest.raises(RewriteBudgetExceeded):
        tight.normalize(deep)


# -- deciding ------------------------------------------------------------------

def test_decide_reflexivity(rw):
    assert rw.decide(Eq(V("x"), V("x"))) is True
    assert rw.decide(Neq(V("x"), V("x"))) is False
    assert rw.decide(Eq(V("x"), V("y"))) is False


def test_cancellation_lemma(rw):
    m = pe("N * x")
    for a, b in (("a", "b"), ("a", "a")):
        big = rw.decide(EqMod(pe(f"{a} * x"), pe(f"{b} * x"), m))
        small = rw.decide(EqMod(V(a), V(b), V("N")))
        assert big == small
    # one side may be zero
    assert rw.decide(EqMod(pe("N * x * y"), Zero(), pe("N * x"))) is \
        rw.decide(EqMod(pe("y * N"), Zero(), V("N")))


def test_decide_faulted_half_congruence(rw, corpus_programs):
    # replacing one CRT half with a fresh value keeps the result congruent
    # modulo the other prime
    from modfault.executor import inline
    from modfault.faults import Fault, FaultSite, RANDOMIZING, inject
    prog = corpus_programs["unprotected"]
    sq_stmt = next(i for i, st in enumerate(prog.statements)
                   if getattr(st, "target", None) == "Sq")
    vec = (Fault(FaultSite("permanent", sq_stmt, variable="Sq"),
                 RANDOMIZING, "f1"),)
    nominal = inline(prog).result
    faulted = inline(inject(prog, vec)).result
    assert rw.decide(NeqMod(nominal, faulted, V("p"))) is False  # congruent
    assert rw.decide(EqMod(nominal, faulted, V("q"))) is False
    # numeric cross-check with p=7, q=11
    env = ConcreteEnv({"p": 7, "q": 11, "e": 7, "M": 2, "f1": 5}, p=7, q=11)
    assert (eval_expr(nominal, env) - eval_expr(faulted, env)) % 7 == 0


def test_equal_residues_same_modulus(rw):
    # Eq on Mod terms with one modulus compares the residues in that ring
    a = pe("(x + N * k) mod N")
    b = pe("x mod N")
    assert rw.decide(Eq(a, b)) is True
    assert rw.decide(Neq(a, b)) is False


def test_conditions_are_not_normalized(rw):
    with pytest.raises(TypeError, match="not an expression"):
        rw.normalize(Eq(V("x"), V("y")))


@pytest.mark.parametrize("order", [(True, False), (False, True)])
def test_check_verdicts_are_memoized_per_fault_variable_set(order):
    # A fault variable under a power with a cofactor may be annihilated for
    # corner-case inputs (unknown); an input there leaves a structural
    # deviation (the inequality holds).  One rewriter must give both,
    # whichever it decides first.
    from modfault.executor import subst
    rw = Rewriter()
    plain = parse_cond("a * f1^e !=[N] a * b^e")
    faulted = subst(plain, {"f1": Fresh("f1")})
    expected = {True: UNKNOWN, False: TRUE}
    for is_faulted in order:
        c = faulted if is_faulted else plain
        assert rw.decide_check(c) == expected[is_faulted]
    assert rw.decide_check(faulted) == UNKNOWN


# -- property suites -----------------------------------------------------------

NAMES = ("a", "b", "p", "q", "r", "x")


def leaves():
    return st.one_of(st.just(Zero()), st.just(One()),
                     st.sampled_from(NAMES).map(Var))


def exprs():
    return st.recursive(
        leaves(),
        lambda sub: st.one_of(
            sub.map(Opp),
            st.tuples(sub, sub).map(Sum),
            st.tuples(sub, sub, sub).map(Sum),
            st.tuples(sub, sub).map(Prod),
            st.tuples(sub, leaves()).map(lambda t: Pow(*t)),
            st.tuples(sub, sub).map(lambda t: Mod(*t)),
        ),
        max_leaves=20,
    )


@given(exprs())
@settings(max_examples=1000, deadline=None)
def test_normalize_idempotent(e):
    rw = Rewriter(primes={"p", "q"})
    once = rw.normalize(e)
    assert rw.normalize(once) == once


def _degenerate_moduli_env(e, env):
    # generic-value semantics assumes every modulus denotes a value > 1;
    # a draw where some reduced residue re-enters as a 0/1-valued modulus
    # lies outside the domain the rewriter reasons about
    from modfault.terms import Mod
    for node in walk(e):
        if isinstance(node, Mod):
            try:
                if abs(eval_expr(node.modulus, env)) <= 1:
                    return True
            except Exception:
                return True
    return False


@given(exprs(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_normalize_preserves_value(e, seed):
    import random
    rng = random.Random(seed)
    env = ConcreteEnv({n: rng.randrange(2, 12) for n in NAMES})
    env.values["p"], env.values["q"] = 7, 11
    rw = Rewriter(primes={"p", "q"})
    normal = rw.normalize(e)
    if _degenerate_moduli_env(e, env) or _degenerate_moduli_env(normal, env):
        return
    try:
        expected = eval_expr(e, env)
    except Exception:
        return  # nonexistent inverse or stray negative exponent: skip draw
    assert eval_expr(normal, env) == expected


@given(st.lists(st.sampled_from(NAMES).map(Var), min_size=2, max_size=5),
       st.randoms())
@settings(max_examples=200, deadline=None)
def test_sum_prod_permutation_invariance(vs, rnd):
    rw = Rewriter()
    shuffled = list(vs)
    rnd.shuffle(shuffled)
    assert rw.normalize(Sum(tuple(vs))) == rw.normalize(Sum(tuple(shuffled)))
    assert rw.normalize(Prod(tuple(vs))) == rw.normalize(Prod(tuple(shuffled)))


# -- per-node facts: the fault-variable bit and the factor cache --------------

FAULT_NAMES = ("f0", "f1")


def fault_exprs():
    """Terms with fault variables under sums, products, powers (base and
    exponent) and reductions (body and modulus)."""
    leaf = st.one_of(leaves(), st.sampled_from(FAULT_NAMES).map(Fresh))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Opp),
            st.tuples(sub, sub).map(Sum),
            st.tuples(sub, sub, sub).map(Prod),
            st.tuples(sub, sub).map(lambda t: Pow(*t)),
            st.tuples(sub, sub).map(lambda t: Mod(*t)),
        ),
        max_leaves=16,
    )


class ReferenceFreshScan:
    """The scan as it was before it skipped fault-free subterms."""

    def __init__(self):
        self.occurrences = 0
        self.transparent = False
        self.opaque = False
        self.in_modulus = False

    def visit(self, e, in_prod, in_pow):
        if isinstance(e, Fresh):
            self.occurrences += 1
            if in_pow and in_prod:
                self.opaque = True
            else:
                self.transparent = True
            return
        if isinstance(e, Mod):
            if any(isinstance(n, Fresh) for n in walk(e.modulus)):
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


def reference_generically_nonzero(delta):
    if delta == Zero():
        return False
    scan = ReferenceFreshScan()
    scan.visit(delta, in_prod=False, in_pow=False)
    if not scan.occurrences:
        return True
    if scan.in_modulus:
        return True
    return scan.transparent and not scan.opaque


@given(fault_exprs())
@settings(max_examples=500, deadline=None)
def test_fault_variable_bit_and_scan_match_the_full_walk(e):
    rw = Rewriter(primes={"p", "q"})
    try:
        normal = rw.normalize(e)
    except RewriteBudgetExceeded:
        normal = e
    for term in (e, normal):
        for node in walk(term):
            assert node._fresh == any(isinstance(n, Fresh) for n in walk(node))
        assert rw._generically_nonzero(term) == reference_generically_nonzero(term)


def reference_assemble_sum(parts, ctx):
    """The sum assembly as it was when it looked up Opp(t) for each t."""
    flat = []
    for p in parts:
        if ctx is not None and p != Zero() and _is_multiple(p, ctx):
            continue
        if isinstance(p, Sum):
            flat.extend(p.operands)
        elif p != Zero():
            flat.append(p)
    counts = Counter(flat)
    for t in list(counts):
        if isinstance(t, Opp):
            continue
        k = min(counts[t], counts.get(Opp(t), 0))
        if k:
            counts[t] -= k
            counts[Opp(t)] -= k
    out = []
    for t, n in counts.items():
        out.extend([t] * n)
    out.sort(key=sort_key)
    if not out:
        return Zero()
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


@given(st.lists(st.tuples(exprs(), st.integers(0, 3), st.integers(0, 3),
                          st.booleans()),
                min_size=1, max_size=5),
       st.one_of(st.none(), exprs()), st.randoms())
@settings(max_examples=500, deadline=None)
def test_sum_cancellation_matches_the_opp_lookup(draws, modulus, rnd):
    # Normal forms t repeated m times beside m' opposites, either the
    # rewriter's opposite of t or a bare Opp(t), which is an Opp of an Opp
    # when t is itself an opposite.
    rw = Rewriter(primes={"p", "q"})
    try:
        parts = []
        for e, m, m_opp, bare in draws:
            t = rw.normalize(e)
            opposite = Opp(t) if bare else rw._mk_opp(t)
            parts += [t] * m + [opposite] * m_opp
        ctx = None if modulus is None else rw.normalize(modulus)
    except RewriteBudgetExceeded:
        return
    if ctx == Zero():
        ctx = None
    rnd.shuffle(parts)
    assert rw._assemble_sum(list(parts), ctx) is reference_assemble_sum(parts, ctx)


def test_cached_factor_multisets_are_never_mutated(monkeypatch, corpus_programs,
                                                  cold_rewriter):
    # the four analyses share one rewriter, built after the slot was emptied,
    # so it is the recording one
    rewriters = []

    class Recording(Rewriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rewriters.append(self)

    monkeypatch.setattr("modfault.analyzer.Rewriter", Recording)
    cfg = FaultConfig(max_faults=1, kinds=(ZEROING, RANDOMIZING))
    for program in corpus_programs.values():
        analyze(program, cfg, jobs=1)
    cached = [node for node in (ref() for ref in list(_INTERNED.values()))
              if node is not None and node._factors is not None]
    assert len(rewriters) == 1
    assert cached
    for node in cached:
        assert node._factors == Counter(node.operands)


# -- the deciders against the parent's ----------------------------------------

def reference_negate3(v):
    if v == TRUE:
        return FALSE
    if v == FALSE:
        return TRUE
    return UNKNOWN


class ReferenceRewriter(Rewriter):
    """The deciders as they were when each spelled out its own connectives
    and both polarities of every comparison."""

    def _decide(self, c):
        if isinstance(c, And):
            return self._decide(c.lhs) and self._decide(c.rhs)
        if isinstance(c, Or):
            return self._decide(c.lhs) or self._decide(c.rhs)
        if isinstance(c, Eq):
            return self._equal(c.lhs, c.rhs)
        if isinstance(c, Neq):
            return not self._equal(c.lhs, c.rhs)
        if isinstance(c, EqMod):
            return self._congruence_delta(c.lhs, c.rhs, c.modulus) == Zero()
        if isinstance(c, NeqMod):
            return self._congruence_delta(c.lhs, c.rhs, c.modulus) != Zero()
        raise TypeError(f"not a condition: {c!r}")

    def _lemma_cancel(self, a, b, m):
        if m == Zero():
            return a, b, m
        fm = _factor_counter(m)
        fa, sa = _signed_factors(a)
        fb, sb = _signed_factors(b)
        if a == Zero() and b == Zero():
            return a, b, m
        if a == Zero():
            common = fb & fm
        elif b == Zero():
            common = fa & fm
        else:
            common = fa & fb & fm
        if not common:
            return a, b, m
        a2 = a if a == Zero() else self._rebuild_product(fa - common, sa)
        b2 = b if b == Zero() else self._rebuild_product(fb - common, sb)
        m2 = self._rebuild_product(fm - common, False)
        return a2, b2, m2

    def _decide_check(self, c):
        if isinstance(c, And):
            left = self._decide_check(c.lhs)
            if left == FALSE:
                return FALSE
            right = self._decide_check(c.rhs)
            if right == FALSE:
                return FALSE
            if left == TRUE and right == TRUE:
                return TRUE
            return UNKNOWN
        if isinstance(c, Or):
            left = self._decide_check(c.lhs)
            if left == TRUE:
                return TRUE
            right = self._decide_check(c.rhs)
            if right == TRUE:
                return TRUE
            if left == FALSE and right == FALSE:
                return FALSE
            return UNKNOWN
        if isinstance(c, (EqMod, NeqMod)):
            holds = self._check_congruence(c.lhs, c.rhs, c.modulus)
            return holds if isinstance(c, EqMod) else reference_negate3(holds)
        if isinstance(c, (Eq, Neq)):
            a = self._norm(c.lhs, None)
            b = self._norm(c.rhs, None)
            if self._equal_normal(a, b):
                holds = TRUE
            else:
                delta = self._norm(Sum((a, self._mk_opp(b))), None)
                holds = FALSE if self._generically_nonzero(delta) else UNKNOWN
            return holds if isinstance(c, Eq) else reference_negate3(holds)
        raise TypeError(f"not a condition: {c!r}")

    def _check_congruence(self, lhs, rhs, modulus):
        a, b, m = self._normal_operands(lhs, rhs, modulus)
        difference = Sum((a, Opp(b)))
        all_zero = True
        any_fires = False
        for g in _crt_components(m):
            delta = self._norm(Mod(difference, g), None)
            if delta == Zero():
                continue
            all_zero = False
            if self._generically_nonzero(self._drop_invertible_cofactors(delta, g)):
                any_fires = True
        if all_zero:
            return TRUE
        if any_fires:
            return FALSE
        return UNKNOWN

    def _drop_invertible_cofactors(self, delta, g):
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
                         if isinstance(t, Pow) and t.exponent == Opp(One())})
        if not units:
            return delta
        rebuilt = []
        for s, f in zip(summands, counters):
            _same, neg = _signed_factors(s)
            rebuilt.append(self._rebuild_product(f - units, neg))
        return self._norm(Mod(Sum(tuple(rebuilt)), g), None)


class NormLog:
    """Records every ``_norm`` call, so two rewriters' call orders compare."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.norm_calls = []

    def _norm(self, e, ctx):
        self.norm_calls.append((e, ctx))
        return super()._norm(e, ctx)


class LoggedRewriter(NormLog, Rewriter):
    pass


class LoggedReference(NormLog, ReferenceRewriter):
    pass


# Operand triples (lhs, rhs, modulus) chosen so that, between the four
# comparison kinds, every verdict of both deciders occurs: equal terms,
# residues equal in their ring, structural deviations, fault variables that
# enter transparently, fault variables under a power with a cofactor
# (unknown), a cancellation-lemma cofactor, a CRT modulus and an inverse
# cofactor in one component.
def _operand_pool():
    f1 = Fresh("f1")
    pool = [
        ("x", "x", "N"),
        ("(x + N * k) mod N", "x mod N", "N"),
        ("a", "b", "N"),
        ("a + N * k", "a", "N"),
        ("a * x", "b * x", "N * x"),
        ("N * x * y", "0", "N * x"),
        ("a * p * q", "0", "p * q"),
        ("a * (b^-1)", "c * (b^-1)", "p * q"),
        ("M^e mod p", "M^e mod p", "p * q"),
        ("M^(e mod (p - 1)) mod p", "M^e mod p", "p"),
    ]
    triples = [tuple(pe(t) for t in triple) for triple in pool]
    triples += [
        (Prod((V("a"), Pow(f1, V("e")))), Prod((V("a"), Pow(V("b"), V("e")))), V("N")),
        (Sum((V("a"), f1)), V("a"), V("N")),
        (Prod((V("a"), Pow(f1, V("e")))), Prod((V("a"), Pow(V("b"), V("e")))),
         pe("p * q")),
        (Mod(V("x"), f1), V("x"), V("p")),
        (f1, Zero(), pe("p * q")),
    ]
    return triples


OPERANDS = _operand_pool()
COMPARISONS = (Eq, Neq, EqMod, NeqMod)


def _comparison(kind, triple):
    lhs, rhs, modulus = triple
    return kind(lhs, rhs, modulus) if kind in (EqMod, NeqMod) else kind(lhs, rhs)


def comparisons():
    return st.builds(_comparison, st.sampled_from(COMPARISONS), st.sampled_from(OPERANDS))


def connective_trees(depth=4):
    """``/\\`` and ``\\/`` trees of comparisons, at most ``depth`` deep."""
    if depth == 0:
        return comparisons()
    sub = connective_trees(depth - 1)
    return st.one_of(comparisons(), st.builds(And, sub, sub), st.builds(Or, sub, sub))


def _run(rw, decide, c):
    try:
        verdict = decide(rw, c)
    except RewriteBudgetExceeded:
        verdict = RewriteBudgetExceeded
    return verdict, rw._steps


def test_operand_pool_covers_every_kind_and_verdict():
    seen = {Rewriter.decide: set(), Rewriter.decide_check: set()}
    for kind in COMPARISONS:
        for decide, verdicts in seen.items():
            found = {decide(Rewriter(primes={"p", "q"}), _comparison(kind, t))
                     for t in OPERANDS}
            verdicts.update((kind, v) for v in found)
    assert seen[Rewriter.decide] == {(k, v) for k in COMPARISONS for v in (True, False)}
    assert seen[Rewriter.decide_check] == {
        (k, v) for k in COMPARISONS for v in (TRUE, FALSE, UNKNOWN)}


@given(st.lists(connective_trees(), min_size=1, max_size=3),
       st.sampled_from((3, 8, 20, 100_000)))
@settings(max_examples=400, deadline=None)
def test_deciders_match_the_reference(conds, max_steps):
    # One rewriter per side decides the conditions in turn, so later calls
    # meet a warm memo; each call's verdict, step charge and _norm calls
    # must match, and so must a budget overrun.
    for decide in (Rewriter.decide, Rewriter.decide_check):
        new = LoggedRewriter(primes={"p", "q"}, max_steps=max_steps)
        ref = LoggedReference(primes={"p", "q"}, max_steps=max_steps)
        for c in conds:
            assert _run(new, decide, c) == _run(ref, decide, c)
            assert new.norm_calls == ref.norm_calls


@pytest.mark.parametrize("c, opens", [
    ("x = x /\\ {deep} = y", True), ("x = y /\\ {deep} = y", False),
    ("x = y \\/ {deep} = y", True), ("x = x \\/ {deep} = y", False),
])
def test_only_the_right_operand_exceeds_the_budget(c, opens):
    # The left operand leaves the connective open, or settles it, within a
    # tight budget; only the right operand's sum of 40 distinct variables
    # exceeds it.
    c = parse_cond(c.format(deep="(" + " + ".join(f"x{i}" for i in range(40)) + ")"))
    for decide in (Rewriter.decide, Rewriter.decide_check):
        new = LoggedRewriter(max_steps=20)
        ref = LoggedReference(max_steps=20)
        outcome = _run(new, decide, c)
        assert outcome == _run(ref, decide, c)
        assert new.norm_calls == ref.norm_calls
        assert (outcome[0] is RewriteBudgetExceeded) == opens


# -- detections the numbers contradict (see test_oracle's pinned list) ---------

@pytest.mark.xfail(strict=True, reason="a residual over x mod 0 counts as nonzero")
def test_a_zeroed_modulus_fires_no_check(rw):
    # The oracle reads x mod 0 as x, so the inequality never holds.
    assert rw.decide_check(parse_cond("(x mod 0) !=[p] x")) != TRUE


@pytest.mark.xfail(strict=True, reason="a reduction modulo -1 is not folded to zero")
def test_a_modulus_of_minus_one_is_a_modulus_of_one(rw):
    assert rw.normalize(pe("a mod (0 - 1)")) == Zero()
    assert rw.decide_check(parse_cond("a !=[0 - 1] b")) == \
        rw.decide_check(parse_cond("a !=[1] b"))
