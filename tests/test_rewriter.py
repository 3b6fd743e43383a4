import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    EqMod, FaultConfig, Fresh, Mod, Neq, NeqMod, One, Opp, Pow, Prod, RANDOMIZING,
    RewriteBudgetExceeded, Rewriter, Sum, Var, ZEROING, Zero, Eq, analyze,
    parse_cond, parse_expr,
)
from modfault.oracle import ConcreteEnv, eval_expr
from modfault.rewriter import TRUE, UNKNOWN, _is_multiple
from modfault.terms import _INTERNED, sort_key, walk

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
    from modfault.terms import Mod, walk
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


def test_cached_factor_multisets_are_never_mutated(monkeypatch, corpus_programs):
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
    assert len(rewriters) == len(corpus_programs)
    assert cached
    for node in cached:
        assert node._factors == Counter(node.operands)
