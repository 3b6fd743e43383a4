import gc
import multiprocessing
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    And, Eq, EqMod, Fresh, Mod, Neq, NeqMod, One, Opp, Or, Pow, Prod, Sum, Var,
    Zero, parse_cond, parse_expr,
)
from modfault.terms import _INTERNED, _InternRef, _forget, sort_key, strip_protection

from conftest import free_vars, walk

NAMES = ("a", "b", "p", "q", "M", "x_1")

# The recursive definitions that interning replaced, kept as the reference.
_KIND_RANK = {Zero: 0, One: 1, Var: 2, Opp: 3, Pow: 4, Prod: 5, Sum: 6, Mod: 7}


def reference_sort_key(e):
    rank = _KIND_RANK[type(e)]
    if isinstance(e, Var):
        return (rank, e.name)
    kids = e.children()
    if isinstance(e, (Sum, Prod)):
        return (rank, len(kids)) + tuple(reference_sort_key(c) for c in kids)
    return (rank,) + tuple(reference_sort_key(c) for c in kids)


def reference_strip(e):
    kids = tuple(reference_strip(c) for c in e.children())
    return e.with_children(kids).with_protected(False)


def maybe_protected(strategy):
    return st.tuples(strategy, st.booleans()).map(lambda t: t[0].with_protected(t[1]))


def exprs():
    leaves = st.one_of(st.just(Zero()), st.just(One()),
                       st.sampled_from(NAMES).map(Var))
    return st.recursive(
        maybe_protected(leaves),
        lambda sub: maybe_protected(st.one_of(
            sub.map(Opp),
            st.tuples(sub, sub).map(Sum),
            st.tuples(sub, sub, sub).map(Prod),
            st.tuples(sub, sub).map(lambda t: Pow(*t)),
            st.tuples(sub, sub).map(lambda t: Mod(*t)),
        )),
        max_leaves=20,
    )


def test_equal_terms_are_one_object():
    a, b = Var("a"), Var("b")
    assert Var("x") is Var("x")
    assert Sum((a, b)) is Sum((a, b))
    assert Mod(Pow(a, Opp(One())), b) is parse_expr("a^-1 mod b")
    assert Sum((a, b)) is not Sum((b, a))


def test_protected_node_is_another_object():
    assert Var("x", protected=True) is not Var("x")
    assert Var("x", protected=True) != Var("x")
    assert Var("x", protected=True) is Var("x").with_protected(True)


def test_strip_protection_reaches_every_level():
    e = parse_expr("({a} + b) * c")
    assert e.operands[0].operands[0].protected
    plain = Prod((Sum((Var("a"), Var("b"))), Var("c")))
    assert e is not plain
    assert strip_protection(e) is plain
    assert strip_protection(plain) is plain
    assert strip_protection(parse_expr("{a * b}")) is parse_expr("a * b")


def test_building_a_node_interns_no_protection_free_copy():
    # A protected leaf, a plain leaf and their sum are three nodes; the sum's
    # protection-free term is built only when strip_protection asks for it.
    gc.collect()
    before = len(_INTERNED)
    e = Sum((Var("copyless_a", protected=True), Var("copyless_b")))
    assert len(_INTERNED) == before + 3
    assert strip_protection(e) is Sum((Var("copyless_a"), Var("copyless_b")))


def test_pickle_reinterns():
    e = parse_expr("M^{dp} mod ({p} - 1)")
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps(Var("M"))) is Var("M")


def test_hash_survives_the_node():
    # Nodes hash by identity: a live node keeps its hash and is what an equal
    # construction returns, and a dropped node is freed, not kept for its hash.
    def build():
        return Mod(Pow(Var("unique_base"), Opp(One())), Var("unique_modulus"))

    e = build()
    first = hash(e)
    assert build() is e
    assert hash(build()) == first == hash(e)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_intern_table_forgets_dropped_nodes():
    gc.collect()
    before = len(_INTERNED)
    nodes = [Opp(Var(f"dropped_{i}")) for i in range(5_000)]
    assert len(_INTERNED) == before + 10_000
    del nodes
    gc.collect()
    assert len(_INTERNED) == before
    rebuilt = Opp(Var("dropped_7"))
    assert Opp(Var("dropped_7")) is rebuilt
    assert _INTERNED[rebuilt._key]() is rebuilt


def test_a_dead_nodes_callback_spares_its_successor():
    # The callback of a node's reference may run after an equal node took
    # the key; it must not remove the successor's entry.
    e = Var("successor")
    stale_node = Var("stale")
    stale = _InternRef(stale_node, _forget)
    stale.key = e._key
    del stale_node  # runs the callback, as the dead node's would
    _forget(stale)
    assert _INTERNED[e._key]() is e
    assert Var("successor") is e


def _echo(e):
    return e


def test_pickle_reinterns_across_processes():
    nodes = [parse_expr("M^{dp} mod ({p} - 1)"), parse_cond("{S =[p] Sp} /\\ _ != @"),
             Fresh("f")]
    with multiprocessing.Pool(2) as pool:
        back = pool.map_async(_echo, nodes).get(timeout=60)
    assert len(back) == len(nodes)
    assert all(b is n for b, n in zip(back, nodes))


def test_nodes_are_immutable():
    e = Sum((Var("a"), One()))
    with pytest.raises(FrozenInstanceError):
        e.operands = ()
    with pytest.raises(FrozenInstanceError):
        e.protected = True
    assert e.operands == (Var("a"), One())


def test_repr_names_the_fields():
    assert repr(Opp(Var("x"))) == \
        "Opp(protected=False, arg=Var(protected=False, name='x'))"


@given(exprs())
@settings(max_examples=300, deadline=None)
def test_sort_key_matches_recursive_definition(e):
    assert sort_key(e) == reference_sort_key(e)


@given(exprs())
@settings(max_examples=300, deadline=None)
def test_strip_protection_matches_recursive_definition(e):
    assert strip_protection(e) is reference_strip(e)


# -- conditions ----------------------------------------------------------------

# The condition walker that the shared term walkers replaced, kept as the
# reference.
def reference_cond_free_vars(c):
    out = set()
    if isinstance(c, (And, Or)):
        out |= reference_cond_free_vars(c.lhs)
        out |= reference_cond_free_vars(c.rhs)
    else:
        operands = (c.lhs, c.rhs)
        if isinstance(c, (EqMod, NeqMod)):
            operands += (c.modulus,)
        for e in operands:
            out |= free_vars(e)
    return out


def conds():
    comparisons = st.one_of(
        st.tuples(exprs(), exprs()).map(lambda t: Eq(*t)),
        st.tuples(exprs(), exprs()).map(lambda t: Neq(*t)),
        st.tuples(exprs(), exprs(), exprs()).map(lambda t: EqMod(*t)),
        st.tuples(exprs(), exprs(), exprs()).map(lambda t: NeqMod(*t)),
    )
    return st.recursive(
        maybe_protected(comparisons),
        lambda sub: maybe_protected(st.one_of(
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        )),
        max_leaves=4,
    )


def test_equal_conditions_are_one_object():
    a, b = Var("a"), Var("b")
    assert Eq(a, b) is Eq(a, b)
    assert Eq(a, b) is not Neq(a, b)
    assert Eq(a, b) is not Eq(b, a)
    assert parse_cond("a =[N] b /\\ a != 0") is \
        And(EqMod(a, b, Var("N")), Neq(a, Zero()))


def test_protected_condition_is_another_object():
    c = parse_cond("{a = {b}} \\/ c != 1")
    guarded = c.lhs
    assert guarded.protected and guarded.rhs.protected
    assert guarded is not Eq(Var("a"), Var("b").with_protected(True))
    assert guarded is Eq(Var("a"), Var("b").with_protected(True), protected=True)
    plain = Or(Eq(Var("a"), Var("b")), Neq(Var("c"), One()))
    assert strip_protection(c) is plain
    assert not any(n.protected for n in walk(strip_protection(c)))


def test_pickle_reinterns_conditions():
    c = parse_cond("{S =[p] Sp} /\\ _ !=[{q}] @")
    assert pickle.loads(pickle.dumps(c)) is c


def test_conditions_are_immutable():
    c = Eq(Var("a"), Var("b"))
    with pytest.raises(FrozenInstanceError):
        c.lhs = Var("b")
    with pytest.raises(FrozenInstanceError):
        c.protected = True
    assert c.lhs is Var("a")


@given(conds())
@settings(max_examples=300, deadline=None)
def test_condition_free_vars_match_the_condition_walker(c):
    assert free_vars(c) == reference_cond_free_vars(c)


@given(conds())
@settings(max_examples=100, deadline=None)
def test_condition_strip_protection_matches_recursive_definition(c):
    assert strip_protection(c) is reference_strip(c)
