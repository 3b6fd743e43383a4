from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    Mod, One, Opp, Pow, Prod, Sum, Var, Zero, parse, parse_expr, pretty,
    pretty_expr,
)

NAMES = ("a", "b", "p", "q", "r", "M", "d'p", "x_1")


def leaves():
    return st.one_of(
        st.just(Zero()),
        st.just(One()),
        st.sampled_from(NAMES).map(Var),
    )


def exprs(max_depth=4):
    return st.recursive(
        leaves(),
        lambda sub: st.one_of(
            sub.map(Opp),
            st.tuples(sub, sub).map(lambda t: Sum(t)),
            st.tuples(sub, sub, sub).map(lambda t: Sum(t)),
            st.tuples(sub, sub).map(lambda t: Prod(t)),
            st.tuples(sub, leaves()).map(lambda t: Pow(*t)),
            st.tuples(sub, sub).map(lambda t: Mod(*t)),
        ),
        max_leaves=24,
    )


@given(exprs())
@settings(max_examples=300)
def test_expr_roundtrip(e):
    assert parse_expr(pretty_expr(e)) == e


@given(exprs())
@settings(max_examples=100)
def test_protected_expr_roundtrip(e):
    protected = e.with_protected(True)
    assert parse_expr(pretty_expr(protected)) == protected


def maybe_protected(strategy):
    return st.tuples(strategy, st.booleans()).map(lambda t: t[0].with_protected(t[1]))


def conds():
    # protection anywhere: on an operand, a comparison, a sub-condition
    from modfault import And, Eq, EqMod, Neq, NeqMod, Or
    operands = maybe_protected(exprs())
    comparisons = maybe_protected(st.one_of(
        st.tuples(operands, operands).map(lambda t: Eq(*t)),
        st.tuples(operands, operands).map(lambda t: Neq(*t)),
        st.tuples(operands, operands, operands).map(lambda t: EqMod(*t)),
        st.tuples(operands, operands, operands).map(lambda t: NeqMod(*t)),
    ))
    return st.recursive(
        comparisons,
        lambda sub: maybe_protected(st.one_of(
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        )),
        max_leaves=6,
    )


@given(conds())
@settings(max_examples=300)
def test_cond_roundtrip(c):
    from modfault import parse_cond
    assert parse_cond(pretty_expr(c)) == c


def test_grammar_mapping_example():
    e = Mod(Pow(Var("M"), Var("dp")), Var("p"))
    assert pretty_expr(e) == "M^dp mod p"


def test_program_roundtrip_corpus(corpus_sources, corpus_programs):
    for name, program in corpus_programs.items():
        assert parse(pretty(program)) == program


def test_double_roundtrip_is_stable(corpus_sources):
    for source in corpus_sources.values():
        once = parse(source)
        assert parse(pretty(parse(pretty(once)))) == once


def test_protection_braces_reproduced():
    src = "noprop e ; prime {p} ; dp := { e^-1 mod (p-1) } ; return dp ; _ != @"
    text = pretty(parse(src))
    assert "{e^-1 mod p - 1}" in text or "{ e^-1 mod (p-1) }" in text
    assert "prime {p} ;" in text


def test_pretty_renders_conditions():
    from modfault import parse_cond
    source = "{S =[p] Sp} /\\ _ != @"
    assert pretty(parse_cond(source)) == source
