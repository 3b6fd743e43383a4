from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    And, Cond, Eq, EqMod, Mod, Neq, NeqMod, One, Opp, Or, Pow, Prod, Sum,
    Var, Zero, parse, parse_cond, parse_expr, pretty, pretty_expr,
)

NAMES = ("a", "b", "p", "q", "r", "M", "d'p", "x_1")


def leaves():
    return st.one_of(
        st.just(Zero()),
        st.just(One()),
        st.sampled_from(NAMES).map(Var),
    )


def maybe_protected(strategy):
    return st.tuples(strategy, st.booleans()).map(lambda t: t[0].with_protected(t[1]))


def exprs(max_depth=4):
    # protection at any depth, and powers whose exponent is any expression:
    # a - {b} beside a + {-b}, and a^b^c beside (a^b)^c
    return st.recursive(
        maybe_protected(leaves()),
        lambda sub: maybe_protected(st.one_of(
            sub.map(Opp),
            st.tuples(sub, sub).map(lambda t: Sum(t)),
            st.tuples(sub, sub, sub).map(lambda t: Sum(t)),
            st.tuples(sub, sub).map(lambda t: Prod(t)),
            st.tuples(sub, sub).map(lambda t: Pow(*t)),
            st.tuples(sub, sub).map(lambda t: Mod(*t)),
        )),
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


def conds():
    # protection anywhere: on an operand, a comparison, a sub-condition
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
    source = "{S =[p] Sp} /\\ _ != @"
    assert pretty(parse_cond(source)) == source


def test_protected_negation_in_a_sum_keeps_its_plus():
    e = Sum((Var("a"), Opp(Var("b"), protected=True)))
    assert pretty_expr(e) == "a + {-b}"
    assert pretty_expr(Sum((Var("a"), Opp(Var("b"))))) == "a - b"


def test_power_is_right_associative():
    assert pretty_expr(Pow(Var("a"), Pow(Var("b"), Var("c")))) == "a^b^c"
    assert pretty_expr(Pow(Pow(Var("a"), Var("b")), Var("c"))) == "(a^b)^c"


# -- the printer before it read the parser's operator table, kept as a
# reference: the printer must write every term byte for byte as it did.

_R_LOGIC, _R_CMP, _R_MOD, _R_ADD, _R_MUL, _R_POW, _R_ATOM = range(-2, 5)


def _reference_level(e):
    if isinstance(e, (And, Or)):
        return _R_LOGIC
    if isinstance(e, Cond):
        return _R_CMP
    if isinstance(e, Mod):
        return _R_MOD
    if isinstance(e, Sum):
        return _R_ADD
    if isinstance(e, Prod):
        return _R_MUL
    if isinstance(e, Pow):
        return _R_POW
    return _R_ATOM


def reference_pretty_expr(e):
    text = _reference_render(e)
    if e.protected:
        return "{" + text + "}"
    return text


def _reference_render(e):
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, One):
        return "1"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Opp):
        inner = _reference_child(e.arg, _R_ATOM)
        if inner.startswith("-"):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Pow):
        return _reference_child(e.base, _R_ATOM) + "^" + _reference_child(e.exponent, _R_POW)
    if isinstance(e, Prod):
        return " * ".join(_reference_child(c, _R_POW) for c in e.operands)
    if isinstance(e, Sum):
        parts = [_reference_child(e.operands[0], _R_MUL)]
        for c in e.operands[1:]:
            if isinstance(c, Opp) and not c.protected:
                parts.append("- " + _reference_child(c.arg, _R_MUL))
            else:
                parts.append("+ " + _reference_child(c, _R_MUL))
        return " ".join(parts)
    if isinstance(e, Mod):
        return _reference_child(e.body, _R_ADD) + " mod " + _reference_child(e.modulus, _R_ADD)
    if isinstance(e, Eq):
        return f"{reference_pretty_expr(e.lhs)} = {reference_pretty_expr(e.rhs)}"
    if isinstance(e, Neq):
        return f"{reference_pretty_expr(e.lhs)} != {reference_pretty_expr(e.rhs)}"
    if isinstance(e, EqMod):
        return (f"{reference_pretty_expr(e.lhs)} =[{reference_pretty_expr(e.modulus)}] "
                f"{reference_pretty_expr(e.rhs)}")
    if isinstance(e, NeqMod):
        return (f"{reference_pretty_expr(e.lhs)} !=[{reference_pretty_expr(e.modulus)}] "
                f"{reference_pretty_expr(e.rhs)}")
    op = " /\\ " if isinstance(e, And) else " \\/ "
    return _reference_child(e.lhs, _R_CMP) + op + _reference_child(e.rhs, _R_CMP)


def _reference_child(e, min_level):
    text = reference_pretty_expr(e)
    if not e.protected and _reference_level(e) < min_level:
        return f"({text})"
    return text


@given(exprs())
@settings(max_examples=300)
def test_expr_text_matches_the_reference_printer(e):
    assert pretty_expr(e) == reference_pretty_expr(e)


@given(conds())
@settings(max_examples=300)
def test_cond_text_matches_the_reference_printer(c):
    assert pretty_expr(c) == reference_pretty_expr(c)


def test_corpus_terms_match_the_reference_printer(corpus_programs):
    for program in corpus_programs.values():
        terms = [program.attack_condition]
        for s in program.statements:
            terms += [getattr(s, f) for f in ("rhs", "condition", "abort_value", "value")
                      if hasattr(s, f)]
        for e in terms:
            assert pretty_expr(e) == reference_pretty_expr(e)
