import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    And, Assign, Declare, Eq, EqMod, LanguageError, Mod, Neq, NeqMod, One,
    Opp, Or, Pow, Prod, Return, Sum, Var, Verify, Zero, parse, parse_cond,
    parse_expr, pretty,
)
from modfault.parser import _Parser, tokenize
from modfault.terms import RESERVED_NAMES, Program

from conftest import free_vars


def test_smallest_program():
    p = parse("noprop M ; return M ; _ != @")
    assert len(p.statements) == 2
    assert p.statements[0] == Declare(("M",), (False,))
    assert p.statements[1] == Return(Var("M"))
    assert p.attack_condition == Neq(Var("_"), Var("@"))


def test_missing_semicolon_is_a_syntax_error():
    with pytest.raises(LanguageError) as err:
        parse("noprop M return M ;")
    assert "';'" in str(err.value)


def test_errors_carry_line_and_column():
    with pytest.raises(LanguageError) as err:
        parse("noprop M ;\nreturn M + ;\n_ != @")
    assert err.value.line == 2
    assert err.value.col > 0


def test_use_before_declaration():
    with pytest.raises(LanguageError, match="undeclared"):
        parse("noprop M ; S := M + x ; return S ; _ != @")


def test_duplicate_declaration():
    with pytest.raises(LanguageError, match="duplicate"):
        parse("noprop M, M ; return M ; _ != @")
    with pytest.raises(LanguageError, match="duplicate"):
        parse("noprop M ; M := 1 ; return M ; _ != @")


@pytest.mark.parametrize("source, message, line, col", [
    ("noprop M ;\nS := M +\n  x ;\nreturn S ;\n_ != @",
     "use of undeclared identifier 'x' in assignment to 'S'", 3, 3),
    ("noprop M ;\nreturn M ;\n_ != @ \\/ _ = c",
     "use of undeclared identifier 'c' in attack condition", 3, 15),
    ("noprop M ;\nS := M + _ ;\nreturn S ;\n_ != @",
     "reserved identifier '_' used outside the attack condition", 2, 10),
    ("noprop M, e,\n  M ;\nreturn M ;\n_ != @",
     "duplicate declaration of 'M'", 2, 3),
    ("noprop M ;\n  M := 1 ;\nreturn M ;\n_ != @",
     "duplicate declaration of 'M'", 2, 3),
    ("noprop M ;\nif c != M abort with 0 ;\nreturn M ;\n_ != @",
     "use of undeclared identifier 'c' in verification", 2, 4),
], ids=["assignment", "attack-condition", "reserved", "noprop-duplicate",
        "assignment-duplicate", "verification"])
def test_name_errors_are_located(source, message, line, col):
    with pytest.raises(LanguageError) as err:
        parse(source)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{message} at {line}:{col}"


def test_missing_return():
    with pytest.raises(LanguageError, match="return"):
        parse("noprop M ;")


def test_missing_attack_condition():
    with pytest.raises(LanguageError, match="attack"):
        parse("noprop M ; return M ;")


def test_reserved_identifiers_only_in_attack_condition():
    with pytest.raises(LanguageError, match="reserved"):
        parse("noprop M ; S := _ + M ; return S ; _ != @")
    with pytest.raises(LanguageError, match="reserved"):
        parse("noprop _ ; return _ ; _ != @")


def test_identifier_syntax_allows_quotes_and_underscores():
    p = parse("noprop M'p, d_1, x' ; return M'p ; _ != @")
    assert p.statements[0].names == ("M'p", "d_1", "x'")


def test_comments_run_to_end_of_line():
    p = parse("noprop M ; -- a comment\n--- banner ---\nreturn M ;\n_ != @")
    assert len(p.statements) == 2


def test_mod_binds_loosest():
    e = parse_expr("M^dp mod p")
    assert e == Mod(Pow(Var("M"), Var("dp")), Var("p"))
    e = parse_expr("1 - Bp mod p'")
    assert e == Mod(Sum((One(), Opp(Var("Bp")))), Var("p'"))


def test_precedence_chain():
    # unary minus tightest, then ^ (right), * , +/-, mod loosest
    e = parse_expr("e^-1 mod (p-1)")
    assert isinstance(e, Mod)
    assert isinstance(e.body, Pow)
    assert e.body.exponent == Opp(One())
    e = parse_expr("a^b^c")
    assert e == Pow(Var("a"), Pow(Var("b"), Var("c")))
    e = parse_expr("a * b + c")
    assert e == Sum((Prod((Var("a"), Var("b"))), Var("c")))


def test_protection_braces_mark_nodes():
    p = parse("noprop e ; prime {p} ; dp := { e^-1 mod (p-1) } ; return dp ; _ != @")
    noprop_decl, prime_decl = p.statements[:2]
    assert not noprop_decl.prime
    assert prime_decl.prime
    assert prime_decl.protected_flags == (True,)
    assign = p.statements[2]
    assert assign.rhs.protected
    mixed = parse("noprop {x}, y ; prime {p}, q ; return x * y * p * q ; _ != @")
    assert mixed.statements[:2] == (Declare(("x", "y"), (True, False)),
                                    Declare(("p", "q"), (True, False), prime=True))
    assert parse(pretty(mixed)) == mixed


def test_neqmod_tokenization():
    c = parse_cond("a !=[m] b")
    assert c == NeqMod(Var("a"), Var("b"), Var("m"))
    c = parse_cond("a =[m] b")
    assert c == EqMod(Var("a"), Var("b"), Var("m"))


def test_attack_condition_structure():
    p = parse("noprop M ; return M ; _ != @ /\\ ( _ =[M] @ \\/ _ =[M] @ )")
    cond = p.attack_condition
    assert isinstance(cond, And)
    assert isinstance(cond.rhs, Or)


def test_corpus_statement_counts(corpus_programs):
    assert len(corpus_programs["vigilant-original"].verifications()) == 9
    assert len(corpus_programs["vigilant-fixed"].verifications()) == 7
    assert len(corpus_programs["vigilant-coron"].verifications()) == 9


def test_corpus_symbols_present(corpus_programs):
    wanted = {"p", "q", "dp", "dq", "iq", "M", "e", "r", "R1", "R2", "R3", "R4",
              "p'", "q'", "Mp", "Mq", "ipr", "iqr", "Ap", "Bp", "Aq", "Bq",
              "M'p", "M'q", "d'p", "d'q", "Spr", "Sqr", "S'p", "S'q", "S", "N",
              "error"}
    names = corpus_programs["vigilant-original"].declared_names()
    assert wanted <= names


def test_protected_definitions_in_corpus(corpus_programs):
    prog = corpus_programs["unprotected"]
    protected_rhs = {st.target for st in prog.statements
                     if isinstance(st, Assign) and st.rhs.protected}
    assert protected_rhs == {"dp", "dq", "iq"}


def test_braces_protect_the_atom_they_enclose():
    a, b, p = Var("a"), Var("b"), Var("p")
    pa = a.with_protected(True)
    assert parse_expr("{a} + b") == Sum((pa, b))
    assert parse_expr("({a})") == pa
    assert parse_expr("{a}^b") == Pow(pa, b)
    assert parse_expr("-{a}") == Opp(pa)
    assert parse_expr("{a} mod p") == Mod(pa, p)
    assert parse_expr("{a + b}") == Sum((a, b)).with_protected(True)
    c = parse_cond("{x = y} /\\ z != 0")
    assert c == And(Eq(Var("x"), Var("y"), protected=True), Neq(Var("z"), Zero()))
    assert c.lhs.protected and not c.protected and not c.rhs.protected


def test_brackets_hold_either_kind_at_any_depth():
    x, y, a, b = Var("x"), Var("y"), Var("a"), Var("b")
    xy, ab = Eq(x, y), Eq(a, b)
    assert parse_cond("{{x = y} /\\ {a = b}}") == And(
        xy.with_protected(True), ab.with_protected(True), protected=True)
    assert parse_cond("{x = y /\\ {a = b}}") == And(
        xy, ab.with_protected(True), protected=True)
    assert parse_cond("{{x = y}}") == xy.with_protected(True)
    assert parse_cond("({x = y})") == xy.with_protected(True)
    assert parse_cond("{(x = y)}") == xy.with_protected(True)
    assert parse_cond("((x) = y)") == xy


@pytest.mark.parametrize("source, message, line, col", [
    ("noprop x ;\nif x abort with 0 ;\nreturn x ;\n_ != @",
     "expected a condition, found an expression", 2, 4),
    ("noprop a, b ;\nx := a = b ;\nreturn x ;\n_ != @",
     "expected an expression, found a condition", 2, 6),
    ("noprop a, b, c, d ;\nreturn a ;\n(a = b) + c = d",
     "expected an expression, found a condition", 3, 1),
    ("noprop x, y, z ;\nreturn x ;\n{x = y} = z",
     "expected an expression, found a condition", 3, 1),
    ("noprop x, y ;\nreturn x ;\n_ != @ /\\ -{x = y}",
     "expected an expression, found a condition", 3, 12),
    ("noprop x, y, z ;\nreturn x ;\nx /\\ y = z",
     "expected a condition, found an expression", 3, 1),
], ids=["verification-expression", "assignment-condition", "sum-of-condition",
        "compared-condition", "negated-condition", "conjoined-expression"])
def test_kind_mixes_are_located(source, message, line, col):
    with pytest.raises(LanguageError) as err:
        parse(source)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize("parse_one, source", [
    (parse, "noprop x ;\nreturn x ;\n" + "(" * 1000 + "x" + ")" * 1000 + " = @"),
    (parse_expr, "(" * 1000 + "x" + ")" * 1000),
    (parse_cond, "(" * 1000 + "x" + ")" * 1000 + " = y"),
], ids=["parse", "parse_expr", "parse_cond"])
def test_deep_nesting_is_a_language_error(parse_one, source):
    with pytest.raises(LanguageError, match="expression nested too deeply"):
        parse_one(source)


@pytest.mark.parametrize("source, message, col", [
    # two bad names in one statement: 'b' is read before '_'
    ("noprop M ; S := b + _ ; return S ; _ != @",
     "use of undeclared identifier 'b' in assignment to 'S'", 17),
    ("noprop M ; S := M * S ; return S ; _ != @",
     "use of undeclared identifier 'S' in assignment to 'S'", 21),
], ids=["reading-order", "target-after-right-hand-side"])
def test_names_are_checked_in_reading_order(source, message, col):
    with pytest.raises(LanguageError) as err:
        parse(source)
    assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)


class _ReferenceParser(_Parser):
    """The two-pass name check: each statement is parsed with its names
    unchecked, then walked again with ``free_vars``, and a bad name is found
    by re-scanning the statement's tokens.  Of several bad names in one
    statement it reports the alphabetically first; with at most one per
    statement it must agree with the parser's one-pass check."""

    def read_name(self, tok):
        pass

    def declare(self, tok):
        pass

    def parse_program(self):
        statements = []
        saw_return = False
        while not saw_return:
            if self.peek().kind == "eof":
                raise self.error("missing 'return' statement")
            start = self.pos
            st = self.parse_statement()
            self.check_statement(st, start)
            statements.append(st)
            saw_return = isinstance(st, Return)
        if self.peek().kind == "eof":
            raise self.error("missing attack success condition after return")
        start = self.pos
        condition = self.parse_cond()
        self.check_uses(free_vars(condition) - set(RESERVED_NAMES), "attack condition", start)
        return Program(tuple(statements), condition)

    def check_statement(self, st, start):
        if isinstance(st, Declare):
            for tok in self.tokens[start:self.pos]:
                if tok.kind == "name":
                    _Parser.declare(self, tok)
        elif isinstance(st, Assign):
            self.check_uses(free_vars(st.rhs), f"assignment to {st.target!r}", start + 1)
            _Parser.declare(self, self.tokens[start])
        elif isinstance(st, Verify):
            self.check_uses(free_vars(st.condition), "verification", start)
            self.check_uses(free_vars(st.abort_value), "abort value", start)
        elif isinstance(st, Return):
            self.check_uses(free_vars(st.value), "return", start)

    def check_uses(self, used, where, start):
        for name in sorted(used):
            if name in RESERVED_NAMES:
                message = f"reserved identifier {name!r} used outside the attack condition"
            elif name not in self.declared:
                message = f"use of undeclared identifier {name!r} in {where}"
            else:
                continue
            tok = next(t for t in self.tokens[start:self.pos] if t.text == name)
            raise LanguageError(message, tok.line, tok.col)


def _outcome(parse_program):
    try:
        return parse_program()
    except LanguageError as err:
        return err.message, err.line, err.col


POOL = ("a", "b", "c", "d", "S", "t'", "x_1")


@st.composite
def named_programs(draw):
    """Program text in which each statement holds at most one bad name: an
    undeclared name, a reserved one outside the attack condition, or a name
    declared twice.  A bad name may occur more than once in its statement."""
    declared = []
    gap = st.sampled_from([" ", "\n", "\n  "])

    def expr(bad=None, extra=()):
        atoms = draw(st.lists(st.sampled_from(declared + ["0", "1", *extra]),
                              min_size=1, max_size=4))
        for _ in range(draw(st.integers(1, 2)) if bad else 0):
            atoms.insert(draw(st.integers(0, len(atoms))), bad)
        text = atoms[0]
        for atom in atoms[1:]:
            text += f" {draw(st.sampled_from(['+', '-', '*', '^', 'mod']))}{draw(gap)}{atom}"
        return draw(st.sampled_from(["{}", "({})", "{{{}}}"])).format(text)

    def rarely(names):
        # a draw from ``names`` one time in four, or else None
        return draw(st.sampled_from(names)) if names and draw(st.integers(0, 3)) == 0 else None

    def bad_name(reserved=RESERVED_NAMES):
        # no bad name, or one that may not be read here
        return rarely([n for n in POOL if n not in declared] + list(reserved))

    def fresh_or_bad():
        # an undeclared name, or else the statement's one bad name
        fresh = [n for n in POOL if n not in declared]
        return draw(st.sampled_from(fresh)) if fresh and not rarely(declared) else \
            draw(st.sampled_from(POOL))

    def declare(names):
        declared.extend(n for n in dict.fromkeys(names) if n not in declared)

    names = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3,
                          unique=rarely([True]) is None))
    if len(set(names)) < len(names) - 1:
        names = list(dict.fromkeys(names))  # at most one name declared twice
    statements = [draw(st.sampled_from(["noprop ", "prime "])) + ", ".join(
        draw(st.sampled_from(["{}", "{{{}}}"])).format(n) for n in names) + " ;"]
    declare(names)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["noprop", "assign", "verify"]))
        if kind == "noprop":
            name = fresh_or_bad()
            statements.append(f"noprop {name} ;")
            declare([name])
        elif kind == "assign":
            # a target declared before is the statement's one bad name
            target = fresh_or_bad()
            bad = None if target in declared else bad_name()
            statements.append(f"{target} :={draw(gap)}{expr(bad)} ;")
            declare([target])
        else:
            # the bad name in the condition, the abort value or both
            bad = bad_name()
            where = draw(st.sampled_from(["condition", "value", "both"]))
            cond = expr(bad if where != "value" else None)
            value = expr(bad if where != "condition" else None)
            cmp = draw(st.sampled_from(["=", "!=", "=[{}]", "!=[{}]"])).format(expr())
            statements.append(f"if {cond} {cmp}{draw(gap)}{expr()} abort with {value} ;")
    statements.append(f"return {expr(bad_name())} ;")
    statements.append(f"_ != {expr(bad_name(reserved=()), extra=RESERVED_NAMES)}")
    return draw(gap).join(statements)


@given(named_programs())
@settings(max_examples=400, deadline=None)
def test_name_check_matches_the_two_pass_reference(source):
    ours = _outcome(lambda: _Parser(tokenize(source)).parse_program())
    reference = _outcome(lambda: _ReferenceParser(tokenize(source)).parse_program())
    assert ours == reference
