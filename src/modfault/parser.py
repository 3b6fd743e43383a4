"""Parser for the ``.fj`` input language.

A program is a list of statements (declarations, assignments, verifications)
terminated by a ``return``, followed by the attack success condition.  Curly
braces mark a variable, expression or condition as protected against fault
injection.  ``--`` starts a comment running to end of line.

Operator precedence, tightest to loosest: unary minus, ``^`` (right
associative), ``*``, ``+``/binary ``-``, ``mod`` (loosest, left associative).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .terms import (
    And, Assign, Cond, DeclareNoProp, DeclarePrime, Eq, EqMod, Expr,
    LanguageError, Mod, Neq, NeqMod, One, Opp, Or, Pow, Prod, Program,
    RESERVED_NAMES, Return, Statement, Sum, Var, Verify, Zero, cond_free_vars,
    free_vars,
)

_KEYWORDS = {"noprop", "prime", "if", "abort", "with", "return", "mod"}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<name>[a-zA-Z][a-zA-Z0-9_']*)
    | (?P<special>_|@)
    | (?P<neqmod>!=\[)
    | (?P<eqmod>=\[)
    | (?P<neq>!=)
    | (?P<assign>:=)
    | (?P<and>/\\)
    | (?P<or>\\/)
    | (?P<op>[-+*^={}()\[\];,]|0|1)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LanguageError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "name" and text in _KEYWORDS:
            kind = "keyword"
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.text != text:
            hint = what or f"'{text}'"
            raise LanguageError(
                f"expected {hint}, found {tok.text!r}" if tok.text else f"missing {hint}",
                tok.line, tok.col)
        return self.next()

    def error(self, msg: str) -> LanguageError:
        tok = self.peek()
        return LanguageError(msg, tok.line, tok.col)

    # -- expressions, precedence climbing --------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_mod()

    def parse_mod(self) -> Expr:
        e = self.parse_add()
        while self.peek().text == "mod":
            self.next()
            rhs = self.parse_add()
            e = Mod(e, rhs)
        return e

    def parse_add(self) -> Expr:
        parts = [self.parse_mul()]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_mul()
            parts.append(Opp(rhs) if op == "-" else rhs)
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    def parse_mul(self) -> Expr:
        parts = [self.parse_pow()]
        while self.peek().text == "*":
            self.next()
            parts.append(self.parse_pow())
        if len(parts) == 1:
            return parts[0]
        return Prod(tuple(parts))

    def parse_pow(self) -> Expr:
        base = self.parse_unary()
        if self.peek().text == "^":
            self.next()
            return Pow(base, self.parse_pow())
        return base

    def parse_unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Opp(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            e = self.parse_maybe_protected_expr()
            self.expect(")")
            return e
        if tok.text == "{":
            self.next()
            e = self.parse_expr()
            self.expect("}")
            return e.with_protected(True)
        if tok.text == "0":
            self.next()
            return Zero()
        if tok.text == "1":
            self.next()
            return One()
        if tok.kind in ("name", "special"):
            self.next()
            return Var(tok.text)
        raise self.error(f"expected an expression, found {tok.text!r}"
                         if tok.text else "unexpected end of input in expression")

    def parse_maybe_protected_expr(self) -> Expr:
        if self.peek().text == "{":
            save = self.pos
            self.next()
            e = self.parse_expr()
            self.expect("}")
            # `{a} + b` protects only the atom: backtrack when an operator
            # continues the expression past the closing brace
            if self.peek().text not in ("+", "-", "*", "^", "mod"):
                return e.with_protected(True)
            self.pos = save
        return self.parse_expr()

    # -- conditions -------------------------------------------------------

    def parse_cond(self) -> Cond:
        c = self.parse_cond_atom()
        while self.peek().kind in ("and", "or"):
            op = self.next()
            rhs = self.parse_cond_atom()
            c = And(c, rhs) if op.kind == "and" else Or(c, rhs)
        return c

    def parse_cond_atom(self) -> Cond:
        tok = self.peek()
        if tok.text == "{":
            # protected condition or a comparison starting with a protected expr
            save = self.pos
            try:
                self.next()
                inner = self.parse_cond()
                self.expect("}")
                if self.peek().kind in ("and", "or", "eof") or self.peek().text in (")", "abort"):
                    return _protect_cond(inner)
            except LanguageError:
                pass
            self.pos = save
        if tok.text == "(":
            # parenthesised condition, unless it is an expression in disguise
            save = self.pos
            try:
                self.next()
                inner = self.parse_cond()
                self.expect(")")
                return inner
            except LanguageError:
                self.pos = save
        return self.parse_comparison()

    def parse_comparison(self) -> Cond:
        lhs = self.parse_maybe_protected_expr()
        tok = self.next()
        if tok.text == "=":
            return Eq(lhs, self.parse_maybe_protected_expr())
        if tok.kind == "neq":
            return Neq(lhs, self.parse_maybe_protected_expr())
        if tok.kind in ("eqmod", "neqmod"):
            modulus = self.parse_maybe_protected_expr()
            self.expect("]")
            rhs = self.parse_maybe_protected_expr()
            if tok.kind == "eqmod":
                return EqMod(lhs, rhs, modulus)
            return NeqMod(lhs, rhs, modulus)
        raise LanguageError(
            f"expected a comparison operator, found {tok.text!r}", tok.line, tok.col)

    # -- statements -------------------------------------------------------

    def parse_decl_names(self) -> Tuple[Tuple[str, ...], Tuple[bool, ...]]:
        names, flags = [], []
        while True:
            protected = False
            if self.peek().text == "{":
                self.next()
                protected = True
            tok = self.peek()
            if tok.kind == "special":
                raise LanguageError(
                    f"reserved identifier {tok.text!r} cannot be declared",
                    tok.line, tok.col)
            if tok.kind != "name":
                raise self.error("expected a variable name in declaration")
            self.next()
            if protected:
                self.expect("}")
            names.append(tok.text)
            flags.append(protected)
            if self.peek().text != ",":
                break
            self.next()
        return tuple(names), tuple(flags)

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.text == "noprop":
            self.next()
            names, flags = self.parse_decl_names()
            self.expect(";", "';' after declaration")
            return DeclareNoProp(names, flags)
        if tok.text == "prime":
            self.next()
            names, flags = self.parse_decl_names()
            self.expect(";", "';' after declaration")
            return DeclarePrime(names, flags)
        if tok.text == "if":
            self.next()
            cond = self.parse_cond()
            self.expect("abort")
            self.expect("with")
            value = self.parse_maybe_protected_expr()
            self.expect(";", "';' after verification")
            return Verify(cond, value)
        if tok.text == "return":
            self.next()
            value = self.parse_maybe_protected_expr()
            self.expect(";", "';' after return")
            return Return(value)
        if tok.kind == "name":
            self.next()
            self.expect(":=", "':=' in assignment")
            rhs = self.parse_maybe_protected_expr()
            self.expect(";", "';' after assignment")
            return Assign(tok.text, rhs)
        raise self.error(f"expected a statement, found {tok.text!r}"
                         if tok.text else "unexpected end of input")

    def parse_program(self) -> Program:
        statements: List[Statement] = []
        saw_return = False
        while not saw_return:
            if self.peek().kind == "eof":
                raise self.error("missing 'return' statement")
            st = self.parse_statement()
            statements.append(st)
            saw_return = isinstance(st, Return)
        if self.peek().kind == "eof":
            raise self.error("missing attack success condition after return")
        condition = self.parse_cond()
        if self.peek().kind != "eof":
            raise self.error("unexpected input after the attack success condition")
        return Program(tuple(statements), condition)


def _protect_cond(c: Cond) -> Cond:
    if isinstance(c, (And, Or)):
        return type(c)(c.lhs, c.rhs, protected=True)
    if isinstance(c, (Eq, Neq)):
        return type(c)(c.lhs, c.rhs, protected=True)
    return type(c)(c.lhs, c.rhs, c.modulus, protected=True)


def _validate(program: Program) -> None:
    declared = set()
    returned = False
    for st in program.statements:
        if returned:
            raise LanguageError("statements after 'return'")
        if isinstance(st, (DeclareNoProp, DeclarePrime)):
            for name in st.names:
                if name in RESERVED_NAMES:
                    raise LanguageError(f"reserved identifier {name!r} cannot be declared")
                if name in declared:
                    raise LanguageError(f"duplicate declaration of {name!r}")
                declared.add(name)
        elif isinstance(st, Assign):
            if st.target in RESERVED_NAMES:
                raise LanguageError(f"reserved identifier {st.target!r} cannot be assigned")
            if st.target in declared:
                raise LanguageError(f"duplicate declaration of {st.target!r}")
            _check_uses(free_vars(st.rhs), declared, f"assignment to {st.target!r}")
            declared.add(st.target)
        elif isinstance(st, Verify):
            _check_uses(cond_free_vars(st.condition), declared, "verification")
            _check_uses(free_vars(st.abort_value), declared, "abort value")
        elif isinstance(st, Return):
            _check_uses(free_vars(st.value), declared, "return")
            returned = True
    if not returned:
        raise LanguageError("missing 'return' statement")
    cond_vars = cond_free_vars(program.attack_condition)
    _check_uses(cond_vars - set(RESERVED_NAMES), declared, "attack condition")


def _check_uses(used: set, declared: set, where: str) -> None:
    for name in sorted(used):
        if name in RESERVED_NAMES:
            raise LanguageError(
                f"reserved identifier {name!r} used outside the attack condition")
        if name not in declared:
            raise LanguageError(f"use of undeclared identifier {name!r} in {where}")


def parse(source: str) -> Program:
    """Parse and validate a complete program."""
    program = _Parser(tokenize(source)).parse_program()
    _validate(program)
    return program


def parse_expr(source: str) -> Expr:
    """Parse a single expression (teaching/testing helper)."""
    p = _Parser(tokenize(source))
    e = p.parse_maybe_protected_expr()
    if p.peek().kind != "eof":
        raise p.error("unexpected input after expression")
    return e


def parse_cond(source: str) -> Cond:
    """Parse a single condition (teaching/testing helper)."""
    p = _Parser(tokenize(source))
    c = p.parse_cond()
    if p.peek().kind != "eof":
        raise p.error("unexpected input after condition")
    return c
