r"""Parser for the ``.fj`` input language.

A program is a list of statements (declarations, assignments, verifications)
terminated by a ``return``, followed by the attack success condition.  Curly
braces mark a variable, expression or condition as protected against fault
injection.  ``--`` starts a comment running to end of line.

Expressions and conditions are terms of one grammar.  Binding, tightest to
loosest: atoms, unary minus, ``^`` (right associative), ``*``, ``+`` and
binary ``-``, ``mod`` (left associative), the comparisons ``=``, ``!=``,
``=[m]`` and ``!=[m]`` (not associative), and ``/\`` and ``\/`` (one
level, left associative).  Parentheses and braces may wrap either kind, at
any depth.  A term of the wrong kind, such as a condition under ``+`` or an
expression under ``/\``, is an error located at its first token.  One table,
``OPERATORS``, gives each binary node its token and binding level; the
printer writes terms by the same table.

Every name must be declared, by ``noprop``, ``prime`` or an assignment,
before it is read, and once only; an assignment's target is declared after
its right-hand side.  ``_`` and ``@`` may appear only in the attack
condition.  The parser checks each name as it reads it, so an error names
the first offending token in reading order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .terms import (
    And, Assign, Cond, Declare, Eq, EqMod, Expr, LanguageError, Mod, Neq,
    NeqMod, One, Opp, Or, Pow, Prod, Program, Return, Statement, Sum, Var,
    Verify, Zero,
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


# The binding levels of terms, loosest first.  Unary minus binds tighter than
# every binary operator, and an atom tightest.
LEVEL_LOGIC, LEVEL_CMP, LEVEL_MOD, LEVEL_ADD, LEVEL_MUL, LEVEL_POW, LEVEL_ATOM = range(-2, 5)

# Each binary node's operator token and the level it binds at: the parser
# reads operators by this table and ``printer.py`` writes them by it.
OPERATORS = {
    And: ("/\\", LEVEL_LOGIC), Or: ("\\/", LEVEL_LOGIC),
    Eq: ("=", LEVEL_CMP), Neq: ("!=", LEVEL_CMP),
    EqMod: ("=[", LEVEL_CMP), NeqMod: ("!=[", LEVEL_CMP),
    Mod: ("mod", LEVEL_MOD), Sum: ("+", LEVEL_ADD),
    Prod: ("*", LEVEL_MUL), Pow: ("^", LEVEL_POW),
}
# The level each operator binds at and the node it builds; a - b is a + -b.
_BINARY = {token: (level, node) for node, (token, level) in OPERATORS.items()}
_BINARY["-"] = _BINARY["+"]
# The n-ary nodes: a run of + and - builds one Sum, a run of * one Prod.
_NARY = (Sum, Prod)


class _Parser:
    pos = 0  # index of the next token; only next() moves it
    # what the names being read belong to, as an error names it; with None
    # (``parse_expr``, ``parse_cond``) names are not checked
    reading: Optional[str] = None

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.declared: Set[str] = set()

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

    def check_kind(self, start: Token, term: Expr, cond: bool = False) -> Expr:
        """``term``, parsed from token ``start`` on, which must be a
        condition if ``cond`` and an expression otherwise."""
        if isinstance(term, Cond) == cond:
            return term
        want, found = "a condition", "an expression"
        if not cond:
            want, found = found, want
        raise LanguageError(f"expected {want}, found {found}", start.line, start.col)

    # -- terms: one precedence ladder --------------------------------------

    def parse_expr(self) -> Expr:
        return self.check_kind(self.peek(), self.parse_term())

    def parse_cond(self) -> Cond:
        return self.check_kind(self.peek(), self.parse_term(), True)

    def parse_term(self, min_level: int = LEVEL_LOGIC) -> Expr:
        r"""Parse a term, an expression or a condition, whose binary operators
        bind at ``min_level`` or tighter.  The operands of ``/\`` and
        ``\/`` must be conditions and all others expressions, so a chain
        of comparisons fails as a condition under a comparison."""
        start = self.peek()
        term = self.parse_unary()
        while True:
            op = self.peek()
            level, node = _BINARY.get(op.text, (None, None))
            if level is None or level < min_level:
                return term
            self.next()
            cond = level == LEVEL_LOGIC
            operands = [self.check_kind(start, term, cond)]
            modulus = []
            if node in (EqMod, NeqMod):  # the modulus is the last child
                modulus.append(self.parse_expr())
                self.expect("]")
            # an operand binds tighter than its operator; ^ is right associative
            operand_level = level if node is Pow else level + 1
            while True:
                rhs = self.check_kind(self.peek(), self.parse_term(operand_level), cond)
                operands.append(Opp(rhs) if op.text == "-" else rhs)
                if node not in _NARY or _BINARY.get(self.peek().text, (0, None))[1] is not node:
                    break
                op = self.next()
            term = node(tuple(operands)) if node in _NARY else node(*operands, *modulus)

    def parse_unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Opp(self.check_kind(self.peek(), self.parse_unary()))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.text in ("(", "{"):
            # a bracket holds a term of either kind
            self.next()
            term = self.parse_term()
            if tok.text == "(":
                self.expect(")")
                return term
            self.expect("}")
            return term.with_protected(True)
        if tok.text == "0":
            self.next()
            return Zero()
        if tok.text == "1":
            self.next()
            return One()
        if tok.kind in ("name", "special"):
            self.read_name(self.next())
            return Var(tok.text)
        raise self.error(f"expected an expression, found {tok.text!r}"
                         if tok.text else "unexpected end of input in expression")

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
            self.declare(self.next())
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
        if tok.text in ("noprop", "prime"):
            self.next()
            names, flags = self.parse_decl_names()
            self.expect(";", "';' after declaration")
            return Declare(names, flags, prime=tok.text == "prime")
        if tok.text == "if":
            self.next()
            self.reading = "verification"
            cond = self.parse_cond()
            self.expect("abort")
            self.expect("with")
            self.reading = "abort value"
            value = self.parse_expr()
            self.expect(";", "';' after verification")
            return Verify(cond, value)
        if tok.text == "return":
            self.next()
            self.reading = "return"
            value = self.parse_expr()
            self.expect(";", "';' after return")
            return Return(value)
        if tok.kind == "name":
            self.next()
            self.expect(":=", "':=' in assignment")
            self.reading = f"assignment to {tok.text!r}"
            rhs = self.parse_expr()
            self.expect(";", "';' after assignment")
            self.declare(tok)
            return Assign(tok.text, rhs)
        raise self.error(f"expected a statement, found {tok.text!r}"
                         if tok.text else "unexpected end of input")

    def parse_program(self) -> Program:
        statements: List[Statement] = []
        while not statements or not isinstance(statements[-1], Return):
            if self.peek().kind == "eof":
                raise self.error("missing 'return' statement")
            statements.append(self.parse_statement())
        if self.peek().kind == "eof":
            raise self.error("missing attack success condition after return")
        self.reading = "attack condition"
        return Program(tuple(statements), self.parse_cond())

    # -- names ------------------------------------------------------------

    def declare(self, tok: Token) -> None:
        if tok.text in self.declared:
            raise LanguageError(f"duplicate declaration of {tok.text!r}", tok.line, tok.col)
        self.declared.add(tok.text)

    def read_name(self, tok: Token) -> None:
        """Check the name ``tok`` as it is read: it must be declared, and
        ``_`` and ``@`` are read only in the attack condition."""
        if self.reading is None:
            return
        if tok.kind == "special":
            if self.reading != "attack condition":
                raise LanguageError(
                    f"reserved identifier {tok.text!r} used outside the attack condition",
                    tok.line, tok.col)
        elif tok.text not in self.declared:
            raise LanguageError(
                f"use of undeclared identifier {tok.text!r} in {self.reading}",
                tok.line, tok.col)


def _parse_all(source: str, rule, what: str):
    """Parse all of ``source`` with ``rule``, a ``_Parser`` method."""
    parser = _Parser(tokenize(source))
    try:
        result = rule(parser)
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    if parser.peek().kind != "eof":
        raise parser.error(f"unexpected input after {what}")
    return result


def parse(source: str) -> Program:
    """Parse and validate a complete program."""
    return _parse_all(source, _Parser.parse_program, "the attack success condition")


def parse_expr(source: str) -> Expr:
    """Parse a single expression (teaching/testing helper)."""
    return _parse_all(source, _Parser.parse_expr, "expression")


def parse_cond(source: str) -> Cond:
    """Parse a single condition (teaching/testing helper)."""
    return _parse_all(source, _Parser.parse_cond, "condition")
