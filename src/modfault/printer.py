"""Pretty-printer; emits source that re-parses to a structurally equal tree.

Every binary node is written with the token and parenthesised by the binding
level of the parser's operator table, ``parser.OPERATORS``, so the grammar's
ladder is spelled in one place.
"""

from __future__ import annotations

from .parser import LEVEL_ATOM, OPERATORS
from .terms import (
    Assign, Declare, EqMod, Expr, NeqMod, One, Opp, Pow, Program, Return, Sum,
    Var, Verify, Zero,
)


def pretty_expr(e: Expr) -> str:
    """Render any term node, an expression or a condition."""
    text = _render(e)
    if e.protected:
        return "{" + text + "}"
    return text


def _render(e: Expr) -> str:
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, One):
        return "1"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Opp):
        inner = _child(e.arg, LEVEL_ATOM)
        if inner.startswith("-"):
            inner = f"({inner})"  # avoid '--', which opens a comment
        return "-" + inner
    if type(e) not in OPERATORS:
        raise TypeError(f"not a term: {e!r}")
    token, level = OPERATORS[type(e)]
    # an operand binds tighter than its operator
    if isinstance(e, Pow):
        # right associative: the exponent may be a power itself
        return _child(e.base, level + 1) + token + _child(e.exponent, level)
    kids = e.children()
    if isinstance(e, (EqMod, NeqMod)):
        lhs, rhs, modulus = (_child(c, level + 1) for c in kids)
        return f"{lhs} {token}{modulus}] {rhs}"
    parts = [_child(kids[0], level + 1)]
    for c in kids[1:]:
        if isinstance(e, Sum) and isinstance(c, Opp) and not c.protected:
            parts.append("- " + _child(c.arg, level + 1))
        else:
            parts.append(f"{token} {_child(c, level + 1)}")
    return " ".join(parts)


def _child(e: Expr, min_level: int) -> str:
    """``e`` rendered, parenthesised if it binds looser than ``min_level``."""
    text = pretty_expr(e)
    if not e.protected and OPERATORS.get(type(e), ("", LEVEL_ATOM))[1] < min_level:
        return f"({text})"
    return text


def _decl_names(names, flags) -> str:
    return ", ".join("{" + n + "}" if f else n for n, f in zip(names, flags))


def pretty(item) -> str:
    """Render a Program or any term node back to parseable source text."""
    if isinstance(item, Expr):
        return pretty_expr(item)
    if not isinstance(item, Program):
        raise TypeError(f"cannot pretty-print {item!r}")
    lines = []
    for st in item.statements:
        if isinstance(st, Declare):
            keyword = "prime" if st.prime else "noprop"
            lines.append(f"{keyword} {_decl_names(st.names, st.protected_flags)} ;")
        elif isinstance(st, Assign):
            lines.append(f"{st.target} := {pretty_expr(st.rhs)} ;")
        elif isinstance(st, Verify):
            lines.append(f"if {pretty_expr(st.condition)} "
                         f"abort with {pretty_expr(st.abort_value)} ;")
        elif isinstance(st, Return):
            lines.append(f"return {pretty_expr(st.value)} ;")
    lines.append("")
    lines.append(pretty_expr(item.attack_condition))
    lines.append("")
    return "\n".join(lines)
