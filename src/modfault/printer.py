"""Pretty-printer; emits source that re-parses to a structurally equal tree."""

from __future__ import annotations

from .parser import (
    LEVEL_ADD, LEVEL_ATOM, LEVEL_CMP, LEVEL_LOGIC, LEVEL_MOD, LEVEL_MUL,
    LEVEL_POW,
)
from .terms import (
    And, Assign, Cond, Declare, Eq, EqMod, Expr, Mod, Neq, NeqMod, One, Opp,
    Or, Pow, Prod, Program, Return, Sum, Var, Verify, Zero,
)


def _level(e: Expr) -> int:
    """The parser's binding level of ``e``'s node; ``_child`` parenthesises
    a node that binds looser than its context requires."""
    if isinstance(e, (And, Or)):
        return LEVEL_LOGIC
    if isinstance(e, Cond):
        return LEVEL_CMP
    if isinstance(e, Mod):
        return LEVEL_MOD
    if isinstance(e, Sum):
        return LEVEL_ADD
    if isinstance(e, Prod):
        return LEVEL_MUL
    if isinstance(e, Pow):
        return LEVEL_POW
    return LEVEL_ATOM  # Zero, One, Var, Opp (unary minus binds tightest)


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
    if isinstance(e, Pow):
        # right associative; the base must bind tighter than ^
        return _child(e.base, LEVEL_ATOM) + "^" + _child(e.exponent, LEVEL_POW)
    if isinstance(e, Prod):
        return " * ".join(_child(c, LEVEL_POW) for c in e.operands)
    if isinstance(e, Sum):
        parts = [_child(e.operands[0], LEVEL_MUL)]
        for c in e.operands[1:]:
            if isinstance(c, Opp) and not c.protected:
                parts.append("- " + _child(c.arg, LEVEL_MUL))
            else:
                parts.append("+ " + _child(c, LEVEL_MUL))
        return " ".join(parts)
    if isinstance(e, Mod):
        return _child(e.body, LEVEL_ADD) + " mod " + _child(e.modulus, LEVEL_ADD)
    if isinstance(e, Eq):
        return f"{pretty_expr(e.lhs)} = {pretty_expr(e.rhs)}"
    if isinstance(e, Neq):
        return f"{pretty_expr(e.lhs)} != {pretty_expr(e.rhs)}"
    if isinstance(e, EqMod):
        return f"{pretty_expr(e.lhs)} =[{pretty_expr(e.modulus)}] {pretty_expr(e.rhs)}"
    if isinstance(e, NeqMod):
        return f"{pretty_expr(e.lhs)} !=[{pretty_expr(e.modulus)}] {pretty_expr(e.rhs)}"
    if isinstance(e, (And, Or)):
        # an operand that is itself /\ or \/ is always parenthesised
        op = " /\\ " if isinstance(e, And) else " \\/ "
        return _child(e.lhs, LEVEL_CMP) + op + _child(e.rhs, LEVEL_CMP)
    raise TypeError(f"not a term: {e!r}")


def _child(e: Expr, min_level: int) -> str:
    text = pretty_expr(e)
    if e.protected:
        return text
    if _level(e) < min_level:
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
