"""Term and program data model for the fault-analysis input language.

Expressions form an arithmetic term tree over Z (sums, products, powers,
modular reduction); every node carries a ``protected`` flag set by curly
braces in the source.  Protection only matters to fault-site enumeration:
``executor.inline`` strips it while closing the program into terms, and
normal forms never carry it.

All nodes are immutable; structural equality includes the protection flag.
Hashes are cached on first use because the rewriter memoizes on deep terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union


class LanguageError(Exception):
    """Malformed program detected at parse or validation time."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True, eq=True)
class Expr:
    protected: bool = field(default=False, kw_only=True)

    def _hash_fields(self) -> tuple:
        return (type(self).__name__, self.protected)

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash(self._hash_fields())
            object.__setattr__(self, "_h", h)
        return h

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def replace_children(self, *children: "Expr", protected: Optional[bool] = None) -> "Expr":
        raise NotImplementedError

    def with_protected(self, flag: bool) -> "Expr":
        if self.protected == flag:
            return self
        return self.replace_children(*self.children(), protected=flag)


@dataclass(frozen=True, eq=True)
class Zero(Expr):
    __hash__ = Expr.__hash__

    def replace_children(self, *children, protected=None):
        return Zero(protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class One(Expr):
    __hash__ = Expr.__hash__

    def replace_children(self, *children, protected=None):
        return One(protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Var(Expr):
    name: str = ""
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Var", self.name, self.protected)

    def replace_children(self, *children, protected=None):
        return Var(self.name, protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Opp(Expr):
    arg: Expr = None
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Opp", self.arg, self.protected)

    def children(self):
        return (self.arg,)

    def replace_children(self, *children, protected=None):
        (arg,) = children
        return Opp(arg, protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Sum(Expr):
    operands: Tuple[Expr, ...] = ()
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Sum", self.operands, self.protected)

    def children(self):
        return self.operands

    def replace_children(self, *children, protected=None):
        return Sum(tuple(children), protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Prod(Expr):
    operands: Tuple[Expr, ...] = ()
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Prod", self.operands, self.protected)

    def children(self):
        return self.operands

    def replace_children(self, *children, protected=None):
        return Prod(tuple(children), protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr = None
    exponent: Expr = None
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Pow", self.base, self.exponent, self.protected)

    def children(self):
        return (self.base, self.exponent)

    def replace_children(self, *children, protected=None):
        base, exponent = children
        return Pow(base, exponent, protected=self.protected if protected is None else protected)


@dataclass(frozen=True, eq=True)
class Mod(Expr):
    body: Expr = None
    modulus: Expr = None
    __hash__ = Expr.__hash__

    def _hash_fields(self):
        return ("Mod", self.body, self.modulus, self.protected)

    def children(self):
        return (self.body, self.modulus)

    def replace_children(self, *children, protected=None):
        body, modulus = children
        return Mod(body, modulus, protected=self.protected if protected is None else protected)


ZERO = Zero()
ONE = One()

_KIND_RANK = {Zero: 0, One: 1, Var: 2, Opp: 3, Pow: 4, Prod: 5, Sum: 6, Mod: 7}


def sort_key(e: Expr):
    """Canonical total order: kind rank, then Var name, then children."""
    rank = _KIND_RANK[type(e)]
    if isinstance(e, Var):
        return (rank, e.name)
    kids = e.children()
    if isinstance(e, (Sum, Prod)):
        return (rank, len(kids)) + tuple(sort_key(c) for c in kids)
    return (rank,) + tuple(sort_key(c) for c in kids)


def walk(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal."""
    yield e
    for c in e.children():
        yield from walk(c)


def subterm_at(e: Expr, path: Tuple[int, ...]) -> Expr:
    for i in path:
        e = e.children()[i]
    return e


def replace_at(e: Expr, path: Tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    kids = list(e.children())
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return e.replace_children(*kids)


def strip_protection(e: Expr) -> Expr:
    kids = tuple(strip_protection(c) for c in e.children())
    if not e.protected and kids == e.children():
        return e
    return e.replace_children(*kids, protected=False)


def free_vars(e: Expr) -> set:
    return {n.name for n in walk(e) if isinstance(n, Var)}


# --- conditions ------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class Cond:
    protected: bool = field(default=False, kw_only=True)


@dataclass(frozen=True, eq=True)
class Eq(Cond):
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True, eq=True)
class Neq(Cond):
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True, eq=True)
class EqMod(Cond):
    lhs: Expr = None
    rhs: Expr = None
    modulus: Expr = None


@dataclass(frozen=True, eq=True)
class NeqMod(Cond):
    lhs: Expr = None
    rhs: Expr = None
    modulus: Expr = None


@dataclass(frozen=True, eq=True)
class And(Cond):
    lhs: Cond = None
    rhs: Cond = None


@dataclass(frozen=True, eq=True)
class Or(Cond):
    lhs: Cond = None
    rhs: Cond = None


def cond_exprs(c: Cond) -> Tuple[Expr, ...]:
    if isinstance(c, (Eq, Neq)):
        return (c.lhs, c.rhs)
    if isinstance(c, (EqMod, NeqMod)):
        return (c.lhs, c.rhs, c.modulus)
    return ()


def cond_map(c: Cond, f) -> Cond:
    """Rebuild a condition with every Expr leaf transformed by f."""
    if isinstance(c, Eq):
        return Eq(f(c.lhs), f(c.rhs), protected=c.protected)
    if isinstance(c, Neq):
        return Neq(f(c.lhs), f(c.rhs), protected=c.protected)
    if isinstance(c, EqMod):
        return EqMod(f(c.lhs), f(c.rhs), f(c.modulus), protected=c.protected)
    if isinstance(c, NeqMod):
        return NeqMod(f(c.lhs), f(c.rhs), f(c.modulus), protected=c.protected)
    if isinstance(c, And):
        return And(cond_map(c.lhs, f), cond_map(c.rhs, f), protected=c.protected)
    if isinstance(c, Or):
        return Or(cond_map(c.lhs, f), cond_map(c.rhs, f), protected=c.protected)
    raise TypeError(f"not a condition: {c!r}")


def cond_free_vars(c: Cond) -> set:
    out = set()
    if isinstance(c, (And, Or)):
        out |= cond_free_vars(c.lhs)
        out |= cond_free_vars(c.rhs)
    else:
        for e in cond_exprs(c):
            out |= free_vars(e)
    return out


# --- statements and programs ------------------------------------------------

RESERVED_NAMES = ("_", "@")


@dataclass(frozen=True, eq=True)
class DeclareNoProp:
    names: Tuple[str, ...]
    protected_flags: Tuple[bool, ...]


@dataclass(frozen=True, eq=True)
class DeclarePrime:
    names: Tuple[str, ...]
    protected_flags: Tuple[bool, ...]


@dataclass(frozen=True, eq=True)
class Assign:
    target: str
    rhs: Expr


@dataclass(frozen=True, eq=True)
class Verify:
    condition: Cond
    abort_value: Expr


@dataclass(frozen=True, eq=True)
class Return:
    value: Expr


Statement = Union[DeclareNoProp, DeclarePrime, Assign, Verify, Return]


@dataclass(frozen=True, eq=True)
class Program:
    statements: Tuple[Statement, ...]
    attack_condition: Cond

    def prime_names(self) -> frozenset:
        names = set()
        for st in self.statements:
            if isinstance(st, DeclarePrime):
                names.update(st.names)
        return frozenset(names)

    def declared_names(self) -> set:
        names = set()
        for st in self.statements:
            if isinstance(st, (DeclareNoProp, DeclarePrime)):
                names.update(st.names)
            elif isinstance(st, Assign):
                names.add(st.target)
        return names

    def verifications(self) -> Tuple[Verify, ...]:
        return tuple(st for st in self.statements if isinstance(st, Verify))
