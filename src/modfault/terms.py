"""Term and program data model for the fault-analysis input language.

Expressions form an arithmetic term tree over Z (sums, products, powers,
modular reduction); conditions compare two expressions, plainly or modulo a
third, and combine with conjunction and disjunction.  Every node carries a
``protected`` flag set by curly braces in the source.  Protection only
matters to fault-site enumeration: ``executor.ClosedProgram`` strips it while
closing the program into terms, and normal forms never carry it.

Expression and condition nodes are interned: each distinct term, protection
flag included, is built once and shared, so equality is identity, and the
facts the rewriter and the executor ask of a node on every use (hash, sort
key, protection-free twin) are computed once, when it is built.  A condition
is a node whose fields are all children, so the walkers below (path access
and replacement, traversal, free variables, protection stripping) and
``executor.subst`` serve both.  Only statements and programs are frozen
dataclasses over those nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, Tuple, Union


class LanguageError(Exception):
    """Malformed program detected at parse or validation time."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# --- expressions -----------------------------------------------------------

# Every live node, keyed by kind name, field values and protection flag.  A
# node leaves the table with its last reference.
_INTERNED: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


class Expr:
    """Interned term node.

    ``Kind(*fields, protected=flag)`` returns the live node with those fields
    when there is one, so equal terms are one object and ``==`` is identity.
    The hash (of the intern key, so equal terms hash alike across lifetimes),
    the canonical sort key and the protection-free twin are fixed when the
    node is built.
    """

    __slots__ = ("protected", "_key", "_hash", "_kids", "_sort_key", "_plain",
                 "__weakref__")
    _fields: Tuple[str, ...] = ()
    # leaf: no children; fixed: every field is a child; nary: one field
    # holding a tuple of children
    _shape = "leaf"
    _rank = 0  # position of the kind in the canonical order

    def __new__(cls, *values, protected: bool = False):
        key = (cls.__name__, *values, protected)
        node = _INTERNED.get(key)
        if node is not None:
            return node
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes fields {cls._fields}, got {values!r}")
        if cls._shape == "leaf":
            kids = ()
            order = (cls._rank, *values)
        elif cls._shape == "nary":
            kids = values[0]
            order = (cls._rank, len(kids), *(k._sort_key for k in kids))
        else:
            kids = values
            order = (cls._rank, *(k._sort_key for k in kids))
        plain = None  # None: the node is its own protection-free twin
        if protected or any(k._plain is not None for k in kids):
            plain = cls(*cls._values_over(values, [strip_protection(k) for k in kids]))
        node = object.__new__(cls)
        init = object.__setattr__
        for name, value in zip(cls._fields, values):
            init(node, name, value)
        init(node, "protected", protected)
        init(node, "_key", key)
        init(node, "_hash", hash(key))
        init(node, "_kids", kids)
        init(node, "_sort_key", order)
        init(node, "_plain", plain)
        _INTERNED[key] = node
        return node

    @classmethod
    def _values_over(cls, values: tuple, kids) -> tuple:
        """Field values of this kind with the given children."""
        if cls._shape == "leaf":
            return values
        if cls._shape == "nary":
            return (tuple(kids),)
        return tuple(kids)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _unpickle, (type(self), self._key[1:-1], self.protected)

    def __repr__(self):
        fields = "".join(f", {name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}(protected={self.protected!r}{fields})"

    def children(self) -> Tuple["Expr", ...]:
        return self._kids

    def with_children(self, kids) -> "Expr":
        """The node of this kind, name and protection over other children."""
        return type(self)(*self._values_over(self._key[1:-1], kids),
                          protected=self.protected)

    def with_protected(self, flag: bool) -> "Expr":
        return type(self)(*self._key[1:-1], protected=flag)


def _unpickle(cls, values: tuple, protected: bool) -> Expr:
    return cls(*values, protected=protected)


class Zero(Expr):
    __slots__ = ()
    _rank = 0


class One(Expr):
    __slots__ = ()
    _rank = 1


class Var(Expr):
    __slots__ = _fields = ("name",)
    _rank = 2


class Opp(Expr):
    __slots__ = _fields = ("arg",)
    _shape = "fixed"
    _rank = 3


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")
    _shape = "fixed"
    _rank = 4


class Prod(Expr):
    __slots__ = _fields = ("operands",)
    _shape = "nary"
    _rank = 5


class Sum(Expr):
    __slots__ = _fields = ("operands",)
    _shape = "nary"
    _rank = 6


class Mod(Expr):
    __slots__ = _fields = ("body", "modulus")
    _shape = "fixed"
    _rank = 7


ZERO = Zero()
ONE = One()


def sort_key(e: Expr):
    """Canonical total order: kind rank, then Var name or operand count, then
    the children's keys."""
    return e._sort_key


def strip_protection(e: Expr) -> Expr:
    """The node with every protection flag below and at it cleared."""
    return e if e._plain is None else e._plain


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
    return e.with_children(kids)


def free_vars(e: Expr) -> set:
    return {n.name for n in walk(e) if isinstance(n, Var)}


# --- conditions ------------------------------------------------------------

class Cond(Expr):
    """Interned condition node: a comparison of expressions, or a conjunction
    or disjunction of conditions.  Every field is a child, so the expression
    walkers serve conditions unchanged."""

    __slots__ = ()
    _shape = "fixed"


class Eq(Cond):
    __slots__ = _fields = ("lhs", "rhs")
    _rank = 8


class Neq(Cond):
    __slots__ = _fields = ("lhs", "rhs")
    _rank = 9


# The modulus is the last child: fault-site paths number a verification's
# operands lhs, rhs, modulus.
class EqMod(Cond):
    __slots__ = _fields = ("lhs", "rhs", "modulus")
    _rank = 10


class NeqMod(Cond):
    __slots__ = _fields = ("lhs", "rhs", "modulus")
    _rank = 11


class And(Cond):
    __slots__ = _fields = ("lhs", "rhs")
    _rank = 12


class Or(Cond):
    __slots__ = _fields = ("lhs", "rhs")
    _rank = 13


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
