"""Term and program data model for the fault-analysis input language.

Expressions form an arithmetic term tree over Z (sums, products, powers,
modular reduction); conditions compare two expressions, plainly or modulo a
third, and combine with conjunction and disjunction.  Every node carries a
``protected`` flag set by curly braces in the source.  Protection only
matters to fault-site enumeration: ``executor.ClosedProgram`` strips it while
closing the program into terms, and normal forms never carry it.

Expression and condition nodes are interned: each distinct term, protection
flag included, is built once and shared while it is alive, so equality is
identity and a node hashes by identity.  A node that dies and is built again
is a new object with a new hash, so nothing may keep a hash, or a hashed
container, past the nodes in it.  The facts the rewriter and the executor ask
of a node on every use (sort key, whether a fault variable occurs in it) are
computed once, when it is built.  A condition is a node whose fields are all
children, so the walkers below (path replacement, protection stripping) and
``executor.subst`` serve both.  Only statements and programs are frozen
dataclasses over those nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Tuple, Union


class LanguageError(Exception):
    """Malformed program detected at parse or validation time."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# --- expressions -----------------------------------------------------------

class _InternRef(weakref.ref):
    """A weak reference that carries its intern-table key.  The key is set
    after construction, so building one runs no Python code, unlike
    ``weakref.KeyedRef``."""

    __slots__ = ("key",)


# Every live node, keyed by kind name, field values and protection flag, as a
# weak reference that carries its key.  A node leaves the table with its last
# reference.
_INTERNED: "dict[tuple, _InternRef]" = {}


def _forget(ref: _InternRef, table=_INTERNED) -> None:
    # A node built again after its predecessor died, but before this callback
    # ran, already holds the slot under the same key: leave that entry alone.
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """Interned term node.

    ``Kind(*fields, protected=flag)`` returns the live node with those fields
    when there is one, so equal terms are one object, ``==`` is identity and
    the hash is the identity hash.  The canonical sort key and the
    fault-variable bit are fixed when the node is built.
    """

    # _fresh: the node is, or holds, a Fresh fault variable.
    # _factors: the rewriter's factor multiset of a Prod, a Counter cached on
    # first use and never mutated; None until then and on every other kind.
    __slots__ = ("protected", "_key", "_kids", "_sort_key", "_fresh",
                 "_factors", "__weakref__")
    _fields: Tuple[str, ...] = ()
    # leaf: no children; fixed: every field is a child; nary: one field
    # holding a tuple of children
    _shape = "leaf"
    _rank = 0  # position of the kind in the canonical order

    def __new__(cls, *values, protected: bool = False):
        key = (cls.__name__, *values, protected)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
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
        fresh = cls is Fresh
        for k in kids:
            if k._fresh:
                fresh = True
        node = object.__new__(cls)
        init = object.__setattr__
        for name, value in zip(cls._fields, values):
            init(node, name, value)
        init(node, "protected", protected)
        init(node, "_key", key)
        init(node, "_kids", kids)
        init(node, "_sort_key", order)
        init(node, "_fresh", fresh)
        init(node, "_factors", None)
        ref = _INTERNED[key] = _InternRef(node, _forget)
        ref.key = key
        return node

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
        """The node of this kind and protection over other children; a leaf
        has no children and returns itself."""
        if self._shape == "leaf":
            return self
        if self._shape == "nary":
            return type(self)(tuple(kids), protected=self.protected)
        return type(self)(*kids, protected=self.protected)

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


class Fresh(Var):
    """A fault variable: a randomizing fault's value, with no properties.  It
    sorts and prints as the ``Var`` of its name, which
    ``faults.fresh_name_base`` keeps apart from the program's names."""
    __slots__ = ()


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
    kids = tuple(strip_protection(k) for k in e._kids)
    if e.protected:
        e = e.with_protected(False)
    return e if kids == e._kids else e.with_children(kids)


def replace_at(e: Expr, path: Tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    kids = list(e.children())
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return e.with_children(kids)


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
class Declare:
    """A ``noprop`` declaration of inputs, or a ``prime`` one."""
    names: Tuple[str, ...]
    protected_flags: Tuple[bool, ...]
    prime: bool = False


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


Statement = Union[Declare, Assign, Verify, Return]


@dataclass(frozen=True, eq=True)
class Program:
    statements: Tuple[Statement, ...]
    attack_condition: Cond

    def prime_names(self) -> frozenset:
        names = set()
        for st in self.statements:
            if isinstance(st, Declare) and st.prime:
                names.update(st.names)
        return frozenset(names)

    def declared_names(self) -> set:
        names = set()
        for st in self.statements:
            if isinstance(st, Declare):
                names.update(st.names)
            elif isinstance(st, Assign):
                names.add(st.target)
        return names

    def verifications(self) -> Tuple[Verify, ...]:
        return tuple(st for st in self.statements if isinstance(st, Verify))
