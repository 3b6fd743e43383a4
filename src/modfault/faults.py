"""Fault-site enumeration and fault injection.

Two physical fault families are modelled on data only (control flow is out of
scope): permanent faults corrupt a stored value, so every later read sees the
corruption; transient faults corrupt a single read.  Either kind forces the
value to zero or to a fresh variable with no properties.  Verification
conditions can additionally have their comparison outcome faulted: zeroed, it
skips the abort; randomized, it always fires it.

``inject`` never rebuilds the program: it returns the vector as an overlay
(data faults by statement, check-outcome faults by check index, fresh
names), and ``apply_faults`` gives one statement's term under its data
faults.  ``executor.run_symbolic`` and ``oracle.eval_program`` apply the
overlay while they walk the program.

Protected source regions (curly braces) contribute no sites: a protected
declaration or a wholly protected right-hand side models an input that the
attacker cannot corrupt in memory.  Reads of such variables elsewhere remain
transient-faultable (a bus copy is not the stored master value).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .terms import (
    And, Assign, Cond, DeclareNoProp, DeclarePrime, Expr, Or, Program, Return,
    Statement, Var, Verify, ZERO, replace_at, subterm_at,
)

ZEROING = "zeroing"
RANDOMIZING = "randomizing"
KIND_ORDER = (ZEROING, RANDOMIZING)


class EnumerationCapExceeded(Exception):
    pass


@dataclass(frozen=True)
class FaultSite:
    scope: str                     # "permanent" | "transient" | "check"
    statement: int                 # index into Program.statements
    variable: Optional[str] = None  # permanent: the corrupted variable
    path: Optional[Tuple[int, ...]] = None  # transient: (slot, *node path)
    check: Optional[int] = None    # check: verification index

    def describe(self) -> str:
        if self.scope == "permanent":
            return f"permanent fault on {self.variable} (statement {self.statement})"
        if self.scope == "check":
            return f"fault on the condition outcome of verification {self.check}"
        return f"transient fault at statement {self.statement}, path {self.path}"


@dataclass(frozen=True)
class Fault:
    site: FaultSite
    kind: str                      # ZEROING | RANDOMIZING
    fresh_name: Optional[str] = None  # randomizing: the no-property variable


FaultVector = Tuple[Fault, ...]


@dataclass(frozen=True)
class FaultConfig:
    max_faults: int = 1
    kinds: Tuple[str, ...] = KIND_ORDER
    transient_enabled: bool = True
    protect_conditions: bool = False
    max_vectors: int = 5_000_000

    def __post_init__(self):
        if self.max_faults < 1:
            raise ValueError("max_faults must be >= 1")
        if not self.kinds or any(k not in KIND_ORDER for k in self.kinds):
            raise ValueError(f"kinds must be a non-empty subset of {KIND_ORDER}")


def _statement_slots(st: Statement, protect_conditions: bool) -> List[Tuple[int, Expr]]:
    """Faultable expression holes of a statement: (slot index, expression)."""
    if isinstance(st, Assign):
        return [(0, st.rhs)]
    if isinstance(st, Return):
        return [(0, st.value)]
    if isinstance(st, Verify) and not protect_conditions:
        return [(slot, subterm_at(st.condition, path))
                for slot, path in enumerate(_operand_paths(st.condition))
                if not _crosses_protection(st.condition, path)]
    return []


def _crosses_protection(e: Expr, path: Tuple[int, ...]) -> bool:
    """Whether a node on the path down from ``e``, ``e`` included, is
    protected: the operands of a protected sub-condition are not faultable."""
    if e.protected:
        return True
    for i in path:
        e = e.children()[i]
        if e.protected:
            return True
    return False


def _operand_paths(c: Cond) -> List[Tuple[int, ...]]:
    """Paths to a condition's comparison operands, left to right: a
    verification's transient sites are numbered by slot in this list."""
    if isinstance(c, (And, Or)):
        return [(i, *path) for i, sub in enumerate(c.children())
                for path in _operand_paths(sub)]
    return [(i,) for i in range(len(c.children()))]


def _walk_unprotected(e: Expr, path: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], Expr]]:
    if e.protected:
        return
    yield path, e
    for i, c in enumerate(e.children()):
        yield from _walk_unprotected(c, path + (i,))


def enumerate_sites(program: Program, cfg: FaultConfig) -> List[FaultSite]:
    """All fault sites in deterministic order: statement, then pre-order path."""
    sites: List[FaultSite] = []
    check_index = 0
    for idx, st in enumerate(program.statements):
        if isinstance(st, (DeclareNoProp, DeclarePrime)):
            for name, prot in zip(st.names, st.protected_flags):
                if not prot:
                    sites.append(FaultSite("permanent", idx, variable=name))
        elif isinstance(st, Assign):
            if not st.rhs.protected:
                sites.append(FaultSite("permanent", idx, variable=st.target))
        elif isinstance(st, Verify):
            if not (cfg.protect_conditions or st.condition.protected):
                sites.append(FaultSite("check", idx, check=check_index))
            check_index += 1
        if cfg.transient_enabled:
            for slot, expr in _statement_slots(st, cfg.protect_conditions):
                for path, _node in _walk_unprotected(expr, (slot,)):
                    sites.append(FaultSite("transient", idx, path=path))
    return sites


def count_vectors(n_sites: int, cfg: FaultConfig) -> int:
    k_kinds = len(cfg.kinds)
    return sum(math.comb(n_sites, k) * k_kinds ** k
               for k in range(1, cfg.max_faults + 1))


def fresh_name_base(program: Program) -> str:
    """A fault-variable prefix that cannot collide with program identifiers."""
    names = program.declared_names()
    base = "f"
    while any(re.fullmatch(re.escape(base) + r"\d+", n) for n in names):
        base += "f"
    return base


def enumerate_vectors(sites: Sequence[FaultSite], cfg: FaultConfig,
                      fresh_base: str = "f") -> Iterator[FaultVector]:
    """All vectors of 1..max_faults distinct sites, each with each allowed kind."""
    total = count_vectors(len(sites), cfg)
    if total > cfg.max_vectors:
        raise EnumerationCapExceeded(
            f"{total} fault vectors exceed the cap of {cfg.max_vectors}; "
            f"raise --max-vectors explicitly to proceed")
    kinds = tuple(k for k in KIND_ORDER if k in cfg.kinds)
    for k in range(1, cfg.max_faults + 1):
        for combo in itertools.combinations(range(len(sites)), k):
            for assignment in itertools.product(kinds, repeat=k):
                counter = itertools.count(1)
                yield tuple(
                    Fault(sites[i], kind,
                          f"{fresh_base}{next(counter)}" if kind == RANDOMIZING else None)
                    for i, kind in zip(combo, assignment))


@dataclass(frozen=True)
class Injection:
    """A fault vector as an overlay on a program, which stays untouched.

    ``data`` holds each statement's data faults (permanent and transient),
    keyed by statement index; ``checks`` the kind of each fault on a
    verification's outcome, keyed by check index; ``fresh`` the fault
    variables the data faults introduce.  ``executor.run_symbolic`` and
    ``oracle.eval_program`` apply it statement by statement."""
    program: Program
    data: Dict[int, Tuple[Fault, ...]]
    checks: Dict[int, str]
    fresh: FrozenSet[str]


def inject(program: Program, vector: FaultVector) -> Injection:
    """The overlay of a fault vector on a program."""
    data: Dict[int, Tuple[Fault, ...]] = {}
    checks: Dict[int, str] = {}
    for fault in vector:
        site = fault.site
        if site.scope == "check":
            checks[site.check] = fault.kind
        elif site.scope in ("permanent", "transient"):
            data[site.statement] = data.get(site.statement, ()) + (fault,)
        else:
            raise ValueError(f"unknown fault scope: {site.scope}")
    fresh = frozenset(f.fresh_name for f in vector
                      if f.fresh_name and f.site.scope != "check")
    return Injection(program, data, checks, fresh)


def fault_value(fault: Fault) -> Expr:
    """The value a data fault forces: zero or its fresh variable."""
    return ZERO if fault.kind == ZEROING else Var(fault.fresh_name)


def _apply_order(fault: Fault):
    if fault.site.scope == "transient":
        return (0, -len(fault.site.path))
    return (1, 0)


def apply_faults(term: Expr, faults: Sequence[Fault]) -> Expr:
    """The term a statement computes under its own data faults.

    ``term`` is the statement's right-hand side, returned value or
    verification condition.  Deepest transient reads go first, then a
    permanent overwrite of the whole stored value: when sites overlap, the
    corruption closest to the stored value is applied before the one that
    overwrites it (last write wins).  A verification's transient slots number
    its comparison operands (``_operand_paths``)."""
    out = term
    for fault in sorted(faults, key=_apply_order):
        value = fault_value(fault)
        if fault.site.scope == "permanent":
            out = value
            continue
        slot, rest = fault.site.path[0], fault.site.path[1:]
        if isinstance(term, Cond):
            rest = _operand_paths(term)[slot] + rest
        out = replace_at(out, rest, value)
    return out
