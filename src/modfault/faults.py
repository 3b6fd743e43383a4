"""Fault-site enumeration and fault injection.

Two physical fault families are modelled on data only (control flow is out of
scope): permanent faults corrupt a stored value, so every later read sees the
corruption; transient faults corrupt a single read.  Either kind forces the
value to zero or to a fresh variable with no properties.  Verification
conditions can additionally have their comparison outcome faulted: zeroed, it
skips the abort; randomized, it always fires it.

``inject`` never rebuilds the program: it returns the vector as an overlay
(data faults by statement, check-outcome faults by check index), and
``apply_faults`` gives one statement's term under its data faults.
``executor.run_symbolic`` and ``oracle.eval_program`` apply the overlay
while they walk the program.

Protected source regions (curly braces) contribute no sites: a protected
declaration or a wholly protected right-hand side models an input that the
attacker cannot corrupt in memory.  Reads of such variables elsewhere remain
transient-faultable (a bus copy is not the stored master value).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .terms import (
    And, Assign, Cond, Declare, Expr, Fresh, Or, Program, Return, Verify, ZERO,
    replace_at,
)

ZEROING = "zeroing"
RANDOMIZING = "randomizing"
KIND_ORDER = (ZEROING, RANDOMIZING)


class EnumerationCapExceeded(Exception):
    pass


class FaultSite(NamedTuple):
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


class Fault(NamedTuple):
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
        if isinstance(self.kinds, str):
            raise ValueError(f"kinds must be a tuple of kind names, "
                             f"not the string {self.kinds!r}")
        for k in self.kinds:
            if k not in KIND_ORDER:
                raise ValueError(f"unknown fault kind {k!r}; "
                                 f"choose from {', '.join(KIND_ORDER)}")
        # a repeated kind adds no vector: keep its first occurrence
        object.__setattr__(self, "kinds", tuple(dict.fromkeys(self.kinds)))
        if self.max_faults < 1:
            raise ValueError("max_faults must be >= 1")
        if self.max_vectors < 1:
            raise ValueError(f"max_vectors must be >= 1, got {self.max_vectors}")
        if not self.kinds:
            raise ValueError(f"kinds must be a non-empty subset of {KIND_ORDER}")


def _operands(c: Cond, path: Tuple[int, ...] = (), protected: bool = False,
              ) -> Iterator[Tuple[Tuple[int, ...], Expr, bool]]:
    """A condition's comparison operands, left to right, each with its path
    and whether it or a node above it is protected: a verification's
    transient sites are numbered by slot in this order, and the operands of
    a protected sub-condition are not faultable."""
    protected = protected or c.protected
    for i, sub in enumerate(c.children()):
        if isinstance(c, (And, Or)):
            yield from _operands(sub, path + (i,), protected)
        else:
            yield path + (i,), sub, protected or sub.protected


def _operand_paths(c: Cond) -> List[Tuple[int, ...]]:
    """Paths to a condition's comparison operands, left to right."""
    return [path for path, _operand, _protected in _operands(c)]


def _walk_unprotected(e: Expr, path: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    if e.protected:
        return
    yield path
    for i, c in enumerate(e.children()):
        yield from _walk_unprotected(c, path + (i,))


def enumerate_sites(program: Program, cfg: FaultConfig) -> List[FaultSite]:
    """All fault sites in deterministic order: statement, then pre-order path."""
    sites: List[FaultSite] = []
    check_index = 0
    for idx, st in enumerate(program.statements):
        reads: List[Tuple[int, Expr]] = []  # faultable reads: (slot, expression)
        if isinstance(st, Declare):
            for name, prot in zip(st.names, st.protected_flags):
                if not prot:
                    sites.append(FaultSite("permanent", idx, variable=name))
        elif isinstance(st, Assign):
            if not st.rhs.protected:
                sites.append(FaultSite("permanent", idx, variable=st.target))
            reads = [(0, st.rhs)]
        elif isinstance(st, Return):
            reads = [(0, st.value)]
        elif isinstance(st, Verify):
            if not (cfg.protect_conditions or st.condition.protected):
                sites.append(FaultSite("check", idx, check=check_index))
            check_index += 1
            if not cfg.protect_conditions:
                reads = [(slot, operand) for slot, (_path, operand, protected)
                         in enumerate(_operands(st.condition)) if not protected]
        if cfg.transient_enabled:
            for slot, expr in reads:
                for path in _walk_unprotected(expr, (slot,)):
                    sites.append(FaultSite("transient", idx, path=path))
    return sites


def count_vectors(n_sites: int, cfg: FaultConfig) -> int:
    k_kinds = len(cfg.kinds)
    return sum(math.comb(n_sites, k) * k_kinds ** k
               for k in range(1, min(cfg.max_faults, n_sites) + 1))


def fresh_name_base(program: Program) -> str:
    """A fault-variable prefix that cannot collide with program identifiers."""
    names = program.declared_names()
    base = "f"
    while any(re.fullmatch(re.escape(base) + r"\d+", n) for n in names):
        base += "f"
    return base


def enumerate_vectors(sites: Sequence[FaultSite], cfg: FaultConfig,
                      fresh_base: str = "f") -> Iterator[FaultVector]:
    """All vectors of 1..max_faults distinct sites, each with each allowed
    kind; the vectors share one ``Fault`` object per distinct fault."""
    total = count_vectors(len(sites), cfg)
    if total > cfg.max_vectors:
        raise EnumerationCapExceeded(
            f"{total} fault vectors exceed the cap of {cfg.max_vectors}; "
            f"raise --max-vectors explicitly to proceed")
    kinds = tuple(k for k in KIND_ORDER if k in cfg.kinds)
    fault = functools.cache(lambda i, kind, name: Fault(sites[i], kind, name))
    for k in range(1, min(cfg.max_faults, len(sites)) + 1):
        for combo in itertools.combinations(range(len(sites)), k):
            for assignment in itertools.product(kinds, repeat=k):
                counter = itertools.count(1)
                yield tuple(
                    fault(i, kind,
                          f"{fresh_base}{next(counter)}" if kind == RANDOMIZING else None)
                    for i, kind in zip(combo, assignment))


class Injection(NamedTuple):
    """A fault vector as an overlay on a program, which stays untouched.

    ``data`` holds each statement's data faults (permanent and transient),
    keyed by statement index; ``checks`` the kind of each fault on a
    verification's outcome, keyed by check index.  ``executor.run_symbolic``
    and ``oracle.eval_program`` apply it statement by statement."""
    program: Program
    data: Dict[int, Tuple[Fault, ...]]
    checks: Dict[int, str]


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
    return Injection(program, data, checks)


def fault_value(fault: Fault) -> Expr:
    """The value a data fault forces: zero or its ``Fresh`` variable."""
    return ZERO if fault.kind == ZEROING else Fresh(fault.fresh_name)


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
