"""Fault-site enumeration and fault injection.

Two physical fault families are modelled on data only (control flow is out of
scope): permanent faults corrupt a stored value, so every later read sees the
corruption; transient faults corrupt a single read.  Either kind forces the
value to zero or to a fresh variable with no properties.  Verification
conditions can additionally have their comparison outcome faulted: zeroed, it
skips the abort; randomized, it always fires it.  Such check faults leave the
program untouched; ``executor.run_symbolic`` applies them as an overlay.

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
from typing import Iterator, List, Optional, Sequence, Tuple

from .terms import (
    And, Assign, Cond, DeclareNoProp, DeclarePrime, Eq, Expr, Neq, Or,
    Program, Return, Statement, Var, Verify, ZERO, cond_exprs, replace_at,
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
    if isinstance(st, Verify) and not (protect_conditions or st.condition.protected):
        return list(enumerate(_cond_slots(st.condition)))
    return []


def _cond_slots(c: Cond) -> List[Expr]:
    if isinstance(c, (And, Or)):
        return _cond_slots(c.lhs) + _cond_slots(c.rhs)
    return list(cond_exprs(c))


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


def inject(program: Program, vector: FaultVector) -> Program:
    """Apply a fault vector, returning a new program; the input is untouched.

    Faults on a check outcome are not applied here: ``run_symbolic`` takes
    them as an overlay."""
    statements: List[Statement] = list(program.statements)
    declared_permanents: List[Fault] = []
    fresh_names = [f.fresh_name for f in vector if f.fresh_name]

    # Deepest transient reads first, then whole-value permanents: when sites
    # overlap, the corruption closest to the stored value is applied before
    # the one that overwrites it (last write wins).
    def _apply_order(fault: Fault):
        if fault.site.scope == "transient":
            return (0, -len(fault.site.path))
        return (1, 0)

    for fault in sorted(vector, key=_apply_order):
        site = fault.site
        if site.scope == "check":
            continue
        st = statements[site.statement]
        value = ZERO if fault.kind == ZEROING else Var(fault.fresh_name)
        if site.scope == "transient":
            statements[site.statement] = _replace_in_statement(st, site.path, value)
        elif site.scope == "permanent":
            if isinstance(st, Assign):
                statements[site.statement] = Assign(st.target, value)
            else:
                declared_permanents.append(fault)
        else:
            raise ValueError(f"unknown fault scope: {site.scope}")

    out: List[Statement] = []
    if fresh_names:
        out.append(DeclareNoProp(tuple(fresh_names), (False,) * len(fresh_names)))
    for idx, st in enumerate(statements):
        faults_here = [f for f in declared_permanents if f.site.statement == idx]
        if not faults_here:
            out.append(st)
            continue
        faulted = {f.site.variable: f for f in faults_here}
        names = tuple(n for n in st.names if n not in faulted)
        flags = tuple(fl for n, fl in zip(st.names, st.protected_flags) if n not in faulted)
        if names:
            out.append(type(st)(names, flags))
        for name in st.names:
            f = faulted.get(name)
            if f is not None:
                value = ZERO if f.kind == ZEROING else Var(f.fresh_name)
                out.append(Assign(name, value))
    return Program(tuple(out), program.attack_condition)


def _replace_in_statement(st: Statement, path: Tuple[int, ...], value: Expr) -> Statement:
    slot, rest = path[0], path[1:]
    if isinstance(st, Assign):
        return Assign(st.target, replace_at(st.rhs, rest, value))
    if isinstance(st, Return):
        return Return(replace_at(st.value, rest, value))
    if isinstance(st, Verify):
        return Verify(_replace_in_cond(st.condition, slot, rest, value), st.abort_value)
    raise ValueError(f"transient fault on statement without expressions: {st!r}")


def _replace_in_cond(c: Cond, slot: int, path: Tuple[int, ...], value: Expr):
    if isinstance(c, (And, Or)):
        left_count = len(_cond_slots(c.lhs))
        if slot < left_count:
            return type(c)(_replace_in_cond(c.lhs, slot, path, value), c.rhs,
                           protected=c.protected)
        return type(c)(c.lhs, _replace_in_cond(c.rhs, slot - left_count, path, value),
                       protected=c.protected)
    exprs = list(cond_exprs(c))
    exprs[slot] = replace_at(exprs[slot], path, value)
    if isinstance(c, (Eq, Neq)):
        return type(c)(exprs[0], exprs[1], protected=c.protected)
    return type(c)(exprs[0], exprs[1], exprs[2], protected=c.protected)
