"""Metamorphic relations over the verdict table: a change of the input whose
effect on the verdicts is known, checked by comparing the tool with itself.

R1, renaming: a bijective renaming of every program name leaves the class of
every vector unchanged, index by index.  The order-reversing renaming
reverses the canonical order of the program's variables, so a rule that
depends on where names fall in that order breaks it.
"""

import pytest

from modfault import FaultConfig, Var, analyze
from modfault.terms import Assign, Declare, Program, Return, Verify

from conftest import CORPUS_FILES


def rename_term(e, names):
    """``e`` with every program variable renamed, its braces kept."""
    if isinstance(e, Var):
        return Var(names.get(e.name, e.name), protected=e.protected)
    return e.with_children(tuple(rename_term(k, names) for k in e.children()))


def rename_program(program, names):
    statements = []
    for st in program.statements:
        if isinstance(st, Declare):
            st = Declare(tuple(names[n] for n in st.names), st.protected_flags, st.prime)
        elif isinstance(st, Assign):
            st = Assign(names[st.target], rename_term(st.rhs, names))
        elif isinstance(st, Verify):
            st = Verify(rename_term(st.condition, names),
                        rename_term(st.abort_value, names))
        else:
            st = Return(rename_term(st.value, names))
        statements.append(st)
    return Program(tuple(statements), rename_term(program.attack_condition, names))


def keep_order(names):
    return {n: "x" + n for n in names}


def reverse_order(names):
    return {n: f"v{i:03d}" for i, n in enumerate(sorted(names, reverse=True))}


def _site(fault, names):
    site = fault.site
    return (site.scope, site.statement, names.get(site.variable, site.variable),
            site.path, site.check, fault.kind)


@pytest.mark.parametrize("renaming", [keep_order, reverse_order])
@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_r1_renaming_keeps_every_verdict(corpus_programs, name, renaming):
    program = corpus_programs[name]
    names = renaming(program.declared_names())
    cfg = FaultConfig(max_faults=1)
    plain = analyze(program, cfg).results
    renamed = analyze(rename_program(program, names), cfg).results
    assert [tuple(_site(f, names) for f in v) for v, _ in plain] == [
        tuple(_site(f, {}) for f in v) for v, _ in renamed]
    assert [o.kind for _, o in plain] == [o.kind for _, o in renamed]
