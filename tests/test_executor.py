from modfault import (
    ClosedProgram, Mod, Opp, Pow, Rewriter, Sum, Var, Zero, inline, parse,
    run_symbolic,
)
from modfault.oracle import eval_expr, eval_program, instantiate

from conftest import free_vars, walk

V = Var


def test_single_assignment_inlines():
    p = parse("noprop x ; y := x + 0 ; return y ; _ != @")
    u = inline(p)
    assert u.result == Sum((V("x"), Zero()))
    assert u.checks == ()


def test_crt_recombination_inlines(corpus_programs):
    u = inline(corpus_programs["unprotected"])
    sp = Mod(Pow(V("M"), Mod(Pow(V("e"), Opp(__one())),
                             Sum((V("p"), Opp(__one()))))), V("p"))
    assert u.checks == ()
    # result is Sq + q * (iq * (Sp - Sq) mod p), fully expanded
    assert isinstance(u.result, Sum)
    assert sp in _subterms(u.result)


def __one():
    from modfault import One
    return One()


def _subterms(e):
    return set(walk(e))


def test_only_input_variables_remain_free(corpus_programs):
    for name, prog in corpus_programs.items():
        u = inline(prog)
        assigned = {st.target for st in prog.statements
                    if hasattr(st, "target")}
        assert not (free_vars(u.result) & assigned)


def test_checks_in_listing_order(corpus_programs):
    u = inline(corpus_programs["vigilant-fixed"])
    assert len(u.checks) == 7


def test_nominal_safety(corpus_programs):
    for name, prog in corpus_programs.items():
        rw = Rewriter(primes=prog.prime_names())
        run = run_symbolic(ClosedProgram(prog), rw)
        assert run.completed, f"{name} aborted nominally at {run.detected_by}"
        assert run.warnings == (), f"{name} left unproven nominal checks"


def test_empty_checks_completed():
    p = parse("noprop x ; return 0 ; _ != @")
    run = run_symbolic(ClosedProgram(p), Rewriter())
    assert run.completed and run.normal_form == Zero()


def test_detection_reports_first_check(corpus_programs):
    # zeroing Mp collapses M'p to Bp*(1+r), caught by the very first check
    from modfault.faults import Fault, FaultSite, ZEROING, inject
    prog = corpus_programs["vigilant-original"]
    mp_stmt = next(i for i, st in enumerate(prog.statements)
                   if getattr(st, "target", None) == "Mp")
    vec = (Fault(FaultSite("permanent", mp_stmt, variable="Mp"), ZEROING),)
    rw = Rewriter(primes=prog.prime_names())
    run = run_symbolic(ClosedProgram(prog), rw, inject(prog, vec))
    assert run.detected_by == 0


def test_inlining_soundness(corpus_programs):
    for name, prog in corpus_programs.items():
        u = inline(prog)
        for i in range(100):
            env = instantiate(prog, seed=7000 + i)
            status, value = eval_program(prog, env)
            assert status == "ok", f"{name} aborted numerically"
            assert eval_expr(u.result, env) == value


def test_trail_holds_one_state_per_statement(corpus_programs):
    from modfault import nominal_run
    for name, prog in corpus_programs.items():
        trail = []
        nominal_run(ClosedProgram(prog), Rewriter(primes=prog.prime_names()), trail)
        assert len(trail) == len(prog.statements), name


def test_input_fault_enters_at_its_declaration(corpus_programs):
    from modfault.faults import Fault, FaultSite, ZEROING, inject
    prog = corpus_programs["vigilant-fixed"]
    assert "M" in prog.statements[0].names
    vec = (Fault(FaultSite("permanent", 0, variable="M"), ZEROING),)
    trail = []
    run_symbolic(ClosedProgram(prog), Rewriter(primes=prog.prime_names()),
                 inject(prog, vec), trail)
    (before, _), (after, _) = trail[:2]
    assert "M" not in before
    assert after["M"] == Zero()
