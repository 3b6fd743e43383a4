import os
import pathlib

import pytest

from modfault import FaultConfig, Rewriter, ZEROING, analyze, parse

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CORPUS_FILES = {
    "unprotected": CORPUS / "unprotected.fj",
    "vigilant-original": CORPUS / "vigilant-original.fj",
    "vigilant-coron": CORPUS / "vigilant-coron.fj",
    "vigilant-fixed": CORPUS / "vigilant-fixed.fj",
}

# Criterion 7's model: two zeroing faults with protected conditions.
CRITERION_7 = FaultConfig(max_faults=2, kinds=(ZEROING,), protect_conditions=True)


def load_program(name):
    source = CORPUS_FILES[name].read_bytes()
    return parse(source.decode("utf-8")), source


@pytest.fixture(scope="session")
def corpus_sources():
    return {name: path.read_text() for name, path in CORPUS_FILES.items()}


@pytest.fixture(scope="session")
def corpus_programs(corpus_sources):
    return {name: parse(src) for name, src in corpus_sources.items()}


@pytest.fixture(scope="session")
def criterion_7_report():
    """Criterion 7's analysis of vigilant-fixed, shared by the acceptance and
    golden-report tests because it is the slowest run of the suite."""
    program, source = load_program("vigilant-fixed")
    path = str(CORPUS_FILES["vigilant-fixed"].relative_to(ROOT))
    return analyze(program, CRITERION_7, path=path, source=source,
                   jobs=os.cpu_count() or 1)


@pytest.fixture(scope="session")
def pq_rewriter():
    return Rewriter(primes={"p", "q"})


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {criterion}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
