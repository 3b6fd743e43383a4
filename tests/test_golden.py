"""Golden reports: the JSON report of every model below must stay byte
identical, ``duration_ms`` aside.  The tests compare the bytes ``render``
writes, with only the ``duration_ms`` line cut out, so whitespace, key
spacing and escaping are pinned as well as the data.

The four corpus files under the 1-fault model are kept in full under
``golden/``.  The 2-fault and 3-fault models of ``vigilant-fixed`` in
``DIGEST_MODELS`` are kept in ``golden/digests.json`` as a sha256 of the
whole report plus a 4-hex-digit digest per vector, so a mismatch can name the
first vector that changed.  The tests below analyze four of them; the full
2-fault model, ``two-faults``, runs only in CI, through ``tests/pins.py``,
which checks any of them through the CLI.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only when a verdict change is
intended.
"""

import hashlib
import json
import os

import pytest

from modfault import FaultConfig, RANDOMIZING, analyze
from modfault.cli import _parse_transient, build_parser
from modfault.reporting import render

from conftest import (
    CORPUS_FILES, CRITERION_7, ROOT, THREE_FAULTS_PERMANENT, load_program,
)
from pins import (
    DIGESTS, cli_options, digest_mismatch, exit_code, first_difference,
    strip_duration, vector_digests,
)

GOLDEN = DIGESTS.parent
PINS = json.loads(DIGESTS.read_text())

ONE_FAULT = FaultConfig(max_faults=1)
DIGEST_MODELS = {
    "criterion-7": CRITERION_7,
    "criterion-7-randomizing": FaultConfig(
        max_faults=2, kinds=(RANDOMIZING,), protect_conditions=True),
    "two-faults-no-transient": FaultConfig(max_faults=2, transient_enabled=False),
    "three-faults-permanent": THREE_FAULTS_PERMANENT,
    "two-faults": FaultConfig(max_faults=2),
}


def run_model(name: str, cfg: FaultConfig):
    """Analyze a corpus file the way ``modfault analyze corpus/NAME.fj`` does."""
    program, source = load_program(name)
    path = str(CORPUS_FILES[name].relative_to(ROOT))
    return analyze(program, cfg, path=path, source=source,
                   jobs=os.cpu_count() or 1)


def report_bytes(report) -> bytes:
    """The rendered JSON report without its one run-dependent line."""
    return strip_duration(render(report, "json"))


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_one_fault_report_matches_golden(name):
    raw = report_bytes(run_model(name, ONE_FAULT))
    expected_raw = (GOLDEN / f"{name}.1f.json").read_bytes()
    if raw != expected_raw:
        actual, expected = json.loads(raw), json.loads(expected_raw)
        pytest.fail(f"{name}: " + first_difference(
            actual, expected["results"], actual["results"]))


def _check_digest(model: str, report):
    mismatch = digest_mismatch(PINS[model], report_bytes(report))
    if mismatch:
        pytest.fail(f"{model}: {mismatch}")


def test_criterion_7_report_matches_digest(criterion_7_report):
    _check_digest("criterion-7", criterion_7_report)


@pytest.mark.parametrize("model", ["criterion-7-randomizing",
                                   "two-faults-no-transient"])
def test_two_fault_report_matches_digest(model):
    _check_digest(model, run_model("vigilant-fixed", DIGEST_MODELS[model]))


def test_three_fault_report_matches_digest():
    _check_digest("three-faults-permanent",
                  run_model("vigilant-fixed", THREE_FAULTS_PERMANENT))


@pytest.mark.parametrize("model", sorted(PINS))
def test_pinned_options_parse_back_to_the_config(model):
    """The options ``tests/pins.py`` gives the CLI select the pinned model."""
    pin = PINS[model]
    args = build_parser().parse_args(
        ["analyze", pin["file"], *cli_options(pin["config"])])
    assert {
        "max_faults": args.faults,
        "kinds": args.kinds.split(","),
        "transient": _parse_transient(args.transient),
        "protect_conditions": args.protect_conditions,
    } == pin["config"]


@pytest.mark.parametrize("model", sorted(PINS))
def test_pinned_exit_code_follows_the_summary(model):
    summary = PINS[model]["summary"]
    assert exit_code(summary) == (2 if summary["attacks"] else
                                  3 if summary["failures"] else 0)
    assert exit_code({**summary, "attacks": 0, "failures": 1}) == 3
    assert exit_code({**summary, "attacks": 0, "failures": 0}) == 0


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CORPUS_FILES):
        raw = report_bytes(run_model(name, ONE_FAULT))
        (GOLDEN / f"{name}.1f.json").write_bytes(raw)
    digests = {}
    for model, cfg in DIGEST_MODELS.items():
        raw = report_bytes(run_model("vigilant-fixed", cfg))
        data = json.loads(raw)
        digests[model] = {
            "file": data["program"]["path"],
            "config": data["config"],
            "summary": data["summary"],
            "sha256": hashlib.sha256(raw).hexdigest(),
            "vectors": vector_digests(data),
        }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
