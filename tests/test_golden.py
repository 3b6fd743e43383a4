"""Golden reports: the JSON report of every model below must stay byte
identical, ``duration_ms`` aside.

The four corpus files under the 1-fault model are kept in full under
``golden/``; the three 2-fault models on ``vigilant-fixed`` are kept as a
sha256 of the whole report plus a 4-hex-digit digest per vector, so a
mismatch can name the first vector that changed.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only when a verdict change is
intended.
"""

import hashlib
import json
import os
import pathlib

import pytest

from modfault import FaultConfig, RANDOMIZING, analyze
from modfault.reporting import render

from conftest import CORPUS_FILES, CRITERION_7, ROOT, load_program

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

ONE_FAULT = FaultConfig(max_faults=1)
DIGEST_MODELS = {
    "criterion-7": CRITERION_7,
    "criterion-7-randomizing": FaultConfig(
        max_faults=2, kinds=(RANDOMIZING,), protect_conditions=True),
    "two-faults-no-transient": FaultConfig(max_faults=2, transient_enabled=False),
}


def run_model(name: str, cfg: FaultConfig):
    """Analyze a corpus file the way ``modfault analyze corpus/NAME.fj`` does."""
    program, source = load_program(name)
    path = str(CORPUS_FILES[name].relative_to(ROOT))
    return analyze(program, cfg, path=path, source=source,
                   jobs=os.cpu_count() or 1)


def report_json(report) -> dict:
    data = json.loads(render(report, "json"))
    del data["duration_ms"]
    return data


def dump(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def vector_digests(data: dict) -> str:
    return "".join(hashlib.sha256(json.dumps(r).encode()).hexdigest()[:4]
                   for r in data["results"])


def _first_difference(actual: dict, expected_vectors, actual_vectors) -> str:
    for i, (a, b) in enumerate(zip(actual_vectors, expected_vectors)):
        if a != b:
            faults = json.dumps(actual["results"][i]["faults"])
            return f"first differing vector: #{i} {faults}"
    if len(actual_vectors) != len(expected_vectors):
        return (f"vector count differs: {len(actual_vectors)} "
                f"instead of {len(expected_vectors)}")
    return "every vector matches; the report header differs"


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
def test_one_fault_report_matches_golden(name):
    actual = report_json(run_model(name, ONE_FAULT))
    expected_text = (GOLDEN / f"{name}.1f.json").read_text()
    if dump(actual) != expected_text:
        expected = json.loads(expected_text)
        pytest.fail(f"{name}: " + _first_difference(
            actual, expected["results"], actual["results"]))


def _check_digest(model: str, report):
    expected = json.loads(DIGESTS.read_text())[model]
    actual = report_json(report)
    digest = hashlib.sha256(dump(actual).encode()).hexdigest()
    if digest != expected["sha256"]:
        chunks = [expected["vectors"][i:i + 4]
                  for i in range(0, len(expected["vectors"]), 4)]
        mine = vector_digests(actual)
        mine = [mine[i:i + 4] for i in range(0, len(mine), 4)]
        pytest.fail(f"{model}: " + _first_difference(actual, chunks, mine))


def test_criterion_7_report_matches_digest(criterion_7_report):
    _check_digest("criterion-7", criterion_7_report)


@pytest.mark.parametrize("model", ["criterion-7-randomizing",
                                   "two-faults-no-transient"])
def test_two_fault_report_matches_digest(model):
    _check_digest(model, run_model("vigilant-fixed", DIGEST_MODELS[model]))


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CORPUS_FILES):
        data = report_json(run_model(name, ONE_FAULT))
        (GOLDEN / f"{name}.1f.json").write_text(dump(data))
    digests = {}
    for model, cfg in DIGEST_MODELS.items():
        data = report_json(run_model("vigilant-fixed", cfg))
        digests[model] = {
            "file": data["program"]["path"],
            "config": data["config"],
            "summary": data["summary"],
            "sha256": hashlib.sha256(dump(data).encode()).hexdigest(),
            "vectors": vector_digests(data),
        }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
