"""Run a pinned model of ``tests/golden/digests.json`` through the CLI.

Usage, from any directory:

    python tests/pins.py MODEL

MODEL names an entry of ``digests.json``.  The entry holds the program
(``file``), the fault model (``config``), the verdict counts (``summary``)
and the sha256 of the JSON report without its ``duration_ms`` line.  The
runner analyzes the program with ``python -m modfault.cli analyze`` from
``src/``, at ``--jobs 1`` under ``PYTHONHASHSEED=0`` and at ``--jobs 2``
under ``PYTHONHASHSEED=1``, so the one digest also pins that the report
depends on neither the job count nor the hash seed.  Each run must exit with
the code its summary implies, print the summary's headline as a line of its
text report, and write a JSON report with the pinned digest.  Prints one line
per run, and exits 1 when a run differs, naming the first differing vector.

Standard library only.  ``tests/test_golden.py`` imports the report cut,
the per-vector digests and the first-difference message from here, and it
regenerates ``digests.json``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "digests.json"

# (--jobs, PYTHONHASHSEED) of each run of a model
RUNS = ((1, "0"), (2, "1"))


def strip_duration(raw: bytes) -> bytes:
    """A JSON report's bytes without its ``duration_ms`` line, the one field
    that differs between two runs of the same model."""
    body, n = re.subn(rb',\n  "duration_ms": [^\n]*', b"", raw)
    if n != 1:
        raise ValueError("the JSON report has no single duration_ms line")
    return body


def vector_digests(data: dict) -> str:
    """Four hex digits of sha256 per result of a parsed report."""
    return "".join(hashlib.sha256(json.dumps(r).encode()).hexdigest()[:4]
                   for r in data["results"])


def first_difference(actual: dict, expected_vectors, actual_vectors) -> str:
    """Where a parsed report differs from the expected one, given one item
    per vector on each side (a result, or its digest)."""
    for i, (a, b) in enumerate(zip(actual_vectors, expected_vectors)):
        if a != b:
            faults = json.dumps(actual["results"][i]["faults"])
            return f"first differing vector: #{i} {faults}"
    if len(actual_vectors) != len(expected_vectors):
        return (f"vector count differs: {len(actual_vectors)} "
                f"instead of {len(expected_vectors)}")
    return ("every vector's data match; the header or the layout "
            "(whitespace, escaping) differs")


def digest_mismatch(pin: dict, body: bytes) -> Optional[str]:
    """None when a cut report has the pin's sha256, else what differs."""
    if hashlib.sha256(body).hexdigest() == pin["sha256"]:
        return None
    actual = json.loads(body)

    def per_vector(digests: str) -> List[str]:
        return [digests[i:i + 4] for i in range(0, len(digests), 4)]

    return first_difference(actual, per_vector(pin["vectors"]),
                            per_vector(vector_digests(actual)))


def cli_options(config: dict) -> List[str]:
    """The ``modfault analyze`` options of a report's ``config``."""
    options = ["--faults", str(config["max_faults"]),
               "--kinds", ",".join(config["kinds"]),
               "--transient", "true" if config["transient"] else "false"]
    if config["protect_conditions"]:
        options.append("--protect-conditions")
    return options


def exit_code(summary: dict) -> int:
    """The exit code of ``modfault analyze`` for a report's summary."""
    if summary["attacks"]:
        return 2
    if summary["failures"]:
        return 3
    return 0


def headline(summary: dict) -> str:
    """The line of the text report that gives the verdict counts."""
    return (f"{summary['total']} injections: {summary['detected']} detected, "
            f"{summary['harmless']} harmless, {summary['attacks']} attacks")


def check_run(pin: dict, jobs: int, seed: str, out: Path) -> List[str]:
    """Analyze a pinned model once; what differs from the pin."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "modfault.cli", "analyze", pin["file"],
               *cli_options(pin["config"]), "--jobs", str(jobs),
               "--format", "text,json", "--out", str(out)]
    run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True)
    problems = []
    expected = exit_code(pin["summary"])
    if run.returncode != expected:
        problems.append(f"exit code {run.returncode}, expected {expected}")
    line = headline(pin["summary"])
    if line not in run.stdout.splitlines():
        problems.append(f"no line {line!r} in the text report")
    report = out / f"{Path(pin['file']).stem}.report.json"
    if not report.is_file():
        return problems + ["no JSON report"]
    try:
        mismatch = digest_mismatch(pin, strip_duration(report.read_bytes()))
    except ValueError as err:
        mismatch = str(err)
    if mismatch:
        problems.append(f"the JSON report changed: {mismatch}")
    return problems


def main(argv: List[str]) -> int:
    pins = json.loads(DIGESTS.read_text())
    if len(argv) != 1 or argv[0] not in pins:
        sys.exit(f"usage: python tests/pins.py MODEL, "
                 f"one of: {', '.join(pins)}")
    model = argv[0]
    pin = pins[model]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for jobs, seed in RUNS:
            where = f"{model}, --jobs {jobs}, PYTHONHASHSEED={seed}"
            problems = check_run(pin, jobs, seed, Path(tmp, f"j{jobs}"))
            for problem in problems:
                print(f"{where}: {problem}")
            if not problems:
                print(f"{where}: exit {exit_code(pin['summary'])}, "
                      f"{headline(pin['summary'])}, sha256 {pin['sha256']}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
