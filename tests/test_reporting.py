import html
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfault import (
    ATTACK, DETECTED, FAILURE, HARMLESS, RANDOMIZING, ZEROING, Fault,
    FaultConfig, FaultSite, Outcome, Report, analyze,
)
from modfault.reporting import render, report_dict


@pytest.fixture(scope="module")
def unprotected_report(corpus_programs):
    return analyze(corpus_programs["unprotected"], FaultConfig(max_faults=1),
                   path="unprotected.fj", source=b"stub")


def test_text_summary_line(unprotected_report):
    text = render(unprotected_report, "text").decode()
    s = unprotected_report.summary
    expected = (f"{s['total']} injections: {s['detected']} detected, "
                f"{s['harmless']} harmless, {s['attacks']} attacks")
    assert expected in text
    # one line per attack
    assert text.count("ATTACK") == s["attacks"]


def test_the_summary_is_counted_once_and_handed_out_as_a_copy(corpus_programs):
    # the renderers and the CLI's exit code share one count; the public dict
    # form gets its own
    report = analyze(corpus_programs["unprotected"], FaultConfig(max_faults=1))
    assert report.summary is report.summary
    report_dict(report)["summary"]["total"] = 0
    assert report.summary["total"] == len(report.results) == 56


def test_json_schema_and_roundtrip(unprotected_report):
    payload = render(unprotected_report, "json")
    data = json.loads(payload)
    assert list(data) == ["program", "config", "nominal", "results",
                          "summary", "duration_ms"]
    assert data["program"]["path"] == "unprotected.fj"
    assert re.fullmatch(r"[0-9a-f]{64}", data["program"]["sha256"])
    assert data["summary"]["total"] == len(data["results"])
    for row in data["results"]:
        assert row["outcome"] in ("detected", "harmless", "attack", "failure")
        for fault in row["faults"]:
            assert fault["site"]["scope"] in ("permanent", "transient", "check")
    # identical analyses give identical JSON apart from duration
    again = report_dict(unprotected_report)
    again.pop("duration_ms")
    stable = json.loads(payload)
    stable.pop("duration_ms")
    assert stable == again


def test_html_is_self_contained(unprotected_report):
    page = render(unprotected_report, "html").decode()
    assert page.startswith("<!DOCTYPE html>")
    assert "http://" not in page and "https://" not in page
    assert "src=" not in page and "href=" not in page
    assert ":=" not in page  # statements are referenced by number


def test_html_lists_every_vector(unprotected_report):
    page = render(unprotected_report, "html").decode()
    assert page.count("<tr") == unprotected_report.summary["total"] + 1


def test_unknown_format_rejected(unprotected_report):
    with pytest.raises(ValueError):
        render(unprotected_report, "pdf")


# Strings a JSON or HTML encoder must escape: quotes, backslashes, control
# characters, non-ASCII text and U+2028 (a line break in JavaScript).
ODD = 'q"uote \\back\x00\x1f\n\t caf\u00e9 \u2028 \U0001d11e <&>\''

PERMANENT = Fault(FaultSite("permanent", 2, variable="N" + ODD), ZEROING)
TRANSIENT = Fault(FaultSite("transient", 5, path=(0, 1, 3)), RANDOMIZING, "f1")
CHECK = Fault(FaultSite("check", 7, check=3), ZEROING)


def hand_built_report(results) -> Report:
    return Report(
        path="corpus/" + ODD + ".fj", sha256="0" * 64,
        config=FaultConfig(max_faults=3), nominal="S" + ODD,
        results=tuple(results), duration_ms=12.5)


def reference_json(report: Report) -> bytes:
    return (json.dumps(report_dict(report), indent=2) + "\n").encode()


def reference_describe(vector) -> str:
    """Each vector's fault column, as rendered before faults were escaped
    once per report."""
    return "; ".join(
        f"{f.site.describe()} [{f.kind}"
        + (f" -> {f.fresh_name}" if f.fresh_name else "")
        + "]"
        for f in vector)


def html_fault_cells(page: str):
    return re.findall(r'<tr class="[a-z]+"><td>([^<]*)</td>', page)


HAND_BUILT = hand_built_report([
    ((), Outcome(HARMLESS)),
    ((PERMANENT,), Outcome(DETECTED, detected_by=0)),
    ((PERMANENT, TRANSIENT),
     Outcome(ATTACK, witness="W" + ODD, branch="B" + ODD,
             warnings=("first", "second " + ODD, ""))),
    ((CHECK, CHECK), Outcome(DETECTED, detected_by=6, warnings=("w",))),
    ((Fault(FaultSite("transient", 5, path=(0, 1, 3)), RANDOMIZING, "f2"),),
     Outcome(FAILURE, detected_by=0, error="E" + ODD)),
    ((TRANSIENT, CHECK, PERMANENT), Outcome(HARMLESS, warnings=())),
])


@pytest.mark.parametrize("report", [HAND_BUILT, hand_built_report([])],
                         ids=["hand-built", "no-results"])
def test_json_bytes_match_json_dumps_of_report_dict(report):
    assert render(report, "json") == reference_json(report)


def test_html_fault_cells_match_reference():
    cells = html_fault_cells(render(HAND_BUILT, "html").decode())
    assert cells == [html.escape(reference_describe(v))
                     for v, _ in HAND_BUILT.results]


def test_renderers_match_reference_on_a_corpus_report(unprotected_report):
    assert render(unprotected_report, "json") == reference_json(unprotected_report)
    cells = html_fault_cells(render(unprotected_report, "html").decode())
    assert cells == [html.escape(reference_describe(v))
                     for v, _ in unprotected_report.results]


optional_text = st.none() | st.text()


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([DETECTED, HARMLESS, ATTACK, FAILURE]),
       detected_by=st.none() | st.integers(min_value=0, max_value=10),
       witness=optional_text, branch=optional_text, error=optional_text,
       warnings=st.lists(st.text(), max_size=3), variable=st.text())
def test_json_bytes_match_on_any_outcome_strings(kind, detected_by, witness,
                                                 branch, error, warnings,
                                                 variable):
    fault = Fault(FaultSite("permanent", 1, variable=variable), ZEROING)
    outcome = Outcome(kind, detected_by=detected_by, witness=witness,
                      branch=branch, warnings=tuple(warnings), error=error)
    report = hand_built_report([((fault,), outcome), ((fault, CHECK), outcome),
                                ((), Outcome(HARMLESS))])
    assert render(report, "json") == reference_json(report)
    cells = html_fault_cells(render(report, "html").decode())
    assert cells == [html.escape(reference_describe(v))
                     for v, _ in report.results]
