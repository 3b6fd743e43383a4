"""Report rendering: plain text, machine-readable JSON and standalone HTML.

``report_dict`` is the report's public dict form.  ``render(r, "json")``
gives exactly the bytes of ``json.dumps(report_dict(r), indent=2) + "\n"``.
It gets them without the pure-Python indenting encoder walking every row: a
fault vector's faults and its outcome repeat across a large report, so each
distinct fault and each distinct outcome is encoded once per report, as
``json.dumps`` would indent it at its depth, and the rows are joined from
those shared fragments.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List

from .analyzer import ATTACK, DETECTED, FAILURE, Outcome, Report
from .faults import Fault, FaultSite

FORMATS = ("text", "json", "html")


def _site_dict(site: FaultSite) -> Dict:
    out = {"scope": site.scope, "statement": site.statement}
    if site.variable is not None:
        out["variable"] = site.variable
    if site.path is not None:
        out["path"] = list(site.path)
    if site.check is not None:
        out["check"] = site.check
    return out


def _fault_dict(fault: Fault) -> Dict:
    out = {"site": _site_dict(fault.site), "kind": fault.kind}
    if fault.fresh_name:
        out["fresh"] = fault.fresh_name
    return out


def _outcome_dict(outcome: Outcome) -> Dict:
    out: Dict = {"outcome": outcome.kind}
    if outcome.detected_by is not None:
        out["detected_by"] = outcome.detected_by
    if outcome.branch is not None:
        out["branch"] = outcome.branch
    if outcome.witness is not None:
        out["witness"] = outcome.witness
    if outcome.error is not None:
        out["error"] = outcome.error
    out["warnings"] = list(outcome.warnings)
    return out


def _report_dict(report: Report, results: List[Dict]) -> Dict:
    cfg = report.config
    return {
        "program": {"path": report.path, "sha256": report.sha256},
        "config": {
            "max_faults": cfg.max_faults,
            "kinds": list(cfg.kinds),
            "transient": cfg.transient_enabled,
            "protect_conditions": cfg.protect_conditions,
        },
        "nominal": report.nominal,
        "results": results,
        "summary": dict(report.summary),
        "duration_ms": report.duration_ms,
    }


def report_dict(report: Report) -> Dict:
    return _report_dict(report, [
        {"faults": [_fault_dict(f) for f in vector], **_outcome_dict(outcome)}
        for vector, outcome in report.results])


def _nested(obj, depth: int) -> bytes:
    """``obj`` as ``json.dumps(..., indent=2)`` writes it nested ``depth``
    levels deep, from its first character on.  JSON strings escape
    newlines, so each newline in the text starts a line to indent."""
    text = json.dumps(obj, indent=2)
    return text.replace("\n", "\n" + "  " * depth).encode()


_NO_RESULTS = '\n  "results": [],'
_FIRST_ROW = b'\n  "results": [\n    {\n      "faults": ['
_NEXT_ROW = b',\n    {\n      "faults": ['


def render_json(report: Report) -> bytes:
    head, _, tail = json.dumps(_report_dict(report, []), indent=2).partition(
        _NO_RESULTS)
    if not report.results:
        return (head + _NO_RESULTS + tail + "\n").encode()
    fault_parts: Dict[Fault, bytes] = {}
    outcome_parts: Dict[Outcome, bytes] = {}
    parts = [head.encode()]
    row = _FIRST_ROW
    for vector, outcome in report.results:
        parts.append(row)
        row = _NEXT_ROW
        sep = b"\n        "
        for fault in vector:
            part = fault_parts.get(fault)
            if part is None:
                part = fault_parts[fault] = _nested(_fault_dict(fault), 4)
            parts.append(sep)
            parts.append(part)
            sep = b",\n        "
        parts.append(b"\n      ]," if vector else b"],")
        part = outcome_parts.get(outcome)
        if part is None:
            # the outcome's keys close the row: drop the dict's own "{"
            part = outcome_parts[outcome] = _nested(_outcome_dict(outcome), 2)[1:]
        parts.append(part)
    parts.append(b"\n  ],")
    parts.append(tail.encode())
    parts.append(b"\n")
    return b"".join(parts)


def _describe_fault(f: Fault) -> str:
    fresh = f" -> {f.fresh_name}" if f.fresh_name else ""
    return f"{f.site.describe()} [{f.kind}{fresh}]"


def _describe_vector(vector) -> str:
    return "; ".join(_describe_fault(f) for f in vector)


def render_text(report: Report) -> str:
    s = report.summary
    lines = [
        f"{report.path}",
        f"{s['total']} injections: {s['detected']} detected, "
        f"{s['harmless']} harmless, {s['attacks']} attacks",
    ]
    if s["failures"]:
        lines.append(f"{s['failures']} analysis failures")
    for vector, outcome in report.results:
        if outcome.kind == ATTACK:
            lines.append(f"ATTACK  {_describe_vector(vector)}")
            lines.append(f"        satisfied branch: {outcome.branch}")
            if outcome.warnings:
                lines.append(f"        warnings: {', '.join(outcome.warnings)}")
        elif outcome.kind == FAILURE:
            lines.append(f"FAILURE {_describe_vector(vector)}: {outcome.error}")
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #999; padding: 4px 8px; text-align: left;
         vertical-align: top; font-size: 90%; }
tr.attack { background: #ffd7d7; }
tr.detected { background: #e7f7e7; }
tr.failure { background: #ffe9c7; }
code { word-break: break-all; }
"""


def render_html(report: Report) -> str:
    s = report.summary
    # html.escape maps "; " to itself, so it distributes over the join of
    # _describe_vector, and each distinct fault is escaped once
    escaped: Dict[Fault, str] = {}
    rows: List[str] = []
    for vector, outcome in report.results:
        cells = []
        for f in vector:
            cell = escaped.get(f)
            if cell is None:
                cell = escaped[f] = html.escape(_describe_fault(f))
            cells.append(cell)
        detail = ""
        if outcome.kind == DETECTED:
            detail = f"verification {outcome.detected_by}"
        elif outcome.kind == ATTACK:
            detail = (f"branch: <code>{html.escape(outcome.branch or '')}</code><br>"
                      f"faulted result: <code>{html.escape(outcome.witness or '')}</code>")
        elif outcome.kind == FAILURE:
            detail = html.escape(outcome.error or "")
        if outcome.warnings:
            detail += "<br>warnings: " + html.escape("; ".join(outcome.warnings))
        rows.append(
            f'<tr class="{outcome.kind}">'
            f"<td>{'; '.join(cells)}</td>"
            f"<td>{outcome.kind}</td><td>{detail}</td></tr>")
    cfg = report.config
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>Fault analysis: {html.escape(report.path)}</title>
<style>{_HTML_STYLE}</style></head>
<body>
<h1>Fault analysis report</h1>
<p>Program: <code>{html.escape(report.path)}</code>
(sha256 <code>{report.sha256}</code>)</p>
<p>Model: up to {cfg.max_faults} fault(s), kinds {html.escape(", ".join(cfg.kinds))},
transient {"enabled" if cfg.transient_enabled else "disabled"},
conditions {"protected" if cfg.protect_conditions else "faultable"}.</p>
<p><b>{s['total']} injections: {s['detected']} detected, {s['harmless']} harmless,
{s['attacks']} attacks, {s['failures']} failures.</b></p>
<p>Nominal result: <code>{html.escape(report.nominal)}</code></p>
<table>
<tr><th>fault vector</th><th>outcome</th><th>detail</th></tr>
{"".join(rows)}
</table>
</body></html>
"""


def render(report: Report, fmt: str) -> bytes:
    if fmt == "text":
        return render_text(report).encode()
    if fmt == "json":
        return render_json(report)
    if fmt == "html":
        return render_html(report).encode()
    raise ValueError(f"unknown report format {fmt!r}; choose from {FORMATS}")
