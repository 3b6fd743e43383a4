"""Benchmark of modfault's offline audit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.json) is run as a closed loop from one client:
a fresh interpreter imports modfault from this checkout's ``src/`` and runs
``modfault analyze`` on every program of the workload, writing text, JSON and
HTML reports; the next run starts only when the previous one has ended.  With
``--trace 0`` the loop repeats for ``--seconds`` seconds and the end-to-end
metrics are medians over its runs.  With ``--trace 1`` one untraced run (and,
for a parallel workload, one untraced ``--jobs 1`` run) is followed by one
traced ``--jobs 1`` run, which gives the per-layer metrics and the tracing
overhead.  Every report is checked against the workload's reference; a
mismatch makes the result incorrect and the exit code 1.

The programs are fixed corpus files; the seed picks the numeric oracle's
instantiations.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SESSION = BENCH / "session.py"
BUILD = ROOT / ".bench_build"
SPEC = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]

SETUP_PROBES = 15       # set-up-only interpreters per run, for setup_s
TIME_LIMIT_S = 170.0    # a run must end within this many seconds
# Report outcome -> summary key.  An outcome outside these counts as failed.
OUTCOMES = {"detected": "detected", "harmless": "harmless",
            "attack": "attacks", "failure": "failures"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- sessions -----------------------------------------------------------------

def spawn(mode: str, name: str, outdir: Path, seed: int, jobs: int,
          deadline: float) -> dict:
    """Run one fresh interpreter and return its result, stamped with the
    moment it was spawned and with its text output."""
    outdir.mkdir(parents=True)
    # Bytecode is cached under .bench_build, as an installed package's would
    # be, so set-up time does not include compiling the library.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(SESSION), mode, name, str(outdir), str(seed), str(jobs)]
    with open(outdir / "stdout.txt", "wb") as out:
        t_spawn = now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - now()))
        except BaseException as exc:
            # Time limit, interrupt or termination: stop the session and its
            # pool workers, and wait for them, before giving up.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} session of {name} ran past the time limit")
            raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} session of {name} exited with {proc.returncode}:\n"
                         + err.decode(errors="replace")[-3000:])
    result = json.loads((outdir / "session.json").read_text())
    result["t_spawn"] = t_spawn
    result["stdout"] = (outdir / "stdout.txt").read_text()
    return result


# -- checking reports -----------------------------------------------------------

def _fault_matches(fault: dict, pattern: dict) -> bool:
    flat = dict(fault["site"], kind=fault["kind"])
    return all(flat.get(k) == v for k, v in pattern.items())


def _vector_matches(faults: list, patterns: list) -> bool:
    if len(faults) != len(patterns):
        return False
    return any(all(_fault_matches(f, p) for f, p in zip(faults, order))
               for order in itertools.permutations(patterns))


def strip_duration(raw: bytes) -> bytes:
    """The JSON report without its one run-dependent field."""
    stripped, n = re.subn(rb',\n  "duration_ms": [^\n]*', b"", raw)
    if n != 1:
        raise BenchError("JSON report has no single duration_ms field")
    return stripped


class Check:
    """Reference checks over every analysis run of one benchmark run."""

    def __init__(self, workload: dict):
        self.workload = workload
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, result: dict, outdir: Path) -> dict:
        """Check one analysis run; return its verdict counts, vector count,
        report bytes and a digest of its JSON reports without
        ``duration_ms``."""
        json_bytes = html_bytes = 0
        verdicts = dict.fromkeys(OUTCOMES.values(), 0)
        digest = hashlib.sha256()
        for program, call in zip(self.workload["programs"], result["calls"], strict=True):
            where = f"{label}: {program['file']}"
            stem = Path(program["file"]).stem
            raw_json = (outdir / f"{stem}.report.json").read_bytes()
            raw_html = (outdir / f"{stem}.report.html").read_bytes()
            json_bytes += len(raw_json)
            html_bytes += len(raw_html)
            digest.update(strip_duration(raw_json))
            report = json.loads(raw_json)
            expect = program["summary"]
            counts = dict.fromkeys(OUTCOMES.values(), 0)
            for r in report["results"]:
                counts[OUTCOMES.get(r["outcome"], "failures")] += 1
            for key in verdicts:
                verdicts[key] += counts[key]
            counts["total"] = len(report["results"])
            self.attempted += counts["total"]
            self.failed += counts["failures"] + sum(
                max(0, counts[key] - expect[key])
                for key in ("detected", "harmless", "attacks"))
            if counts != {k: expect[k] for k in counts}:
                self.problems.append(f"{where}: verdicts {counts}, reference {expect}")
            if report["summary"] != counts:
                self.problems.append(f"{where}: summary {report['summary']} "
                                     f"disagrees with its results {counts}")
            if call["exit_code"] != program["exit_code"]:
                self.problems.append(f"{where}: exit code {call['exit_code']}, "
                                     f"reference {program['exit_code']}")
            attacks = [r["faults"] for r in report["results"] if r["outcome"] == "attack"]
            for patterns in program.get("attacks_include", ()):
                if not any(_vector_matches(v, patterns) for v in attacks):
                    self.problems.append(f"{where}: no attack matches {patterns}")
            headline = (f"{program['file']}\n{counts['total']} injections: "
                        f"{counts['detected']} detected, {counts['harmless']} harmless, "
                        f"{counts['attacks']} attacks\n")
            if headline not in result["stdout"]:
                self.problems.append(f"{where}: text report lacks {headline!r}")
            html = raw_html.decode()
            for kind, key in OUTCOMES.items():
                rows = html.count(f'<tr class="{kind}">')
                if rows != counts[key]:
                    self.problems.append(f"{where}: HTML has {rows} {kind} rows, "
                                         f"JSON {counts[key]}")
        return {"verdicts": verdicts, "vectors": sum(verdicts.values()),
                "json_bytes": json_bytes, "html_bytes": html_bytes,
                "digest": digest.hexdigest()}

    def same_reports(self, what: str, a: dict, b: dict) -> None:
        if a["digest"] != b["digest"]:
            self.problems.append(f"{what}: JSON reports differ beyond duration_ms")

    def oracle(self, result: dict) -> float:
        for c in result["oracle"]:
            if c["failures"]:
                self.problems.append(f"oracle: {c['file']} failed {c['failures']} of "
                                     f"{c['trials']} trials (seed {c['seed']})")
        return sum(c["ms"] for c in result["oracle"])


# -- metrics ------------------------------------------------------------------

def wall_s(result: dict) -> float:
    return result["t_end"] - result["t_spawn"]


def setup_s(result: dict) -> float:
    return result["t_setup"] - result["t_spawn"]


def peak_rss_mib(result: dict) -> float:
    return max(result["maxrss_kb"], result["children_maxrss_kb"]) / 1024.0


def pool_busy_share(result: dict, jobs: int) -> float:
    cpu = sum(c["worker_cpu_s"] for c in result["calls"])
    wall = sum(c["wall_s"] for c in result["calls"])
    return cpu / (jobs * wall)


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: int, work: Path, deadline: float,
            check: Check, notes: list) -> dict:
    """Closed loop of untraced runs for ``seconds``; end-to-end metrics."""
    workload = WORKLOADS[name]
    jobs = workload["jobs"]
    setups = [setup_s(spawn("setup", name, work / f"setup{i}", seed, jobs, deadline))
              for i in range(SETUP_PROBES)]
    runs = []
    start = now()
    while True:
        outdir = work / f"run{len(runs)}"
        result = spawn("analyze", name, outdir, seed, jobs, deadline)
        result.update(check.run(f"run {len(runs)}", result, outdir))
        if runs:
            check.same_reports(f"run {len(runs)} vs run 0", runs[0], result)
        shutil.rmtree(outdir)
        runs.append(result)
        typical = statistics.median(wall_s(r) for r in runs)
        if now() - start + typical > seconds:
            break
    setups += [setup_s(r) for r in runs]
    metrics = {
        "wall_s": (statistics.median(wall_s(r) for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "vectors_per_s": (statistics.median(r["vectors"] / (wall_s(r) - setup_s(r))
                                            for r in runs), "1/s"),
        "peak_rss_mb": (statistics.median(peak_rss_mib(r) for r in runs), "MiB"),
    }
    notes += [f"wall_s, vectors_per_s and peak_rss_mb are medians of {len(runs)} runs; "
              f"setup_s of {len(setups)} set-ups",
              f"analyzer.pool_busy_share {statistics.median(pool_busy_share(r, jobs) for r in runs):.3f} "
              f"at --jobs {jobs}, os.cpu_count() = {os.cpu_count()}"]
    return metrics


def trace(name: str, seed: int, work: Path, deadline: float, check: Check,
          notes: list) -> dict:
    """Untraced and traced runs of the workload; per-layer metrics."""
    workload = WORKLOADS[name]
    jobs = workload["jobs"]
    untraced = spawn("analyze", name, work / "untraced", seed, jobs, deadline)
    untraced.update(check.run("untraced run", untraced, work / "untraced"))
    baseline = untraced
    if jobs != 1:
        baseline = spawn("analyze", name, work / "untraced-jobs1", seed, 1, deadline)
        baseline.update(check.run("untraced --jobs 1 run", baseline, work / "untraced-jobs1"))
        check.same_reports(f"--jobs {jobs} vs --jobs 1", untraced, baseline)
    traced = spawn("traced", name, work / "traced", seed, 1, deadline)
    traced.update(check.run("traced run", traced, work / "traced"))
    check.same_reports("traced replay vs untraced --jobs 1", baseline, traced)

    layers = traced["layers"]

    def ms(span: str, key: str = "ms") -> float:
        return layers.get(span, {}).get(key, 0.0)

    def calls(span: str) -> int:
        return layers.get(span, {}).get("calls", 0)

    vector_ms = traced["vector_ms"]
    counts = traced["verdicts"]
    overhead = wall_s(traced) - wall_s(baseline)
    metrics = {
        "terms.strip_protection_ms": (ms("strip_protection"), "ms"),
        "terms.strip_protection_calls": (calls("strip_protection"), "count"),
        "terms.sort_key_ms": (ms("sort_key"), "ms"),
        "terms.sort_key_calls": (calls("sort_key"), "count"),
        "faults.sites": (traced["sites"], "count"),
        "faults.vectors": (traced["vectors"], "count"),
        "faults.enumerate_sites_ms": (ms("enumerate_sites"), "ms"),
        "faults.inject_ms": (ms("inject"), "ms"),
        "faults.inject_calls": (calls("inject"), "count"),
        "executor.inline_ms": (ms("inline"), "ms"),
        "executor.inline_self_ms": (ms("inline", "self_ms"), "ms"),
        "executor.inline_calls": (calls("inline"), "count"),
        "executor.run_symbolic_self_ms": (ms("run_symbolic", "self_ms"), "ms"),
        "executor.distinct_unrolled_share": (traced["distinct_unrolled"] / traced["vectors"],
                                             "share"),
        "rewriter.decide_check_ms": (ms("decide_check"), "ms"),
        "rewriter.decide_check_self_ms": (ms("decide_check", "self_ms"), "ms"),
        "rewriter.decide_check_calls": (calls("decide_check"), "count"),
        "rewriter.decide_ms": (ms("decide"), "ms"),
        "rewriter.decide_calls": (calls("decide"), "count"),
        "rewriter.normalize_ms": (ms("normalize"), "ms"),
        "rewriter.normalize_calls": (calls("normalize"), "count"),
        "analyzer.nominal_run_ms": (ms("nominal_run"), "ms"),
        "analyzer.classify_self_ms": (ms("classify", "self_ms"), "ms"),
        "analyzer.vector_ms.p50": (statistics.median(vector_ms), "ms"),
        "analyzer.vector_ms.p99": (percentile(vector_ms, 0.99), "ms"),
        "analyzer.vector_ms.max": (max(vector_ms), "ms"),
        "analyzer.detected": (counts["detected"], "count"),
        "analyzer.harmless": (counts["harmless"], "count"),
        "analyzer.attacks": (counts["attacks"], "count"),
        "analyzer.failures": (counts["failures"], "count"),
        "analyzer.pool_busy_share": (pool_busy_share(untraced, jobs), "share"),
        "printer.pretty_expr_ms": (ms("pretty_expr"), "ms"),
        "printer.pretty_expr_calls": (calls("pretty_expr"), "count"),
        "reporting.render_text_ms": (ms("render.text"), "ms"),
        "reporting.render_json_ms": (ms("render.json"), "ms"),
        "reporting.render_html_ms": (ms("render.html"), "ms"),
        "reporting.json_bytes": (untraced["json_bytes"], "B"),
        "reporting.html_bytes": (untraced["html_bytes"], "B"),
        "parser.parse_ms": (ms("parse"), "ms"),
        "trace.overhead_s": (overhead, "s"),
    }
    notes += [f"traced --jobs 1 wall {wall_s(traced):.3f} s, untraced --jobs 1 wall "
              f"{wall_s(baseline):.3f} s, {traced['spans']} spans over "
              f"{len(vector_ms)} vectors",
              f"CPU time traced {traced['cpu_s']:.3f} s, untraced --jobs 1 "
              f"{baseline['cpu_s']:.3f} s (less exposed to other load than wall time)",
              f"analyzer.pool_busy_share measured untraced at --jobs {jobs}, "
              f"os.cpu_count() = {os.cpu_count()}"]
    return metrics


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    check = Check(workload)
    notes: list = []
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD))
    try:
        if traced:
            metrics = trace(name, seed, work, deadline, check, notes)
        else:
            metrics = measure(name, seed, seconds, work, deadline, check, notes)
        oracle_ms = check.oracle(spawn("oracle", name, work / "oracle", seed, 1, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if traced:
        metrics["oracle.check_soundness_ms"] = (oracle_ms, "ms")
    notes.append(f"oracle: {len(workload['programs'])} programs x "
                 f"{SPEC['oracle_trials']} trials in {oracle_ms:.1f} ms")
    return {"name": name, "jobs": workload["jobs"], "metrics": metrics,
            "check": check, "notes": notes}


def print_block(outcome: dict, seed: int, traced: bool) -> None:
    check = outcome["check"]
    print(f"workload {outcome['name']}  seed {seed}  trace {int(traced)}  "
          f"jobs {outcome['jobs']}  cpu_count {os.cpu_count()}")
    for metric, (value, unit) in outcome["metrics"].items():
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {metric:34} {text:>14} {unit}")
    share = check.failed / check.attempted
    print(f"  {'failed_vector_share':34} {share:>14.4f} share "
          f"({check.failed} of {check.attempted} vectors)")
    for note in outcome["notes"]:
        print(f"  {note}")
    print("  reference: " + ("ok" if not check.problems else "MISMATCH"))
    for problem in check.problems:
        print(f"    {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Termination unwinds like an interrupt, so spawn() can stop its session.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [ROOT / "src" / "modfault" / "__init__.py"] + sorted(
        {ROOT / p["file"] for n in names for p in WORKLOADS[n]["programs"]})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = now() + TIME_LIMIT_S * len(names)
    outcomes = []
    try:
        for name in names:
            outcomes.append(run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        print_block(outcome, args.seed, bool(args.trace))

    prefix = len(outcomes) > 1
    result = {
        "correct": all(not o["check"].problems for o in outcomes),
        "attempted": sum(o["check"].attempted for o in outcomes),
        "failed": sum(o["check"].failed for o in outcomes),
        "metrics": {(f"{o['name']}/{m}" if prefix else m): {"value": v, "unit": u}
                    for o in outcomes for m, (v, u) in o["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
