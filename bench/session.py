"""One fresh interpreter of the benchmark.

    python3 bench/session.py MODE WORKLOAD OUTDIR SEED JOBS

MODE is one of
  setup     import modfault and parse the workload's programs, then stop;
  analyze   set up as above, then analyze every program at ``--jobs JOBS``
            through ``modfault.cli.main``, exactly as a user would;
  traced    like analyze, with the span tracer installed (JOBS must be 1:
            the tracer sees only this process);
  oracle    run the numeric soundness oracle on every program, seeded
            from SEED.

Timestamps are CLOCK_MONOTONIC readings, which are comparable across
processes, so the parent can time from the moment it spawned this one.  The
result goes to OUTDIR/session.json; the text reports go to standard output.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((Path(__file__).parent / "workloads.json").read_text())


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def analyze(workload: dict, outdir: str, jobs: int, tracer=None) -> dict:
    from modfault import cli
    calls = []
    for program in workload["programs"]:
        worker_cpu = cpu_s(resource.RUSAGE_CHILDREN if jobs > 1 else resource.RUSAGE_SELF)
        start = now()
        code = cli.main(["analyze", program["file"], *workload["options"],
                         "--format", "text,json,html", "--out", outdir,
                         "--jobs", str(jobs)])
        elapsed = now() - start
        worker_cpu = cpu_s(resource.RUSAGE_CHILDREN if jobs > 1
                           else resource.RUSAGE_SELF) - worker_cpu
        calls.append({"file": program["file"], "exit_code": code,
                      "wall_s": elapsed, "worker_cpu_s": worker_cpu})
        if tracer is not None:
            tracer.end_program()
    return {"calls": calls, "t_end": now()}


def oracle(workload: dict, seed: int) -> dict:
    import modfault
    rng = random.Random(seed)
    checks = []
    for program in workload["programs"]:
        parsed = modfault.parse((ROOT / program["file"]).read_text())
        trial_seed = rng.randrange(2 ** 31)
        start = now()
        report = modfault.check_soundness(parsed, WORKLOADS["oracle_trials"], trial_seed)
        checks.append({"file": program["file"], "seed": trial_seed,
                       "ms": (now() - start) * 1000.0, "trials": report.trials,
                       "failures": report.failures})
    return {"oracle": checks}


def main(argv) -> int:
    mode, name, outdir, seed, jobs = argv[0], argv[1], argv[2], int(argv[3]), int(argv[4])
    workload = WORKLOADS["workloads"][name]
    if mode == "traced" and jobs != 1:
        print("session: the traced run needs --jobs 1", file=sys.stderr)
        return 2

    import modfault
    source = Path(modfault.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"session: imported modfault from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    for program in workload["programs"]:
        modfault.parse((ROOT / program["file"]).read_text())
    result = {"t_setup": now()}

    if mode == "analyze":
        result.update(analyze(workload, outdir, jobs))
    elif mode == "traced":
        from tracer import Tracer  # bench/ is sys.path[0] for this script
        tracer = Tracer()
        tracer.install()
        result.update(analyze(workload, outdir, jobs, tracer))
        tracer.uninstall()
        result["sites"] = tracer.sites
        result["layers"] = tracer.layer_totals()
        result["vector_ms"] = tracer.vector_ms()
        result["distinct_unrolled"] = tracer.distinct_unrolled
        result["spans"] = tracer.spans
    elif mode == "oracle":
        result.update(oracle(workload, seed))
    elif mode != "setup":
        print(f"session: unknown mode {mode!r}", file=sys.stderr)
        return 2

    result["cpu_s"] = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(outdir, "session.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
