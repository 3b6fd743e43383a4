"""Command-line driver.

Exit codes: 0 clean (no attacks, no failures), 1 usage or input error, a
pool worker that died, or stdout closed by its reader (as by ``| head``), 2
at least one attack found, 3 analysis failures (budget exhaustion).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analyzer import AnalysisError, analyze, usable_cpus
from .faults import EnumerationCapExceeded, FaultConfig, enumerate_sites
from .oracle import OracleError, check_soundness, instantiate, prop1_check
from .parser import parse
from .printer import pretty
from .reporting import FORMATS, render
from .rewriter import RewriteBudgetExceeded
from .terms import LanguageError


def _load(path: str):
    try:
        source = Path(path).read_bytes()
    except OSError as err:
        raise SystemExit(f"error: cannot read {path}: {err.strerror}")
    try:
        return parse(source.decode("utf-8")), source
    except UnicodeDecodeError as err:
        raise SystemExit(f"{path}: not UTF-8 text (byte {err.start})")
    except LanguageError as err:
        raise SystemExit(f"{path}: {err}")


def _parse_transient(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise SystemExit(f"error: --transient: expected true or false, got {text!r}")


def cmd_analyze(args) -> int:
    # a repeated format renders once: keep its first occurrence
    formats = list(dict.fromkeys(f.strip() for f in args.format.split(",") if f.strip()))
    if not formats:
        raise SystemExit("error: no output format given")
    for fmt in formats:
        if fmt not in FORMATS:
            raise SystemExit(f"error: unknown format {fmt!r}; "
                             f"choose from {', '.join(FORMATS)}")
    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {args.jobs}")
    if args.max_vectors < 1:
        raise SystemExit(f"error: --max-vectors must be >= 1, got {args.max_vectors}")
    try:
        cfg = FaultConfig(
            max_faults=args.faults,
            kinds=tuple(k.strip() for k in args.kinds.split(",") if k.strip()),
            transient_enabled=_parse_transient(args.transient),
            protect_conditions=args.protect_conditions,
            max_vectors=args.max_vectors,
        )
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    outdir = Path(args.out or ".")
    if args.out and any(fmt != "text" for fmt in formats):
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise SystemExit(f"error: cannot write {args.out}: {err.strerror}")
    program, source = _load(args.file)
    try:
        report = analyze(program, cfg, path=args.file, source=source,
                         jobs=args.jobs)
    except (EnumerationCapExceeded, AnalysisError, RewriteBudgetExceeded) as err:
        raise SystemExit(f"error: {args.file}: {err}")
    name = Path(args.file).stem
    for fmt in formats:
        payload = render(report, fmt)
        if fmt == "text":
            sys.stdout.write(payload.decode())
            continue
        target = outdir / f"{name}.report.{fmt}"
        try:
            target.write_bytes(payload)
        except OSError as err:
            raise SystemExit(f"error: cannot write {target}: {err.strerror}")
        print(f"wrote {target}")
    summary = report.summary
    if summary["attacks"]:
        return 2
    if summary["failures"]:
        return 3
    return 0


def cmd_sites(args) -> int:
    program, _ = _load(args.file)
    cfg = FaultConfig(protect_conditions=args.protect_conditions)
    for site in enumerate_sites(program, cfg):
        print(site.describe())
    return 0


def cmd_oracle(args) -> int:
    if args.trials < 1:
        raise SystemExit("error: --trials must be >= 1")
    program, _ = _load(args.file)
    try:
        report = check_soundness(program, args.trials, args.seed)
    except OracleError as err:
        raise SystemExit(f"error: {err}")
    status = "pass" if report.passed else "FAIL"
    print(f"soundness: {status} ({report.trials} trials, {report.failures} failures)")
    if not report.passed:
        print(f"first counterexample: {report.first_counterexample}")
        return 1
    if args.prop1:
        try:
            successes, trials = prop1_check(instantiate(program, args.seed),
                                            args.trials, args.seed)
        except OracleError as err:
            raise SystemExit(f"error: {err}")
        ok = successes >= trials - 1
        print(f"gcd factor recovery: {'pass' if ok else 'FAIL'} "
              f"({successes}/{trials} faulted signatures exposed a factor)")
        if not ok:
            return 1
    return 0


def cmd_parse(args) -> int:
    program, _ = _load(args.file)
    text = pretty(program)
    try:
        reparsed = parse(text)
    except LanguageError as err:
        raise SystemExit(f"error: pretty-printed output does not re-parse: {err}")
    if reparsed != program:
        raise SystemExit("error: pretty-printed output re-parses to a different program")
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="modfault",
        description="Symbolic fault-injection analysis of modular-arithmetic programs.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="simulate all fault vectors and classify them")
    p.add_argument("file")
    p.add_argument("--faults", type=int, default=1, metavar="N",
                   help="maximum number of simultaneous faults (default 1)")
    p.add_argument("--kinds", default="zeroing,randomizing",
                   help="comma-separated fault kinds (default both)")
    p.add_argument("--transient", default="true", metavar="BOOL",
                   help="enable transient (single-read) faults (default true)")
    p.add_argument("--protect-conditions", action="store_true",
                   help="make verification conditions unfaultable")
    p.add_argument("--format", default="text",
                   help="comma-separated output formats: text, json, html")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for json/html report files")
    p.add_argument("--jobs", type=int, default=usable_cpus(), metavar="K",
                   help="parallel workers, capped by usable CPUs and vectors "
                        "(default: the CPUs this process may use)")
    p.add_argument("--max-vectors", type=int, default=5_000_000, metavar="CAP",
                   help="hard cap on enumerated fault vectors")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sites", help="list fault sites deterministically")
    p.add_argument("file")
    p.add_argument("--protect-conditions", action="store_true")
    p.set_defaults(func=cmd_sites)

    p = sub.add_parser("oracle", help="numeric soundness checks on toy primes")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prop1", action="store_true",
                   help="also check the gcd factor-recovery attack numerically")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("parse", help="parse, validate and pretty-print")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and send what is still
        # buffered to devnull so that the flush at exit cannot fail again
        # (the recipe in the Python ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except RecursionError:
        # every subcommand walks terms recursively; the pool re-raises a
        # worker's error here too
        print(f"error: {args.file}: terms nest too deeply to analyze", file=sys.stderr)
        return 1
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return 1
        return err.code or 0


if __name__ == "__main__":
    sys.exit(main())
