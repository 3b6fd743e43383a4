"""Command-line driver.

Exit codes: 0 clean (no attacks, no failures), 1 usage or input error,
2 at least one attack found, 3 analysis failures (budget exhaustion).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analyzer import AnalysisError, analyze
from .faults import (
    EnumerationCapExceeded, FaultConfig, KIND_ORDER, enumerate_sites,
)
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


def _parse_kinds(text: str):
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    for k in kinds:
        if k not in KIND_ORDER:
            raise SystemExit(f"error: unknown fault kind {k!r}; "
                             f"choose from {', '.join(KIND_ORDER)}")
    return kinds


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise SystemExit(f"error: expected true or false, got {text!r}")


def cmd_analyze(args) -> int:
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    for fmt in formats:
        if fmt not in FORMATS:
            print(f"error: unknown format {fmt!r}; choose from {', '.join(FORMATS)}",
                  file=sys.stderr)
            return 1
    program, source = _load(args.file)
    try:
        cfg = FaultConfig(
            max_faults=args.faults,
            kinds=_parse_kinds(args.kinds),
            transient_enabled=_parse_bool(args.transient),
            protect_conditions=args.protect_conditions,
            max_vectors=args.max_vectors,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        report = analyze(program, cfg, path=args.file, source=source,
                         jobs=args.jobs)
    except (EnumerationCapExceeded, AnalysisError, RewriteBudgetExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    name = Path(args.file).stem
    outdir = Path(args.out) if args.out else None
    for fmt in formats:
        payload = render(report, fmt)
        if fmt == "text":
            sys.stdout.write(payload.decode())
        else:
            if outdir:
                outdir.mkdir(parents=True, exist_ok=True)
                target = outdir / f"{name}.report.{fmt}"
            else:
                target = Path(f"{name}.report.{fmt}")
            target.write_bytes(payload)
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
    program, _ = _load(args.file)
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 1
    try:
        report = check_soundness(program, args.trials, args.seed)
    except OracleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    status = "pass" if report.passed else "FAIL"
    print(f"soundness: {status} ({report.trials} trials, {report.failures} failures)")
    if not report.passed:
        print(f"first counterexample: {report.first_counterexample}")
        return 1
    if args.prop1:
        env = instantiate(program, args.seed)
        if not env.p or not env.q:
            print("error: the gcd attack check needs two prime inputs", file=sys.stderr)
            return 1
        successes, trials = prop1_check(env, args.trials, args.seed)
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
        print(f"error: pretty-printed output does not re-parse: {err}",
              file=sys.stderr)
        return 1
    if reparsed != program:
        print("error: pretty-printed output re-parses to a different program",
              file=sys.stderr)
        return 1
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
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, metavar="K",
                   help="parallel workers (default: logical core count)")
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
        return args.func(args)
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return 1
        return err.code or 0


if __name__ == "__main__":
    sys.exit(main())
