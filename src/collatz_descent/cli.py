"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (a scan's dead worker
process among them) or an interrupt (Ctrl-C), 2 on usage errors.
Tables go to stdout, diagnostics to stderr.  COLLATZ_STEP_CAP overrides
the per-descent step cap.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import DEFAULT_STEP_CAP
from .errors import CollatzDescentError
from .patterns import DescentPattern, enumerate_minimal_patterns, residue_for_pattern
from .reports import (
    FORMATS,
    REPORT_NAMES,
    classes_report,
    classify_report,
    feasibility_report,
    named_report,
    records_report,
    render,
    scan_report_tables,
    trace_report,
)
from .scanner import classify_depth, record_search, sieve_scan


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="markdown", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-descent",
        description="First-descent patterns, residue classes and range verification for the 3n+1 map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility", help="which pattern lengths can reach a lower number")
    p.add_argument("--max-length", type=int, default=37)
    _add_format(p)

    p = sub.add_parser("trace", help="trajectory table for one starting number")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=("descent", "full", "twin"), default="descent")
    p.add_argument(
        "--paper-style",
        action="store_true",
        help="--mode twin only: round big adder cells to spreadsheet notation, not exact integers",
    )
    _add_format(p)

    p = sub.add_parser("enumerate", help="all minimal descent classes of one length")
    p.add_argument("length", type=int)
    _add_format(p)

    p = sub.add_parser("class", help="solve the residue class of a pattern string such as OEOEEE")
    p.add_argument("pattern")
    _add_format(p)

    p = sub.add_parser("classify", help="classify residues by descent depth")
    p.add_argument("--depth", type=int, default=5, help="halving depth, 1 to 24 (default: 5)")
    _add_format(p)

    p = sub.add_parser("scan", help="verify a range, sieving out class-certified numbers")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--depth", type=int, help="sieve depth (default: from the range size)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    p.add_argument("--workers", type=int, default=cpus or 1)
    _add_format(p)

    p = sub.add_parser("records", help="running maxima of descent length over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    _add_format(p)

    p = sub.add_parser("report", help="reproduce one of the reference tables")
    p.add_argument("name", choices=REPORT_NAMES)
    p.add_argument("--paper-style", action="store_true", help="seq27 only: round big adder cells")
    _add_format(p)

    return parser


def _step_cap(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("COLLATZ_STEP_CAP")
    if raw is None:
        return DEFAULT_STEP_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        parser.error(f"COLLATZ_STEP_CAP must be a positive integer, got {raw!r}")
    return cap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    step_cap = _step_cap(parser)

    try:
        if args.command == "feasibility":
            tables = feasibility_report(args.max_length)
        elif args.command == "trace":
            tables = trace_report(
                args.n, args.mode, step_cap=step_cap, paper_style=args.paper_style
            )
        elif args.command == "enumerate":
            tables = classes_report(enumerate_minimal_patterns(args.length))
        elif args.command == "class":
            try:
                pattern = DescentPattern.parse(args.pattern)
            except ValueError as exc:
                parser.error(str(exc))
            tables = classes_report([residue_for_pattern(pattern)])
        elif args.command == "classify":
            tables = classify_report(classify_depth(args.depth))
        elif args.command == "scan":
            report = sieve_scan(
                args.lo, args.hi, args.depth, workers=args.workers, step_cap=step_cap
            )
            tables = scan_report_tables(report)
        elif args.command == "records":
            tables = records_report(record_search(args.lo, args.hi, step_cap=step_cap))
        else:  # report
            tables = named_report(args.name, step_cap=step_cap, paper_style=args.paper_style)
    except (CollatzDescentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1

    sys.stdout.write(render(tables, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
