"""Command-line front end.

Exit codes: 0 on success; 1 on a domain error (a scan's dead worker
among them), an interrupt (Ctrl-C or SIGTERM, which print "interrupted")
or a failed write to stdout; 2 on a usage error.  When the reader of
stdout has closed it early (as `| head` does), nothing goes to stderr;
any other failed write (a full disk) prints one "error:" line there and
no traceback.  Tables go to stdout a chunk of rows at a time, through a
buffered writer even under PYTHONUNBUFFERED or -u (see main),
diagnostics to stderr.  COLLATZ_STEP_CAP overrides the per-descent step
cap.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import signal
import sys

from .core import DEFAULT_STEP_CAP
from .errors import CollatzDescentError
from .patterns import DescentPattern, enumerate_minimal_patterns, residue_for_pattern
from .reports import (
    FORMATS,
    REPORT_NAMES,
    TRACE_MODES,
    Table,
    classes_report,
    classify_report,
    feasibility_report,
    named_report,
    records_report,
    scan_report_tables,
    trace_report,
    write,
)
from .scanner import MAX_DEPTH, classify_depth, record_search, sieve_scan


def _class_tables(parser: argparse.ArgumentParser, text: str) -> list[Table]:
    """The class command's table; a malformed pattern is a usage error (exit 2)."""
    try:
        pattern = DescentPattern.parse(text)
    except ValueError as exc:
        parser.error(str(exc))
    return classes_report([residue_for_pattern(pattern)])


def build_parser() -> argparse.ArgumentParser:
    """The parser; each command's `tables(args, step_cap)` default builds its tables."""
    parser = argparse.ArgumentParser(
        prog="collatz-descent",
        description="First-descent patterns, residue classes and range verification for the 3n+1 map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility", help="which pattern lengths can reach a lower number")
    p.add_argument("--max-length", type=int, default=37)
    p.set_defaults(tables=lambda args, cap: feasibility_report(args.max_length))

    p = sub.add_parser("trace", help="trajectory table for one starting number")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=TRACE_MODES, default="descent")
    p.add_argument(
        "--paper-style",
        action="store_true",
        help="--mode twin only: round big adder cells to spreadsheet notation, not exact integers",
    )
    p.set_defaults(tables=lambda args, cap: trace_report(args.n, args.mode, cap, args.paper_style))

    p = sub.add_parser("enumerate", help="all minimal descent classes of one length")
    p.add_argument("length", type=int)
    p.set_defaults(tables=lambda args, cap: classes_report(enumerate_minimal_patterns(args.length)))

    p = sub.add_parser("class", help="solve the residue class of a pattern string such as OEOEEE")
    p.add_argument("pattern")
    p.set_defaults(tables=lambda args, cap: _class_tables(parser, args.pattern))

    p = sub.add_parser("classify", help="classify residues by descent depth")
    p.add_argument("--depth", type=int, default=5, help=f"halving depth, 1 to {MAX_DEPTH} (default: 5)")
    p.set_defaults(tables=lambda args, cap: classify_report(classify_depth(args.depth)))

    p = sub.add_parser("scan", help="verify a range, sieving out class-certified numbers")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--depth", type=int, help="sieve depth (default: from the range size)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    p.add_argument("--workers", type=int, default=cpus or 1)
    p.set_defaults(tables=lambda args, cap: scan_report_tables(
        sieve_scan(args.lo, args.hi, args.depth, workers=args.workers, step_cap=cap)))

    p = sub.add_parser("records", help="running maxima of descent length over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.set_defaults(tables=lambda args, cap: records_report(record_search(args.lo, args.hi, cap)))

    p = sub.add_parser("report", help="reproduce one of the reference tables")
    p.add_argument("name", choices=REPORT_NAMES)
    p.add_argument("--paper-style", action="store_true", help="seq27 only: round big adder cells")
    p.set_defaults(tables=lambda args, cap: named_report(args.name, cap, args.paper_style))

    # last, so every command's help lists it last
    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="markdown", help="output format")
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

    # a SIGTERM takes Ctrl-C's path: a scan ends its workers at once and
    # leaves none behind.  Only the main thread may set a handler (elsewhere
    # signal.signal raises ValueError), and a handler set from C (None here)
    # cannot be put back
    try:
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:
        previous = None
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # under PYTHONUNBUFFERED or -u, sys.stdout writes straight to the raw
        # file and drops, unreported, the tail of a write it takes only in
        # part (a reader closing mid-write); a buffered writer retries it
        out = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding, out.errors)
    try:
        tables = args.tables(args, step_cap)
        write(tables, args.format, out)
        out.flush()  # a closed or full stdout raises here, not at exit
    except (CollatzDescentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except OSError as exc:
        # stdout takes no more (its reader has gone, or its disk is full):
        # what is still buffered goes to devnull, or the interpreter's last
        # flush of stdout would raise again.  A reader that has gone needs
        # no word
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if out is not sys.stdout:
            # flushes what is left (to devnull once a write has failed), and
            # leaves sys.stdout's raw file open
            out.detach().detach()
    return 0


def run() -> int:
    """The process entry (`python -m collatz_descent`, the `collatz-descent`
    script): freeze the heap the imports built, then return main()'s exit code.

    The start-up freeze.  gc.freeze() moves every object alive now (the
    package's, argparse's, those of the modules site loaded) to the
    collector's permanent generation, which no later collection walks: not
    the last ones at exit, not a gen-2 one during the command, and not one
    in a scan worker forked after it, which so copies fewer of the
    parent's pages.  Frozen objects are never finalized, so nothing the
    CLI opens may wait for a collection to be closed.  main() itself leaves
    the collector as it finds it, for callers that run it in-process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
