"""Benchmark of the collatz-descent CLI.

    python3 bench/run.py --workload scan-d16 --seed 1 --seconds 25 --trace 0

With --trace 0 the workload's CLI command runs again and again, each time
in a fresh process, for --seconds of wall time.  Every output is checked
against the oracles (outside the timed region) and the last stdout line
is one JSON object with the end-to-end metrics over the repetitions.  With --trace 1 the command runs through the CLI and is
replayed in this process, then taken apart layer by layer under spans (see
tracing.py); the last line then holds the per-layer metrics.

Run from the root of a checkout: the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from harness import ROOT, SRC, Cli, CliRun, Outcome, metric
from workloads import WORKLOAD_NAMES, NoWork, Workload, make_workload

# `class E` calls per run, spread over the run in step with the workload's calls.
SETUP_CALLS = 15


def timed_run(work: Workload, rng: random.Random, seconds: int, outcome: Outcome) -> tuple[dict, dict]:
    """Repeat the workload's CLI call, and check it, for `seconds` of wall time.

    Timings are medians over the run's calls of each call's time, less
    steal time and scaled to the reference machine's calm speed
    (CliRun.ref_wall_s): other tenants slow the shared machine's CPUs by up
    to 2x, in episodes of a second to minutes, and launch.py's probes on
    the call's CPUs slow with them.
    """
    setup = NoWork()
    outcome.checked_call(setup, rng)  # fills the bytecode cache; not timed
    work.prepare()
    runs: list[CliRun] = []
    setups: list[CliRun] = []
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds:
        run = outcome.checked_call(work, rng)
        if run is None:
            break  # a failing command fails every time; more calls add nothing
        runs.append(run)
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_CALLS * min(elapsed / seconds, 1):
            setups.append(outcome.checked_call(setup, rng))
    setups = [r for r in setups if r]
    if not runs or not setups:
        return {}, {}

    wall_s = statistics.median(r.ref_wall_s for r in runs)
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "cpu_s": metric(statistics.median(r.ref_cpu_s for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": metric(statistics.median(r.ref_wall_s for r in setups), "s"),
        "numbers_per_s": metric(work.size / wall_s, "1/s"),
    }
    samples = {
        "setup_s": [r.wall_s for r in setups],
        "setup_probe_s": [r.probe_s for r in setups],
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "probe_s": [r.probe_s for r in runs],
        "steal_s": [r.steal_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    return metrics, samples


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(path: str, key: str, record: dict) -> None:
    """Merge this run's record into the JSON file at path under key."""
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {}
    data[key] = record
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also merge the run record into this JSON file")
    args = parser.parse_args()

    if not (SRC / "collatz_descent" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    work = make_workload(args.workload, rng)
    with Cli() as cli:
        outcome = Outcome(cli)
        if args.trace:
            import tracing

            metrics, samples = tracing.traced_run(work, rng, args.seconds, outcome)
        else:
            metrics, samples = timed_run(work, rng, args.seconds, outcome)
    if not metrics:
        print(f"error: {work.name}: no CLI call succeeded", file=sys.stderr)
        return 1

    record = {
        "workload": work.name,
        "argv": work.argv,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "git_sha": git_sha(),
        "samples": samples,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if args.record:
        write_record(args.record, f"{work.name}/{'traced' if args.trace else 'timed'}", record)
    for name, m in metrics.items():
        print(f"{work.name:14} {name:28} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not outcome.errors,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
