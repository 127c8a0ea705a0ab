"""Running the CLI in a fresh process and counting what it got right.

Shared by the timed runs (run.py) and the traced run (tracing.py).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from workloads import CheckError, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# A CLI call that takes longer than this is killed and counted as failed.
CALL_TIMEOUT_S = 120

# CPU time of launch.py's probe kernel on the reference machine (see
# README.md) in a calm spell.  A call's time, less steal time, is reported
# over the probe's time while it ran, times this: seconds on that machine.
PROBE_REF_S = 0.0006


@dataclass
class CliRun:
    """One CLI process, from spawn to exit: its output and its resource use.

    cpu_s and peak_rss_mb include the workers the CLI waited for, since
    wait4 folds a reaped child's usage into its parent's.  probe_s is the
    CPU time of launch.py's probe kernel on the call's CPUs while it ran:
    how fast the machine was at the time.  steal_s is the time the
    hypervisor kept those CPUs from running meanwhile, per CPU.
    """

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    probe_s: float
    steal_s: float
    text: str

    @property
    def ref_wall_s(self) -> float:
        """wall_s without steal time, at the reference machine's calm speed."""
        return (self.wall_s - self.steal_s) / self.probe_s * PROBE_REF_S

    @property
    def ref_cpu_s(self) -> float:
        """cpu_s at the reference machine's calm speed."""
        return self.cpu_s / self.probe_s * PROBE_REF_S


class Cli:
    """Runs `python -m collatz_descent ...` through launch.py; use as a context manager."""

    def __enter__(self) -> "Cli":
        WORK_DIR.mkdir(exist_ok=True)
        self.out_path = WORK_DIR / f"stdout-{os.getpid()}.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        self.out_path.unlink(missing_ok=True)

    def call(self, argv: list[str], workers: int = 1) -> CliRun:
        """Run one CLI call; a single-process call is bound to one CPU, which its probe watches."""
        request = {
            "argv": [sys.executable, "-m", "collatz_descent", *argv],
            "cpus": None if workers > 1 else [max(os.sched_getaffinity(0))],
            "out": str(self.out_path),
            "timeout": CALL_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launch.py exited without a reply")
        reply = json.loads(line)
        return CliRun(
            rc=reply["rc"],
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            peak_rss_mb=reply["maxrss_kb"] / 1024,  # Linux reports KiB
            probe_s=reply["probe_s"],
            steal_s=reply["steal_s"],
            text=self.out_path.read_text(encoding="utf-8"),
        )


class Outcome:
    """Counts of attempted and failed operations, and every wrong output seen."""

    def __init__(self, cli: Cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def checked_call(self, work: Workload, rng: random.Random) -> CliRun | None:
        """Run one CLI call; None if it failed.  A wrong output is recorded, not raised."""
        self.attempted += 1
        run = self.cli.call(work.argv, work.workers)
        if run.rc != 0:
            self.failed += 1
            print(f"{work.name}: exit code {run.rc}", file=sys.stderr)
            return None
        self.check(work, run.text, rng)
        return run

    def check(self, work: Workload, text: str, rng: random.Random) -> None:
        try:
            work.check(text, rng)
        except (CheckError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{work.name}: {type(exc).__name__}: {exc}")
            print(self.errors[-1], file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
