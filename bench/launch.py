"""Small process that starts each CLI call and reports what the kernel accounted to it.

Reads one JSON request per stdin line, {"argv": [...], "cpus": [...] or
null, "out": path, "timeout": seconds}, runs argv with stdout to path,
bound to the listed CPUs (null: every CPU), and answers with one JSON line
{"rc", "wall_s", "cpu_s", "maxrss_kb", "probe_s", "steal_s"}.  It exits at
end of input.

The CLI is started from this process rather than from the benchmark
because a child's ru_maxrss starts at the resident size of the process it
was forked from: the benchmark holds parsed outputs and oracle tables,
this process stays near the interpreter's own few megabytes, below the
smallest CLI call.

While calls run, one probe thread per CPU, bound to that CPU, times a
fixed pure-Python kernel of about a millisecond every PROBE_PERIOD_S, in
CPU time of the thread.  Other tenants of a shared machine slow a CPU by
up to 2x, in episodes of a second to minutes, and neither the guest's
wall clock nor its CPU clock can tell that time from the program's own.
The kernel slows with them while waiting for a CPU that the call holds
does not count, so probe_s, the mean kernel time on the call's CPUs while
it ran, measures how fast those CPUs were.  Time in which the hypervisor
ran none of the call's CPUs is counted apart, as steal time in /proc/stat:
steal_s is its mean over the call's CPUs while the call ran.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

PROBE_PERIOD_S = 0.05
CPUS = sorted(os.sched_getaffinity(0))
TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def steal_s(cpus: list[int]) -> float:
    """Time the hypervisor has kept these CPUs from running so far (/proc/stat), summed."""
    total = 0
    with open("/proc/stat") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                total += int(fields[7])
    return total * TICK_S


def kernel() -> dict:
    """Fixed work: descents of the odd numbers below 600, keeping every step as a tuple."""
    walks = {}
    for n in range(3, 600, 2):
        x, steps = n, []
        while x >= n:
            x = 3 * x + 1 if x & 1 else x >> 1
            steps.append((x, x & 1))
        walks[n] = steps
    return walks


class Probe(threading.Thread):
    """Times kernel() on one CPU every PROBE_PERIOD_S: (perf_counter at end, thread CPU s)."""

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # pid 0 is this thread alone
        while True:
            c0 = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            time.sleep(PROBE_PERIOD_S)

    def between(self, t0: float, t1: float) -> list[float]:
        return [d for t, d in self.samples if t0 <= t <= t1]


probes = {cpu: Probe(cpu) for cpu in CPUS}
for probe in probes.values():
    probe.start()
time.sleep(3 * PROBE_PERIOD_S)

for line in sys.stdin:
    req = json.loads(line)
    cpus = req["cpus"] or CPUS
    with open(req["out"], "wb") as out:
        os.sched_setaffinity(0, cpus)  # the child inherits this thread's CPUs
        steal0 = steal_s(cpus)
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, start_new_session=True)
        os.sched_setaffinity(0, CPUS)
        timer = threading.Timer(req["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        steal1 = steal_s(cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # A short call may see no probe on its own: widen by one period each side.
    time.sleep(PROBE_PERIOD_S * 1.5)
    during = [d for cpu in cpus for d in probes[cpu].between(t0 - PROBE_PERIOD_S, t1 + PROBE_PERIOD_S)]
    during = during or [probes[cpu].samples[-1][1] for cpu in cpus]  # a probe kept off its CPU
    for probe in probes.values():
        del probe.samples[:-1]
    reply = {
        "rc": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "probe_s": statistics.fmean(during),
        "steal_s": (steal1 - steal0) / len(cpus),
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
