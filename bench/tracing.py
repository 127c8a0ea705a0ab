"""The traced run: one workload taken apart layer by layer, under spans.

Spans are recorded here, around calls into the package's public functions;
the package itself carries no tracing.  A traced run

1. runs the workload's CLI command, untraced, for its wall time;
2. replays the command in this process (the same calls cli.main makes)
   untraced and traced; the difference is the tracing overhead;
3. repeats 1-2 in rounds until --seconds have passed;
4. calls each layer the replay does not already show on its own:
   enumeration and solving split out of classification, the scan at the
   other worker count, single seeded blocks, and the descent kernel.

Layers that a workload never reaches are measured on a fixed probe (see
PROBE_*), so every per-layer metric exists for every workload; on such a
workload the prediction for that metric is no change.  Spans stay in
memory and are written to .work/ when the run ends.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import uuid
from contextlib import contextmanager

from harness import SRC, WORK_DIR, Outcome, metric
from workloads import Classify, NoWork, Records, Scan, Workload

# Probe inputs for the layers a workload does not reach.
PROBE_DEPTH = 16
PROBE_SCAN = (2, 1 << 20)
PROBE_RECORDS = (2, 20_001)
# Seeded single blocks timed per traced run; the package's default block size.
BLOCKS = 8
BLOCK_SIZE = 1 << 16


class Tracer:
    """Spans (name, start, end, parent, run id) plus counts, kept in memory."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yield a dict for the span's counts; with tracing off, record nothing."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def find(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def first(self, name: str) -> dict:
        return self.find(name)[0]

    def with_self_times(self) -> list[dict]:
        """Each span with self_s: its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered = 0.0
            reach = s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(dict(s, self_s=s["end"] - s["start"] - covered))
        return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def import_package():
    sys.path.insert(0, str(SRC))
    import collatz_descent

    if not collatz_descent.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported {collatz_descent.__file__}, not the checkout's package")
    return collatz_descent


def traced_scan(cd, tr: Tracer, lo: int, hi: int, depth: int, workers: int):
    with tr.span("scanner.sieve_scan") as c:
        report = cd.sieve_scan(lo, hi, depth, workers=workers)
        c.update(workers=workers, size=hi - lo + 1, scan_s=report.wall_time,
                 simulated=report.verified_count)
    return report


def traced_classify(cd, tr: Tracer, depth: int):
    with tr.span("scanner.classify_depth") as c:
        report = cd.classify_depth(depth)
        c.update(classes=len(report.classes), unresolved=len(report.unresolved_residues))
    return report


def replay(cd, work: Workload, tr: Tracer) -> str:
    """What `collatz-descent <work.argv>` computes and renders, call for call."""
    from collatz_descent import reports

    fmt = "markdown"
    if isinstance(work, Scan):
        report = traced_scan(cd, tr, work.lo, work.hi, work.depth, work.workers)
        with tr.span("reports.tables"):
            tables = reports.scan_report_tables(report)
    elif isinstance(work, Classify):
        fmt = "csv"
        report = traced_classify(cd, tr, work.depth)
        with tr.span("reports.tables"):
            tables = reports.classify_report(report)
    elif isinstance(work, Records):
        with tr.span("scanner.record_search"):
            records = cd.record_search(work.lo, work.hi)
        with tr.span("reports.tables"):
            tables = reports.records_report(records)
    else:
        raise TypeError(work)
    with tr.span("reports.render") as c:
        text = reports.render(tables, fmt)
        c["bytes"] = len(text.encode())
    return text


def layers(cd, work: Workload, tr: Tracer, rng: random.Random) -> None:
    """Time each layer the replay did not already show on its own."""
    depth = getattr(work, "depth", PROBE_DEPTH)
    with tr.span("patterns.enumerate") as c:
        texts = list(cd.iter_minimal_pattern_texts(max_j=depth))
        c["patterns"] = len(texts)
    with tr.span("patterns.solve"):
        for t in texts:
            cd.residue_for_pattern(t)
    if not tr.find("scanner.classify_depth"):
        traced_classify(cd, tr, depth)

    if isinstance(work, Scan):
        lo, hi, scan_depth = work.lo, work.hi, work.depth
    else:
        (lo, hi), scan_depth = PROBE_SCAN, PROBE_DEPTH
    done = {s["counts"]["workers"] for s in tr.find("scanner.sieve_scan")}
    for workers in (2, 1):
        if workers not in done:
            traced_scan(cd, tr, lo, hi, scan_depth, workers)
    for _ in range(BLOCKS):
        a = rng.randrange(lo, hi - BLOCK_SIZE + 2)
        with tr.span("scanner.block") as c:
            c["scan_s"] = cd.sieve_scan(a, a + BLOCK_SIZE - 1, scan_depth, workers=1).wall_time

    rlo, rhi = (work.lo, work.hi) if isinstance(work, Records) else PROBE_RECORDS
    if not tr.find("scanner.record_search"):
        with tr.span("scanner.record_search"):
            cd.record_search(rlo, rhi)
    with tr.span("core.descent_trace") as c:
        c["steps"] = sum(len(cd.descent_trace(n)) for n in range(rlo, rhi + 1))


def layer_metrics(work: Workload, tr: Tracer, cli_walls: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics from the spans; a span repeated over rounds counts its fastest."""

    def fastest(spans: list[dict]) -> dict:
        return min(spans, key=duration)

    enum, solve = tr.first("patterns.enumerate"), tr.first("patterns.solve")
    classify = fastest(tr.find("scanner.classify_depth"))
    scans: dict[int, dict] = {}
    for s in tr.find("scanner.sieve_scan"):
        w = s["counts"]["workers"]
        if w not in scans or s["counts"]["scan_s"] < scans[w]["counts"]["scan_s"]:
            scans[w] = s
    main = scans[work.workers if isinstance(work, Scan) else 2]
    scan_s, size = main["counts"]["scan_s"], main["counts"]["size"]
    blocks = [s["counts"]["scan_s"] for s in tr.find("scanner.block")]
    core = tr.first("core.descent_trace")
    render = fastest(tr.find("reports.render"))
    replay_s = duration(fastest(tr.find("replay")))
    n_patterns = enum["counts"]["patterns"]
    return {
        "patterns.enumerate_s": metric(duration(enum), "s"),
        "patterns.patterns": metric(n_patterns, "count"),
        "patterns.solve_s": metric(duration(solve), "s"),
        "patterns.solve_us_per_class": metric(duration(solve) / n_patterns * 1e6, "us"),
        "scanner.classify_s": metric(duration(classify), "s"),
        "scanner.table_s": metric(duration(classify) - duration(enum) - duration(solve), "s"),
        "scanner.classes": metric(classify["counts"]["classes"], "count"),
        "scanner.unresolved": metric(classify["counts"]["unresolved"], "count"),
        "scanner.sieve_setup_s": metric(duration(main) - scan_s, "s"),
        "scanner.scan_s": metric(scan_s, "s"),
        "scanner.ns_per_n": metric(scan_s / size * 1e9, "ns"),
        "scanner.simulated": metric(main["counts"]["simulated"], "count"),
        "scanner.simulated_ratio": metric(main["counts"]["simulated"] / size, "ratio"),
        "scanner.parallel_efficiency": metric(
            scans[1]["counts"]["scan_s"] / (2 * scans[2]["counts"]["scan_s"]), "ratio"
        ),
        "scanner.block_s_median": metric(statistics.median(blocks), "s"),
        "scanner.block_s_max": metric(max(blocks), "s"),
        "scanner.records_s": metric(duration(fastest(tr.find("scanner.record_search"))), "s"),
        "core.descent_trace_s": metric(duration(core), "s"),
        "core.descent_steps": metric(core["counts"]["steps"], "count"),
        "core.us_per_step": metric(duration(core) / core["counts"]["steps"] * 1e6, "us"),
        "reports.tables_s": metric(duration(fastest(tr.find("reports.tables"))), "s"),
        "reports.render_s": metric(duration(render), "s"),
        "reports.output_bytes": metric(render["counts"]["bytes"], "bytes"),
        "cli.overhead_s": metric(min(cli_walls) - replay_s, "s"),
        "trace.overhead_s": metric(replay_s - min(untraced), "s"),
    }


def traced_run(
    work: Workload, rng: random.Random, seconds: int, outcome: Outcome
) -> tuple[dict, dict]:
    """Rounds of (CLI call, untraced replay, traced replay) for `seconds`, then the layers.

    The CLI and replay figures are each the fastest of the rounds, since
    other tenants of the machine only ever add time; the rounds alternate
    so that a slow episode of the machine does not fall on one side only.
    """
    cd = import_package()
    outcome.checked_call(NoWork(), rng)  # fills the bytecode cache
    work.prepare()
    tr = Tracer()
    off = Tracer(enabled=False)
    cli_walls: list[float] = []
    untraced: list[float] = []
    with tr.span("run"):
        t_end = time.perf_counter() + seconds
        while not cli_walls or time.perf_counter() < t_end:
            with tr.span("cli"):
                cli = outcome.checked_call(work, rng)
            if cli is None:
                raise RuntimeError(f"{work.name}: the CLI call failed")
            cli_walls.append(cli.wall_s)

            t0 = time.perf_counter()
            text = replay(cd, work, off)
            untraced.append(time.perf_counter() - t0)
            outcome.attempted += 1
            outcome.check(work, text, rng)

            with tr.span("replay"):
                text = replay(cd, work, tr)
            outcome.attempted += 1
            outcome.check(work, text, rng)
            del text

        layers(cd, work, tr, rng)

    spans = tr.with_self_times()
    WORK_DIR.mkdir(exist_ok=True)
    (WORK_DIR / f"trace-{work.name}.json").write_text(json.dumps(spans, indent=1) + "\n")
    metrics = layer_metrics(work, tr, cli_walls, untraced)
    samples = {"cli_wall_s": cli_walls, "untraced_replay_s": untraced, "spans": len(spans)}
    return metrics, samples
