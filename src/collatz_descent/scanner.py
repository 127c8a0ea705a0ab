"""Depth classification, sieve-accelerated range verification and twin checks.

Both classification and the scan stand on one walk of the parity tree to
J halvings (patterns.unresolved_leaves), which classify_depth returns as
the classification.  Its pruned nodes are the minimal descent classes
with at most J halving steps; its open leaves are what those classes
miss, each an odd residue mod 2^J with the affine form of its first J
halvings.  The scan visits the members of those leaves alone, resumes
each from its value after the J halvings, and counts every other number
as skipped.  No 2^J table is built anywhere.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import DEFAULT_STEP_CAP, DescentTrace, descent_length, descent_trace
from .errors import CycleDetected, DepthTooLarge, StepCapExceeded
from .patterns import DescentPattern, UnresolvedLeaves, unresolved_leaves

# The walk holds one level of the parity tree at a time and the pruned
# classes, in compact arrays: at depth 24, 286,581 open leaves and 81,119
# classes, two 8-byte words and one or two bytes each.  The bound is kept
# for classify_depth, which turns every class into objects: the classes
# grow about 6x per two depths (12,449 at depth 22, 81,119 at 24).
MAX_DEPTH = 24

DEFAULT_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one sieve-accelerated range scan.

    failures holds (n, reason) rows and is expected to stay empty; a
    nonempty list is a headline result, not an error.  max_descent_steps
    tracks the simulated (non-skipped) numbers only; skipped numbers have
    class-certified descents of i + j <= depth + floor(depth*log3(2))
    steps, since j <= depth and 3^i < 2^j.  wall_time
    is the scan phase (blocks, their merge and the process pool);
    setup_time is the sieve build before it.  Neither is part of canonical().
    """

    lo: int
    hi: int
    depth: int
    verified_count: int
    skipped_count: int
    failures: tuple[tuple[int, str], ...]
    max_descent_steps: int
    max_descent_n: int | None
    wall_time: float
    setup_time: float

    def canonical(self) -> dict:
        """Report content without the timing fields, for byte-exact comparison."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "depth": self.depth,
            "verified_count": self.verified_count,
            "skipped_count": self.skipped_count,
            "failures": [list(f) for f in self.failures],
            "max_descent_steps": self.max_descent_steps,
            "max_descent_n": self.max_descent_n,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)


@dataclass(frozen=True)
class TwinRecord:
    """n and its twin n + 2^j, verified to share one descent pattern."""

    n: int
    twin: int
    pattern: DescentPattern
    i: int
    j: int
    first_lower: int
    twin_first_lower: int


def classify_depth(depth: int) -> UnresolvedLeaves:
    """Classify the naturals by descent depth: all classes with j <= depth.

    The walk of the parity tree (patterns.unresolved_leaves) is the
    classification: its pruned classes, their measure and its open leaves.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")
    return unresolved_leaves(depth)


# ---------------------------------------------------------------------------
# sieve scan


def _scan_block(
    lo: int, hi: int, leaves: UnresolvedLeaves, step_cap: int
) -> tuple[int, int, list[tuple[int, str]], int, int | None]:
    """Simulate the leftovers of one contiguous block; count the rest as skipped.

    Visits only the members of the open leaves, leaf by leaf, each resumed
    from its leaf's affine image after depth halvings.  Going leaf by leaf
    rather than period by period keeps a shallow sieve, whose 2^depth
    period is far shorter than a block, free of per-period overhead; ties
    and failures are put back in range order.
    """
    depth = leaves.depth
    residues, o_counts, adders = leaves.residues, leaves.o_counts, leaves.adders
    period = 1 << depth
    mask = period - 1
    count = len(residues)
    # index ranges of the leaves with a member in [lo, hi]
    if hi - lo >= mask:
        spans = [(0, count)]
    else:
        first = bisect_left(residues, lo & mask)
        last = bisect_right(residues, hi & mask)
        spans = [(first, last)] if lo & mask <= hi & mask else [(first, count), (0, last)]
    verified = 0
    failures: list[tuple[int, str]] = []
    max_steps = 0
    max_n: int | None = None
    # a leaf's depth halvings follow at most depth O-steps
    pow3 = [3**a for a in range(depth + 1)]
    for i, j in spans:
        for r, a, m in zip(residues[i:j], o_counts[i:j], adders[i:j]):
            p = pow3[a]
            skipped_steps = a + depth
            n = lo + ((r - lo) & mask)
            while n <= hi:
                try:
                    steps = descent_length(n, step_cap, (p * n + m) >> depth, skipped_steps)
                except CycleDetected:
                    failures.append((n, "cycle detected"))
                except StepCapExceeded:
                    failures.append((n, "step cap exceeded"))
                else:
                    verified += 1
                    if steps > max_steps or (steps == max_steps and n < max_n):
                        max_steps = steps
                        max_n = n
                n += period
    failures.sort()

    # leftovers in [0, x]: whole periods below x, then the leaves up to x's residue
    def upto(x: int) -> int:
        return (x >> depth) * count + bisect_right(residues, x & mask)

    leftovers = upto(hi) - upto(lo - 1)
    if verified + len(failures) != leftovers:
        raise AssertionError(
            f"block [{lo}, {hi}] visited {verified + len(failures)} leftovers, expected {leftovers}"
        )
    return verified, hi - lo + 1 - leftovers, failures, max_steps, max_n


_WORKER_STATE: dict = {}


def _scan_worker_init(leaves: UnresolvedLeaves, step_cap: int) -> None:
    _WORKER_STATE["args"] = (leaves, step_cap)


def _scan_worker(block: tuple[int, int]):
    leaves, step_cap = _WORKER_STATE["args"]
    return _scan_block(block[0], block[1], leaves, step_cap)


def _block_results(
    lo: int, hi: int, block_size: int, leaves: UnresolvedLeaves, step_cap: int, workers: int
):
    """Yield _scan_block's result for each block of [lo, hi], in range order.

    Blocks are drawn lazily.  A pool, never larger than the block count,
    holds at most two blocks per worker in flight, so the parent's memory
    stays flat in the range size.
    """
    blocks = ((a, min(a + block_size - 1, hi)) for a in range(lo, hi + 1, block_size))
    workers = min(workers, (hi - lo) // block_size + 1)
    if workers == 1:
        yield from (_scan_block(a, b, leaves, step_cap) for a, b in blocks)
        return
    pool = ProcessPoolExecutor(workers, initializer=_scan_worker_init, initargs=(leaves, step_cap))
    with pool:
        in_flight: deque = deque()
        for block in blocks:
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(_scan_worker, block))
        yield from (future.result() for future in in_flight)


def sieve_scan(
    lo: int,
    hi: int,
    depth: int,
    *,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    step_cap: int = DEFAULT_STEP_CAP,
) -> ScanReport:
    """Verify that every n in [lo, hi] descends below itself.

    Numbers whose residue mod 2^depth belongs to a resolved class are
    counted as skipped (their descent is certified by the class algebra,
    checked while the leaves are built); the rest are simulated.  depth = 0
    disables the sieve.  The report is deterministic for any worker count:
    blocks are merged in range order, each as it arrives.  Every worker
    count draws its blocks lazily, and a pool holds at most two blocks per
    worker in flight, so memory stays flat in the range size.
    """
    if lo < 2:
        raise ValueError("scan range must start at 2 or above")
    if hi < lo:
        raise ValueError("empty scan range")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")

    t0 = time.perf_counter()
    leaves = unresolved_leaves(depth)
    t1 = time.perf_counter()
    verified = 0
    skipped = 0
    failures: list[tuple[int, str]] = []
    max_steps = 0
    max_n: int | None = None
    for bv, bs, bf, bmax, bn in _block_results(lo, hi, block_size, leaves, step_cap, workers):
        verified += bv
        skipped += bs
        failures.extend(bf)
        if bmax > max_steps:
            max_steps = bmax
            max_n = bn
    wall = time.perf_counter() - t1
    if verified + skipped + len(failures) != hi - lo + 1:
        raise AssertionError("scan accounting does not cover the range")
    return ScanReport(
        lo=lo,
        hi=hi,
        depth=depth,
        verified_count=verified,
        skipped_count=skipped,
        failures=tuple(failures),
        max_descent_steps=max_steps,
        max_descent_n=max_n,
        wall_time=wall,
        setup_time=t1 - t0,
    )


def record_search(lo: int, hi: int, step_cap: int = DEFAULT_STEP_CAP) -> list[tuple[int, int]]:
    """Running maxima of descent length over [lo, hi], as (n, steps) pairs."""
    if lo < 2:
        raise ValueError("record search starts at 2 or above")
    if hi < lo:
        raise ValueError("empty search range")
    records: list[tuple[int, int]] = []
    best = 0
    for n in range(lo, hi + 1):
        steps = descent_length(n, step_cap)
        if steps > best:
            best = steps
            records.append((n, steps))
    return records


def twin_walk(n: int, step_cap: int = DEFAULT_STEP_CAP) -> tuple[DescentTrace, tuple[int, ...]]:
    """n's first descent and the values its twin n + 2^j takes alongside it.

    The twin must repeat n's pattern exactly.  Only the twin is stepped:
    n's value before each step is read from its trace, whose letters
    follow n's parities, so the twin's parity is checked against the
    letter.  The value gap is checked before every step: after a O-steps
    and b E-steps it must equal 3^a * 2^(j-b), which lands on 3^i once
    both descents finish, below the twin.
    """
    tr = descent_trace(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    twin = n + (1 << j)
    v2 = twin
    a = b = 0
    twin_values = []
    for v, ch in zip((n,) + tr.values, tr.pattern.text):
        gap = 3**a * (1 << (j - b))
        if v2 - v != gap:
            raise AssertionError(f"twin gap {v2 - v} != 3^{a}*2^{j - b} before step {a + b + 1}")
        if (ch == "O") != bool(v2 & 1):
            raise AssertionError(f"parity mismatch at step {a + b + 1} of twin of {n}")
        if ch == "O":
            v2 = 3 * v2 + 1
            a += 1
        else:
            v2 >>= 1
            b += 1
        twin_values.append(v2)
    if v2 - tr.first_lower != 3**i or v2 >= twin:
        raise AssertionError(f"twin of {n} did not land at first_lower + 3^{i}")
    return tr, tuple(twin_values)


def twin_check(n: int, step_cap: int = DEFAULT_STEP_CAP) -> TwinRecord:
    """Verify that the odd n's twin n + 2^j repeats n's descent pattern exactly."""
    if n < 3 or n % 2 == 0:
        raise ValueError("twin check is defined for odd n >= 3")
    tr, twin_values = twin_walk(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    return TwinRecord(n, n + (1 << j), tr.pattern, i, j, tr.first_lower, twin_values[-1])
