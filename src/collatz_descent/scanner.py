"""Depth classification, sieve-accelerated range verification, record
search and twin checks.

Classification, the scan and the record search stand on one walk of the
parity tree to J halvings (patterns.unresolved_leaves), which
classify_depth returns as the classification.  Its pruned nodes are the
minimal descent classes with at most J halving steps; its open leaves are
what those classes miss, each an odd residue r mod 2^J with the O-count
a and the end e of its first J halvings.  The scan visits the members of
those leaves alone, resumes each n = 2^J*h + r at its value 3^a*h + e
after the J halvings, and counts every other number as skipped.  Each
block returns its running maxima: the scan keeps the last, and the record
search merges them all once its running maximum passes the longest class.
No 2^J table is built anywhere.
"""

from __future__ import annotations

import marshal
import os
import time
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .core import DEFAULT_STEP_CAP, DescentTrace, col_step, descent_length, descent_trace
from .errors import CollatzDescentError, CycleDetected, DepthTooLarge, StepCapExceeded
from .patterns import UnresolvedLeaves, unresolved_leaves

# The walk holds one level of the parity tree at a time and the pruned
# classes, in compact arrays: at depth 24, 286,581 open leaves and 81,119
# classes, two 8-byte words and one or two bytes each.  The bound serves
# two users.  classify_depth's report replays every class and prints a
# row for every class and open leaf: the classes grow about 6x per two
# depths (12,449 at depth 22, 81,119 at 24), the leaves about 1.8x per
# depth.  sieve_scan refuses an explicit depth above it; the depth it
# picks itself stops at 22.
MAX_DEPTH = 24


_SCAN_FIELDS = (
    "lo hi depth verified_count skipped_count failures max_descent_steps max_descent_n"
    " wall_time setup_time"
)


class ScanReport(namedtuple("ScanReport", _SCAN_FIELDS)):
    """Outcome of one sieve-accelerated range scan.

    failures holds (n, reason) rows and is expected to stay empty; a
    nonempty list is a headline result, not an error.  Only simulated
    numbers are walked, so a step cap below the longest class length
    makes the failures depend on the depth.  max_descent_steps
    tracks the simulated (non-skipped) numbers only, so it depends on the
    depth where the range's longest descent is a skipped one; skipped
    numbers have class-certified descents of i + j <= depth +
    floor(depth*log3(2)) steps, since j <= depth and 3^i < 2^j.  wall_time
    is the scan phase (blocks, their merge and the workers);
    setup_time is the sieve build before it.  Neither is part of canonical().
    """

    __slots__ = ()

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
        import json

        return json.dumps(self.canonical(), sort_keys=True)


class TwinRecord(namedtuple("TwinRecord", "n twin pattern i j first_lower twin_first_lower")):
    """n and its twin n + 2^j, verified to share one descent pattern."""

    __slots__ = ()


def classify_depth(depth: int) -> UnresolvedLeaves:
    """Classify the naturals by descent depth: all classes with j <= depth.

    The walk of the parity tree (patterns.unresolved_leaves) is the
    classification: its pruned classes, their measure and its open leaves.
    Raises ValueError("depth must be >= 1") below depth 1 and DepthTooLarge
    above MAX_DEPTH.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")
    return unresolved_leaves(depth)


# ---------------------------------------------------------------------------
# sieve scan


def _running_maxima(entries, best: int):
    """The (n, steps) entries, in their order, whose steps beat best and every entry before them."""
    for n, steps in entries:
        if steps > best:
            best = steps
            yield n, steps


def _scan_block(
    lo: int, hi: int, leaves: UnresolvedLeaves, step_cap: int
) -> tuple[int, int, list[tuple[int, str]], list[tuple[int, int]]]:
    """Simulate the leftovers of one contiguous block; count the rest as skipped.

    Returns (verified, skipped, failures, maxima): maxima are the running
    maxima of descent length over the verified leftovers, as (n, steps)
    in increasing n.  This is the one place a leftover is resumed, leaf
    by leaf: n = 2^depth*h + r of leaf (r, a, e) resumes at 3^a*h + e
    after its depth halvings, as a jump over a halving word does.  A block
    at most one period long has at most one member per leaf, met in
    increasing n, so one running maximum serves; a longer block puts each
    leaf's maxima, like the failures, back in range order.
    """
    # Leaf by leaf rather than period by period keeps a shallow sieve,
    # whose 2^depth period is far shorter than a block, free of per-period
    # overhead: on 2*10^6 numbers from 2 or from 10^12, in 2^16 blocks, a
    # period-by-period kernel took 3-9% longer at depth 5 and 1.3-1.4x as
    # long at depth 1 (Python 3.11, one core of a 2-vCPU Xeon).
    depth = leaves.depth
    residues, o_counts, ends = leaves.residues, leaves.o_counts, leaves.ends
    period = 1 << depth
    mask = period - 1
    count = len(residues)
    # index ranges of the leaves with a member in [lo, hi]; past one period
    # every leaf has one, and some have several
    several = hi - lo > mask
    if several:
        spans = [(0, count)]
    else:
        first = bisect_left(residues, lo & mask)
        last = bisect_right(residues, hi & mask)
        spans = [(first, last)] if lo & mask <= hi & mask else [(first, count), (0, last)]
    verified = 0
    failures: list[tuple[int, str]] = []
    maxima: list[tuple[int, int]] = []
    best = 0
    # a leaf's depth halvings follow at most depth O-steps
    pow3 = [3**a for a in range(depth + 1)]
    for i, j in spans:
        for r, a, e in zip(residues[i:j], o_counts[i:j], ends[i:j]):
            if several:
                best = 0
            p = pow3[a]
            skipped_steps = a + depth
            n = lo + ((r - lo) & mask)
            while n <= hi:
                try:
                    steps = descent_length(n, step_cap, p * (n >> depth) + e, skipped_steps)
                except CycleDetected:
                    failures.append((n, "cycle detected"))
                except StepCapExceeded:
                    failures.append((n, "step cap exceeded"))
                else:
                    verified += 1
                    if steps > best:
                        best = steps
                        maxima.append((n, steps))
                n += period
    failures.sort()
    if several:
        maxima = list(_running_maxima(sorted(maxima), 0))

    # leftovers in [0, x]: whole periods below x, then the leaves up to x's residue
    def upto(x: int) -> int:
        return (x >> depth) * count + bisect_right(residues, x & mask)

    leftovers = upto(hi) - upto(lo - 1)
    if verified + len(failures) != leftovers:
        raise AssertionError(
            f"block [{lo}, {hi}] visited {verified + len(failures)} leftovers, expected {leftovers}"
        )
    return verified, hi - lo + 1 - leftovers, failures, maxima


def _scan_worker(tasks: int, results: int, width: int, block) -> None:
    """A forked worker's life: scan block(k) for each block number k read
    from tasks and send (k, result) back on results, as a length-prefixed
    marshal frame, until the task pipe ends.  A block's exception goes
    back pickled in place of its result.  Never returns: the worker is a
    copy of the parent, whose stack must not run on in it.
    """
    import signal

    status = 1
    try:
        # forked with SIGTERM blocked, so the parent's handler (the CLI's
        # turns a SIGTERM into KeyboardInterrupt) never ran here: restore the
        # default, then unblock it.  SIGINT stays blocked
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        while message := os.read(tasks, width):
            k = int.from_bytes(message, "little")
            try:
                result = block(k)
            except BaseException as exc:  # forwarded, raised by the parent
                import pickle

                result = pickle.dumps(exc)
            frame = marshal.dumps((k, result))
            frame = memoryview(len(frame).to_bytes(8, "little") + frame)
            while frame:
                frame = frame[os.write(results, frame) :]
        status = 0
    finally:
        os._exit(status)


def _block_results(
    lo: int, hi: int, block_size: int | None, leaves: UnresolvedLeaves, step_cap: int, workers: int
):
    """Yield _scan_block's result for each block of [lo, hi], in range order.

    A block_size of None picks one from the range and the worker count.
    Blocks are drawn lazily; an empty range yields nothing.  On more than
    one worker, and never more workers than blocks, the workers are forked
    from this process with SIGINT and SIGTERM blocked, then restore
    SIGTERM's default.  They pull block numbers from one task pipe, of
    which this process writes at most two per worker ahead of the
    consumer, and send their results back on a pipe each; this process
    polls those, reorders the results and yields them in range order, so
    its memory stays flat in the range size.  A block's exception in a
    worker is raised here unchanged.  A worker that dies (end of file on
    its pipe) raises CollatzDescentError naming its pid and exit status,
    and a pipe or fork that fails one chained from the OSError.  However
    the generator ends (done, an error, KeyboardInterrupt, close()), it
    closes the pipes, then SIGTERMs and reaps every worker.  Without
    os.fork (Windows), more than one worker is a ValueError.
    """
    if block_size is None:
        # About 8 blocks per worker, so the workers pay few round trips and
        # each leaf's setup once per block, not per 2^16 numbers.  The floor
        # keeps a short range in 2^16 blocks, and on all its workers; the
        # cap bounds what a block holds.  Swept on `scan 2 10^7 --depth 16
        # --workers 2`, median CPU over 6-12 runs of bench/run.py: 2^16
        # blocks 0.563 s; 4 / 8 / 16 blocks per worker 0.476 / 0.494 /
        # 0.518 s, 4 and 8 within the noise of 6 alternating pairs (4 won
        # 4 on CPU, 3 on wall); a cap of 2^22 0.478 s.  Near 10^12 at depth
        # 22 on one worker (scan-deep) all gave 0.221-0.229 s wall, 2^16
        # blocks included.
        block_size = min(max(-(-(hi - lo + 1) // (8 * workers)), 1 << 16), 1 << 20)

    def block(k: int):
        a = lo + k * block_size
        return _scan_block(a, min(a + block_size - 1, hi), leaves, step_cap)

    count = (hi - lo) // block_size + 1
    workers = min(workers, count)
    if workers <= 1:
        yield from map(block, range(count))
        return
    if not hasattr(os, "fork"):
        raise ValueError(
            f"a scan on {workers} workers needs os.fork, which this platform lacks: use --workers 1"
        )
    import select
    import signal

    # block numbers go out in fixed-width words, each written whole (a pipe
    # write of at most PIPE_BUF bytes is atomic), so each read takes one
    width = (count - 1).bit_length() // 8 + 1
    pids: dict[int, int] = {}  # a worker's result pipe -> its pid
    fds = list(os.pipe())  # the task pipe's ends, then the result pipes'
    poll = select.poll()
    both = {signal.SIGINT, signal.SIGTERM}
    try:
        try:
            for _ in range(workers):
                read, write = os.pipe()
                fds.append(read)
                # a worker keeps the mask: with SIGINT blocked there, a
                # Ctrl-C to the process group interrupts this process alone
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, both)
                try:
                    pid = os.fork()
                    if pid == 0:
                        # a worker keeps only the task pipe's read end and its
                        # result pipe's write end: if this process is killed
                        # outright, the worker meets the task pipe's end or a
                        # broken result pipe and exits
                        for fd in fds[1:]:
                            os.close(fd)
                        _scan_worker(fds[0], write, width, block)
                    pids[read] = pid
                finally:
                    os.close(write)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                poll.register(read, select.POLLIN)
        except OSError as exc:
            raise CollatzDescentError(str(exc)) from exc
        handed = min(2 * workers, count)
        for k in range(handed):
            os.write(fds[1], k.to_bytes(width, "little"))
        frames = {fd: bytearray() for fd in pids}
        done: dict = {}
        for k in range(count):
            while k not in done:
                for fd, _ in poll.poll():
                    data = os.read(fd, 1 << 16)
                    if not data:
                        pid = pids.pop(fd)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = f"exit status {code}"
                        if code < 0:
                            how = f"killed by {signal.Signals(-code).name}"
                        raise CollatzDescentError(
                            f"scan worker {pid} ended with blocks unfinished ({how})"
                        ) from EOFError(f"end of file on worker {pid}'s result pipe")
                    frame = frames[fd]
                    frame += data
                    while len(frame) >= 8:
                        end = 8 + int.from_bytes(frame[:8], "little")
                        if len(frame) < end:
                            break
                        key, result = marshal.loads(frame[8:end])
                        done[key] = result
                        del frame[:end]
            result = done.pop(k)
            if isinstance(result, bytes):
                import pickle

                raise pickle.loads(result)
            yield result
            if handed < count:
                os.write(fds[1], handed.to_bytes(width, "little"))
                handed += 1
    finally:
        # no signal cuts this short and leaves a worker behind
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, both)
        try:
            for fd in fds:
                os.close(fd)
            for pid in pids.values():
                os.kill(pid, signal.SIGTERM)
            for pid in pids.values():
                os.waitpid(pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _sieve_depth(size: int) -> int:
    """The walk depth for a scan or record search of size numbers."""
    # A deeper walk leaves fewer numbers to simulate but costs more to build
    # and hands each block more leaves to set up, so the depth that pays
    # grows with the range.  Swept in-process on one worker, best of 3-5
    # runs (Python 3.11, 2-vCPU x86): scan [2, 2*10^5] fastest at 16, [2,
    # 10^6] at 18, 2*10^6 numbers from 10^12 at 18-20, [2, 10^7] at 20-22,
    # 2^25 numbers from 2 and 2^24 from 10^12 at 22 and 24 alike (20 was
    # 1.2-1.4x slower); records [2, 2*10^5] at 14-16, [2, 10^6] at 18,
    # [2, 10^7] at 20-22.  Depth 24 gained nothing there and its walk
    # costs 0.4 s and about 11 MB more, so 22 is the cap.  Ranges of 1-3
    # numbers get depth 0, which walks every n.
    return min(max(size.bit_length() - 2, 0), 22)


def sieve_scan(
    lo: int,
    hi: int,
    depth: int | None = None,
    *,
    workers: int = 1,
    block_size: int | None = None,
    step_cap: int = DEFAULT_STEP_CAP,
) -> ScanReport:
    """Verify that every n in [lo, hi] descends below itself.

    Numbers whose residue mod 2^depth belongs to a resolved class are
    counted as skipped (their descent is certified by the class algebra,
    checked while the leaves are built); the rest are simulated.  depth = 0
    disables the sieve.  Without a depth, one is picked from the range
    size: bit_length(hi - lo + 1) - 2, between 0 and 22 (16 for 2*10^5
    numbers, 22 from 2^23 up); the report records it.  For a given depth
    the report is deterministic for any worker count and block size:
    blocks are merged in range order, each as it arrives.  The step cap
    applies to the simulated numbers alone, since a skipped number is
    never walked, so a cap below the longest class length makes the
    failures depend on the depth: a cap of 5 on [2, 100] fails 25, 25
    and 12 numbers at depths 0, 2 and 5.  Without a
    block_size, a block holds about 1/8 of a worker's share of the range,
    but never fewer than 2^16 or more than 2^20 numbers.  Every worker
    count draws its blocks lazily, and more than one worker, never more
    than the blocks, pull block numbers from a pipe that holds at most two
    per worker ahead of the merge, so memory stays flat in the range size.
    The workers are forked from this process with os.fork, with SIGINT
    blocked, so Ctrl-C interrupts this process alone and raises
    KeyboardInterrupt; the CLI turns a SIGTERM to it into the same
    interrupt.  The workers restore SIGTERM's default action, and however
    the scan ends, this process SIGTERMs and reaps them at once, blocks in
    flight included.  An exception in a worker's block is raised here
    unchanged, as on one worker.  Without os.fork (Windows) only workers=1
    runs.  Raises ValueError on a bad range, worker count or block size,
    or more than one worker and block without os.fork,
    ValueError("depth must be >= 0") on a negative depth (from
    unresolved_leaves), DepthTooLarge past MAX_DEPTH (from
    classify_depth), and CollatzDescentError when a worker dies (naming
    its pid and exit status) or cannot be forked (chained from the
    OSError).
    """
    if lo < 2:
        raise ValueError("scan range must start at 2 or above")
    if hi < lo:
        raise ValueError("empty scan range")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be >= 1")
    if depth is None:
        depth = _sieve_depth(hi - lo + 1)

    t0 = time.perf_counter()
    leaves = classify_depth(depth) if depth >= 1 else unresolved_leaves(depth)
    t1 = time.perf_counter()
    verified = 0
    skipped = 0
    failures: list[tuple[int, str]] = []
    max_steps = 0
    max_n: int | None = None
    for bv, bs, bf, maxima in _block_results(lo, hi, block_size, leaves, step_cap, workers):
        verified += bv
        skipped += bs
        failures.extend(bf)
        if maxima and maxima[-1][1] > max_steps:
            max_n, max_steps = maxima[-1]
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
    """Running maxima of descent length over [lo, hi], as (n, steps) pairs.

    A record can only sit in a residue that no class covers.  The search
    walks the parity tree to the depth a scan of the range picks (16 for
    2*10^5 numbers, 22 from 2^23 up) and reads L, the longest class,
    i + j, off it (26 at depth 16, 0 at depth 0, which has no class).  It
    walks every n from lo while the running maximum is below L, then
    merges the scan's block maxima over the rest of the range in range
    order.  The records do not depend on the depth.  This is exact:
    - a member n >= 2 of a pruned class descends in exactly i + j <= L
      steps, at most the running maximum, so it sets no strict record;
    - descent_length returns only lengths <= step_cap, and the running
      maximum is such a length, so a skipped n would neither exceed the
      cap nor, ending below itself, close a cycle;
    - the blocks arrive in range order, so their first failing leftover,
      walked from its start, raises as a walk of every number would.
    """
    if lo < 2:
        raise ValueError("record search starts at 2 or above")
    if hi < lo:
        raise ValueError("empty search range")
    leaves = unresolved_leaves(_sieve_depth(hi - lo + 1))
    longest = max((i + j for i, j in zip(leaves.class_i, leaves.class_j)), default=0)
    records: list[tuple[int, int]] = []
    best = 0
    n = lo
    while best < longest and n <= hi:
        steps = descent_length(n, step_cap)
        if steps > best:
            best = steps
            records.append((n, steps))
        n += 1
    for _, _, failures, maxima in _block_results(n, hi, None, leaves, step_cap, 1):
        if failures:
            descent_length(failures[0][0], step_cap)
            raise AssertionError(f"leftover {failures[0][0]} failed only in its block")
        records.extend(_running_maxima(maxima, records[-1][1] if records else 0))
    return records


def twin_walk(n: int, step_cap: int = DEFAULT_STEP_CAP) -> tuple[DescentTrace, tuple[int, ...]]:
    """n's first descent and the path of its twin n + 2^j alongside it.

    The path is the twin, its value after each step and, last, its first
    lower value.  The twin must repeat n's pattern exactly.  Only the twin
    is stepped (by col_step): n's value before each step is read from its
    trace, whose letters follow n's parities, so the letter col_step
    returns for the twin must match n's.  The value gap is checked before
    every step: after a O-steps and b E-steps it must equal 3^a * 2^(j-b),
    which lands on 3^i once both descents finish, below the twin.
    """
    tr = descent_trace(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    path = [n + (1 << j)]
    a = b = 0
    for v, ch in zip((n,) + tr.values, tr.pattern.text):
        gap = path[-1] - v
        if gap != 3**a * (1 << (j - b)):
            raise AssertionError(f"twin gap {gap} != 3^{a}*2^{j - b} before step {a + b + 1}")
        v2, letter = col_step(path[-1])
        if letter != ch:
            raise AssertionError(f"parity mismatch at step {a + b + 1} of twin of {n}")
        path.append(v2)
        if ch == "O":
            a += 1
        else:
            b += 1
    if path[-1] - tr.first_lower != 3**i or path[-1] >= path[0]:
        raise AssertionError(f"twin of {n} did not land at first_lower + 3^{i}")
    return tr, tuple(path)


def twin_check(n: int, step_cap: int = DEFAULT_STEP_CAP) -> TwinRecord:
    """Verify that the odd n's twin n + 2^j repeats n's descent pattern exactly."""
    if n < 3 or n % 2 == 0:
        raise ValueError("twin check is defined for odd n >= 3")
    tr, path = twin_walk(n, step_cap=step_cap)
    return TwinRecord(n, path[0], tr.pattern, tr.pattern.i, tr.pattern.j, tr.first_lower, path[-1])
