"""Depth classification, sieve-accelerated range verification, record
search and twin checks, all on one walk of the parity tree
(patterns.unresolved_leaves); no 2^J table is built.  Each rule of the
scan is stated once, in the docstring of the function that applies it.
"""

from __future__ import annotations

import marshal
import os
import time
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import reduce

from .core import DEFAULT_STEP_CAP, DescentTrace, col_step, descent_length, descent_trace
from .errors import CollatzDescentError, CycleDetected, DepthTooLarge, StepCapExceeded
from .patterns import UnresolvedLeaves, _deepest_pruning_level, unresolved_leaves

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

    skipped_count counts the numbers a class of the depth covers, and
    verified_count the leftovers, the others, that descend (_scan_block).
    failures holds (n, reason) rows in increasing n, one per leftover
    whose walk raised CycleDetected or StepCapExceeded, reason that
    exception's reason; it is expected to stay empty, and a nonempty
    tuple is a headline result, not an error.  Only leftovers are walked, so a step cap below the longest
    class length makes the failures depend on the depth: a cap of 5 on
    [2, 100] fails 25, 25 and 12 numbers at depths 0, 2 and 5.
    max_descent_steps and max_descent_n are the first maximum of a walk
    of every leftover, so they depend on the depth where the longest
    descent is a skipped one, of i + j <= depth + floor(depth*log3(2))
    steps (j <= depth, 3^i < 2^j).  wall_time is the scan phase (blocks,
    their merge and the workers), setup_time the sieve build before it;
    canonical() leaves both out.
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

    The walk of the parity tree, patterns.unresolved_leaves(depth), is the
    classification.  Raises ValueError("depth must be >= 1") below depth 1
    and DepthTooLarge above MAX_DEPTH.
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


def _ancestor_floor(base: int) -> int:
    """The least n whose mod-9 ancestor (8n - 5)/9 is >= base: no leftover
    below it counts through an ancestor in [base, n) (see _scan_block)."""
    return (9 * base + 12) >> 3


def _scan_block(
    lo: int, hi: int, leaves: UnresolvedLeaves, step_cap: int, base: int
) -> tuple[int, int, list[tuple[int, str]], list[tuple[int, int]]]:
    """Simulate the leftovers of one contiguous block; count the rest as skipped.

    Returns (verified, skipped, failures, maxima): the failure rows of
    the walked leftovers (as in ScanReport), and the running maxima of
    descent length over those that descend, both in increasing n.

    The leaf resume.  With depth the leaves' leaf_depth, a member
    n = 2^depth*h + r of leaf (r, a, e) resumes at 3^a*h + e with
    a + depth steps counted, as a jump over a halving word does; no other
    code resumes a leftover.  A block at most one period 2^depth long
    meets each leaf at most once, in increasing n, so one running maximum
    serves; a longer block puts each leaf's maxima, like the failures,
    back in range order.

    The ancestor rule.  base is the start of the range whose every
    leftover some block walks or counts (a block's own start when it is
    checked alone).  At depth >= 1, a leftover n with an ancestor m in
    [base, n), m = (2n - 1)/3 when n % 3 == 2 or m = (8n - 5)/9 when
    n % 9 == 4, counts as verified unwalked: m's first descent runs
    through n, 2 (resp. 5) steps in, every value above m.  m is a
    leftover too: its halvings are OE (resp. OEOEE) and then n's, whose
    margins 2^b <= 3^a give m's 2^(1+b) < 3^(1+a) (resp.
    2^(3+b) < 3^(2+a)).  So n descends if m does, in fewer steps, and
    never sets the range's first maximum; if n would fail, so would m,
    which a block at or before n's fails first.  Below
    _ancestor_floor(base) no member has such an m, and a base above hi
    turns the rule off.
    """
    # Leaf by leaf rather than period by period keeps a shallow sieve,
    # whose 2^depth period is far shorter than a block, free of per-period
    # overhead: on 2*10^6 numbers from 2 or from 10^12, in 2^16 blocks, a
    # period-by-period kernel took 3-9% longer at depth 5 and 1.3-1.4x as
    # long at depth 1 (Python 3.11, one core of a 2-vCPU Xeon).
    depth = leaves.leaf_depth
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
    # from from9 on a member's mod-9 ancestor (8n - 5)/9 is >= base, from
    # from3 on its mod-3 ancestor (2n - 1)/3 too; at depth 0, whose members
    # may be even, no member has one
    from9 = from3 = hi + 1
    if depth:
        from9, from3 = _ancestor_floor(base), (3 * base + 2) >> 1
    for i, j in spans:
        for r, a, e in zip(residues[i:j], o_counts[i:j], ends[i:j]):
            if several:
                best = 0
            p = pow3[a]
            skipped_steps = a + depth
            n = lo + ((r - lo) & mask)
            while n <= hi:
                # n % 9 in {2, 4, 5, 8}: n % 3 == 2, or n % 9 == 4
                if n >= from9 and 0x134 >> n % 9 & 1 and (n >= from3 or n % 9 == 4):
                    verified += 1
                else:
                    try:
                        steps = descent_length(n, step_cap, p * (n >> depth) + e, skipped_steps)
                    except (CycleDetected, StepCapExceeded) as exc:
                        failures.append((n, exc.reason))
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


def _fold(a, b):
    """Merge the tallies a and b of two adjacent runs of blocks, a's first.

    A tally is (verified, skipped, failures, maxima), as _scan_block
    returns for one block.  The fold, the only merge of block results,
    adds the counts and appends b's failures and those of b's maxima that
    beat a's last record, so any grouping of a fold over the blocks gives
    the tally of them all.  It extends a's lists in place, so a fold over
    many blocks stays linear in what they hold.
    """
    verified, skipped, failures, maxima = a
    failures += b[2]
    maxima += _running_maxima(b[3], maxima[-1][1] if maxima else 0)
    return verified + b[0], skipped + b[1], failures, maxima


def _fold_until_failure(results):
    """Fold the block tallies of results (_fold), in range order, up to the
    first that holds a failure: (the tally of the blocks before it, its
    first failure's n), or (the tally of every block, None).

    The first-failure rule.  Every leftover of the blocks before it
    descends, so their tally is exact, and that n is the range's smallest
    failure: a leftover counted through an ancestor fails only after it.
    """
    tally = (0, 0, [], [])
    for result in results:
        if result[2]:
            return tally, result[2][0][0]
        tally = _fold(tally, result)
    return tally, None


def _scan_worker(tasks: int, results: int, width: int, block) -> None:
    """A forked worker's loop over the task pipe, as _block_results
    describes it.  Never returns: the worker is a copy of the parent,
    whose stack must not run on in it.
    """
    import signal

    status = 1
    try:
        # the parent's SIGTERM handler must never run here
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        while message := os.read(tasks, width):
            k = int.from_bytes(message, "little")
            try:
                result = block(k)
            except BaseException:  # the parent runs the block again
                result = None
            frame = marshal.dumps((k, result))
            frame = memoryview(len(frame).to_bytes(8, "little") + frame)
            while frame:
                frame = frame[os.write(results, frame) :]
        status = 0
    finally:
        os._exit(status)


def _block_results(
    lo: int,
    hi: int,
    block_size: int | None,
    leaves: UnresolvedLeaves,
    step_cap: int,
    workers: int,
    base: int,
):
    """Yield _scan_block's result for each block of [lo, hi], in range order.

    Every block gets base.  A block_size of None picks one from the range
    and the worker count.  Blocks are drawn lazily; an empty range yields
    nothing.  One worker scans them here.  On more than one, and never
    more workers than blocks, the workers are forked from this process
    with SIGINT and SIGTERM blocked.  A worker keeps SIGINT blocked, so a
    Ctrl-C to the process group interrupts this process alone, and
    restores SIGTERM's default before it unblocks it.  Whenever it is
    free, a worker pulls the next block number k from one shared task
    pipe and sends (k, result) back on a pipe of its own, as a
    length-prefixed marshal frame.  This process writes at most two block
    numbers per worker ahead of the consumer, reads each reply whole and
    yields the results in range order, so its memory stays flat in the
    range size.  A block that raises in a worker comes back as None and
    runs again here: the kernel is deterministic, so it raises the same
    exception, with a traceback into the kernel, and a failure that only
    the worker met (a MemoryError, say) gives way to this process's
    result.  A worker that dies (end of file on its pipe, mid-reply too)
    raises CollatzDescentError naming its pid and exit status; a pipe or
    fork that fails raises one chained from the OSError.  However the
    generator ends (done, an error, KeyboardInterrupt, close()), it closes
    the pipes, then SIGTERMs and reaps every worker with both signals
    blocked.  Without os.fork (Windows), more than one worker is a
    ValueError.
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
        return _scan_block(a, min(a + block_size - 1, hi), leaves, step_cap, base)

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
                # a worker keeps this mask
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

        def read(fd: int, size: int) -> bytearray:
            """The next size bytes on result pipe fd; an end of file first is a dead worker."""
            data = bytearray()
            while len(data) < size:
                chunk = os.read(fd, size - len(data))
                if not chunk:
                    pid = pids.pop(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"exit status {code}"
                    if code < 0:
                        how = f"killed by {signal.Signals(-code).name}"
                    raise CollatzDescentError(
                        f"scan worker {pid} ended with blocks unfinished ({how})"
                    ) from EOFError(f"end of file on worker {pid}'s result pipe")
                data += chunk
            return data

        done: dict = {}
        for k in range(count):
            while k not in done:
                for fd, _ in poll.poll():
                    key, result = marshal.loads(read(fd, int.from_bytes(read(fd, 8), "little")))
                    done[key] = result
            result = done.pop(k)
            yield block(k) if result is None else result
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
    """The sieve depth for a scan or record search of size numbers.

    It is bit_length(size) - 2, kept between 0 and 22: 16 for 2*10^5
    numbers, 22 from 2^23 up, and 0, which walks every n, for 1-3 numbers.
    """
    # A deeper walk leaves fewer numbers to simulate but costs more to build
    # and hands each block more leaves to set up, so the depth that pays
    # grows with the range.  Swept in-process on one worker, best of 3-5
    # runs (Python 3.11, 2-vCPU x86): scan [2, 2*10^5] fastest at 16, [2,
    # 10^6] at 18, 2*10^6 numbers from 10^12 at 18-20, [2, 10^7] at 20-22,
    # 2^25 numbers from 2 and 2^24 from 10^12 at 22 and 24 alike (20 was
    # 1.2-1.4x slower); records [2, 2*10^5] at 14-16, [2, 10^6] at 18,
    # [2, 10^7] at 20-22.  Depth 24 gained nothing there and its walk
    # costs 0.4 s and about 11 MB more, so 22 is the cap.
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

    The classes of unresolved_leaves(depth) certify the skipped numbers,
    and _scan_block verifies the leftovers.  The second pass: where the
    ancestor rule can fire (depth >= 1 and hi >= _ancestor_floor(lo)), a
    first pass folds the block tallies up to the first block that holds a
    failure (_fold_until_failure), and a second pass folds the range from
    that block's start again with the rule off (base hi + 1).  Where the
    rule cannot fire, one pass with it off folds every block.  Either way
    every leftover from the first failing block on is walked, the report
    is that of a walk of every leftover, and a clean scan runs each block
    once.  Each pass forks and reaps its own workers (_block_results).

    depth = 0 disables the sieve; None lets _sieve_depth pick it, and the
    report records it.  For a given depth the report is the same for any
    worker count and block size.  Raises ValueError on a bad range,
    worker count or block size, on a depth below 0, and on more than one
    worker and block without os.fork; DepthTooLarge past MAX_DEPTH;
    CollatzDescentError when a worker dies or cannot be forked; and the
    exception a block raises, as on one worker.
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

    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")

    t0 = time.perf_counter()
    leaves = unresolved_leaves(depth)
    t1 = time.perf_counter()
    tally, start = (0, 0, [], []), lo
    if leaves.leaf_depth and hi >= _ancestor_floor(lo):
        tally, failed = _fold_until_failure(_block_results(lo, hi, block_size, leaves, step_cap, workers, lo))
        # every leftover below the failing block descends
        start = hi + 1 if failed is None else lo + tally[0] + tally[1]
    # from start on, walk every leftover, the ancestor rule off
    if start <= hi:
        tally = reduce(_fold, _block_results(start, hi, block_size, leaves, step_cap, workers, hi + 1), tally)
    verified, skipped, failures, maxima = tally
    max_n, max_steps = maxima[-1] if maxima else (None, 0)
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

    The search takes the depth _sieve_depth picks for the range, and L,
    the longest class length up to it (_deepest_pruning_level).  It walks
    every n from lo while the running maximum is below L, then folds the
    block tallies of a scan of the rest, from its own start, on one
    worker, and keeps the fold's records that beat the prefix's maximum.
    The records do not depend on the depth.  This is exact:
    - a member n >= 2 of a pruned class descends in exactly i + j <= L
      steps, at most the running maximum, so it sets no strict record;
    - descent_length returns only lengths <= step_cap, and the running
      maximum is such a length, so a skipped n would neither exceed the
      cap nor, ending below itself, close a cycle;
    - a leftover counted through its ancestor (_scan_block) sets no
      strict record and fails only after its ancestor;
    - the fold stops at the first block that holds a failure
      (_fold_until_failure); that block's first failure is the range's
      smallest, and every number below it descends, so walking it from
      its start raises as a walk of every number would, and no later
      block is scanned.
    """
    if lo < 2:
        raise ValueError("record search starts at 2 or above")
    if hi < lo:
        raise ValueError("empty search range")
    o_count, walk_depth = _deepest_pruning_level(_sieve_depth(hi - lo + 1))
    records: list[tuple[int, int]] = []
    best = 0
    n = lo
    while best < o_count + walk_depth and n <= hi:
        steps = descent_length(n, step_cap)
        if steps > best:
            best = steps
            records.append((n, steps))
        n += 1
    if n <= hi:
        leaves = unresolved_leaves(walk_depth)
        (_, _, _, maxima), failed = _fold_until_failure(_block_results(n, hi, None, leaves, step_cap, 1, n))
        if failed is not None:
            descent_length(failed, step_cap)
            raise AssertionError(f"leftover {failed} failed only in its block")
        records.extend(_running_maxima(maxima, best))
    return records


def twin_walk(n: int, step_cap: int = DEFAULT_STEP_CAP) -> tuple[DescentTrace, tuple[int, ...]]:
    """n's first descent and the path of its twin n + 2^j alongside it.

    The path is the twin, its value after each step and, last, its first
    lower value.  Only the twin is stepped (by col_step), and each letter
    it takes must be n's.  Before every step the gap must be
    3^a * 2^(j-b), after a O-steps and b E-steps, and the twin must land
    on n's first lower value + 3^i, below its start; else AssertionError.
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
