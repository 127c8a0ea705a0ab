"""Depth classification, sieve-accelerated range verification, record
search and twin checks.

Classification, the scan and the record search stand on one walk of the
parity tree toward J halvings (patterns.unresolved_leaves), which
classify_depth returns as the classification.  Its pruned nodes are the
minimal descent classes with at most J halving steps; its open leaves are
what those classes miss, each an odd residue r mod 2^W, W the walk's
leaf_depth (J, or J - 1 where level J prunes nothing), with the O-count a
and the end e of its first W halvings.  The scan visits the members of
those leaves alone, resumes each n = 2^W*h + r at its value 3^a*h + e
after the W halvings, and counts every other number as skipped.  A member
whose smaller ancestor in the range passes through it on its first descent
counts through that ancestor, unwalked.  Each block returns its tally:
counts, failures and the running maxima of its walked leftovers, and one
fold (_fold) merges adjacent tallies in range order.  A scan and a record
search both fold the blocks up to the first that holds a failure
(_fold_until_failure), whose first failure is the range's smallest.  A
scan then folds the rest of the range again from that block's start, with
every leftover walked, or, where the ancestor rule cannot fire, folds
every block in one such pass; a record search walks that failure to
raise.  A record search is an every-n prefix, walked until its running
maximum passes the longest class, plus that fold over the blocks of the
rest.  No 2^J table is built anywhere.
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

    verified_count counts the leftovers, the numbers no class of the depth
    covers, that descend: each is certified by its own walk or by its
    ancestor's.  An odd n = 3k + 2 lies 2 steps into the first descent of
    m = (2n - 1)/3, and an odd n = 9k + 4 5 steps into that of
    m = (8n - 5)/9, every value before it above m; with m in [lo, n), n is
    counted through m, up to the first block that holds a failure; from
    that block's start on every leftover is walked (see sieve_scan).
    failures holds (n, reason) rows in increasing n, one per leftover
    whose walk raised CycleDetected or StepCapExceeded, reason that
    exception's reason.  It is expected to stay empty; a nonempty tuple
    is a headline result, not an error.  Only leftovers can fail, so a
    step cap below the longest class length makes the failures depend on
    the depth.  max_descent_steps ranges over the leftovers that descend,
    and equals what a walk of each would give: an ancestor-certified n
    takes fewer steps than its smaller ancestor, so it is never the first
    maximum.  It depends on the depth where the range's
    longest descent is a skipped one; skipped numbers have class-certified
    descents of i + j <= depth + floor(depth*log3(2)) steps, since
    j <= depth and 3^i < 2^j.  wall_time is the scan phase (blocks, their
    merge and the workers); setup_time is the sieve build before it.
    Neither is part of canonical().
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
    The classify command prints it with reports.classify_report.  Raises
    ValueError("depth must be >= 1") below depth 1 and DepthTooLarge above
    MAX_DEPTH.
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

    Returns (verified, skipped, failures, maxima): failures are the
    (n, reason) rows of the walked leftovers whose walk raised
    CycleDetected or StepCapExceeded, reason that exception's reason, and
    maxima are the running maxima of descent length over the walked
    leftovers that descend, both as pairs in increasing n.  Here depth is
    the leaves' leaf_depth, and 2^depth the period.  This is the one place
    a leftover is resumed, leaf by leaf: n = 2^depth*h + r of leaf
    (r, a, e) resumes at 3^a*h + e after its depth halvings, as a jump
    over a halving word does.  A block at most one period long has at
    most one member per leaf, met in increasing n, so one running maximum
    serves; a longer block puts each leaf's maxima, like the failures,
    back in range order.

    base is the start of the range whose every leftover some block walks
    or counts, and a block's own start when it is checked alone.  At depth
    >= 1, a leftover n whose ancestor m lies in [base, n), m = (2n - 1)/3
    when n % 3 == 2 or m = (8n - 5)/9 when n % 9 == 4, counts as verified
    unwalked: m's first descent runs through n, 2 (resp. 5) steps in,
    with every value above m.  m is a leftover too, since its halvings are
    OE (resp. OEOEE) and then n's, whose prefix margins 2^b <= 3^a give
    m's 2^(1+b) < 3^(1+a) (resp. 2^(3+b) < 3^(2+a)).  So n descends if m
    does, in fewer steps, and never sets the range's first maximum; if n
    would fail, so would m, which some block at or before n's fails
    first.  A block below _ancestor_floor(base) has no such member and
    pays one comparison per member for the test, and a base above hi
    turns the rule off: every leftover is walked.
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
    returns for one block.  The merge adds the counts, appends b's
    failures and those of b's maxima that beat a's last record, so the
    result is the tally of both runs, and any grouping of a fold over
    the blocks gives the same.  It extends a's lists in place, so a fold
    over many blocks stays linear in what they hold.
    """
    verified, skipped, failures, maxima = a
    failures += b[2]
    maxima += _running_maxima(b[3], maxima[-1][1] if maxima else 0)
    return verified + b[0], skipped + b[1], failures, maxima


def _fold_until_failure(results):
    """Fold the block tallies of results (_fold), in range order, up to the
    first that holds a failure: (the tally of the blocks before it, its
    first failure's n), or (the tally of every block, None).

    Every leftover of the blocks before it descends, so their tally is
    exact, and that n is the smallest failure of the range: a leftover
    counted through an ancestor fails only after it (see _scan_block).
    """
    tally = (0, 0, [], [])
    for result in results:
        if result[2]:
            return tally, result[2][0][0]
        tally = _fold(tally, result)
    return tally, None


def _scan_worker(tasks: int, results: int, width: int, block) -> None:
    """A forked worker's life: scan block(k) for each block number k read
    from tasks and send (k, result) back on results, as a length-prefixed
    marshal frame, until the task pipe ends.  A block that raises sends
    (k, None), and the parent runs that block again itself.  Never
    returns: the worker is a copy of the parent, whose stack must not run
    on in it.
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

    Each block gets base as the start of the range whose leftovers it may
    count through an ancestor (see _scan_block): lo, or hi + 1 to walk
    every leftover.  A block_size of None picks one from the
    range and the worker count.  Blocks are drawn lazily; an empty range
    yields nothing.  On more than one worker, and never more workers than
    blocks, the workers are forked from this process with SIGINT and
    SIGTERM blocked, then restore SIGTERM's default.  They pull block
    numbers from one task pipe, of which this process writes at most two
    per worker ahead of the consumer, and send their results back on a
    pipe each; this process polls those, reorders the results and yields
    them in range order, so its memory stays flat in the range size.  It
    reads each reply whole, its 8-byte length, then its body.  A block
    that raised in a worker comes back as None and runs again here: the
    kernel is deterministic, so it raises the same exception, with a
    traceback into the kernel, and a failure that only the worker met (a
    MemoryError, say) gives way to this process's result, as on one
    worker.  A worker that dies (end of file on its pipe, a reply cut
    short included) raises CollatzDescentError naming its pid and exit
    status, and a pipe or fork that fails one chained from the OSError.
    However the generator ends (done, an error, KeyboardInterrupt,
    close()), it closes the pipes, then SIGTERMs and reaps every worker.
    Without os.fork (Windows), more than one worker is a ValueError.
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
    """The sieve depth for a scan or record search of size numbers."""
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
    checked while the leaves are built); the rest, the leftovers, are
    verified by a walk of their own or, when their ancestor lies in
    [lo, n), by that ancestor's (see ScanReport and _scan_block).  Where
    that rule can fire (depth >= 1 and hi >= _ancestor_floor(lo)), the
    block tallies are folded (_fold) in range order up to the first block
    that holds a failure (_fold_until_failure), and every leftover before
    it descends; from that block's start on, the scan folds the rest of
    the range again with the rule off (base hi + 1).  Where it cannot,
    one pass with the rule off folds every block.  Either way every
    leftover from the first failing block on is walked, the report is
    that of a walk of every leftover, and a clean scan runs each block
    once.  The leaves are unresolved_leaves(depth), whose walk may stop a
    level short with the same leftovers.  depth = 0 disables the sieve.
    Without a depth, one is picked from the range size: bit_length(hi -
    lo + 1) - 2, between 0 and 22 (16 for 2*10^5 numbers, 22 from 2^23
    up); the report records it.  For a given depth the report is
    deterministic for any worker count and block size.  The
    step cap applies to the leftovers alone, since a skipped number is
    never walked, so a cap below the longest class length makes the
    failures depend on the depth: a cap of 5 on [2, 100] fails 25, 25
    and 12 numbers at depths 0, 2 and 5.  _block_results draws each
    pass's blocks, sizes them and runs them on the workers, which it
    forks and reaps once per pass, however the pass ends; the CLI turns a
    SIGTERM to this process into KeyboardInterrupt, as Ctrl-C is.  Raises
    ValueError on a bad range, worker count or block size, or more than
    one worker and block without os.fork, ValueError("depth must be >=
    0") on a negative depth (from unresolved_leaves), DepthTooLarge past
    MAX_DEPTH, CollatzDescentError when a worker dies (naming its pid and
    exit status) or cannot be forked (chained from the OSError), and the
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

    A record can only sit in a residue that no class covers.  The search
    picks the depth a scan of the range picks (16 for 2*10^5 numbers, 22
    from 2^23 up) and takes L, the longest class length i + j, from the
    levels that prune classes (26 at depth 16, 0 at depth 0, which has no
    class).  It walks every n from lo while the running maximum is below
    L, then folds (_fold) the block tallies of a scan of the rest of the
    range, from its own start, on one worker, and keeps the fold's records that beat the
    prefix's maximum.  The records do not depend on the depth.  This is
    exact:
    - a member n >= 2 of a pruned class descends in exactly i + j <= L
      steps, at most the running maximum, so it sets no strict record;
    - descent_length returns only lengths <= step_cap, and the running
      maximum is such a length, so a skipped n would neither exceed the
      cap nor, ending below itself, close a cycle;
    - the scan counts a leftover n through its ancestor m in [s, n), s the
      scan's start (see _scan_block), which it walks or counts in turn: n
      descends in fewer steps than m < n, so it sets no strict record,
      and if n would fail, m fails first;
    - the range's smallest failure is a leftover its block walked, since
      a leftover counted through an ancestor fails after it, and every
      number below it descends, so walking it from its start raises as a
      walk of every number would.  The fold stops at the first block that
      holds a failure (_fold_until_failure), whose first failure is that
      one, so no later block is scanned.
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
