"""Depth classification, sieve scans, record search and twins."""

from __future__ import annotations

import errno
import marshal
import math
import os
import signal
import time
import traceback
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_descent import (
    DEFAULT_STEP_CAP,
    CollatzDescentError,
    CycleDetected,
    DepthTooLarge,
    ScanReport,
    StepCapExceeded,
    classify_depth,
    descent_trace,
    record_search,
    sieve_scan,
    twin_check,
    unresolved_leaves,
)
from collatz_descent import scanner
from collatz_descent.core import col_step, descent_length
from collatz_descent.reports import scan_report_tables
from conftest import reaped
from dense_reference import dense_classification, descent_length_reference

# resolved measures for depths 1..12, frozen from brute-force simulation
# of one large member per residue
EXPECTED_MEASURES = {
    1: Fraction(1, 2),
    2: Fraction(3, 4),
    3: Fraction(3, 4),
    4: Fraction(13, 16),
    5: Fraction(7, 8),
    6: Fraction(7, 8),
    7: Fraction(115, 128),
    8: Fraction(237, 256),
    9: Fraction(237, 256),
    10: Fraction(15, 16),
    11: Fraction(15, 16),
    12: Fraction(1935, 2048),
}


def test_classify_examples():
    r = classify_depth(2)
    assert r.resolved_measure == Fraction(3, 4)
    assert r.unresolved_residues == (3,)
    r = classify_depth(5)
    assert r.resolved_measure == Fraction(7, 8)
    assert r.unresolved_residues == (7, 15, 27, 31)
    r = classify_depth(1)
    assert r.resolved_measure == Fraction(1, 2)
    assert r.unresolved_residues == (1,)


def test_classify_measures_to_depth_12():
    for depth, expected in EXPECTED_MEASURES.items():
        assert classify_depth(depth).resolved_measure == expected


def test_measure_computed_two_ways():
    for depth in range(1, 13):
        r = classify_depth(depth)
        size = 1 << depth
        # route 1: the report's sum of 2^-j; route 2: residue bitmap popcount
        bitmap = bytearray(size)
        for c in r.classes:
            for offset in range(c.x, size, c.modulus):
                assert not bitmap[offset], "classes overlap"
                bitmap[offset] = 1
        covered = sum(bitmap)
        assert r.resolved_measure == Fraction(covered, size)
        assert covered + len(r.unresolved_residues) == size
        assert all(res % 2 == 1 for res in r.unresolved_residues)
        assert list(r.unresolved_residues) == sorted(r.unresolved_residues)


def test_classify_depth_bounds():
    with pytest.raises(DepthTooLarge):
        classify_depth(25)
    with pytest.raises(ValueError):
        classify_depth(0)


def test_classify_classes_respect_depth():
    r = classify_depth(7)
    assert {c.j for c in r.classes} == {1, 2, 4, 5, 7}
    assert max(len(c.pattern) for c in r.classes) == 11


def test_sieve_scan_even_class_only():
    rep = sieve_scan(2, 100, 1)
    assert rep.skipped_count == 50  # the even numbers
    assert rep.verified_count == 49
    assert rep.failures == ()


def test_sieve_scan_without_sieve_finds_27():
    rep = sieve_scan(2, 30, 0)
    assert rep.skipped_count == 0
    assert rep.max_descent_steps == 96
    assert rep.max_descent_n == 27


def test_sieve_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sieve_scan(1, 10, 1)
    with pytest.raises(ValueError):
        sieve_scan(10, 2, 1)


def test_scan_and_record_search_reject_bad_arguments():
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        sieve_scan(2, 10, 1, workers=0)
    with pytest.raises(ValueError, match="^block_size must be >= 1$"):
        sieve_scan(2, 10, 1, block_size=0)
    with pytest.raises(ValueError, match="^record search starts at 2 or above$"):
        record_search(1, 5)
    with pytest.raises(ValueError, match="^empty search range$"):
        record_search(5, 4)


def test_sieve_matches_naive_scan():
    hi = 1 << 16
    # naive route: simulate everything through the public trace API
    naive_max, naive_arg = 0, None
    for n in range(2, hi + 1):
        tr = descent_trace(n)
        assert tr.first_lower < n
        if len(tr) > naive_max:
            naive_max, naive_arg = len(tr), n
    for depth in (1, 2, 5):
        rep = sieve_scan(2, hi, depth)
        assert rep.failures == ()
        assert rep.verified_count + rep.skipped_count == hi - 1
        assert rep.max_descent_steps == naive_max
        assert rep.max_descent_n == naive_arg


def test_scan_records_step_cap_hits_as_failures():
    rep = sieve_scan(2, 30, 0, step_cap=20)
    assert (27, "step cap exceeded") in rep.failures
    assert rep.verified_count + rep.skipped_count + len(rep.failures) == 29


def test_scan_deterministic_across_worker_counts():
    reference = sieve_scan(2, 50_000, 5, workers=1, block_size=8192)
    other = sieve_scan(2, 50_000, 5, workers=2, block_size=8192)
    assert reference.canonical_json() == other.canonical_json()
    assert reference.wall_time > 0 and other.wall_time > 0


def test_pool_never_outnumbers_the_blocks(forks):
    rep = sieve_scan(2, 70_000, 5, workers=4096)  # two blocks of 2^16
    assert len(forks) == 2
    assert rep.canonical_json() == sieve_scan(2, 70_000, 5).canonical_json()
    sieve_scan(2, 70_000, 5, workers=3, block_size=10_000)  # seven blocks
    assert len(forks) == 5


def test_pool_workers_block_sigint_and_keep_sigterm_default(forks, monkeypatch):
    # a Ctrl-C to the process group must interrupt the parent alone, and the
    # parent's SIGTERM must end a worker, whatever handler the parent set
    previous = signal.signal(signal.SIGTERM, lambda *args: None)
    before = signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def signals(a, b, *rest):
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
        default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
        return 0, b - a + 1, [], [(os.getpid(), signal.SIGINT in blocked, signal.SIGTERM in blocked, default)]

    monkeypatch.setattr(scanner, "_scan_block", signals)
    try:
        results = list(scanner._block_results(2, 300_000, None, unresolved_leaves(0), 1, 2, 2))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert {pid for _, _, _, [(pid, *_)] in results} <= set(forks)
    assert {tuple(masks) for _, _, _, [(_, *masks)] in results} == {(True, False, True)}
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == before


def test_pool_holds_at_most_two_blocks_per_worker_in_flight(forks, monkeypatch):
    # 96 blocks of 2^20; an eager hand-out would write them all at once.  The
    # parent writes nothing but block numbers to the task pipe, one per write
    monkeypatch.setattr(scanner, "_scan_block", lambda a, b, *rest: (0, b - a + 1, [], []))
    parent = os.getpid()
    handed = []
    write = os.write

    def counted(fd, data):
        if os.getpid() == parent:
            handed.append(data)
        return write(fd, data)

    monkeypatch.setattr(os, "write", counted)
    results = scanner._block_results(2, 10**8, None, unresolved_leaves(0), 1, 2, 2)
    # blocks handed out but not yet received by the consumer, as each result arrives
    ahead = []
    skipped = 0
    for taken, (_, bs, _, _) in enumerate(results):
        ahead.append(len(handed) - taken)
        skipped += bs
    assert skipped == 10**8 - 1
    assert len(handed) == len(ahead) == 96
    assert max(ahead) == 2 * len(forks) == 4


def test_pool_yields_blocks_in_range_order_whatever_order_they_finish(forks, monkeypatch):
    # the first block finishes last: the next three wait for it
    def slow_first(a, b, *rest):
        time.sleep(0.3 if a == 2 else 0)
        return 0, b - a + 1, [], [(a, 1)]

    monkeypatch.setattr(scanner, "_scan_block", slow_first)
    results = scanner._block_results(2, 2 + 8 * 1000 - 1, 1000, unresolved_leaves(0), 1, 2, 2)
    assert [maxima for _, _, _, maxima in results] == [[(2 + k * 1000, 1)] for k in range(8)]
    assert len(forks) == 2


class FirstBlock(Exception):
    """Raised by a stub kernel to stop a scan at its first block."""


def stop_at_first_block(*args):
    raise FirstBlock


def test_pool_scans_a_range_too_big_to_count_in_a_machine_word(forks, monkeypatch):
    # [2, 2^80] holds more blocks than len() of a range can report; the
    # workers' stub kernel raises, and the parent raises the same exception
    monkeypatch.setattr(scanner, "_scan_block", stop_at_first_block)
    with pytest.raises(FirstBlock):
        sieve_scan(2, 2**80, 0, workers=2)
    assert len(forks) == 2


def raise_a_class_of_its_own(*args):
    class Local(Exception):
        """Defined in the kernel, where no import can find it by name."""

    raise Local("a class of the kernel's own")


class TwoArguments(Exception):
    """An exception whose __init__ takes two arguments, but whose args hold one."""

    def __init__(self, n, reason):
        super().__init__(f"{n}: {reason}")


def raise_two_arguments(*args):
    raise TwoArguments(27, "two arguments")


@pytest.mark.parametrize(
    "stub, name, message",
    [
        (raise_a_class_of_its_own, "raise_a_class_of_its_own.<locals>.Local", "a class of the kernel's own"),
        (raise_two_arguments, "TwoArguments", "27: two arguments"),
        (stop_at_first_block, "FirstBlock", ""),
    ],
)
def test_a_block_that_raises_in_a_worker_raises_itself_here_from_the_kernel(
    forks, monkeypatch, stub, name, message
):
    # the parent runs the block again, so the exception is the kernel's own
    # and its traceback reaches the kernel's frame
    monkeypatch.setattr(scanner, "_scan_block", stub)
    with pytest.raises(Exception) as caught:
        sieve_scan(2, 300_000, 5, workers=2)
    assert type(caught.value).__qualname__ == name
    assert str(caught.value) == message
    assert traceback.extract_tb(caught.value.__traceback__)[-1].name == stub.__name__
    assert len(forks) == 2


def test_a_failure_met_only_in_the_workers_leaves_the_report_of_one_worker(forks, monkeypatch):
    expected = sieve_scan(2, 300_000, 5, step_cap=20).canonical_json()
    parent = os.getpid()
    real = scanner._scan_block

    def short_of_memory_in_a_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(scanner, "_scan_block", short_of_memory_in_a_worker)
    assert sieve_scan(2, 300_000, 5, workers=2, step_cap=20).canonical_json() == expected
    assert len(forks) == 4


def test_a_reply_longer_than_a_pipe_buffer_arrives_whole(forks):
    # 100,000 step cap failures: each 2^16 block's reply is three times
    # Linux's 65,536-byte pipe buffer, so it takes the parent several reads
    block = scanner._scan_block(2, (1 << 16) + 1, unresolved_leaves(0), 5, 2)
    assert len(marshal.dumps((0, block))) == 196_675
    report = sieve_scan(2, 400_000, 0, workers=2, step_cap=5)
    assert len(report.failures) == 100_000
    assert report.canonical_json() == sieve_scan(2, 400_000, 0, step_cap=5).canonical_json()
    assert len(forks) == 4


def test_dead_worker_is_a_domain_error_chained_from_the_pool(forks, monkeypatch):
    deaths = [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
    ]
    for die, how in deaths:
        monkeypatch.setattr(scanner, "_scan_block", lambda *args, die=die: die())
        with pytest.raises(CollatzDescentError) as caught:
            sieve_scan(2, 300_000, 5, workers=2)
        pid = int(str(caught.value).split()[2])
        assert str(caught.value) == f"scan worker {pid} ended with blocks unfinished ({how})"
        assert pid in forks[-2:]
        assert isinstance(caught.value.__cause__, EOFError)
    assert len(forks) == 4


def test_unstartable_pool_is_a_domain_error_chained_from_the_pool(unforkable):
    with pytest.raises(CollatzDescentError) as caught:
        sieve_scan(2, 300_000, 5, workers=2)
    assert str(caught.value) == "[Errno 11] Resource temporarily unavailable"
    assert isinstance(caught.value.__cause__, OSError)
    assert caught.value.__cause__.errno == errno.EAGAIN
    # the worker forked before the refusal is reaped (checked by the fixture)
    assert len(unforkable) == 1


def test_closing_a_pooled_scan_ends_its_workers_at_once(forks, monkeypatch):
    # every block but the first takes a minute: close() must not wait for them
    def slow_after_the_first(a, b, *rest):
        time.sleep(0 if a == 2 else 60)
        return 0, b - a + 1, [], []

    monkeypatch.setattr(scanner, "_scan_block", slow_after_the_first)
    results = scanner._block_results(2, 10**7, None, unresolved_leaves(0), 1, 2, 2)
    next(results)
    assert len(forks) == 2 and not any(map(reaped, forks))
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 5
    assert all(map(reaped, forks))


@pytest.mark.parametrize(
    "size, workers, block_size",
    [
        (300_000, 1, 1 << 16),  # the floor
        (300_000, 2, 1 << 16),
        (3_000_000, 1, 375_000),  # 8 blocks per worker
        (3_000_000, 2, 187_500),
        (3_000_001, 2, 187_501),  # rounded up: never a 17th block
        (8 << 20, 1, 1 << 20),  # at the cap
        (10**8, 1, 1 << 20),  # past it
        (10**8, 2, 1 << 20),
    ],
)
def test_blocks_are_sized_from_the_range_and_the_workers(forks, monkeypatch, size, workers, block_size):
    monkeypatch.setattr(scanner, "_scan_block", lambda a, b, *rest: (0, b - a + 1, [], []))
    lo = 10**12 + 12_345
    results = scanner._block_results(lo, lo + size - 1, None, unresolved_leaves(0), 1, workers, lo)
    lengths = [skipped for _, skipped, _, _ in results]
    assert lengths == [block_size] * (size // block_size) + [size % block_size] * (size % block_size > 0)
    # workers fork whenever there is more than one worker and one block
    assert len(forks) == 2 * (workers == 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_default_blocks_of_several_periods_report_as_blocks_of_2_16(workers):
    # 8 or 16 blocks of 375,000 or 187,500 numbers, each many 2^12 periods long
    expected = sieve_scan(2, 3_000_000, 12, block_size=1 << 16).canonical_json()
    assert sieve_scan(2, 3_000_000, 12, workers=workers).canonical_json() == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_range_has_no_blocks(workers):
    leaves = unresolved_leaves(5)
    assert list(scanner._block_results(5, 4, 65536, leaves, 1000, workers, 5)) == []


def test_one_worker_scan_streams_its_blocks(monkeypatch):
    # a stub kernel stops at the first block; a list of all 953,675 block
    # bounds of [2, 10^12], 2^20 numbers each, would take some 117 MiB before it
    monkeypatch.setattr(scanner, "_scan_block", stop_at_first_block)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBlock):
            sieve_scan(2, 10**12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_skipped_descents_stay_within_depth_plus_floor_depth_log3_2():
    # a class has j <= depth halvings and i O-steps with 3^i < 2^j
    for depth, bound in ((16, 26), (24, 39)):
        assert bound == depth + math.floor(depth * math.log(2, 3))
        leaves = unresolved_leaves(depth)
        assert max(i + j for i, j in zip(leaves.class_i, leaves.class_j)) == bound


def test_the_longest_class_is_the_deepest_pruning_level():
    # classes are pruned only at j = bitlen(3^i), one O-count a level, and
    # i + j grows with j: the record search's L and the scan's walk depth
    for depth in range(25):
        leaves = unresolved_leaves(depth)
        lengths = [i + j for i, j in zip(leaves.class_i, leaves.class_j)]
        i, j = scanner._deepest_pruning_level(depth)
        assert i + j == max(lengths, default=0), depth
        assert j == scanner._walk_depth(depth) == max(leaves.class_j, default=0), depth


def _dense_scan_block(lo, hi, resolved, mask, step_cap, walk):
    """The scan before the leaf walk and the halving runs: a 2^depth byte
    table, every n visited and walked one step per loop turn."""
    verified = 0
    skipped = 0
    failures = []
    max_steps = 0
    max_n = None
    for n in range(lo, hi + 1):
        if resolved[n & mask]:
            skipped += 1
            continue
        try:
            steps = walk(n, step_cap)
        except CycleDetected:
            failures.append((n, "cycle detected"))
            continue
        except StepCapExceeded:
            failures.append((n, "step cap exceeded"))
            continue
        verified += 1
        if steps > max_steps:
            max_steps = steps
            max_n = n
    return verified, skipped, failures, max_steps, max_n


def dense_reference_scan(lo, hi, depth, step_cap=DEFAULT_STEP_CAP, walk=descent_length_reference):
    """Canonical JSON of a scan through the dense-table kernel, as one block,
    every leftover walked by walk."""
    if depth == 0:
        resolved, mask = b"\x00", 0
    else:
        table = bytearray(b"\x01") * (1 << depth)
        for r in dense_classification(depth).unresolved_residues:
            table[r] = 0
        resolved, mask = bytes(table), (1 << depth) - 1
    verified, skipped, failures, max_steps, max_n = _dense_scan_block(
        lo, hi, resolved, mask, step_cap, walk
    )
    return ScanReport(
        lo=lo,
        hi=hi,
        depth=depth,
        verified_count=verified,
        skipped_count=skipped,
        failures=tuple(failures),
        max_descent_steps=max_steps,
        max_descent_n=max_n,
        wall_time=0.0,
        setup_time=0.0,
    ).canonical_json()


@pytest.mark.parametrize("depth", [0, 1, 5, 16, 20])
def test_leftover_kernel_matches_dense_reference(depth):
    lo, hi = 2, 200_000
    expected = dense_reference_scan(lo, hi, depth)
    for workers in (1, 2):
        for block_size in (4096, 70001):
            rep = sieve_scan(lo, hi, depth, workers=workers, block_size=block_size)
            assert rep.canonical_json() == expected, (workers, block_size)


def test_leftover_kernel_matches_dense_reference_near_10_12():
    # unaligned, and far shorter than one 2^22 period; near 2^70 the values
    # are multi-digit integers in the kernel's bit-length landing arithmetic
    for lo in (10**12 + 12_345, 2**70 + 12_345):
        hi = lo + 300_000
        expected = dense_reference_scan(lo, hi, 22)
        for block_size in (4096, 70001):
            rep = sieve_scan(lo, hi, 22, block_size=block_size)
            assert rep.canonical_json() == expected, (lo, block_size)


@pytest.mark.parametrize("step_cap", [10, 17, 40])
def test_leftover_kernel_matches_dense_reference_under_a_step_cap(step_cap):
    # at depth 16 every leaf skips a + 16 >= 27 steps: cap 17 fails every
    # leftover inside its prefix, cap 40 resumes them all; at depth 7 the
    # leaves with a = 5 skip 12 steps and some descend on the 13th
    lo, hi = 2, 30_000
    for depth in (0, 5, 7, 16):
        rep = sieve_scan(lo, hi, depth, block_size=4096, step_cap=step_cap)
        assert rep.canonical_json() == dense_reference_scan(lo, hi, depth, step_cap)
    assert sieve_scan(lo, hi, 16, step_cap=17).verified_count == 0


def test_sieve_scan_depth_bounds():
    with pytest.raises(DepthTooLarge, match=r"^depth 25 exceeds the configured maximum 24$"):
        sieve_scan(2, 100, 25)
    with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
        sieve_scan(2, 100, -1)


# the depths up to 22 at which no class is pruned: no i has bitlen(3^i) = j
DOUBLING_DEPTHS = (3, 6, 9, 11, 14, 17, 19, 22)


@pytest.mark.parametrize("depth", DOUBLING_DEPTHS)
def test_a_doubling_depth_scans_as_a_walk_to_that_depth(depth, monkeypatch):
    # a cap of 150 fails 78 leftovers of [2, 3*10^5], 30 of them with a
    # failed ancestor, which the ancestor rule would count through it; from
    # the first failing block on the scan walks every leftover again, on
    # the residues of the level it walked to, depth - 1
    walk_depths = [scanner._walk_depth(d) for d in range(depth - 1, depth + 2)]
    assert walk_depths == [depth - 1, depth - 1, depth + 1]
    walked = []
    real = scanner.unresolved_leaves

    def recording(d):
        walked.append(d)
        return real(d)

    monkeypatch.setattr(scanner, "unresolved_leaves", recording)
    scan = sieve_scan(2, 300_000, depth, block_size=10_000, step_cap=150)
    monkeypatch.setattr(scanner, "_walk_depth", lambda d: d)
    full = sieve_scan(2, 300_000, depth, block_size=10_000, step_cap=150)
    assert walked == [depth - 1, depth]
    assert scan.depth == depth and len(scan.failures) == 78
    assert scan.canonical_json() == full.canonical_json()


def trace_oracle(lo, hi, depth):
    """A scan's canonical report from descent_trace, every n traced in full."""
    # n is certified by a class iff its first descent needs at most depth halvings
    verified = skipped = max_steps = 0
    max_n = None
    for n in range(lo, hi + 1):
        tr = descent_trace(n)
        if tr.pattern.j <= depth:
            skipped += 1
            continue
        verified += 1
        if len(tr) > max_steps:
            max_steps, max_n = len(tr), n
    return {
        "lo": lo,
        "hi": hi,
        "depth": depth,
        "verified_count": verified,
        "skipped_count": skipped,
        "failures": [],
        "max_descent_steps": max_steps,
        "max_descent_n": max_n,
    }


@settings(max_examples=40)
@given(
    lo=st.integers(min_value=2, max_value=2**40),
    size=st.integers(min_value=1, max_value=3000),
    depth=st.integers(min_value=0, max_value=12),
    workers=st.sampled_from([1, 2]),
    block_size=st.integers(min_value=1, max_value=5000),
)
def test_random_scans_match_a_trace_oracle(lo, size, depth, workers, block_size):
    hi = lo + size - 1
    rep = sieve_scan(lo, hi, depth, workers=workers, block_size=block_size)
    assert rep.canonical() == trace_oracle(lo, hi, depth)


# ---------------------------------------------------------------------------
# the depth picked from the range size


def test_sieve_depth_grows_with_the_range_up_to_its_cap():
    sizes = list(range(1, 5000)) + [2**e + d for e in range(13, 81) for d in (-1, 0, 1)]
    depths = [scanner._sieve_depth(size) for size in sizes]
    cap = scanner._sieve_depth(2**80)
    assert cap <= scanner.MAX_DEPTH
    assert all(0 <= d <= cap for d in depths)
    assert all(a <= b for a, b in zip(depths, depths[1:]))
    assert depths[:3] == [0, 0, 0]  # ranges of 1-3 numbers walk every n
    assert scanner._sieve_depth(199_999) == 16  # the records benchmark's range


@settings(max_examples=40)
@given(
    lo=st.one_of(
        st.integers(min_value=2, max_value=5000),
        st.integers(min_value=10**12, max_value=10**12 + 5000),
    ),
    size=st.integers(min_value=1, max_value=3000),
    workers=st.sampled_from([1, 2]),
)
def test_scan_without_a_depth_matches_a_trace_oracle_at_the_picked_depth(lo, size, workers):
    hi = lo + size - 1
    depth = scanner._sieve_depth(size)
    rep = sieve_scan(lo, hi, workers=workers)
    assert rep.canonical() == trace_oracle(lo, hi, depth)
    assert rep.canonical_json() == sieve_scan(lo, hi, depth, workers=workers).canonical_json()


@pytest.mark.parametrize("lo, size", [(2, 199_999), (10**12 + 12_345, 300_001)])
def test_scan_without_a_depth_matches_the_dense_reference_at_the_picked_depth(lo, size):
    hi = lo + size - 1
    depth = scanner._sieve_depth(size)
    rep = sieve_scan(lo, hi)
    assert rep.depth == depth
    assert rep.canonical_json() == dense_reference_scan(lo, hi, depth)
    assert rep.canonical_json() == sieve_scan(lo, hi, depth).canonical_json()


def test_setup_time_covers_the_leaf_walk(monkeypatch):
    real = scanner.unresolved_leaves

    def slow_leaves(depth):
        time.sleep(0.2)
        return real(depth)

    monkeypatch.setattr(scanner, "unresolved_leaves", slow_leaves)
    rep = sieve_scan(2, 100, 5)
    assert rep.setup_time >= 0.2
    assert rep.wall_time < 0.2
    [summary] = scan_report_tables(rep)
    wall_ms = summary.rows[0][summary.columns.index("Wall ms")]
    assert wall_ms == int((rep.setup_time + rep.wall_time) * 1000) >= 200


@pytest.mark.parametrize("lo", [2, 27, 10**12])
@pytest.mark.parametrize("size", [1, 3])
def test_record_search_of_a_few_numbers_walks_every_n(lo, size):
    # ranges of 1-3 numbers walk to depth 0, which has no class
    hi = lo + size - 1
    assert scanner._sieve_depth(size) == 0
    expected = reference_records(lo, hi, DEFAULT_STEP_CAP)
    assert record_search(lo, hi) == expected
    assert expected == trace_records(lo, hi)


@pytest.mark.parametrize("lo, hi", [(2, 10**6), (10**12, 10**12 + 300_000)])
def test_record_search_does_not_depend_on_the_depth(lo, hi, monkeypatch):
    expected = record_search(lo, hi)
    for depth in (12, 16, 20):
        monkeypatch.setattr(scanner, "_sieve_depth", lambda size: depth)
        assert record_search(lo, hi) == expected, depth


def test_record_search_examples():
    assert record_search(2, 2) == [(2, 1)]
    records = record_search(2, 10)
    assert (7, 11) in records
    assert record_search(2, 30)[-1] == (27, 96)


def trace_records(lo, hi):
    """Running maxima of descent_trace's length, every n traced in full."""
    records, best = [], 0
    for n in range(lo, hi + 1):
        steps = len(descent_trace(n))
        if steps > best:
            best = steps
            records.append((n, steps))
    return records


def test_record_search_matches_trace_maxima():
    assert record_search(2, 5000) == trace_records(2, 5000)


def reference_records(lo, hi, step_cap):
    """Running maxima over the one-step reference kernel, every n walked from its start."""
    records, best = [], 0
    for n in range(lo, hi + 1):
        steps = descent_length_reference(n, step_cap)
        if steps > best:
            best = steps
            records.append((n, steps))
    return records


def outcome(search, *args):
    """The records, or the type and message of the exception that ended the search."""
    try:
        return search(*args)
    except (CycleDetected, StepCapExceeded) as exc:
        return type(exc), str(exc)


@settings(max_examples=60)
@given(
    lo=st.one_of(
        st.integers(min_value=2, max_value=3000),
        # straddling 5 * 2^16, a period boundary at every depth up to 16
        st.integers(min_value=5 * 2**16 - 3000, max_value=5 * 2**16 - 1),
        st.integers(min_value=10**12, max_value=10**12 + 3000),
        st.integers(min_value=2**70, max_value=2**70 + 3000),
    ),
    size=st.integers(min_value=1, max_value=4000),
    step_cap=st.integers(min_value=1, max_value=200),
)
# 3000 numbers walk to depth 10, whose longest class takes 16 steps: a cap
# below it, at it and past it
@example(lo=2, size=3000, step_cap=15)
@example(lo=2, size=3000, step_cap=16)
@example(lo=2, size=3000, step_cap=96)
# the record 703 (132 steps) is the last n of the range
@example(lo=2, size=702, step_cap=132)
# from 10^12 + 1192 the maximum reaches 24 steps, then 10^12 + 1247 sets 26
@example(lo=10**12 + 1192, size=100, step_cap=200)
@example(lo=10**12 + 1192, size=100, step_cap=25)
@example(lo=10**12 + 1192, size=100, step_cap=26)
def test_record_search_matches_a_running_maximum_over_every_n(lo, size, step_cap):
    hi = lo + size - 1
    expected = outcome(reference_records, lo, hi, step_cap)
    assert outcome(record_search, lo, hi, step_cap) == expected


def brute_force_block(lo, hi, depth):
    """_scan_block's result through the one-step reference kernel, each leftover walked in full."""
    open_residues = set(unresolved_leaves(depth).residues)
    mask = (1 << depth) - 1
    leftovers = [n for n in range(lo, hi + 1) if n & mask in open_residues]
    maxima, best = [], 0
    for n in leftovers:
        steps = descent_length_reference(n)
        if steps > best:
            best = steps
            maxima.append((n, steps))
    return len(leftovers), hi - lo + 1 - len(leftovers), [], maxima


@pytest.mark.parametrize(
    "lo, size, depth",
    [
        (2, 10_000, 5),  # about 300 members per leaf
        (10**12 + 12_345, 1 << 16, 16),  # one unaligned period, as records runs it
        (7 * 4096 - 1000, 3000, 12),  # wraps past a period boundary
    ],
)
def test_block_maxima_are_the_running_maxima_of_its_leftovers(lo, size, depth):
    # with the block's own start as the scan's, a leftover whose ancestor
    # is in the block is counted through it, and never sets a running maximum
    hi = lo + size - 1
    result = scanner._scan_block(lo, hi, unresolved_leaves(depth), DEFAULT_STEP_CAP, lo)
    expected = brute_force_block(lo, hi, depth)
    assert result == expected
    assert len(expected[3]) > 1


@pytest.mark.parametrize("lo", [2, 10**12])
@pytest.mark.parametrize("depth", [5, 16])
def test_scan_records_are_the_running_maxima_of_every_leftover(depth, lo, forks):
    # 150,001 numbers: three 2^16 blocks by default, 586 blocks of 256
    hi = lo + 150_000
    expected = brute_force_block(lo, hi, depth)[3]
    assert len(expected) >= 4
    leaves = unresolved_leaves(depth)
    for workers in (1, 2):
        for block_size in (256, None):
            blocks = scanner._block_results(lo, hi, block_size, leaves, DEFAULT_STEP_CAP, workers, lo)
            _, _, failures, records = reduce(scanner._fold, blocks)
            assert failures == []
            assert records == expected, (workers, block_size)
    assert len(forks) == 2 * 2


def fold(tallies):
    """The one-pass fold of copies of tallies: _fold extends its left argument."""
    return reduce(scanner._fold, marshal.loads(marshal.dumps(tallies)))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.one_of(
        st.integers(min_value=2, max_value=3000),
        st.integers(min_value=10**12, max_value=10**12 + 3000),
    ),
    size=st.integers(min_value=1, max_value=3000),
    depth=st.integers(min_value=0, max_value=16),
    step_cap=st.integers(min_value=1, max_value=300),
    block_size=st.integers(min_value=1, max_value=1000),
    cuts=st.sets(st.integers(min_value=0, max_value=10**6), max_size=20),
)
# a cap of 96 fails leftovers in 3 of the 30 blocks, 703 in the eighth
@example(lo=2, size=3000, depth=5, step_cap=96, block_size=100, cuts={3, 7, 8, 20})
def test_folding_block_tallies_in_any_grouping_gives_the_one_pass_tally(
    lo, size, depth, step_cap, block_size, cuts
):
    hi = lo + size - 1
    leaves = unresolved_leaves(depth)
    tallies = list(scanner._block_results(lo, hi, block_size, leaves, step_cap, 1, lo))
    bounds = [0, *sorted({c % len(tallies) for c in cuts} - {0}), len(tallies)]
    parts = [fold(tallies[a:b]) for a, b in zip(bounds, bounds[1:])]
    one_pass = fold(tallies)
    assert fold(parts) == one_pass
    # the tally of one block over the whole range, with the same start
    assert one_pass == scanner._scan_block(lo, hi, leaves, step_cap, lo)


def test_a_failing_record_search_stops_at_its_first_failing_block(monkeypatch):
    # past the prefix to 27, [28, 10^7] runs in 10 blocks of 2^20; 703 fails in the first
    blocks = []
    scan_block = scanner._scan_block

    def counted(*args):
        blocks.append(args[:2])
        return scan_block(*args)

    monkeypatch.setattr(scanner, "_scan_block", counted)
    with pytest.raises(StepCapExceeded) as raised:
        record_search(2, 10**7, step_cap=96)
    assert str(raised.value) == "no value below 703 within 96 steps"
    assert len(blocks) == 1


@pytest.mark.parametrize("lo, hi", [(2, 10**6), (10**12, 10**12 + 10**5)])
@pytest.mark.parametrize("step_cap", [30, 96, 150, 250])
def test_a_failing_record_search_raises_at_the_scans_first_failure(lo, hi, step_cap):
    failures = sieve_scan(lo, hi, step_cap=step_cap).failures
    assert failures
    with pytest.raises((CycleDetected, StepCapExceeded)) as expected:
        descent_length(failures[0][0], step_cap)
    with pytest.raises(type(expected.value)) as raised:
        record_search(lo, hi, step_cap)
    assert str(raised.value) == str(expected.value)


def test_blocks_from_the_first_failing_one_on_run_again_with_every_leftover_walked(monkeypatch):
    # a fake cycle at 87399, a leftover of the second 2^16 block of
    # [2, 300000]: the first block runs once with the scan's start as its
    # base, the second with it and then with hi + 1, the rule off, and each
    # later block with hi + 1 alone
    calls = []
    scan_block = scanner._scan_block

    def recorded(lo, hi, leaves, step_cap, base):
        calls.append((lo, hi, base))
        return scan_block(lo, hi, leaves, step_cap, base)

    monkeypatch.setattr(scanner, "_scan_block", recorded)
    sieve_scan(2, 300_000, 16)
    starts = [2 + (k << 16) for k in range(5)]
    blocks = [(a, min(a + (1 << 16) - 1, 300_000)) for a in starts]
    assert calls == [(*block, 2) for block in blocks]

    real = scanner.descent_length

    def cycle_at_87399(n, *args):
        if n == 87_399:
            raise CycleDetected("trajectory of 87399 returned to its start")
        return real(n, *args)

    monkeypatch.setattr(scanner, "descent_length", cycle_at_87399)
    calls.clear()
    rep = sieve_scan(2, 300_000, 16)
    assert rep.failures == ((87_399, "cycle detected"),)
    assert calls == [(*blocks[0], 2), (*blocks[1], 2)] + [(*block, 300_001) for block in blocks[1:]]


def test_record_search_lists_the_glide_records_to_10_6():
    # Roosendaal's table of glide records (http://www.ericr.nl/wondrous/glidrecs.html);
    # past 27 the search folds the maxima of 8 blocks of 124,997 numbers
    assert record_search(2, 10**6) == [
        (2, 1),
        (3, 6),
        (7, 11),
        (27, 96),
        (703, 132),
        (10087, 171),
        (35655, 220),
        (270271, 267),
        (362343, 269),
        (381727, 282),
        (626331, 287),
    ]


def test_record_search_near_10_12_matches_a_running_maximum_over_every_n():
    lo, hi = 10**12, 10**12 + 300_000  # 17 records, the last 2 in the third block
    assert record_search(lo, hi) == reference_records(lo, hi, DEFAULT_STEP_CAP)


def test_block_refuses_a_leftover_count_off_its_leaf_arrays(monkeypatch):
    # one leaf too few at the block's start: a depth-22 period spans the block
    monkeypatch.setattr(scanner, "bisect_left", lambda *args: bisect_left(*args) + 1)
    with pytest.raises(
        AssertionError,
        match=r"^block \[1000000000000, 1000000065535\] visited 1478 leftovers, expected 1479$",
    ):
        sieve_scan(10**12, 10**12 + 99_999, 22)


def test_scan_refuses_blocks_that_do_not_cover_the_range(monkeypatch):
    real = scanner._block_results
    monkeypatch.setattr(scanner, "_block_results", lambda *args: list(real(*args))[:-1])
    with pytest.raises(AssertionError, match="^scan accounting does not cover the range$"):
        sieve_scan(2, 300_000, 16)


def test_record_search_refuses_a_block_failure_that_a_full_walk_does_not_repeat(monkeypatch):
    def fail_at_the_start(a, b, *rest):
        return b - a, 0, [(a, "cycle detected")], []

    # at depth 8 the longest class takes 13 steps, so the every-n prefix
    # ends at 27 and the scan starts at 28, which descends in 1 step; each
    # block accounts for all its numbers, so the scan's own check passes
    monkeypatch.setattr(scanner, "_scan_block", fail_at_the_start)
    assert scanner._sieve_depth(999) == 8
    with pytest.raises(AssertionError, match="^leftover 28 failed only in its block$"):
        record_search(2, 1000)


def test_a_cycle_in_a_block_is_a_scan_failure_and_a_record_search_error(forks, monkeypatch):
    # 703 is a leftover at the depth [2, 1000] picks, in the block [702, 801]
    real = scanner.descent_length

    def cycle_at_703(n, *args):
        if n == 703:
            raise CycleDetected("trajectory of 703 returned to its start")
        return real(n, *args)

    monkeypatch.setattr(scanner, "descent_length", cycle_at_703)
    depth = scanner._sieve_depth(999)
    assert 703 & ((1 << depth) - 1) in unresolved_leaves(depth).residues
    for workers in (1, 2):
        rep = sieve_scan(2, 1000, depth, workers=workers, block_size=100)
        assert rep.failures == ((703, "cycle detected"),)
        assert rep.verified_count + rep.skipped_count == 998
    assert len(forks) == 4
    with pytest.raises(CycleDetected, match="^trajectory of 703 returned to its start$"):
        record_search(2, 1000)


def test_record_search_ends_at_the_scan_maximum():
    # 287 steps exceed every class length at depth 16, so both report the
    # smallest n with the longest descent
    rep = sieve_scan(2, 10**6, 16)
    assert (rep.max_descent_n, rep.max_descent_steps) == (626331, 287)
    assert record_search(2, 10**6)[-1] == (626331, 287)


def test_record_search_walks_only_the_open_leaves_past_27(monkeypatch):
    calls = []
    real = scanner.descent_length

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(scanner, "descent_length", counting)
    assert record_search(2, 200_000)[-1] == (35655, 220)
    leaves = unresolved_leaves(scanner._sieve_depth(200_000 - 1))
    depth, residues = leaves.depth, leaves.residues
    mask = (1 << depth) - 1

    def members_upto(x):
        return (x >> depth) * len(residues) + bisect_right(residues, x & mask)

    # 2..27 are walked until 27 sets 96 > 26 steps; then the scan of
    # [28, 200000] walks only leaf members, each once, but for those counted
    # through an ancestor in [28, n): 31's, 27, is in the prefix, so 31 is walked
    leftovers = members_upto(200_000) - members_upto(27)
    assert len(calls) <= 26 + leftovers < 200_000 // 20
    open_residues = set(residues)
    assert calls[:26] == list(range(2, 28))
    assert 31 in calls and ancestor(31) == (27, 5)
    assert sorted(calls[26:]) == [
        n
        for n in range(28, 200_001)
        if n & mask in open_residues and (ancestor(n) is None or ancestor(n)[0] < 28)
    ]


# ---------------------------------------------------------------------------
# the ancestor sieve


def ancestor(n):
    """The ancestor m < n of an odd n whose first descent passes through n,
    and the steps from m to n: (2n - 1)/3 and 2 when n % 3 == 2, (8n - 5)/9
    and 5 when n % 9 == 4, else None."""
    if n % 3 == 2:
        return (2 * n - 1) // 3, 2
    if n % 9 == 4:
        return (8 * n - 5) // 9, 5
    return None


@pytest.mark.parametrize("depth", [5, 12, 16])
def test_the_ancestor_of_a_leftover_that_meets_a_rule_is_a_leftover(depth):
    # m's first halvings are those of OE (resp. OEOEE), then n's: each of
    # m's prefix margins is 2^(1+b) <= 2*3^a < 3^(1+a) (resp. 8*2^b < 9*3^a)
    # where n's is 2^b <= 3^a, so m's residue stays open as long as n's does
    leaves = unresolved_leaves(depth)
    open_residues = set(leaves.residues)
    mask = (1 << depth) - 1
    met = 0
    for r in leaves.residues:
        # 18 members run twice through every residue mod 9, since 2^depth is prime to 3
        for n in range(r, r + (18 << depth), 1 << depth):
            if ancestor(n) is None:
                continue
            m, steps = ancestor(n)
            values = [m]
            for _ in range(steps):
                values.append(col_step(values[-1])[0])
            assert values[-1] == n and min(values[1:]) > m, (n, values)
            assert m & mask in open_residues, (depth, r, n, m)
            met += 1
    assert met == 8 * len(leaves.residues)


def test_every_ancestor_certified_leftover_to_10_6_descends_within_its_ancestors_steps(
    monkeypatch,
):
    walked = set()
    real = scanner.descent_length

    def recording(n, *args):
        walked.add(n)
        return real(n, *args)

    monkeypatch.setattr(scanner, "descent_length", recording)
    depth, hi = 16, 10**6
    leaves = unresolved_leaves(depth)
    verified, _, failures, maxima = scanner._scan_block(2, hi, leaves, DEFAULT_STEP_CAP, 2)
    open_residues, mask = set(leaves.residues), (1 << depth) - 1
    leftovers = [n for n in range(2, hi + 1) if n & mask in open_residues]
    assert (verified, failures, maxima[-1]) == (len(leftovers), [], (626331, 287))
    # from a scan of [2, ...], every leftover that meets a rule has its ancestor in range
    certified = [n for n in leftovers if n not in walked]
    assert certified == [n for n in leftovers if ancestor(n)]
    assert len(certified) > 0.4 * len(leftovers)
    for n in certified:
        m, steps = ancestor(n)
        trace = descent_trace(m)
        assert trace.values[steps - 1] == n
        assert len(descent_trace(n)) <= len(trace) - steps, n


def failing_at(numbers, walk):
    """walk, with a step cap hit at each of numbers instead."""

    def mutated(n, step_cap=DEFAULT_STEP_CAP, *rest):
        if n in numbers:
            raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
        return walk(n, step_cap, *rest)

    return mutated


@pytest.mark.parametrize("failing", [{703}, {703, 1055}, {27, 31}])
@pytest.mark.parametrize("depth", [5, 16])
def test_the_descendants_of_a_failed_ancestor_are_walked_after_the_merge(
    failing, depth, forks, monkeypatch
):
    # 703 % 4 == 3, so 1055 = (3*703 + 1)/2 meets the mod-3 rule through
    # 703, two 256-number blocks on; with 703 failed, 1055's 130 steps are
    # the longest descent of the range.  27 % 16 == 11, so 31 = (9*27 + 5)/8
    # meets the mod-9 rule through 27
    lo, hi = 2, 1300
    mask = (1 << depth) - 1
    assert {n & mask for n in (703, 1055, 27, 31)} <= set(unresolved_leaves(depth).residues)
    assert (ancestor(1055), ancestor(31)) == ((703, 2), (27, 5))
    expected = dense_reference_scan(
        lo, hi, depth, walk=failing_at(failing, descent_length_reference)
    )
    monkeypatch.setattr(scanner, "descent_length", failing_at(failing, scanner.descent_length))
    for workers in (1, 2):
        rep = sieve_scan(lo, hi, depth, workers=workers, block_size=256)
        assert [n for n, _ in rep.failures] == sorted(failing)
        assert rep.canonical_json() == expected, workers
    if failing == {703}:
        assert (rep.max_descent_n, rep.max_descent_steps) == (1055, 130)
    assert len(forks) == 4
    message = f"^no value below {min(failing)} within 100000 steps$"
    with pytest.raises(StepCapExceeded, match=message):
        record_search(lo, hi)


def test_a_cycle_met_after_the_merge_is_a_scan_failure(forks, monkeypatch):
    # 87399 % 4 == 3: a leftover of the second 2^16 block with no ancestor,
    # walked there, and 131099 = (3*87399 + 1)/2 a leftover of the third,
    # which the ancestor rule counts through it; with both cycling, the
    # second block fails, and 131099 fails when the scan walks every
    # leftover from that block's start on
    m, n = 87_399, 131_099
    assert {m & 0xFFFF, n & 0xFFFF} <= set(unresolved_leaves(16).residues)
    assert ancestor(m) is None and ancestor(n) == (m, 2)
    assert (m - 2) >> 16 == 1 and (n - 2) >> 16 == 2
    real = scanner.descent_length

    def cycle_at_m_and_n(k, *args):
        if k in (m, n):
            raise CycleDetected(f"trajectory of {k} returned to its start")
        return real(k, *args)

    assert sieve_scan(2, 300_000, 16).verified_count == 9_675
    expected = dense_reference_scan(2, 300_000, 16, walk=cycle_at_m_and_n)
    monkeypatch.setattr(scanner, "descent_length", cycle_at_m_and_n)
    for workers in (1, 2):
        rep = sieve_scan(2, 300_000, 16, workers=workers)
        assert rep.failures == ((m, "cycle detected"), (n, "cycle detected")), workers
        assert rep.verified_count == 9_673, workers
        assert rep.canonical_json() == expected, workers
    assert len(forks) == 4


def test_a_failure_row_carries_its_exceptions_reason(forks):
    # a cap of 96 fails 175 leftovers of [2, 10^5]: with the ancestor rule
    # on, the blocks walk 100 of them and count the other 75 through a
    # failed ancestor, so the scan walks all 175 in its second pass, from
    # the first block on
    assert (CycleDetected.reason, StepCapExceeded.reason) == ("cycle detected", "step cap exceeded")
    leaves = unresolved_leaves(scanner._walk_depth(16))
    _, _, block_failures, _ = reduce(scanner._fold, scanner._block_results(2, 10**5, None, leaves, 96, 1, 2))
    assert len(block_failures) == 100
    for workers in (1, 2):
        rep = sieve_scan(2, 10**5, 16, workers=workers, step_cap=96)
        assert len(rep.failures) == 175, workers
        for n, reason in rep.failures:
            with pytest.raises((CycleDetected, StepCapExceeded)) as raised:
                descent_length(n, 96)
            assert raised.value.reason == reason, n
    assert len(forks) == 4


def test_twin_of_27():
    rec = twin_check(27)
    assert rec.twin == 576460752303423515
    assert rec.twin_first_lower == 450283905890997386 == 3**37 + 23
    assert (rec.i, rec.j) == (37, 59)


def test_twin_of_3():
    rec = twin_check(3)
    assert rec.twin == 19
    assert rec.first_lower == 2
    assert rec.twin_first_lower == 11


def test_twin_rejects_even_and_tiny():
    with pytest.raises(ValueError):
        twin_check(4)
    with pytest.raises(ValueError):
        twin_check(1)


def test_twin_walk_rejects_a_twin_that_leaves_the_pattern(monkeypatch):
    # one halving too few: the twin n + 2^(j-1) drifts off n's pattern
    def short_trace(n, step_cap):
        tr = descent_trace(n, step_cap)
        return tr._replace(pattern=tr.pattern._replace(j=tr.pattern.j - 1))

    monkeypatch.setattr(scanner, "descent_trace", short_trace)
    for n, step in ((3, 6), (7, 11), (27, 96), (97, 3)):
        with pytest.raises(AssertionError, match=f"parity mismatch at step {step} of twin of {n}$"):
            twin_check(n)


@pytest.mark.parametrize(
    "step, message",
    [
        (5, r"^twin gap 648518346341351426 != 3\^2\*2\^56 before step 6$"),
        (96, r"^twin of 27 did not land at first_lower \+ 3\^37$"),
    ],
)
def test_twin_walk_checks_the_gap_and_the_landing(monkeypatch, step, message):
    # the twin's value is pushed 2 off its path after the given step, which
    # keeps its parity, so only the gap before the next step, or the landing
    # after the last, can catch it
    steps = []

    def drift(v):
        steps.append(v)
        v2, letter = col_step(v)
        return v2 + 2 * (len(steps) == step), letter

    monkeypatch.setattr(scanner, "col_step", drift)
    with pytest.raises(AssertionError, match=message):
        twin_check(27)


def test_twin_law_holds_up_to_10k():
    for n in range(3, 10_001, 2):
        rec = twin_check(n)
        assert rec.twin_first_lower == rec.first_lower + 3**rec.i
