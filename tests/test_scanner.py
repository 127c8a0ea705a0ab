"""Depth classification, sieve scans, record search and twins."""

from __future__ import annotations

import dataclasses
import math
import time
import tracemalloc
from concurrent.futures import Executor, Future
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatz_descent import (
    DEFAULT_STEP_CAP,
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
from collatz_descent.reports import scan_report_tables
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


class InlinePool(Executor):
    """A stand-in process pool that runs the initializer and each task in
    this process and counts the futures whose result is not taken yet."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.untaken = self.most_untaken = 0
        initializer(*initargs)

    def submit(self, fn, *args):
        pool = self

        class Taken(Future):
            def result(self, timeout=None):
                pool.untaken -= 1
                return super().result(timeout)

        future = Taken()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        self.untaken += 1
        self.most_untaken = max(self.most_untaken, self.untaken)
        return future


@pytest.fixture
def inline_pools(monkeypatch):
    """Route sieve_scan's pools through InlinePool; returns the pools made."""
    pools = []

    def make(*args, **kwargs):
        pools.append(InlinePool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(scanner, "ProcessPoolExecutor", make)
    monkeypatch.setattr(scanner, "_WORKER_STATE", {})
    return pools


def test_pool_never_outnumbers_the_blocks(inline_pools):
    rep = sieve_scan(2, 70_000, 5, workers=4096)  # two blocks of 2^16
    assert [p.max_workers for p in inline_pools] == [2]
    assert rep.canonical_json() == sieve_scan(2, 70_000, 5).canonical_json()
    sieve_scan(2, 70_000, 5, workers=3, block_size=10_000)  # seven blocks
    assert [p.max_workers for p in inline_pools] == [2, 3]


def test_pool_holds_at_most_two_blocks_per_worker_in_flight(inline_pools, monkeypatch):
    # 1,526 blocks of 2^16; an eager submission would hold them all at once
    monkeypatch.setattr(scanner, "_scan_block", lambda a, b, *rest: (0, b - a + 1, [], 0, None))
    rep = sieve_scan(2, 10**8, 0, workers=2)
    assert rep.skipped_count == 10**8 - 1
    [pool] = inline_pools
    assert pool.untaken == 0
    assert pool.most_untaken == 2 * pool.max_workers == 4


class FirstBlock(Exception):
    """Raised by a stub kernel to stop a scan at its first block."""


def stop_at_first_block(*args):
    raise FirstBlock


def test_pool_scans_a_range_too_big_to_count_in_a_machine_word(inline_pools, monkeypatch):
    # [2, 2^80] holds more blocks than len() of a range can report
    monkeypatch.setattr(scanner, "_scan_block", stop_at_first_block)
    with pytest.raises(FirstBlock):
        sieve_scan(2, 2**80, 0, workers=2)
    assert [p.max_workers for p in inline_pools] == [2]


def test_one_worker_scan_streams_its_blocks(monkeypatch):
    # a stub kernel stops at the first block; a list of all 152,588 block
    # bounds of [2, 10^10] would take some 19 MiB before it
    monkeypatch.setattr(scanner, "_scan_block", stop_at_first_block)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBlock):
            sieve_scan(2, 10**10, 0)
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


def _dense_scan_block(lo, hi, resolved, mask, step_cap):
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
            steps = descent_length_reference(n, step_cap)
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


def dense_reference_scan(lo, hi, depth, step_cap=DEFAULT_STEP_CAP):
    """Canonical JSON of a scan through the dense-table kernel, as one block."""
    if depth == 0:
        resolved, mask = b"\x00", 0
    else:
        table = bytearray(b"\x01") * (1 << depth)
        for r in dense_classification(depth).unresolved_residues:
            table[r] = 0
        resolved, mask = bytes(table), (1 << depth) - 1
    verified, skipped, failures, max_steps, max_n = _dense_scan_block(
        lo, hi, resolved, mask, step_cap
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
    with pytest.raises(DepthTooLarge):
        sieve_scan(2, 100, 25)
    with pytest.raises(ValueError):
        sieve_scan(2, 100, -1)


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
    rep = sieve_scan(lo, hi, depth, workers=workers, block_size=block_size)
    assert rep.canonical() == {
        "lo": lo,
        "hi": hi,
        "depth": depth,
        "verified_count": verified,
        "skipped_count": skipped,
        "failures": [],
        "max_descent_steps": max_steps,
        "max_descent_n": max_n,
    }


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


def test_record_search_examples():
    assert record_search(2, 2) == [(2, 1)]
    records = record_search(2, 10)
    assert (7, 11) in records
    assert record_search(2, 30)[-1] == (27, 96)


def test_record_search_matches_trace_maxima():
    expected, best = [], 0
    for n in range(2, 5001):
        steps = len(descent_trace(n))
        if steps > best:
            best = steps
            expected.append((n, steps))
    assert record_search(2, 5000) == expected


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
        return dataclasses.replace(tr, pattern=dataclasses.replace(tr.pattern, j=tr.pattern.j - 1))

    monkeypatch.setattr(scanner, "descent_trace", short_trace)
    for n, step in ((3, 6), (7, 11), (27, 96), (97, 3)):
        with pytest.raises(AssertionError, match=f"parity mismatch at step {step} of twin of {n}$"):
            twin_check(n)


def test_twin_law_holds_up_to_10k():
    for n in range(3, 10_001, 2):
        rec = twin_check(n)
        assert rec.twin_first_lower == rec.first_lower + 3**rec.i
