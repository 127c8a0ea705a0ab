"""Depth classification, sieve-accelerated range verification and twin checks.

classify_depth collects every minimal descent class with at most J halving
steps; the resolved residues mod 2^J then let a range scan skip numbers
whose descent is already certified, simulating only the leftovers.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .core import DEFAULT_STEP_CAP, descent_length, descent_trace
from .errors import CycleDetected, DepthTooLarge, StepCapExceeded
from .patterns import (
    DescentPattern,
    ResidueClass,
    iter_minimal_pattern_texts,
    residue_for_pattern,
)

# A depth-J residue table occupies 2^J slots; 24 keeps it in the
# low-megabyte range.  Larger depths would need a sparser representation.
MAX_DEPTH = 24

DEFAULT_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class ClassificationReport:
    """Descent classes with at most `depth` halving steps, plus what they miss.

    resolved_measure is the exact dyadic density sum(2^-j) over the
    classes; unresolved_residues are the odd residues mod 2^depth not
    covered by any class (even residues are always covered by the "E"
    class).
    """

    depth: int
    classes: tuple[ResidueClass, ...]
    resolved_measure: Fraction
    unresolved_residues: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1 << self.depth
        expected = 1 - Fraction(len(self.unresolved_residues), size)
        if self.resolved_measure != expected:
            raise AssertionError(
                f"measure {self.resolved_measure} inconsistent with "
                f"{len(self.unresolved_residues)} unresolved residues mod 2^{self.depth}"
            )


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one sieve-accelerated range scan.

    failures holds (n, reason) rows and is expected to stay empty; a
    nonempty list is a headline result, not an error.  max_descent_steps
    tracks the simulated (non-skipped) numbers only; skipped numbers have
    class-certified descents of at most depth + a few steps.
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

    def canonical(self) -> dict:
        """Report content without the timing field, for byte-exact comparison."""
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


def _resolved_table(depth: int, classes: list[ResidueClass]) -> bytearray:
    """One byte per residue mod 2^depth: 1 if covered by a class.

    Classes must be processed in nondecreasing modulus order; any overlap
    between two classes then shows up as an already-marked offset.
    """
    size = 1 << depth
    table = bytearray(size)
    for c in sorted(classes, key=lambda c: (c.modulus, c.x)):
        if c.modulus > size:
            raise ValueError(f"class {c.pattern.text!r} has modulus above 2^{depth}")
        if table[c.x]:
            raise AssertionError(f"classes overlap at residue {c.x} mod {c.modulus}")
        count = size // c.modulus
        table[c.x :: c.modulus] = b"\x01" * count
    return table


def classify_depth(depth: int) -> ClassificationReport:
    """Classify the naturals by descent depth: all classes with j <= depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")
    classes = [residue_for_pattern(t) for t in iter_minimal_pattern_texts(max_j=depth)]
    classes.sort(key=lambda c: (len(c.pattern), c.x))
    table = _resolved_table(depth, classes)
    size = 1 << depth
    unresolved = [r for r in range(1, size, 2) if not table[r]]
    covered = table.count(1)
    if covered + len(unresolved) != size:
        raise AssertionError("an even residue escaped the E class")
    measure = sum((Fraction(1, c.modulus) for c in classes), Fraction(0))
    return ClassificationReport(
        depth=depth,
        classes=tuple(classes),
        resolved_measure=measure,
        unresolved_residues=tuple(unresolved),
    )


# ---------------------------------------------------------------------------
# sieve scan


def _scan_block(
    lo: int, hi: int, resolved: bytes, mask: int, step_cap: int
) -> tuple[int, int, list[tuple[int, str]], int, int | None]:
    """Scan one contiguous block: count resolved residues, run the kernel on the rest."""
    verified = 0
    skipped = 0
    failures: list[tuple[int, str]] = []
    max_steps = 0
    max_n: int | None = None
    for n in range(lo, hi + 1):
        if resolved[n & mask]:
            skipped += 1
            continue
        try:
            steps = descent_length(n, step_cap)
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


_WORKER_STATE: dict = {}


def _scan_worker_init(resolved: bytes, mask: int, step_cap: int) -> None:
    _WORKER_STATE["args"] = (resolved, mask, step_cap)


def _scan_worker(block: tuple[int, int]):
    resolved, mask, step_cap = _WORKER_STATE["args"]
    return _scan_block(block[0], block[1], resolved, mask, step_cap)


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

    Numbers whose residue mod 2^depth belongs to a known class are counted
    as skipped (their descent is certified by the class algebra); the rest
    are simulated.  depth = 0 disables the sieve.  The report is
    deterministic for any worker count: blocks are merged in range order.
    """
    if lo < 2:
        raise ValueError("scan range must start at 2 or above")
    if hi < lo:
        raise ValueError("empty scan range")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")

    if depth == 0:
        resolved: bytes = b"\x00"
        mask = 0
    else:
        unresolved = classify_depth(depth).unresolved_residues
        # every residue but the unresolved odd ones is covered by a class
        table = bytearray(b"\x01") * (1 << depth)
        for r in unresolved:
            table[r] = 0
        resolved = bytes(table)
        mask = (1 << depth) - 1

    blocks = [(a, min(a + block_size - 1, hi)) for a in range(lo, hi + 1, block_size)]
    t0 = time.perf_counter()
    if workers == 1 or len(blocks) == 1:
        results = [_scan_block(a, b, resolved, mask, step_cap) for a, b in blocks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_scan_worker_init,
            initargs=(resolved, mask, step_cap),
        ) as pool:
            results = list(pool.map(_scan_worker, blocks))
    wall = time.perf_counter() - t0

    verified = 0
    skipped = 0
    failures: list[tuple[int, str]] = []
    max_steps = 0
    max_n: int | None = None
    for bv, bs, bf, bmax, bn in results:
        verified += bv
        skipped += bs
        failures.extend(bf)
        if bmax > max_steps:
            max_steps = bmax
            max_n = bn
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


def twin_check(n: int, step_cap: int = DEFAULT_STEP_CAP) -> TwinRecord:
    """Verify that n + 2^j repeats n's descent pattern exactly.

    Along the way the value gap is checked at every step: after a O-steps
    and b E-steps it must equal 3^a * 2^(j-b), which lands on 3^i once
    both descents finish.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("twin check is defined for odd n >= 3")
    tr = descent_trace(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    twin = n + (1 << j)
    v, v2 = n, twin
    a = b = 0
    for ch in tr.pattern.text:
        gap = 3**a * (1 << (j - b))
        if v2 - v != gap:
            raise AssertionError(f"twin gap {v2 - v} != 3^{a}*2^{j - b} before step {a + b + 1}")
        if ch == "O":
            if not (v & 1 and v2 & 1):
                raise AssertionError(f"parity mismatch at step {a + b + 1} of twin of {n}")
            v, v2 = 3 * v + 1, 3 * v2 + 1
            a += 1
        else:
            if v & 1 or v2 & 1:
                raise AssertionError(f"parity mismatch at step {a + b + 1} of twin of {n}")
            v, v2 = v >> 1, v2 >> 1
            b += 1
    if v != tr.first_lower or v2 - v != 3**i or v2 >= twin:
        raise AssertionError(f"twin of {n} did not land at first_lower + 3^{i}")
    return TwinRecord(
        n=n,
        twin=twin,
        pattern=tr.pattern,
        i=i,
        j=j,
        first_lower=tr.first_lower,
        twin_first_lower=v2,
    )
