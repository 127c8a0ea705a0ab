"""The routes the package replaced, kept as test oracles.

The enumerate-solve-table classification reaches the classes of depth J
by a route that finds them without the parity-tree walk
(patterns.unresolved_leaves): it enumerates every minimal pattern text
depth first, solves each with residue_for_pattern, paints a dense 2^J
byte table and reads the unresolved odd residues off it.  Both routes
build ResidueClass objects with the same constructor, which replays x's
first j halvings; residue_for_pattern checks that the replayed word
equals the enumerated text.

descent_length_reference is the descent kernel before the halving runs:
one step per loop turn, with the descent, cycle and cap checks after
each step.  jump_table_reference builds the kernel's jumps level by level
from the O-count, end value and guard alone, without the words that
patterns._halving_words spells beside them, and replay_reference
replays a class one halving per loop turn, without that table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from collatz_descent import (
    DEFAULT_STEP_CAP,
    CycleDetected,
    ResidueClass,
    StepCapExceeded,
    iter_minimal_pattern_texts,
    residue_for_pattern,
)


class DenseClassification(NamedTuple):
    depth: int
    classes: tuple[ResidueClass, ...]
    resolved_measure: Fraction
    unresolved_residues: tuple[int, ...]


def dense_resolved_table(depth, classes):
    """One byte per residue mod 2^depth: 1 if covered by a class.

    Classes are painted in nondecreasing modulus order, so any overlap
    between two classes shows up as an already-marked offset.
    """
    size = 1 << depth
    table = bytearray(size)
    for c in sorted(classes, key=lambda c: (c.modulus, c.x)):
        assert c.modulus <= size, c.pattern
        assert not table[c.x], f"classes overlap at residue {c.x} mod {c.modulus}"
        table[c.x :: c.modulus] = b"\x01" * (size // c.modulus)
    return table


def dense_classification(depth):
    """classify_depth(depth) as computed before the walk, for depth >= 1."""
    classes = [residue_for_pattern(t) for t in iter_minimal_pattern_texts(max_j=depth)]
    classes.sort(key=lambda c: (len(c.pattern), c.x))
    table = dense_resolved_table(depth, classes)
    size = 1 << depth
    unresolved = tuple(r for r in range(1, size, 2) if not table[r])
    assert table.count(1) + len(unresolved) == size, "an even residue escaped the E class"
    measure = sum((Fraction(1, c.modulus) for c in classes), Fraction(0))
    assert measure == 1 - Fraction(len(unresolved), size), "measure disagrees with the residues"
    return DenseClassification(depth, tuple(classes), measure, unresolved)


def descent_length_reference(n, step_cap=DEFAULT_STEP_CAP, v=0, steps=0):
    """core.descent_length before the halving runs, one step per loop turn."""
    if n < 2:
        raise ValueError("descent is defined for n >= 2")
    if not steps:
        v = n
    elif steps >= step_cap:
        # the cap fell inside the skipped prefix, where no value is <= n
        raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
    while True:
        if v & 1:
            v = 3 * v + 1
        else:
            v >>= 1
        steps += 1
        if v < n:
            return steps
        if v == n:
            raise CycleDetected(f"trajectory of {n} returned to its start after {steps} steps")
        if steps >= step_cap:
            raise StepCapExceeded(f"no value below {n} within {step_cap} steps")


def jump_table_reference(k):
    """core._JUMPS built level by level from (c, e, g), without the halving words.

    Level b holds the first b halvings of each residue mod 2^b; the residues
    l and l + 2^b share them.  g rises to t + 1 - bitlen(3^c_t) at the t-th
    halving, c_t being the O-steps before it.
    """
    pow3 = [3**c for c in range(k + 1)]
    level = [(0, 0, 0)]
    for b in range(k):
        children = []
        for bit in (0, 1):
            for c, e, g in level:
                # 2^(b+1)*h' + l + bit*2^b is at 2*3^c*h' + w after b halvings
                w = e + bit * pow3[c]
                if w & 1:
                    c, w = c + 1, 3 * w + 1
                children.append((c, w >> 1, max(g, b + 2 - pow3[c].bit_length())))
        level = children
    return [(g, pow3[c], e, k + c) for c, e, g in level]


def replay_reference(x, j):
    """x's first j halvings one per loop turn, as replay_class returns them.

    The tuple is (word, i, j, m, x, y0): the O-count i and adder m are folded
    along the word as pattern_constants folds them, and y0 is where the
    halvings end.
    """
    word, i, m, v = "", 0, 0, x
    for b in range(j):
        if v & 1:
            word += "OE"
            i += 1
            m = 3 * m + (1 << b)
            v = (3 * v + 1) >> 1
        else:
            word += "E"
            v >>= 1
    return word, i, j, m, x, v
