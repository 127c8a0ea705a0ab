"""The enumerate-solve-table classification, kept as a test oracle.

It reaches the classes of depth J by a route that finds them without
the parity-tree walk (patterns.unresolved_leaves): it enumerates every
minimal pattern text depth first, solves each with residue_for_pattern,
paints a dense 2^J byte table and reads the unresolved odd residues off
it.  Both routes build ResidueClass objects with the same constructor,
which replays x's first j halvings; residue_for_pattern checks that the
replayed word equals the enumerated text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from collatz_descent import ResidueClass, iter_minimal_pattern_texts, residue_for_pattern


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
