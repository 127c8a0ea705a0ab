"""Symbolic algebra of first-descent step patterns.

A descent pattern is the word over {O, E} that a starting number traces
until it first drops strictly below its start (O = 3n+1 step, E = n/2
step).  Every pattern determines an affine form

    end_value(n) = (3^i * n + m) / 2^j

with i O-steps, j E-steps and an adder constant m accumulated from the
"+1" of each O-step.  Solving the parity constraints pins the starting
numbers of a pattern to a single residue class 2^j*k + x, which is what
makes exhaustive verification sievable.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Union

from .errors import NotADescent, UnrealizablePattern


class StepKind(str, Enum):
    """One application of the Collatz function: O for 3n+1, E for n/2."""

    O = "O"
    E = "E"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DescentPattern:
    """A validated step word: either the single word "E" or an odd-start word.

    Structural rules (checked by :meth:`parse`):

    * nonempty, characters O/E only;
    * the word is exactly "E" (even starts descend in one step), or it
      starts with O;
    * every O is immediately followed by an E (3n+1 of an odd n is even);
    * the final step is an E (a descent always ends on a halving).
    """

    text: str
    i: int  # number of O steps
    j: int  # number of E steps

    @classmethod
    def parse(cls, text: str) -> "DescentPattern":
        if not isinstance(text, str) or not text:
            raise ValueError("pattern must be a nonempty string of 'O'/'E' characters")
        if set(text) - {"O", "E"}:
            raise ValueError(f"pattern contains characters other than 'O'/'E': {text!r}")
        if text != "E":
            if text[0] != "O":
                raise UnrealizablePattern(
                    f"{text!r}: an even start already descends after one E; "
                    "longer patterns must start with O"
                )
            if "OO" in text:
                raise UnrealizablePattern(f"{text!r}: O after O is impossible (3n+1 is even)")
            if text[-1] != "E":
                raise UnrealizablePattern(f"{text!r}: a descent cannot end on an O step")
        return cls(text=text, i=text.count("O"), j=text.count("E"))

    @property
    def steps(self) -> tuple[StepKind, ...]:
        return tuple(StepKind(c) for c in self.text)

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text


PatternLike = Union[DescentPattern, str]


def _as_pattern(p: PatternLike) -> DescentPattern:
    return p if isinstance(p, DescentPattern) else DescentPattern.parse(p)


@dataclass(frozen=True)
class ResidueClass:
    """All starting numbers sharing one descent pattern: n = modulus*k + x.

    Invariants: modulus = 2^j, 0 <= x < modulus, x odd unless the pattern
    is "E" (then x = 0), 3^i*x + m divisible by 2^j, and
    y0 = (3^i*x + m) / 2^j is the first lower value of the smallest member.
    The member for k = 0 is x itself; n = 0 and n = 1 are excluded from
    membership everywhere.
    """

    pattern: DescentPattern
    i: int
    j: int
    m: int
    x: int
    modulus: int
    y0: int

    def member(self, k: int) -> int:
        """The k-th starting number of this class."""
        return self.modulus * k + self.x

    def first_lower(self, k: int) -> int:
        return first_lower_value(self, k)


class FeasibilityRow(NamedTuple):
    """One row of the step-count feasibility table."""

    e_ops: int
    o_ops: int
    result: int
    length: int
    remark: str


def feasibility_margin(i: int, j: int) -> int:
    """Exact 2^j - 3^i; positive iff i O-steps and j E-steps can end below the start."""
    if i < 0 or j < 0:
        raise ValueError("step counts must be nonnegative")
    return 2**j - 3**i


def _min_descending_j(i: int) -> int:
    """Smallest j with 2^j > 3^i (bit length works because 3^i is never a power of 2)."""
    return (3**i).bit_length()


# Lengths up to this bound get every candidate split listed in the
# feasibility table; beyond it only the splits adjacent to the previous
# feasible one appear.  Frozen so the emitted table is reproducible.
_DENSE_LENGTH_LIMIT = 11


def feasibility_table(max_length: int) -> list[FeasibilityRow]:
    """Feasibility rows for all pattern lengths up to max_length.

    For each O-count i the table walks j upward until 2^j - 3^i first
    turns positive (that unique split is the only one a minimal descent
    of that i can use, since its length-minus-one prefix must still sit
    above the start).  Short lengths (<= 11) are listed densely, starting
    from j = max(i+1, previous feasible j); afterwards each i starts one
    past the previous feasible j.  Rows are ordered by length.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    rows: list[FeasibilityRow] = []
    prev_jmin: int | None = None
    for i in range(0, max_length + 1):
        jmin = _min_descending_j(i)
        if i == 0:
            j_lo = 1
        else:
            dense_lo = max(i + 1, prev_jmin)
            j_lo = dense_lo if i + dense_lo <= _DENSE_LENGTH_LIMIT else prev_jmin + 1
        if i + j_lo > max_length:
            break
        for j in range(j_lo, jmin + 1):
            length = i + j
            if length > max_length:
                break
            result = 2**j - 3**i
            if i == 0:
                remark = "Even number"
            elif (i, j) == (1, 2):
                remark = "Shortest cycle"
            elif result > 0:
                remark = "Possible"
            else:
                remark = "Not possible"
            rows.append(FeasibilityRow(j, i, result, length, remark))
        prev_jmin = jmin
    rows.sort(key=lambda r: r.length)
    return rows


def pattern_constants(p: PatternLike) -> tuple[int, int, int]:
    """Fold a pattern into its affine constants (i, j, m).

    Maintains value = (3^a * n + c) / 2^b over the steps: an E increments
    b, an O maps c -> 3c + 2^b and increments a.  The identity
    end_value(n) = (3^i*n + m) / 2^j holds for every n that realizes the
    pattern.
    """
    pat = _as_pattern(p)
    a = b = 0
    c = 0
    pow2b = 1
    for ch in pat.text:
        if ch == "O":
            c = 3 * c + pow2b
            a += 1
        else:
            b += 1
            pow2b <<= 1
    return a, b, c


def residue_for_pattern(p: PatternLike) -> ResidueClass:
    """Solve for the residue class whose members trace exactly this pattern.

    Walks the pattern keeping the affine form (3^a*x + m) / 2^b of the
    current value over a symbolic start x together with the residue
    pinned so far (x mod 2^w).  Steps following an O are forced even and
    add no information; the first step and each step following an E add
    one binary constraint, so after the walk x is pinned mod 2^j.  The
    tests check the result against the direct congruence
    x = -m * 3^(-i) (mod 2^j) for every minimal pattern with j <= 20.

    Raises NotADescent when 2^j <= 3^i (the end value cannot fall below
    the start for the class's large members) and when the pinned smallest
    member x >= 2 fails to end below itself.  Note that for patterns
    containing a proper prefix that already descends, the class describes
    the parity path of its members rather than their first descent;
    enumerate_minimal_patterns never emits such patterns.
    """
    pat = _as_pattern(p)
    a = b = 0
    m = 0
    pow3a = 1
    pow2b = 1
    x = 0  # residue pinned so far
    w = 0  # number of pinned bits
    pow2w = 1
    for ch in pat.text:
        want_odd = ch == "O"
        numer = pow3a * x + m  # current value is numer / 2^b, exact for pinned x
        if w > b:
            # parity already decided by earlier constraints
            if bool((numer >> b) & 1) != want_odd:
                raise UnrealizablePattern(f"{pat.text!r}: parity contradiction at step {a + b + 1}")
        else:
            # free step: pin one more bit of x to force the wanted parity
            if bool((numer >> b) & 1) != want_odd:
                x += pow2w
            w += 1
            pow2w <<= 1
        if ch == "O":
            m = 3 * m + pow2b
            a += 1
            pow3a *= 3
        else:
            b += 1
            pow2b <<= 1

    if pow2b <= pow3a:
        raise NotADescent(
            f"{pat.text!r}: 2^{b} - 3^{a} = {pow2b - pow3a} <= 0, end value never drops below start"
        )
    numer = pow3a * x + m
    if numer % pow2b:
        raise AssertionError(f"class constant for {pat.text!r} is not divisible by 2^{b}")
    y0 = numer // pow2b
    if x >= 2 and y0 >= x:
        # Only x in {0, 1} may fail to drop (the 1-4-2-1 loop); anything else
        # would contradict the class construction.
        raise NotADescent(f"{pat.text!r}: smallest member {x} ends at {y0} >= {x}")
    return ResidueClass(pattern=pat, i=a, j=b, m=m, x=x, modulus=pow2b, y0=y0)


def iter_minimal_pattern_texts(
    max_length: int | None = None, max_j: int | None = None
) -> Iterator[str]:
    """Yield every minimal descent pattern within the given bounds.

    Minimal: no proper prefix has 2^(E so far) > 3^(O so far).  A prefix
    with positive margin already sends every sufficiently large class
    member below its start, so any extension of it can never be the first
    descent of a whole residue class (this is what disqualifies the
    length-6 words starting with the shortest cycle OEE).  Patterns are
    emitted in depth-first order with E explored before O; at least one
    bound must be supplied.
    """
    if max_length is None and max_j is None:
        raise ValueError("need a length bound or an E-step bound")
    if max_length is not None and max_length < 1:
        raise ValueError("max_length must be >= 1")
    if max_j is not None and max_j < 1:
        raise ValueError("max_j must be >= 1")

    yield "E"  # the even class, the only valid non-O start

    if max_length == 1:
        return

    # chars, O count, E count, 3^a, 2^b; every stacked prefix has margin <= 0
    stack: list[tuple[str, int, int, int, int]] = [("O", 1, 0, 3, 1)]
    while stack:
        text, a, b, pow3a, pow2b = stack.pop()
        if max_length is not None and len(text) >= max_length:
            continue
        if max_j is not None and b >= max_j:
            continue
        if text[-1] == "O":
            # forced E after an O
            children = "E"
        else:
            children = "OE"
        for ch in children:
            if ch == "E":
                na, nb, n3, n2 = a, b + 1, pow3a, pow2b << 1
            else:
                na, nb, n3, n2 = a + 1, b, pow3a * 3, pow2b
            child = text + ch
            if n2 > n3:
                # first positive margin: a complete minimal descent pattern
                if max_length is None or len(child) <= max_length:
                    yield child
                continue
            stack.append((child, na, nb, n3, n2))


@dataclass(frozen=True)
class UnresolvedLeaves:
    """The residues mod 2^depth that no class with j <= depth covers.

    Leaf t is the odd residue residues[t]: every n = residues[t] + 2^depth*k
    takes o_counts[t] O-steps and depth E-steps with every value strictly
    above n, and then stands at (3^o_counts[t] * n + adders[t]) / 2^depth,
    exactly.  Residues are sorted; classes counts the resolved classes the
    walk pruned.  Depth 0 has the single trivial leaf r = 0, a = 0, m = 0.
    """

    depth: int
    residues: array  # 'Q'
    o_counts: bytes
    adders: array  # 'Q'
    classes: int


def unresolved_leaves(depth: int) -> UnresolvedLeaves:
    """Walk the parity tree to `depth` halvings and keep its open leaves.

    A node is a residue x mod 2^b with the affine form (3^a*x + m) / 2^b
    of the value after its a O-steps and b E-steps.  Bit b of x fixes the
    parity of that value, so each node has two children, one halving
    deeper.  A child whose prefix first reaches 2^b > 3^a is a resolved
    class and is pruned, once its smallest member x >= 2 is shown to end
    below x; a node that reaches b = depth is an open leaf.  This is
    Terras' parity-vector bijection: the pruned nodes are exactly the
    minimal classes with j <= depth, the leaves the unresolved residues.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    residues = array("Q")
    o_counts = bytearray()
    adders = array("Q")
    classes = 0
    # x mod 2^b, b, a, 3^a, m; every stacked node has 2^b < 3^a (or is the root)
    stack: list[tuple[int, int, int, int, int]] = [(0, 0, 0, 1, 0)]
    while stack:
        x0, b, a, pow3a, m = stack.pop()
        pow2b = 1 << b
        if b == depth:
            if pow2b > pow3a or (pow3a * x0 + m) % pow2b:
                raise AssertionError(f"leaf {x0} mod 2^{b} breaks its affine form")
            residues.append(x0)
            o_counts.append(a)
            adders.append(m)
            continue
        nb = b + 1
        for x in (x0, x0 | pow2b):
            if ((pow3a * x + m) >> b) & 1:
                na, n3, nm = a + 1, 3 * pow3a, 3 * m + pow2b
            else:
                na, n3, nm = a, pow3a, m
            if (1 << nb) <= n3:
                stack.append((x, nb, na, n3, nm))
                continue
            numer = n3 * x + nm
            if numer % (1 << nb):
                raise AssertionError(f"class constant of {x} mod 2^{nb} is not divisible")
            if x >= 2 and numer >> nb >= x:
                raise NotADescent(f"smallest member {x} of class mod 2^{nb} ends at {numer >> nb}")
            classes += 1
    # sort by residue through one list of (residue, walk index) keys packed
    # into single ints, the least memory a sort of Python objects needs
    shift = len(residues).bit_length()
    low = (1 << shift) - 1
    order = sorted((r << shift) | t for t, r in enumerate(residues))
    return UnresolvedLeaves(
        depth=depth,
        residues=array("Q", (key >> shift for key in order)),
        o_counts=bytes(o_counts[key & low] for key in order),
        adders=array("Q", (adders[key & low] for key in order)),
        classes=classes,
    )


def enumerate_minimal_patterns(length: int) -> list[ResidueClass]:
    """All minimal descent classes of exactly the given length, sorted by x.

    Empty when no minimal pattern of that length exists (for example
    lengths 2, 4, 5 and 7).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    classes = [
        residue_for_pattern(text)
        for text in iter_minimal_pattern_texts(max_length=length)
        if len(text) == length
    ]
    classes.sort(key=lambda c: c.x)
    return classes


def first_lower_value(c: ResidueClass, k: int) -> int:
    """First value below the k-th member: (3^i*(2^j*k + x) + m) / 2^j, exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    numer = 3**c.i * (c.modulus * k + c.x) + c.m
    q, r = divmod(numer, c.modulus)
    if r:
        raise AssertionError(f"non-integer first-lower value for {c.pattern.text!r}, k={k}")
    return q


def subsequent_lower_value(y_k: int, i: int) -> int:
    """First-lower value of the next class member: y_{k+1} = y_k + 3^i."""
    return y_k + 3**i


def alternating_family(i: int) -> ResidueClass:
    """The descent class of (OE)^i followed by trailing E steps, for any i >= 1.

    The trailing E count makes j the smallest value with 2^j > 3^i, and
    the adder closes to m = 3^i - 2^i.  One such class exists for every i,
    which is what keeps the classification tree growing forever.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    j = _min_descending_j(i)
    text = "OE" * i + "E" * (j - i)
    fi, fj, fm = pattern_constants(text)
    closed = 3**i - 2**i
    if (fi, fj) != (i, j) or fm != closed:
        raise AssertionError(f"fold constants {(fi, fj, fm)} disagree with closed form for i={i}")
    return residue_for_pattern(text)
