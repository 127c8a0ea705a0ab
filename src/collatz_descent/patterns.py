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
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator

from .errors import DepthTooLarge, NotADescent, UnrealizablePattern

# typing.TYPE_CHECKING without importing typing, which every start would pay for
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class _Record:
    """Base of the package's types that are not tuples: fields in __slots__, named in _fields.

    Two records are equal when they are of one type with equal fields,
    and then hash alike.  A record is frozen: __init__ binds its arguments,
    by position or keyword, to _fields as a function of those parameters
    would, raising TypeError on a missing, unknown or repeated field, and
    assigning or deleting a field afterwards raises AttributeError.  A type
    that checks itself does so after super().__init__.  _replace copies a
    record with some fields changed, and __reduce__ is how pickle, copy and
    deepcopy rebuild one, all through __init__, so a type that checks
    itself checks its copies too.  No package code calls either; they are
    library API, which tests/test_records.py covers.

    DescentPattern and core.DescentTrace set their fields directly in an
    __init__ of their own: descent_trace builds one of each per call, and
    binding through this one made it nearly twice as slow.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        # an extra positional argument or a repeated field leaves values short
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes each of its fields {self._fields} once")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DescentPattern(_Record):
    """A validated step word: either the single word "E" or an odd-start word.

    Structural rules (checked by :meth:`parse`):

    * nonempty, characters O/E only;
    * the word is exactly "E" (even starts descend in one step), or it
      starts with O;
    * every O is immediately followed by an E (3n+1 of an odd n is even);
    * the final step is an E (a descent always ends on a halving).
    """

    __slots__ = _fields = ("text", "i", "j")

    def __init__(self, text: str, i: int, j: int) -> None:
        # one is built per descent, so each field is set directly (see _Record)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "i", i)  # number of O steps
        object.__setattr__(self, "j", j)  # number of E steps

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

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text


def _as_pattern(p: DescentPattern | str) -> DescentPattern:
    return p if isinstance(p, DescentPattern) else DescentPattern.parse(p)


class ResidueClass(namedtuple("ResidueClass", "pattern i j m x modulus y0")):
    """All starting numbers sharing one descent pattern: n = modulus*k + x.

    Invariants: modulus = 2^j, 0 <= x < modulus, x odd unless the pattern
    is "E" (then x = 0), 3^i*x + m divisible by 2^j, and
    y0 = (3^i*x + m) / 2^j is the first lower value of the smallest member.
    The member for k = 0 is x itself; n = 0 and n = 1 are excluded from
    membership everywhere.
    """

    __slots__ = ()

    def member(self, k: int) -> int:
        """The k-th starting number of this class."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.modulus * k + self.x


class FeasibilityRow(namedtuple("FeasibilityRow", "e_ops o_ops result length remark")):
    """One row of the step-count feasibility table."""

    __slots__ = ()


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
    from j = max(i+1, previous feasible j), with 0 as the previous at
    i = 0; afterwards each i starts one past the previous feasible j.
    Rows come out ordered by length: each i's first length is above the
    previous i's last.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    rows: list[FeasibilityRow] = []
    prev_jmin = 0
    for i in range(0, max_length + 1):
        jmin = _min_descending_j(i)
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
    return rows


def pattern_constants(p: DescentPattern | str) -> tuple[int, int, int]:
    """Fold a pattern into its affine constants (i, j, m).

    Maintains value = (3^a * n + c) / 2^b over the steps: an E increments
    b, an O maps c -> 3c + 2^b and increments a.  The identity
    end_value(n) = (3^i*n + m) / 2^j holds for every n that realizes the
    pattern.  The fold computes m alone; i and j are the pattern's counts.
    """
    pat = _as_pattern(p)
    c = 0
    pow2b = 1
    for ch in pat.text:
        if ch == "O":
            c = 3 * c + pow2b
        else:
            pow2b <<= 1
    return pat.i, pat.j, c


def _halving_words(k: int) -> list[list[tuple[str, int, int, int]]]:
    """The first t halvings of every residue, for t = 0..k: levels[t][l] = (word, 3^c, e, g).

    From any v = 2^t*h + l, the steps up to and including the t-th halving
    follow l's parities alone: they spell word, c of its letters O (each
    with its forced E), and end at 3^c*h + e.  Built level by level, each
    doubling the one before: the residues l and l + 2^t share their first
    t halvings, after which 2^(t+1)*h' + l + bit*2^t stands at
    2*3^c*h' + w with w = e + bit*3^c, and w's parity picks the next step.

    g guards descent_length's (core) jump over the word from v toward a
    lower n.  After its s-th halving, with c_s O-steps before it, the walk
    is at (3^c_s*v + b)/2^s for some b >= 0, and values after an O-step
    exceed the one before it.  g is the smallest integer with
    2^g*3^c_s >= 2^s at every s <= t, so v >> g > n, that is
    v >= 2^g*(n + 1), keeps every value of the word above n.  Bit lengths
    give it: the smallest g with 2^g*3^c >= 2^s is s + 1 less the bit
    length of 3^c, since 3^c is a power of 2 only at c = 0.
    """
    levels = [[("", 1, 0, 0)]]
    for t in range(k):
        level = []
        for bit in (0, 1):
            for word, p, e, g in levels[t]:
                w = e + bit * p
                if w & 1:
                    word, p, w = word + "O", 3 * p, 3 * w + 1
                # halving t + 1, after the word's O-steps so far
                level.append((word + "E", p, w >> 1, max(g, t + 2 - p.bit_length())))
        levels.append(level)
    return levels


# Halvings per lookup: replay_class reads a class's word this many
# halvings at a time, and descent_length (core) jumps by the words of the
# last level.  Swept for the jumps over K = 4..10 with the scan-d16 and
# scan-deep benchmark workloads (3 runs of 5 s each, Python 3.11 on a
# 2-vCPU machine): scan-d16's median wall was 0.33-0.35 s at every K,
# against 0.41 s without jumps; scan-deep's was 0.208 s at K = 8 and
# 0.219-0.233 s at the others, against 0.261 s.
_WORD_K = 8
_WORD_MASK = (1 << _WORD_K) - 1
_HALVING_WORDS = _halving_words(_WORD_K)


def replay_class(x: int, j: int, i: int, m: int) -> tuple[str, int, int, int, int, int]:
    """The class 2^j*k + x replayed from x, as (pattern, i, j, m, x, y0).

    The pattern is the parity word of x's own first j halvings: by Terras'
    bijection x mod 2^j fixes that word for every member.  It is read off
    _HALVING_WORDS, the j mod 8 leading halvings in one lookup and each
    further 8 in another.  The replay must take i O-steps and land on the
    first lower value y0 = (3^i*x + m) / 2^j.
    """
    t = j % _WORD_K
    text, p, e, _ = _HALVING_WORDS[t][x & ((1 << t) - 1)]
    v = p * (x >> t) + e
    words = _HALVING_WORDS[_WORD_K]
    for _ in range(j // _WORD_K):
        word, p, e, _ = words[v & _WORD_MASK]
        text += word
        v = p * (v >> _WORD_K) + e
    y0 = (3**i * x + m) >> j
    if v != y0 or len(text) != i + j:
        raise AssertionError(f"replay of {x} mod 2^{j} leaves its class")
    return text, i, j, m, x, y0


def _resolved_class(text: str, i: int, j: int, m: int, x: int, y0: int) -> ResidueClass:
    """The ResidueClass of a class as replay_class returns it."""
    pattern = DescentPattern(text=text, i=i, j=j)
    return ResidueClass(pattern=pattern, i=i, j=j, m=m, x=x, modulus=1 << j, y0=y0)


def residue_for_pattern(p: DescentPattern | str) -> ResidueClass:
    """Solve for the residue class whose members trace exactly this pattern.

    The end value (3^i*x + m) / 2^j must be an integer, so
    x = -m * 3^(-i) (mod 2^j), and by Terras' bijection that residue is
    the only one whose members trace the pattern.  The class is built by
    replaying x's first j halvings, which must give back the pattern.

    Raises NotADescent when 2^j <= 3^i (the end value cannot fall below
    the start for the class's large members) and when the smallest member
    x >= 2 fails to end below itself.  Note that for patterns containing
    a proper prefix that already descends, the class describes the
    parity path of its members rather than their first descent;
    enumerate_minimal_patterns never emits such patterns.
    """
    pat = _as_pattern(p)
    i, j, m = pattern_constants(pat)
    pow3i = 3**i
    modulus = 1 << j
    if modulus <= pow3i:
        raise NotADescent(
            f"{pat.text!r}: 2^{j} - 3^{i} = {modulus - pow3i} <= 0, end value never drops below start"
        )
    x = -m * pow(pow3i, -1, modulus) % modulus
    c = _resolved_class(*replay_class(x, j, i, m))
    if x >= 2 and c.y0 >= x:
        # Only x in {0, 1} may fail to drop (the 1-4-2-1 loop).
        raise NotADescent(f"{pat.text!r}: smallest member {x} ends at {c.y0} >= {x}")
    if c.pattern.text != pat.text:
        raise UnrealizablePattern(f"{pat.text!r}: residue {x} mod 2^{j} traces {c.pattern.text!r}")
    return c


def iter_minimal_pattern_texts(max_j: int) -> Iterator[str]:
    """Yield every minimal descent pattern with at most max_j E-steps.

    Minimal: no proper prefix has 2^(E so far) > 3^(O so far).  A prefix
    with positive margin already sends every sufficiently large class
    member below its start, so any extension of it can never be the first
    descent of a whole residue class (this is what disqualifies the
    length-6 words starting with the shortest cycle OEE).  Patterns are
    emitted in depth-first order with E explored before O.  The package
    generates its classes with the parity-tree walk (unresolved_leaves);
    this word-by-word route is kept as its independent reference.
    """
    if max_j < 1:
        raise ValueError("max_j must be >= 1")
    limit = 1 << max_j
    # prefixes ending in E, from the empty root, with 3^(O count) and 2^(E
    # count); each has margin <= 0.  An O always takes its forced E along.
    stack = [("", 1, 1)]
    while stack:
        text, pow3a, pow2b = stack.pop()
        if pow2b < limit:
            stack.append((text + "OE", 3 * pow3a, 2 * pow2b))
            if 2 * pow2b > pow3a:
                # first positive margin: a complete minimal descent pattern
                yield text + "E"
            else:
                stack.append((text + "E", pow3a, 2 * pow2b))


class UnresolvedLeaves(_Record):
    """The parity tree to `depth` halvings: its open leaves and its pruned classes.

    Leaf t is the odd residue r = residues[t] with a = o_counts[t] and
    e = ends[t]: every n = 2^depth*h + r takes a O-steps and depth E-steps
    with every value strictly above n, and then stands at 3^a*h + e.
    Residues are sorted.  Pruned class t is the minimal descent class
    2^class_j[t]*k + class_x[t] with class_i[t] O-steps and the paper's
    adder class_m[t], sorted by j, then x.  Depth 0 has the single trivial
    leaf r = 0, a = 0, e = 0 and no class.  depth is an int; residues,
    ends, class_x and class_m are array('Q'); o_counts, class_j and
    class_i are bytes.

    Building one checks it, so a copy made by _replace is checked too:
    every leaf has 2^depth <= 3^a, the smallest member x >= 2 of every
    class ends below x (else NotADescent), and the classes and the leaves
    partition the residues mod 2^depth.

    This is also the classification of the naturals to `depth` halvings.
    replay is the one replay pass: it reads each class's pattern and y0
    off these arrays and keeps only those two, a str and an array('Q')
    entry a class.  reports.classify_report renders the class table from
    them and the class arrays, and classes zips them with the arrays into
    ResidueClass objects.  classes, resolved_measure and
    unresolved_residues give the library the same facts as objects, a
    fraction and a tuple.
    """

    __slots__ = _fields = ("depth", "residues", "o_counts", "ends", "class_x", "class_j", "class_i", "class_m")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        depth, residues, o_counts = self.depth, self.residues, self.o_counts
        # 3^a grows with a, so the leaf with the fewest O-steps decides them all
        a = min(o_counts, default=depth)
        if 3**a < 1 << depth:
            r = residues[o_counts.index(a)]
            raise AssertionError(f"leaf {r} mod 2^{depth} takes {a} O-steps, and 3^{a} < 2^{depth}")
        for x, j, i, m in zip(self.class_x, self.class_j, self.class_i, self.class_m):
            y0 = (3**i * x + m) >> j
            if y0 >= x >= 2:
                raise NotADescent(f"smallest member {x} of class mod 2^{j} ends at {y0}")
        covered = sum(1 << (depth - j) for j in self.class_j)
        if covered + len(residues) != 1 << depth:
            raise AssertionError(
                f"classes cover {covered} and {len(residues)} leaves are open, not 2^{depth} residues"
            )

    def replay(self) -> tuple[list[str], array]:
        """The classes' pattern texts as a list of str, and their first lower values y0 as an array('Q').

        Each class goes through replay_class once per call, in the arrays'
        order, so a class that fails its check raises before the call
        returns.  Of each replayed tuple only what the class arrays lack is
        kept: its text and its y0, which is at most x and so fits 64 bits.
        """
        texts, y0s = [], array("Q")
        for c in map(replay_class, self.class_x, self.class_j, self.class_i, self.class_m):
            texts.append(c[0])
            y0s.append(c[5])
        return texts, y0s

    @property
    def classes(self) -> tuple[ResidueClass, ...]:
        """The pruned classes as ResidueClass objects, sorted by j, then x.

        That is the arrays' order, and the order of length, then x: a
        minimal class has j = bitlen(3^i), so each j holds one O-count i,
        and i + j grows with j.  Each read runs replay once and zips its
        texts and y0s with the class arrays.
        """
        texts, y0s = self.replay()
        return tuple(map(_resolved_class, texts, self.class_i, self.class_j, self.class_m, self.class_x, y0s))

    @property
    def resolved_measure(self) -> Fraction:
        """The exact density sum(2^-j) of the classes.

        The classes and the open leaves partition the residues mod
        2^depth, so the classes cover all but the leaves.
        """
        from fractions import Fraction

        return Fraction((1 << self.depth) - len(self.residues), 1 << self.depth)

    @property
    def unresolved_residues(self) -> tuple[int, ...]:
        """The odd residues mod 2^depth that no class covers, sorted."""
        return tuple(self.residues)


def unresolved_leaves(depth: int) -> UnresolvedLeaves:
    """Walk the parity tree to `depth` halvings, level by level.

    A node is a residue x mod 2^b whose members n = 2^b*h + x stand at
    3^a*h + e after their first b halvings, a of them after an O-step.
    Bit b of n fixes the parity of that value, so each node has two
    children one halving deeper: x and x + 2^b go on from w = e and
    w = e + 3^a, an odd w becomes (3w + 1)/2 and an even w is halved, the
    rule of _halving_words.  As 3^a is odd, one parity test settles both.
    The odd child never resolves (2^b <= 3^a gives 2^(b+1) < 3^(a+1)); the
    even child whose prefix first reaches 2^(b+1) > 3^a is a resolved
    class, pruned with the adder m = (y0 << (b+1)) - 3^a*x of its smallest
    member x, which ends at y0 = w/2.  The nodes that reach b = depth are
    the open leaves.  Each level keeps its x-children ahead of its
    (x + 2^b)-children, so every level, the leaves included, stays sorted
    by residue, and so do the classes it prunes: the class arrays come
    out sorted by j, then x.  This is Terras' parity-vector bijection: the
    pruned nodes are exactly the minimal classes with j <= depth, the
    leaves the unresolved residues.  Every node has one open child, and a second
    where 2^(b+1) <= 3^a, so each level's arrays are allocated once at
    their final size: the x-children fill them from the front, the
    (x + 2^b)-children from the back, which is then reversed.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pow3 = [3**a for a in range(depth + 1)]
    # one level: residues x mod 2^b, O-counts a and ends e, each with 2^b <= 3^a
    xs, o_counts, ends = array("Q", [0]), bytearray(b"\x00"), array("Q", [0])
    class_x, class_j, class_i, class_m = array("Q"), bytearray(), bytearray(), array("Q")
    for b in range(depth):
        pow2b = 1 << b
        pow2nb = pow2b << 1
        # the level's classes that are (x + 2^b)-children, put after its x-children's
        high_x, high_m = array("Q"), array("Q")
        # The level is sized from the O-counts with two open children: grown
        # by appends, its arrays were reallocated many times, and where glibc
        # put the next ones swung a depth-22 scan's peak RSS by about 1 MB
        # with the size of unrelated source text
        two = bytes(pow2nb <= p for p in pow3).ljust(256, b"\x01")
        size = len(xs) + o_counts.translate(two).count(1)
        new_x, new_o, new_e = array("Q", [0]) * size, bytearray(size), array("Q", [0]) * size
        lo, hi = 0, size
        for x, a, e in zip(xs, o_counts, ends):
            p = pow3[a]
            if e & 1:
                new_x[lo] = x
                new_o[lo] = a + 1
                new_e[lo] = (3 * e + 1) >> 1
                lo += 1
                x |= pow2b
                e += p
                if pow2nb <= p:
                    hi -= 1
                    new_x[hi] = x
                    new_o[hi] = a
                    new_e[hi] = e >> 1
                    continue
                xs_of, ms_of = high_x, high_m
            else:
                hi -= 1
                new_x[hi] = x | pow2b
                new_o[hi] = a + 1
                new_e[hi] = (3 * (e + p) + 1) >> 1
                if pow2nb <= p:
                    new_x[lo] = x
                    new_o[lo] = a
                    new_e[lo] = e >> 1
                    lo += 1
                    continue
                xs_of, ms_of = class_x, class_m
            # the even child x, at w = e, first descends here: a resolved class,
            # listed among the level's x- or (x + 2^b)-children
            xs_of.append(x)
            class_j.append(b + 1)
            class_i.append(a)
            ms_of.append((e << b) - p * x)
        class_x += high_x
        class_m += high_m
        # the previous level is freed before the reversal's copies are made
        xs, o_counts, ends = new_x, new_o, new_e
        for level in xs, o_counts, ends:
            tail = level[lo:]
            tail.reverse()
            level[lo:] = tail
    return UnresolvedLeaves(
        depth=depth,
        residues=xs,
        o_counts=bytes(o_counts),
        ends=ends,
        class_x=class_x,
        class_j=bytes(class_j),
        class_i=bytes(class_i),
        class_m=class_m,
    )


# Deepest walk for enumerate (length 47).  Open leaves, 17 bytes each, grow
# about 1.9x per level: 1.04 M at 26 halvings, some 1.5 G at 37 (length 60).
MAX_ENUMERATE_DEPTH = 29


def enumerate_minimal_patterns(length: int) -> list[ResidueClass]:
    """All minimal descent classes of exactly the given length, sorted by x.

    A minimal class with i O-steps has the smallest j with 2^j > 3^i, so
    length = i + bitlen(3^i), which grows with i: at most one i fits.  Its
    classes are the ones the parity-tree walk prunes at j halvings, which
    it stores sorted by x.
    Empty when no i fits (for example lengths 2, 4, 5, 7 and 40); raises
    DepthTooLarge, before walking, when j > MAX_ENUMERATE_DEPTH.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    # i + bitlen(3^i) strictly increases, so the first i reaching length is found by bisection
    i = bisect_left(range(length), length, key=lambda i: i + _min_descending_j(i))
    j = length - i
    if _min_descending_j(i) != j:
        return []
    if j > MAX_ENUMERATE_DEPTH:
        raise DepthTooLarge(
            f"length {length} needs {j} halvings, above the maximum {MAX_ENUMERATE_DEPTH}"
        )
    leaves = unresolved_leaves(j)
    return [
        _resolved_class(*replay_class(x, cj, ci, m))
        for x, cj, ci, m in zip(leaves.class_x, leaves.class_j, leaves.class_i, leaves.class_m)
        if cj == j
    ]


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
    if i < 0:
        raise ValueError("i must be >= 0")
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
    return residue_for_pattern("OE" * i + "E" * (j - i))
