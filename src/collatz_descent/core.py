"""Exact Collatz dynamics over Python's arbitrary-precision integers.

Single steps, first-descent traces, chained descents and total stopping
times.  Everything here is a pure function; values are immutable and the
step granularity keeps O (3n+1) and E (n/2) separate so trace lengths
line up with the pattern algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleDetected, StepCapExceeded
from .patterns import DescentPattern

# Far above the 96 steps of 27; guards against nontermination only.
DEFAULT_STEP_CAP = 100_000

# Halvings per jump of descent_length.  Swept over K = 4..10 with the
# scan-d16 and scan-deep benchmark workloads (3 runs of 5 s each, Python
# 3.11 on a 2-vCPU machine): scan-d16's median wall was 0.33-0.35 s at
# every K, against 0.41 s without jumps; scan-deep's was 0.208 s at K = 8
# and 0.219-0.233 s at the others, against 0.261 s.
_JUMP_K = 8
_JUMP_MASK = (1 << _JUMP_K) - 1


def _jump_table(k: int) -> list[tuple[int, int, int, int]]:
    """The jumps of k halvings, one (g, 3^c, e, k + c) per residue l mod 2^k.

    From any v = 2^k*h + l, the steps up to and including the k-th
    halving follow l's parities alone: they are k + c steps, c of them
    O-steps, and end at 3^c*h + e.  After its t-th halving, with c_t
    O-steps before it, the walk is at (3^c_t*v + b)/2^t for some b >= 0,
    and values after an O-step exceed the one before it.  The guard g is
    the smallest integer with 2^g*3^c_t >= 2^t at every t <= k, so
    v >> g > n, that is v >= 2^g*(n + 1), keeps every value of the jump
    above n.  Bit lengths give it: the smallest g with 2^g*3^c >= 2^t is
    t + 1 less the bit length of 3^c, since 3^c is a power of 2 only at
    c = 0.  Built level by level, each level doubling the one before: the
    residues l and l + 2^b share their first b halvings.
    """
    pow3 = [3**c for c in range(k + 1)]
    # level b: (c, e, g) of the first b halvings of each residue mod 2^b, in order
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


_JUMPS = _jump_table(_JUMP_K)


def col_step(n: int) -> tuple[int, str]:
    """One Collatz step and its pattern letter: (n/2, "E") if n is even, (3n+1, "O") if odd."""
    if n < 1:
        raise ValueError("the Collatz function is defined on n >= 1")
    if n & 1:
        return 3 * n + 1, "O"
    return n >> 1, "E"


@dataclass(frozen=True)
class DescentTrace:
    """A concrete trajectory from a start down to its first strictly smaller value.

    values[t] is the value after step t+1; values[-1] == first_lower < start,
    and every earlier value is strictly above the start.
    """

    start: int
    pattern: DescentPattern
    values: tuple[int, ...]
    first_lower: int

    def __len__(self) -> int:
        return len(self.values)


def descent_trace(n: int, step_cap: int = DEFAULT_STEP_CAP) -> DescentTrace:
    """Iterate col_step from n until the first value strictly below n.

    Raises StepCapExceeded if the cap is hit first and CycleDetected if the
    trajectory returns to n (which would be a nontrivial cycle).  n = 1 is
    excluded: its trajectory loops 1-4-2-1 and never descends.
    """
    if n < 2:
        raise ValueError("descent is defined for n >= 2")
    v = n
    chars: list[str] = []
    values: list[int] = []
    while True:
        v, kind = col_step(v)
        chars.append(kind)
        values.append(v)
        if v < n:
            break
        if v == n:
            raise CycleDetected(f"trajectory of {n} returned to its start after {len(values)} steps")
        if len(values) >= step_cap:
            raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
    # the word follows n's own parities, so it is a valid pattern by construction
    text = "".join(chars)
    return DescentTrace(
        start=n,
        pattern=DescentPattern(text, text.count("O"), text.count("E")),
        values=tuple(values),
        first_lower=v,
    )


def descent_length(
    n: int, step_cap: int = DEFAULT_STEP_CAP, v: int = 0, steps: int = 0
) -> int:
    """Number of steps until the first value strictly below n, nothing recorded.

    The scan kernel: same result, exceptions and messages as a walk of one
    step per loop turn that checks descent, cycle and cap after each step,
    as descent_trace does; the tests keep that walk as its reference.  A
    caller that knows the first `steps` values of n's trajectory all lie
    strictly above n may resume from v, the value after them; with
    steps = 0, v is ignored and the walk starts at n.

    Each loop turn takes a stride whose values all lie above n, or lands.
    A jump of _JUMP_K halvings comes first: the entry of v mod 2^_JUMP_K
    (see _jump_table) gives the value after them, the steps they take and
    a guard g, and v >> g > n keeps every value of the jump above n.
    Otherwise the turn strips the run of halvings of v > n with one
    trailing-zero count t, which is 0 for an odd v that a jump or a resume
    left.  If the run's odd end v >> t is still above n, every value of
    the run is, and the turn counts the t halvings and the O-step after
    them.  Either stride ends with one cap check: none of its values can
    be the descent or a return to n, and the cap message names no step
    index, so one check at its last index equals a check at each.
    Otherwise the run lands at the first s with v >> s <= n: s is the bit
    length of v less that of n, plus 1 if v >> s is still above n, since a
    value of smaller bit length than n is below n.  A resumed `steps`
    already at the cap needs no check of its own: a stride raises at its
    cap check, and a landing from v > n has s >= 1, so its cap check,
    which comes before the cycle check, raises.
    """
    if n < 2:
        raise ValueError("descent is defined for n >= 2")
    if not steps:
        if not n & 1:
            return 1
        v, steps = 3 * n + 1, 1
    bits = n.bit_length()
    while True:
        g, p, e, k = _JUMPS[v & _JUMP_MASK]
        if v >> g > n:
            # every value of the jump is above n
            steps += k
            if steps >= step_cap:
                raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
            v = p * (v >> _JUMP_K) + e
            continue
        t = (v & -v).bit_length() - 1
        odd = v >> t
        if odd > n:
            # the t halvings, all above n, and the O-step from odd
            steps += t + 1
            if steps >= step_cap:
                raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
            v = 3 * odd + 1
            continue
        s = v.bit_length() - bits
        if v >> s > n:
            s += 1
        # the values before the landing halving are above n
        if steps + s - 1 >= step_cap:
            raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
        if v >> s == n:
            raise CycleDetected(f"trajectory of {n} returned to its start after {steps + s} steps")
        return steps + s


def chain_descents(n: int, step_cap: int = DEFAULT_STEP_CAP) -> list[DescentTrace]:
    """Descend repeatedly, restarting from each first-lower value, until 1.

    The concatenated traces are exactly the full trajectory of n down to 1,
    so the segment lengths sum to the total stopping time.
    """
    if n < 2:
        raise ValueError("chained descent is defined for n >= 2")
    segments: list[DescentTrace] = []
    v = n
    while v != 1:
        tr = descent_trace(v, step_cap=step_cap)
        segments.append(tr)
        v = tr.first_lower
    return segments


def total_stopping_time(n: int, step_cap: int = DEFAULT_STEP_CAP) -> int:
    """Number of col_step applications to reach 1 (0 for n = 1).

    Deliberately a direct simulation, independent of the descent
    decomposition, so the two can be checked against each other.
    """
    if n < 1:
        raise ValueError("stopping time is defined for n >= 1")
    steps = 0
    v = n
    while v != 1:
        if v & 1:
            v = 3 * v + 1
        else:
            v >>= 1
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(f"{n} did not reach 1 within {step_cap} steps")
    return steps
