"""Exact Collatz dynamics over Python's arbitrary-precision integers.

Single steps, first-descent traces, chained descents and total stopping
times.  Everything here is a pure function; values are immutable and the
step granularity keeps O (3n+1) and E (n/2) separate so trace lengths
line up with the pattern algebra.
"""

from __future__ import annotations

from .errors import CycleDetected, StepCapExceeded
from .patterns import _HALVING_WORDS, _WORD_K, _WORD_MASK, DescentPattern, _Record

# Far above the 96 steps of 27; guards against nontermination only.
DEFAULT_STEP_CAP = 100_000

# the jump over each word of _WORD_K halvings, as (g, 3^c, e, k + c)
_JUMPS = [(g, p, e, len(word)) for word, p, e, g in _HALVING_WORDS[_WORD_K]]


def col_step(n: int) -> tuple[int, str]:
    """One Collatz step and its pattern letter: (n/2, "E") if n is even, (3n+1, "O") if odd."""
    if n < 1:
        raise ValueError("the Collatz function is defined on n >= 1")
    if n & 1:
        return 3 * n + 1, "O"
    return n >> 1, "E"


class DescentTrace(_Record):
    """A concrete trajectory from a start down to its first strictly smaller value.

    values[t] is the value after step t+1; values[-1] == first_lower < start,
    and every earlier value is strictly above the start.
    """

    __slots__ = _fields = ("start", "pattern", "values", "first_lower")

    def __init__(
        self, start: int, pattern: DescentPattern, values: tuple[int, ...], first_lower: int
    ) -> None:
        # one is built per descent, as DescentPattern is
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "first_lower", first_lower)

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

    The kernel's strides.  Each loop turn takes one stride whose values
    all lie above n.  A jump of _WORD_K halvings comes first: the entry of
    v mod 2^_WORD_K in _JUMPS gives the value after them, their steps and
    the guard g of patterns._halving_words, and v >> g > n keeps every
    value of the jump above n.  Otherwise the stride is the run of t
    halvings of v (t its trailing zero count, 0 for an odd v) and the
    O-step after it, taken when the run's odd end v >> t is still above
    n, since then every value of the run is.  The turn adds the stride's
    steps and checks the cap once: no value of the stride can be the
    descent or a return to n, and the cap message names no step index.
    When neither stride fits, the walk lands at the first s with
    v >> s <= n: the bit length of v less that of n, plus 1 if v >> s is
    still above n.  A resumed `steps` already at the cap needs no check
    of its own: a stride raises at the turn's cap check, and a landing
    from v > n has s >= 1, so its cap check, before the cycle check,
    raises.
    """
    if n < 2:
        raise ValueError("descent is defined for n >= 2")
    if not steps:
        if not n & 1:
            return 1
        v, steps = 3 * n + 1, 1
    while True:
        g, p, e, k = _JUMPS[v & _WORD_MASK]
        if v >> g > n:
            # every value of the jump is above n
            v = p * (v >> _WORD_K) + e
        else:
            t = (v & -v).bit_length() - 1
            odd = v >> t
            if odd <= n:
                break
            # the t halvings, all above n, and the O-step from odd
            k = t + 1
            v = 3 * odd + 1
        steps += k
        if steps >= step_cap:
            raise StepCapExceeded(f"no value below {n} within {step_cap} steps")
    s = v.bit_length() - n.bit_length()
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
